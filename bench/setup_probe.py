"""Set-up probe, run in a fresh interpreter with the package on PYTHONPATH.

Times `import ismaturity.cli` and the first bundled catalog and stage-plan
loads, then prints them as one JSON line.
"""

import sys
import time

start = time.perf_counter()
before = len(sys.modules)
import ismaturity.cli  # noqa: E402,F401

imported = time.perf_counter()
modules = len(sys.modules) - before
from ismaturity.files import default_catalog, default_stage_plan  # noqa: E402

default_catalog()
default_stage_plan()
loaded = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"setup_s": loaded - start, "import_s": imported - start,
                  "bundled_load_s": loaded - imported, "modules": modules,
                  "package": ismaturity.cli.__file__}))
