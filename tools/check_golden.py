"""The company_a golden table, and the byte comparison that checks a CLI against it.

Usage:

    python tools/check_golden.py EXE...

EXE... is the command that starts the ismaturity CLI, such as an installed
`ismaturity` console script or `python3 -m ismaturity.cli`. Every case of
CASES runs it once, in a fresh scratch directory that holds copies of the
four company_a CSVs and of the expected/ files the case reads, all under
bare relative names, so any path a message echoes is the same on every
machine. The exit code, stdout, stderr and every file the directory then
holds are compared byte for byte with the case's golden files under
tests/data/company_a/expected/. The script prints each difference, naming
its case, and exits 0 when every case matches, 1 when any differs.

The script uses only the standard library and imports nothing from
ismaturity, so it checks whatever package EXE runs. tests/test_golden.py
runs the same table in process through ismaturity.cli.main.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parents[1] / "tests" / "data" / "company_a"
EXPECTED = DATA / "expected"
INPUTS = ("survey.csv", "ratings.csv", "applicability.csv", "measurements.csv")
TS = "2026-01-05T09:00:00Z"
INDEPENDENT = "--survey survey.csv --ratings ratings.csv --applicability applicability.csv"
ASSESSED = f"--measurements measurements.csv --company company-a --timestamp {TS}"

# (argv, scratch directory) -> (exit code, stdout bytes, stderr bytes)
Runner = Callable[[list[str], Path], tuple[int, bytes, bytes]]


@dataclass(frozen=True)
class Case:
    """One command on company_a and the golden file of everything it leaves.

    `argv` is split on spaces. `stdout` and `stderr` name golden files, None
    for nothing printed; `writes` maps each file the command writes to its
    golden file; `reads` lists the golden files copied in as inputs.
    """

    name: str
    argv: str
    writes: dict[str, str] = field(default_factory=dict)
    stdout: str | None = None
    stderr: str | None = None
    code: int = 0
    reads: tuple[str, ...] = ()


def _same(*names: str) -> dict[str, str]:
    """`writes` for files written under their golden files' names."""
    return {name: name for name in names}


CASES = (
    Case("assess_independent",
         f"assess --mode independent {INDEPENDENT} {ASSESSED}"
         " --out assess_independent.json --out-text assess_independent.txt",
         _same("assess_independent.json", "assess_independent.txt")),
    Case("assess_model",
         f"assess --mode model --applicability applicability.csv {ASSESSED}"
         " --out assess_model.json --out-text assess_model.txt",
         _same("assess_model.json", "assess_model.txt")),
    Case("assess_independent_stdout", f"assess --mode independent {INDEPENDENT} {ASSESSED}",
         stdout="assess_independent.txt"),
    Case("report", "report assess_independent.json --out report.txt", {"report.txt": "assess_independent.txt"},
         reads=("assess_independent.json",)),
    # a model-mode report has no stage-change section
    Case("report_model", "report assess_model.json", stdout="assess_model.txt", reads=("assess_model.json",)),
    # assess_independent.json with one forged `from`: stage changes are rebuilt against the bundled default plan
    Case("report_forged", "report forged_report.json", stderr="forged_report.stderr", code=1,
         reads=("forged_report.json",)),
    # a file that cannot be read is exit 1, naming the file and the system's reason
    Case("report_missing", "report missing.json", stderr="report_missing.stderr", code=1),
    Case("compare_modes",
         f"compare-modes {INDEPENDENT} {ASSESSED} --out compare_modes.json --out-text compare_modes.txt",
         _same("compare_modes.json", "compare_modes.txt")),
    # --fixed-level sets the independent side's floor only; the model side keeps its floor of 3
    Case("compare_modes_fixed",
         f"compare-modes --survey survey.csv --fixed-level 2 --applicability applicability.csv {ASSESSED}"
         " --out compare_modes_fixed.json --out-text compare_modes_fixed.txt",
         _same("compare_modes_fixed.json", "compare_modes_fixed.txt")),
    # model mode with its floor raised to 4: the Essential stage fails, so the label marks the entry stage
    Case("assess_model_fixed",
         f"assess --mode model --fixed-level 4 --applicability applicability.csv {ASSESSED}"
         " --out assess_model_fixed.json --out-text assess_model_fixed.txt",
         _same("assess_model_fixed.json", "assess_model_fixed.txt")),
    Case("stage_plan_build", "stage-plan build --survey survey.csv --applicability applicability.csv"
         " --out stage_plan.json", _same("stage_plan.json"), stdout="stage_plan_build.stdout"),
    Case("stage_plan_diff", "stage-plan diff default stage_plan.json --out stage_plan_diff.json",
         _same("stage_plan_diff.json"), stdout="stage_plan_diff.stdout", reads=("stage_plan.json",)),
    Case("minimums_risk", "minimums build --ratings ratings.csv --applicability applicability.csv"
         " --out minimums_risk.json", _same("minimums_risk.json"), stdout="minimums_risk.stdout"),
    # a complete survey warns of nothing
    Case("import_survey", "import-survey survey.csv --out import_survey.json", _same("import_survey.json"),
         stdout="import_survey.stdout"),
    # the imported database builds the same plan as the survey it came from
    Case("stage_plan_build_importance",
         "stage-plan build --importance import_survey.json --applicability applicability.csv"
         " --out stage_plan.json", _same("stage_plan.json"), stdout="stage_plan_build.stdout",
         reads=("import_survey.json",)),
    # importing the same respondents again is exit 1, and nothing is written
    Case("import_survey_into", "import-survey survey.csv --into import_survey.json --out import_again.json",
         stderr="import_survey_into.stderr", code=1, reads=("import_survey.json",)),
    # an empty path is exit 64, before the survey is read
    Case("import_survey_empty_out", "import-survey survey.csv --out=", stderr="import_survey_empty_out.stderr",
         code=64),
    # a flag the mode does not take is exit 64, in the package's wording rather than argparse's
    Case("assess_model_survey", "assess --mode model --survey survey.csv --measurements measurements.csv",
         stderr="assess_model_survey.stderr", code=64),
    # without the applicability file three applicable controls have no measurement: exit 2
    Case("assess_unmeasured",
         "assess --mode independent --survey survey.csv --fixed-level 3 --measurements measurements.csv",
         stderr="assess_unmeasured.stderr", code=2),
)


def _difference(what: str, found: bytes, golden: str | None) -> str | None:
    """None when `found` is the golden file's bytes; else where the two first part."""
    expected = b"" if golden is None else (EXPECTED / golden).read_bytes()
    if found == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(found, expected)) if a != b), min(len(found), len(expected)))
    return (f"{what} differs from {golden or 'nothing'} at byte {at}:"
            f" {found[at:at + 40]!r}, expected {expected[at:at + 40]!r}")


def check(case: Case, run: Runner) -> list[str]:
    """Run `case` through `run` in a fresh scratch directory; every difference from its golden files.

    Each difference is one line naming the case. The directory must end
    holding its input copies, unchanged, and the declared outputs, nothing else.
    """
    sources = [DATA / name for name in INPUTS] + [EXPECTED / name for name in case.reads]
    inputs = {source.name: source.read_bytes() for source in sources}
    with tempfile.TemporaryDirectory(prefix="golden-") as scratch:
        scratch = Path(scratch)
        for name, data in inputs.items():
            (scratch / name).write_bytes(data)
        code, out, err = run(case.argv.split(), scratch)
        left = {path.name: path.read_bytes() for path in scratch.iterdir()}
    differences = [] if code == case.code else [f"exit code {code}, expected {case.code}"]
    differences += [_difference("stdout", out, case.stdout), _difference("stderr", err, case.stderr)]
    for name in sorted(left.keys() | inputs.keys() | case.writes.keys()):
        if name not in left:
            differences.append(f"{name}: missing")
        elif name in case.writes:
            differences.append(_difference(name, left[name], case.writes[name]))
        elif name in inputs:
            differences.append(None if left[name] == inputs[name] else f"{name}: input changed")
        else:
            differences.append(f"{name}: written, but not declared")
    return [f"{case.name}: {difference}" for difference in differences if difference]


def command(exe: list[str]) -> Runner:
    """A runner that starts `exe` with the case's arguments in the scratch directory."""
    if os.sep in exe[0]:  # a path, relative to here rather than to the scratch directory
        exe = [os.path.abspath(exe[0]), *exe[1:]]

    def run(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
        result = subprocess.run([*exe, *argv], cwd=cwd, capture_output=True)
        return result.returncode, result.stdout, result.stderr

    return run


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/check_golden.py EXE...", file=sys.stderr)
        return 64
    run = command(argv)
    failed = 0
    for case in CASES:
        differences = check(case, run)
        failed += bool(differences)
        for line in differences:
            print(line)
    print(f"{len(CASES) - failed} of {len(CASES)} golden cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
