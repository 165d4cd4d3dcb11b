"""Any bytes in any input file: every command exits 0, 1 or 2 and never raises, and one that fails prints
nothing on stdout and leaves no output file.

Each example takes one command line, replaces one of the files it reads with
arbitrary bytes or with an edited copy of the company_a file, and runs the
CLI in process. Standard output is strict UTF-8 and standard error escapes
what it cannot encode, as in a Python process on a UTF-8 terminal.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ismaturity import default_catalog
from ismaturity.cli import main
from ismaturity.files import canonical_json, catalog_document

COMPANY_A = Path(__file__).parent / "data" / "company_a"
TS = "2026-01-05T09:00:00Z"

# Command lines; "@name" stands for the file `name`, and "@out" and "@text" are outputs.
COMMANDS = {
    "import-survey": ["import-survey", "@survey", "--catalog", "@catalog", "--out", "@out"],
    "import-survey-into": ["import-survey", "@survey", "--into", "@importance", "--replace", "--out", "@out"],
    "stage-plan-build-survey": [
        "stage-plan", "build", "--survey", "@survey", "--applicability", "@applicability",
        "--catalog", "@catalog", "--out", "@out",
    ],
    "stage-plan-build-importance": ["stage-plan", "build", "--importance", "@importance", "--out", "@out"],
    "stage-plan-diff": ["stage-plan", "diff", "default", "@plan", "--out", "@out"],
    "minimums-build": [
        "minimums", "build", "--ratings", "@ratings", "--applicability", "@applicability",
        "--catalog", "@catalog", "--out", "@out",
    ],
    "assess-independent": [
        "assess", "--mode", "independent", "--survey", "@survey", "--ratings", "@ratings",
        "--applicability", "@applicability", "--measurements", "@measurements", "--catalog", "@catalog",
        "--timestamp", TS, "--out", "@out", "--out-text", "@text",
    ],
    "assess-model": [
        "assess", "--mode", "model", "--applicability", "@applicability", "--measurements", "@measurements",
        "--timestamp", TS, "--out", "@out",
    ],
    "report": ["report", "@report", "--out", "@text"],
    "compare-modes": [
        "compare-modes", "--survey", "@survey", "--ratings", "@ratings", "--applicability", "@applicability",
        "--measurements", "@measurements", "--timestamp", TS, "--out", "@out",
    ],
}
OUTPUTS = {"out", "text"}


def run(argv) -> tuple[int, bytes]:
    """main's exit code on `argv`, and the bytes it wrote to stdout."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    stdout.flush()
    return code, stdout.buffer.getvalue()


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The company_a CSVs and one valid document of each JSON kind the commands read."""
    folder = tmp_path_factory.mktemp("company_a")
    inputs = {name: COMPANY_A / f"{name}.csv" for name in ("survey", "ratings", "applicability", "measurements")}
    written = {name: folder / f"{name}.json" for name in ("importance", "plan", "report")}
    assert run(["import-survey", inputs["survey"], "--out", written["importance"]])[0] == 0
    assert run(["stage-plan", "build", "--importance", written["importance"], "--out", written["plan"]])[0] == 0
    assert run([
        "assess", "--mode", "independent", "--survey", inputs["survey"], "--ratings", inputs["ratings"],
        "--applicability", inputs["applicability"], "--measurements", inputs["measurements"],
        "--timestamp", TS, "--out", written["report"], "--out-text", folder / "report.txt",
    ])[0] == 0
    contents = {name: path.read_bytes() for name, path in {**inputs, **written}.items()}
    contents["catalog"] = canonical_json(catalog_document(default_catalog())).encode("utf-8")
    return contents


# Bytes that mean something to UTF-8, CSV or JSON, besides random ones.
TOKENS = st.sampled_from([
    b"\xff", b"\x00", b"\xef\xbb\xbf", b'"', b"\\", b",", b":", b"{", b"}", b"[", b"]", b"\n", b"\r",
    b"-", b"1e999", b"null", b"true", b"9" * 30, b"1" * 5000, b"\\ud800", b"\\udcff", b"A.5.1.1",
    b"Essential",
])
EDITS = st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 16), st.binary(max_size=8) | TOKENS),
                 min_size=1, max_size=4)


def edited(original: bytes, edits) -> bytes:
    data = original
    for position, cut, insert in edits:
        position %= len(data) + 1
        data = data[:position] + insert + data[position + cut:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_bytes_in_any_input_exit_zero_one_or_two(originals, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    argv = COMMANDS[command]
    inputs = [token[1:] for token in argv if token.startswith("@") and token[1:] in originals]
    target = data.draw(st.sampled_from(inputs), label="input")
    content = data.draw(st.binary(max_size=256) | EDITS.map(lambda edits: edited(originals[target], edits)))
    with tempfile.TemporaryDirectory() as folder:
        paths = {}
        for name in originals.keys() | OUTPUTS:
            paths[name] = Path(folder) / name
            if name in originals:
                paths[name].write_bytes(content if name == target else originals[name])
        code, stdout = run([paths[token[1:]] if token.startswith("@") else token for token in argv])
        written = [name for name in OUTPUTS if paths[name].exists()]
    event(f"{command} on a changed {target}: exit {code}")
    assert code in (0, 1, 2)
    if code != 0:  # a failed command prints nothing and writes nothing
        assert (stdout, written) == (b"", [])
