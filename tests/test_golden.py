"""Golden outputs: every CLI case on company_a, byte for byte, run in process.

The golden table (CASES) and its byte comparison (check) are in
tools/check_golden.py, which CI also runs against the installed console
script. Each case runs through ismaturity.cli.main in a fresh scratch
directory holding copies of its inputs under bare names, and must match its
golden files under data/company_a/expected/: the exit code, stdout, stderr
and every file the directory then holds, with nothing left that the case
does not declare. The golden files are CLI outputs; they change only with
an intended format change. The tests below also hand check() runners that
go wrong on purpose, so a comparison that checks nothing cannot pass.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ismaturity

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_golden.py"
_spec = importlib.util.spec_from_file_location("check_golden", TOOL)
check_golden = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = check_golden  # dataclasses looks its module up there
_spec.loader.exec_module(check_golden)

CASES = {case.name: case for case in check_golden.CASES}


@pytest.fixture
def in_process(run_cli, monkeypatch):
    """A check_golden runner that calls ismaturity.cli.main in the scratch directory."""

    def run(argv, cwd):
        with monkeypatch.context() as patch:
            patch.chdir(cwd)
            code, out, err = run_cli(*argv)
        return code, out.encode("utf-8"), err.encode("utf-8")

    return run


@pytest.mark.parametrize("name", CASES)
def test_cli_outputs_match_the_golden_files(in_process, name):
    assert check_golden.check(CASES[name], in_process) == []


# compare-modes evaluates each side as assess does: the same plan rule and the same floor
@pytest.mark.parametrize(
    ("comparison", "side", "report"),
    [
        ("compare_modes.json", "independent", "assess_independent.json"),
        ("compare_modes.json", "model", "assess_model.json"),
        ("compare_modes_fixed.json", "model", "assess_model.json"),  # --fixed-level leaves the model floor at 3
    ],
    ids=["independent", "model", "model-beside-a-fixed-level"],
)
def test_compare_modes_agrees_with_assess(comparison, side, report):
    comparison, report = (json.loads((check_golden.EXPECTED / name).read_bytes()) for name in (comparison, report))
    assert (comparison[side], comparison["naive_average"]) == (report["label"], report["naive_average"])


def flip_a_written_byte(out, err, cwd):
    path = cwd / "assess_model.json"
    data = bytearray(path.read_bytes())
    data[100] ^= 1
    path.write_bytes(bytes(data))
    return 0, out, err


def change_an_input(out, err, cwd):
    with open(cwd / "measurements.csv", "a", encoding="utf-8") as handle:
        handle.write("\n")
    return 0, out, err


def leave_a_stray_file(out, err, cwd):
    (cwd / "stray.txt").write_text("")
    return 0, out, err


@pytest.mark.parametrize(
    ("spoil", "difference"),
    [
        (flip_a_written_byte, "assess_model.json differs from assess_model.json at byte 100: "),
        (lambda out, err, cwd: (1, out, err), "exit code 1, expected 0"),
        (lambda out, err, cwd: (0, out, err + b"warning\n"),
         "stderr differs from nothing at byte 0: b'warning\\n', expected b''"),
        (leave_a_stray_file, "stray.txt: written, but not declared"),
        (change_an_input, "measurements.csv: input changed"),
    ],
    ids=["written-byte", "exit-code", "stderr", "undeclared-file", "changed-input"],
)
def test_the_comparison_reports_a_run_that_differs(in_process, spoil, difference):
    def run(argv, cwd):
        code, out, err = in_process(argv, cwd)
        assert code == 0
        return spoil(out, err, cwd)

    differences = check_golden.check(CASES["assess_model"], run)
    assert len(differences) == 1
    assert differences[0].startswith(f"assess_model: {difference}")


def run_tool(tmp_path, *exe):
    """tools/check_golden.py run from outside the checkout, the package on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(Path(ismaturity.__file__).parents[1])}
    return subprocess.run([sys.executable, str(TOOL), *exe], cwd=tmp_path, env=env, capture_output=True, text=True)


def test_the_tool_passes_the_cli_it_is_given(tmp_path):
    result = run_tool(tmp_path, sys.executable, "-m", "ismaturity.cli")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{len(CASES)} of {len(CASES)} golden cases match\n"


def test_the_tool_fails_a_command_that_does_nothing(tmp_path):
    result = run_tool(tmp_path, sys.executable, "-c", "pass")
    assert result.returncode == 1
    assert f"0 of {len(CASES)} golden cases match" in result.stdout
    assert "assess_model: assess_model.json: missing" in result.stdout
    assert "import_survey_into: exit code 0, expected 1" in result.stdout
