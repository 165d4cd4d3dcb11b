"""Golden outputs: every CLI document and stream on company_a, byte for byte.

The files under data/company_a/expected/ are reference outputs of the CLI;
any drift in a document, a text rendering, stdout or stderr fails here, so
they change only with an intended format change. A case without a
<name>.stdout file prints nothing. Commands run from a scratch working
directory with relative output names, so the paths they echo are the same on
every machine.
"""

from pathlib import Path

import pytest

EXPECTED = Path(__file__).parent / "data" / "company_a" / "expected"
TS = "2026-01-05T09:00:00Z"

# (case name, argv with {input} placeholders, output files the command writes)
CASES = [
    (
        "assess_independent",
        ["assess", "--mode", "independent", "--survey", "{survey}", "--ratings", "{ratings}",
         "--applicability", "{applicability}", "--measurements", "{measurements}",
         "--company", "company-a", "--timestamp", TS,
         "--out", "assess_independent.json", "--out-text", "assess_independent.txt"],
        ["assess_independent.json", "assess_independent.txt"],
    ),
    (
        "assess_model",
        ["assess", "--mode", "model", "--applicability", "{applicability}",
         "--measurements", "{measurements}", "--company", "company-a", "--timestamp", TS,
         "--out", "assess_model.json", "--out-text", "assess_model.txt"],
        ["assess_model.json", "assess_model.txt"],
    ),
    (
        "assess_independent_stdout",
        ["assess", "--mode", "independent", "--survey", "{survey}", "--ratings", "{ratings}",
         "--applicability", "{applicability}", "--measurements", "{measurements}",
         "--company", "company-a", "--timestamp", TS],
        [],
    ),
    (
        "report",
        ["report", "{expected}/assess_independent.json", "--out", "report.txt"],
        ["report.txt"],
    ),
    (
        "compare_modes",
        ["compare-modes", "--survey", "{survey}", "--ratings", "{ratings}",
         "--applicability", "{applicability}", "--measurements", "{measurements}",
         "--company", "company-a", "--timestamp", TS,
         "--out", "compare_modes.json", "--out-text", "compare_modes.txt"],
        ["compare_modes.json", "compare_modes.txt"],
    ),
    (
        "stage_plan_build",
        ["stage-plan", "build", "--survey", "{survey}", "--applicability", "{applicability}",
         "--out", "stage_plan.json"],
        ["stage_plan.json"],
    ),
    (
        "stage_plan_diff",
        ["stage-plan", "diff", "default", "{expected}/stage_plan.json", "--out", "stage_plan_diff.json"],
        ["stage_plan_diff.json"],
    ),
    (
        "minimums_risk",
        ["minimums", "build", "--mode", "risk", "--ratings", "{ratings}",
         "--applicability", "{applicability}", "--out", "minimums_risk.json"],
        ["minimums_risk.json"],
    ),
]


def run_case(run_cli, ca_paths, argv):
    """Run one case in the current directory; returns (exit code, stdout, stderr)."""
    names = {name: str(path) for name, path in ca_paths.items()}
    return run_cli(*(arg.format(expected=EXPECTED, **names) for arg in argv))


@pytest.mark.parametrize(("name", "argv", "outputs"), CASES, ids=[case[0] for case in CASES])
def test_cli_outputs_match_the_golden_files(run_cli, ca_paths, tmp_path, monkeypatch, name, argv, outputs):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_case(run_cli, ca_paths, argv)
    assert (code, err) == (0, "")
    stdout = EXPECTED / f"{name}.stdout"
    assert out.encode("utf-8") == (stdout.read_bytes() if stdout.exists() else b"")
    for output in outputs:
        assert (tmp_path / output).read_bytes() == (EXPECTED / output).read_bytes(), output
