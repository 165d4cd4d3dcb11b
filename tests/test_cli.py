"""End-to-end command-line behaviour: exit codes, outputs, determinism."""

import errno
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ismaturity
from ismaturity.cli import main
from ismaturity.files import (
    canonical_json,
    catalog_document,
    default_catalog,
    importance_document,
    load_survey_csv,
    parse_document,
    read_document,
    write_document,
)
from ismaturity.assessment import gap_analysis, misallocation_findings
from ismaturity.importance import ingest_responses
from ismaturity.reporting import STRUCTURED, build_report, parse_report, render_document

import expected_stages
from test_catalog import make_catalog

TS = "2026-01-05T09:00:00Z"


@pytest.fixture
def ca(ca_paths):
    """String paths for passing to the CLI."""
    return {name: str(path) for name, path in ca_paths.items()}


def assess_args(ca, *extra):
    return (
        "assess",
        "--mode", "independent",
        "--survey", ca["survey"],
        "--ratings", ca["ratings"],
        "--applicability", ca["applicability"],
        "--measurements", ca["measurements"],
        "--company", "company-a",
        "--timestamp", TS,
        *extra,
    )


# ---------------------------------------------------------------------------
# Exit codes

def test_no_arguments_is_a_usage_error(run_cli):
    code, _, err = run_cli()
    assert code == 64
    assert "usage" in err


def test_unknown_command_is_a_usage_error(run_cli):
    code, _, _ = run_cli("frobnicate")
    assert code == 64


def test_help_exits_zero(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "COMMAND" in out


def test_model_mode_refuses_survey(run_cli, ca):
    code, _, err = run_cli(
        "assess", "--mode", "model",
        "--survey", ca["survey"], "--measurements", ca["measurements"],
    )
    assert code == 64
    assert "--survey is not allowed" in err


def test_model_mode_refuses_ratings(run_cli, ca):
    code, _, err = run_cli(
        "assess", "--mode", "model",
        "--ratings", ca["ratings"], "--measurements", ca["measurements"],
    )
    assert code == 64
    assert "--ratings is not allowed" in err


def test_independent_mode_needs_survey(run_cli, ca):
    code, _, err = run_cli(
        "assess", "--mode", "independent",
        "--ratings", ca["ratings"], "--measurements", ca["measurements"],
    )
    assert code == 64
    assert "needs --survey" in err


def test_independent_mode_rejects_both_minimum_sources(run_cli, ca):
    code, _, err = run_cli(*assess_args(ca, "--fixed-level", "3"))
    assert code == 64
    assert "not both" in err


@pytest.mark.parametrize("level", ["0", "6"])
@pytest.mark.parametrize(
    "command",
    [
        ("assess", "--mode", "model"),
        ("assess", "--mode", "independent", "--survey", "{survey}"),
        ("compare-modes", "--survey", "{survey}"),
    ],
    ids=["assess-model", "assess-independent", "compare-modes"],
)
def test_fixed_level_out_of_range_is_a_usage_error(run_cli, ca, command, level):
    code, _, err = run_cli(
        *(arg.format(**ca) for arg in command),
        "--measurements", ca["measurements"], "--fixed-level", level,
    )
    assert code == 64
    assert err.endswith(f": error: argument --fixed-level: maturity level {level} outside 1..5\n")


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_misallocation_threshold_below_one_is_a_usage_error(run_cli, ca, threshold):
    code, out, err = run_cli(*assess_args(ca, "--misallocation-threshold", threshold))
    assert (code, out) == (64, "")
    assert f"--misallocation-threshold: misallocation threshold {threshold} is below 1" in err


# files.integer_cell: ASCII digits only, without `_`, as for a CSV cell and --fixed-level
@pytest.mark.parametrize("threshold", ["x", "\u0662", "1_0"], ids=["x", "arabic-indic-2", "underscore"])
def test_misallocation_threshold_that_is_no_integer_is_a_usage_error(run_cli, ca, threshold):
    code, out, err = run_cli(*assess_args(ca, "--misallocation-threshold", threshold))
    assert (code, out) == (64, "")
    assert err.endswith(f": error: argument --misallocation-threshold: invalid int value: {threshold!r}\n")


def test_independent_mode_needs_a_minimum_source(run_cli, ca):
    args = [a for a in assess_args(ca) if a != "--ratings" and a != ca["ratings"]]
    code, _, err = run_cli(*args)
    assert code == 64
    assert "--ratings or --fixed-level" in err


ASSESS_FILES = (
    "--measurements", "{missing}/m.csv", "--applicability", "{missing}/a.csv", "--catalog", "{missing}/c.json",
    "--out", "{tmp}/out.json", "--out-text", "{tmp}/out.txt",
)
ONE_FILE = ("--measurements", "{missing}/m.csv", "--out", "{tmp}/same.txt", "--out-text", "{tmp}/same.txt")
MINIMUMS_FILES = ("--applicability", "{missing}/a.csv", "--catalog", "{missing}/c.json", "--out", "{tmp}/out.json")


@pytest.mark.parametrize(
    ("command", "message"),
    [
        (("assess", "--mode", "model", "--survey", "{missing}/s.csv", *ASSESS_FILES),
         "model mode uses the bundled stage database; --survey is not allowed"),
        (("assess", "--mode", "model", "--ratings", "{missing}/r.csv", *ASSESS_FILES),
         "model mode uses a fixed minimum level; --ratings is not allowed"),
        (("assess", "--mode", "independent", "--ratings", "{missing}/r.csv", *ASSESS_FILES),
         "independent mode needs --survey"),
        (("assess", "--mode", "independent", "--survey", "{missing}/s.csv", "--ratings", "{missing}/r.csv",
          "--fixed-level", "3", *ASSESS_FILES),
         "pass either --ratings or --fixed-level, not both"),
        (("assess", "--mode", "independent", "--survey", "{missing}/s.csv", *ASSESS_FILES),
         "independent mode needs --ratings or --fixed-level"),
        (("compare-modes", "--survey", "{missing}/s.csv", "--ratings", "{missing}/r.csv", "--fixed-level", "3",
          *ASSESS_FILES),
         "pass either --ratings or --fixed-level, not both"),
        (("compare-modes", "--survey", "{missing}/s.csv", *ASSESS_FILES),
         "compare-modes needs --ratings or --fixed-level"),
        (("minimums", "build", "--mode", "risk", *MINIMUMS_FILES), "risk mode needs --ratings"),
        (("minimums", "build", "--mode", "fixed:3", "--ratings", "{missing}/r.csv", *MINIMUMS_FILES),
         "--ratings only applies to risk mode"),
        # one file would hold only the text, and the structured document would be lost
        (("assess", "--mode", "model", *ONE_FILE), "--out and --out-text name the same file: {tmp}/same.txt"),
        (("assess", "--mode", "model", *ONE_FILE[:-1], "{tmp}/./same.txt"),
         "--out and --out-text name the same file: {tmp}/./same.txt"),
        (("compare-modes", "--survey", "{missing}/s.csv", "--fixed-level", "3", *ONE_FILE),
         "--out and --out-text name the same file: {tmp}/same.txt"),
        (("compare-modes", "--survey", "{missing}/s.csv", "--fixed-level", "3", *ONE_FILE[:-1], "{tmp}/./same.txt"),
         "--out and --out-text name the same file: {tmp}/./same.txt"),
    ],
    ids=[
        "model-survey", "model-ratings", "independent-no-survey", "assess-both-minimums",
        "assess-no-minimums", "compare-modes-both-minimums", "compare-modes-no-minimums",
        "minimums-risk-no-ratings", "minimums-fixed-with-ratings", "assess-one-file", "assess-one-file-dot",
        "compare-modes-one-file", "compare-modes-one-file-dot",
    ],
)
def test_usage_errors_come_before_any_file_is_read(run_cli, tmp_path, command, message):
    # every input file named does not exist, so reading any of them first would exit 1
    paths = {"missing": tmp_path / "missing", "tmp": tmp_path}
    code, out, err = run_cli(*(arg.format(**paths) for arg in command))
    assert (code, out, err) == (64, "", f"usage error: {message.format(**paths)}\n")
    assert list(tmp_path.iterdir()) == []


def test_invalid_csv_exits_one_and_names_the_row(run_cli, ca, tmp_path):
    bad = tmp_path / "m.csv"
    bad.write_text("control_id,level\nA.5.1.1,7\n", encoding="utf-8")
    code, _, err = run_cli(*assess_args({**ca, "measurements": str(bad)}))
    assert code == 1
    assert "m.csv" in err and "row 2" in err


def test_unknown_control_in_measurements_exits_one(run_cli, ca, tmp_path, ca_paths):
    # A.5.9.9 parses as an id but the catalog has no such control
    text = ca_paths["measurements"].read_text(encoding="utf-8") + "A.5.9.9,3\n"
    bad = tmp_path / "m.csv"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run_cli(*assess_args({**ca, "measurements": str(bad)}))
    assert code == 1
    assert "A.5.9.9" in err and "not in the catalog" in err


def test_control_id_too_long_for_int_in_measurements_exits_one(run_cli, tmp_path):
    bad = tmp_path / "m.csv"
    bad.write_text("control_id,level\nA.5.1." + "1" * 5000 + ",3\n", encoding="utf-8")
    code, out, err = run_cli("assess", "--mode", "model", "--measurements", bad)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {bad}, row 2: control id 'A.5.1.111")
    assert err.endswith(": control field of 5000 digits is too long\n")


def test_missing_measurement_exits_two(run_cli, ca, tmp_path, ca_paths):
    lines = ca_paths["measurements"].read_text(encoding="utf-8").splitlines()
    shortened = "\n".join(lines[:-1]) + "\n"
    bad = tmp_path / "m.csv"
    bad.write_text(shortened, encoding="utf-8")
    code, _, err = run_cli(*assess_args({**ca, "measurements": str(bad)}))
    assert code == 2
    assert "without measurements" in err


# ---------------------------------------------------------------------------
# import-survey

def test_import_survey_writes_database(run_cli, ca, tmp_path):
    out = tmp_path / "db.json"
    code, msg, _ = run_cli("import-survey", ca["survey"], "--out", out)
    assert code == 0
    assert "7 respondents" in msg
    document = read_document(out, "importance-database")
    assert len(document["responses"]) == 7


@pytest.mark.parametrize(
    ("content", "prefix"),
    [
        (b"respondent_id,control_id,score\nr1,A.5.1.1,\xff\n", ": not UTF-8 text"),
        (b"respondent_id,control_id,score\nr1,A.5.1.1,3\nr1,A.5.1.2," + b"x" * 140_000 + b"\n",
         ", row 3: unreadable CSV"),
    ],
    ids=["undecodable-byte", "field-over-the-csv-limit"],
)
def test_import_survey_rejects_unreadable_csv_bytes(run_cli, tmp_path, content, prefix):
    survey = tmp_path / "survey.csv"
    survey.write_bytes(content)
    code, out, err = run_cli("import-survey", survey, "--out", tmp_path / "db.json")
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {survey}{prefix}")


def test_import_survey_merge_rejects_resubmission_without_replace(run_cli, ca, tmp_path):
    out = tmp_path / "db.json"
    assert run_cli("import-survey", ca["survey"], "--out", out)[0] == 0
    code, _, err = run_cli("import-survey", ca["survey"], "--into", out, "--out", out)
    assert code == 1
    respondents = ", ".join(f"ca-resp-{n}" for n in range(1, 8))
    assert err == (
        f"input error: {ca['survey']}: respondents already in the database: {respondents}"
        " (pass --replace to resubmit)\n"
    )
    code, _, _ = run_cli("import-survey", ca["survey"], "--into", out, "--out", out, "--replace")
    assert code == 0


SURVEY_IDS = ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.12.3.4"]
PADDING = st.sampled_from(["", " ", "\t"])


@st.composite
def survey_csvs(draw):
    """A valid survey CSV over SURVEY_IDS: rows in any order, padded cells, either id spelling, blank lines."""
    scores = draw(st.dictionaries(
        st.text("abr019-_", min_size=1, max_size=4),
        st.dictionaries(st.sampled_from(SURVEY_IDS), st.integers(1, 5), min_size=1),
        max_size=4,
    ))
    rows = draw(st.permutations([(r, cid, score) for r, row in scores.items() for cid, score in row.items()]))
    lines = ["respondent_id,control_id,score"]
    for respondent, cid, score in rows:
        spelling = cid if draw(st.booleans()) else cid.removeprefix("A.")
        lines.append(",".join(draw(PADDING) + cell + draw(PADDING) for cell in (respondent, spelling, str(score))))
        lines += [""] * draw(st.integers(0, 1))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(survey_csvs())
def test_import_survey_writes_the_database_the_library_route_builds(text):
    catalog = make_catalog(SURVEY_IDS)
    with tempfile.TemporaryDirectory() as folder:
        survey, catalog_path, out = (Path(folder) / name for name in ("s.csv", "catalog.json", "db.json"))
        survey.write_text(text, encoding="utf-8")
        write_document(catalog_path, catalog_document(catalog))
        built = canonical_json(importance_document(ingest_responses(load_survey_csv(survey), catalog)))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["import-survey", str(survey), "--catalog", str(catalog_path), "--out", str(out)]) == 0
        assert out.read_bytes() == built.encode("utf-8")


def test_import_survey_replace_without_into_is_usage_error(run_cli, ca, tmp_path):
    code, _, err = run_cli("import-survey", ca["survey"], "--out", tmp_path / "x.json", "--replace")
    assert code == 64
    assert "--into" in err


def test_import_survey_into_with_a_catalog_is_usage_error(run_cli, ca, tmp_path):
    # the database merged into fixes the controls, so a catalog would be silently ignored
    db = tmp_path / "db.json"
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"format_version": "1", "kind": "control-catalog"}), encoding="utf-8")
    assert run_cli("import-survey", ca["survey"], "--out", db)[0] == 0
    code, out, err = run_cli(
        "import-survey", ca["survey"], "--into", db, "--replace", "--catalog", catalog, "--out", db
    )
    assert (code, out) == (64, "")
    assert "--catalog" in err and "--into" in err


# Every command that reads a survey, with the placeholders survey_command fills in.
SURVEY_COMMANDS = pytest.mark.parametrize(
    "command",
    [
        ("import-survey", "{survey}", "--out", "{out}"),
        ("import-survey", "{survey}", "--into", "{db}", "--replace", "--out", "{out}"),
        ("stage-plan", "build", "--survey", "{survey}", "--out", "{out}"),
        ("assess", "--mode", "independent", "--survey", "{survey}", "--fixed-level", "3",
         "--measurements", "{measurements}"),
        ("compare-modes", "--survey", "{survey}", "--fixed-level", "3", "--measurements", "{measurements}"),
    ],
    ids=["import-survey", "import-survey-into", "stage-plan-build", "assess", "compare-modes"],
)


def survey_command(run_cli, ca, tmp_path, command, rows):
    """Run `command` on a survey of the data `rows`; returns the survey's path and (code, out, err)."""
    survey = tmp_path / "s.csv"
    survey.write_text("respondent_id,control_id,score\n" + rows, encoding="utf-8")
    db = tmp_path / "db.json"
    assert run_cli("import-survey", ca["survey"], "--out", db)[0] == 0
    paths = {"survey": survey, "db": db, "out": tmp_path / "out.json", "measurements": ca["measurements"]}
    return survey, run_cli(*(arg.format(**paths) for arg in command))


@SURVEY_COMMANDS
def test_every_survey_command_prints_an_incomplete_respondent_as_one_line(run_cli, ca, tmp_path, command):
    survey, (code, _, err) = survey_command(run_cli, ca, tmp_path, command, "r1,A.5.1.1,3\n")
    warning = f"warning: {survey}: respondent r1 scored 1 of 114 controls (113 missing)\n"
    if command[0] == "import-survey":
        assert (code, err) == (0, warning)
    else:  # the warning prints once the survey is folded, before the plan needs every control scored
        unscored = ", ".join(str(cid) for cid in default_catalog().control_ids()[1:])
        error = f"inconsistent inputs: applicable controls without survey responses: {unscored}\n"
        assert (code, err) == (2, warning + error)


@SURVEY_COMMANDS
def test_survey_control_outside_the_catalog_names_the_survey_file(run_cli, ca, tmp_path, command):
    # A.5.9.9 parses as an id, so only ingesting the rows against the catalog rejects it; r1 scored none of
    # the catalog's controls, but a survey that does not fold prints no warning, only the error
    survey, (code, out, err) = survey_command(run_cli, ca, tmp_path, command, "r1,A.5.9.9,3\n")
    assert (code, out) == (1, "")
    assert err == f"input error: {survey}: survey rows for controls not in the catalog: A.5.9.9\n"


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        ("r1,A.5.1.1,3\n,A.5.1.2,3\n", ", row 3: empty respondent_id"),
        # the respondent is checked before the control id is read
        ("r1,A.5.1.1,3\n,bad,x\n", ", row 3: empty respondent_id"),
        ("r1,A.5.1.1,3\nr1,A.5.1,3\n", ", row 3: control id 'A.5.1' must have three numeric fields"),
        ("r1,A.5.1.1,3\nr1,A.5.1.2,x\n", ", row 3: score 'x' is not an integer"),
        ("r1,A.5.1.1,3\nr1,A.5.1.2,6\n", ", row 3: score 6 outside 1..5"),
        ("r1,A.5.1.1,3\nr1,5.1.1,4\n", ", row 3: duplicate response for (r1, A.5.1.1)"),
        ("r1,A.5.1.1,3\nr1,A.5.1.2\n", ", row 3: expected 3 fields, found 2"),
        # sorted as ids, not as text
        ("r1,A.18.9.9,3\nr1,A.5.9.9,3\n", ": survey rows for controls not in the catalog: A.5.9.9, A.18.9.9"),
        # the catalog check waits for every row, so a row error after an unknown control wins
        ("r1,A.5.9.9,3\nr1,A.5.1.2,7\n", ", row 3: score 7 outside 1..5"),
    ],
    ids=["empty-respondent", "empty-respondent-and-bad-id", "unparsable-id", "non-integer-score",
         "score-out-of-range", "duplicate-in-two-spellings", "wrong-field-count", "two-unknown-controls",
         "row-error-after-unknown"],
)
@SURVEY_COMMANDS
def test_survey_faults_give_one_message_on_every_survey_command(run_cli, ca, tmp_path, command, rows, message):
    survey, result = survey_command(run_cli, ca, tmp_path, command, rows)
    assert result == (1, "", f"input error: {survey}{message}\n")
    assert not (tmp_path / "out.json").exists()


def test_row_order_of_a_survey_leaves_its_importance_document_unchanged(run_cli, ca, ca_paths, tmp_path):
    header, *rows = ca_paths["survey"].read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(11).shuffle(rows)
    permuted = tmp_path / "permuted.csv"
    permuted.write_text(header + "".join(rows), encoding="utf-8")
    documents = []
    for survey in (ca["survey"], permuted):
        out = tmp_path / f"{len(documents)}.json"
        assert run_cli("import-survey", survey, "--out", out)[0] == 0
        documents.append(out.read_bytes())
    assert documents[0] == documents[1]


# ---------------------------------------------------------------------------
# stage-plan

def test_stage_plan_build_from_survey(run_cli, ca, tmp_path):
    out = tmp_path / "plan.json"
    code, msg, _ = run_cli(
        "stage-plan", "build",
        "--survey", ca["survey"], "--applicability", ca["applicability"], "--out", out,
    )
    assert code == 0
    assert "Essential 29, Intermediate 27, Advanced 28, Full 27; excluded 3" in msg
    document = read_document(out, "stage-plan")
    assert sorted(document["excluded"]) == expected_stages.CA_EXCLUDED


def test_stage_plan_build_from_importance_database_matches(run_cli, ca, tmp_path):
    db_path = tmp_path / "db.json"
    run_cli("import-survey", ca["survey"], "--out", db_path)
    via_db = tmp_path / "plan_db.json"
    via_survey = tmp_path / "plan_survey.json"
    assert run_cli(
        "stage-plan", "build",
        "--importance", db_path, "--applicability", ca["applicability"], "--out", via_db,
    )[0] == 0
    assert run_cli(
        "stage-plan", "build",
        "--survey", ca["survey"], "--applicability", ca["applicability"], "--out", via_survey,
    )[0] == 0
    assert via_db.read_bytes() == via_survey.read_bytes()


def first_eight(document):
    document["controls"] = document["controls"][:8]
    kept = {record["id"] for record in document["controls"]}
    document["dependencies"] = [edge for edge in document["dependencies"] if kept.issuperset(edge.values())]


def one_more(document):
    document["controls"].append(dict(document["controls"][0], id="A.18.9.9"))


@pytest.mark.parametrize("edit", [first_eight, one_more], ids=["first-8-controls", "one-more-control"])
def test_stage_plan_build_from_a_database_of_other_controls_exits_two(run_cli, ca, tmp_path, edit):
    db = tmp_path / "db.json"
    assert run_cli("import-survey", ca["survey"], "--out", db)[0] == 0
    document = catalog_document(ismaturity.default_catalog())
    edit(document)
    catalog = tmp_path / "cat.json"
    catalog.write_text(canonical_json(document), encoding="utf-8")
    out = tmp_path / "plan.json"
    code, text, err = run_cli("stage-plan", "build", "--importance", db, "--catalog", catalog, "--out", out)
    assert (code, text) == (2, "")
    bundled = {str(cid) for cid in ismaturity.default_catalog().control_ids()}
    differing = bundled ^ {record["id"] for record in document["controls"]}
    listed = ", ".join(map(str, sorted(map(ismaturity.parse_control_id, differing))))
    assert err == f"inconsistent inputs: {db} and {catalog} cover different controls: {listed}\n"
    assert not out.exists()


def test_stage_plan_build_requires_exactly_one_source(run_cli, ca, tmp_path):
    out = tmp_path / "plan.json"
    code, _, err = run_cli("stage-plan", "build", "--out", out)
    assert code == 64 and "exactly one" in err
    code, _, err = run_cli(
        "stage-plan", "build", "--survey", ca["survey"], "--importance", "x.json", "--out", out
    )
    assert code == 64 and "exactly one" in err


def test_stage_plan_diff_against_default(run_cli, ca, tmp_path):
    plan_path = tmp_path / "plan.json"
    run_cli(
        "stage-plan", "build",
        "--survey", ca["survey"], "--applicability", ca["applicability"], "--out", plan_path,
    )
    out = tmp_path / "diff.json"
    code, text, _ = run_cli("stage-plan", "diff", "default", plan_path, "--out", out)
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[-1] == "11 differences"
    assert len(lines) == 12
    moved = {line.split(":")[0] for line in lines[:-1]}
    assert moved == set(expected_stages.CA_MOVES) | set(expected_stages.CA_EXCLUDED)
    document = read_document(out, "stage-plan-diff")
    assert len(document["deltas"]) == 11


def test_stage_plan_diff_default_against_itself(run_cli):
    code, text, _ = run_cli("stage-plan", "diff", "default", "default")
    assert code == 0
    assert text.strip() == "0 differences"


# ---------------------------------------------------------------------------
# minimums

def test_minimums_build_risk(run_cli, ca, tmp_path):
    out = tmp_path / "mins.json"
    code, msg, _ = run_cli(
        "minimums", "build", "--mode", "risk",
        "--ratings", ca["ratings"], "--applicability", ca["applicability"], "--out", out,
    )
    assert code == 0
    assert "111 requirements (mode risk, 3 excluded)" in msg
    document = read_document(out, "minimum-level-database")
    assert document["requirements"]["A.9.2.3"] == {
        "required_level": 5, "priority": True, "raw_score": 6,
    }


def test_minimums_build_fixed(run_cli, tmp_path):
    out = tmp_path / "mins.json"
    code, msg, _ = run_cli("minimums", "build", "--mode", "fixed:4", "--out", out)
    assert code == 0
    assert "114 requirements (mode fixed:4, 0 excluded)" in msg


def test_minimums_build_flag_combinations(run_cli, ca, tmp_path):
    out = tmp_path / "mins.json"
    code, _, err = run_cli("minimums", "build", "--mode", "risk", "--out", out)
    assert code == 64 and "needs --ratings" in err
    code, _, err = run_cli(
        "minimums", "build", "--mode", "fixed:3", "--ratings", ca["ratings"], "--out", out
    )
    assert code == 64 and "only applies to risk mode" in err
    for mode in ("sometimes", "fixed:0", "fixed:9", "fixed:\u0663", "fixed:03"):
        code, _, err = run_cli("minimums", "build", "--mode", mode, "--out", out)
        assert code == 64 and "risk or fixed:<level>" in err


# ---------------------------------------------------------------------------
# assess, report, compare-modes

def test_assess_independent_prints_the_report(run_cli, ca):
    code, out, _ = run_cli(*assess_args(ca))
    assert code == 0
    assert "Overall: " + expected_stages.CA_LABEL_LINE in out
    assert "  A.9.3.1" in out and "  A.14.1.3" in out
    assert "11 lines" not in out  # deltas render one per line, not a count
    assert out.count("->") == 11


def test_assess_model_uses_bundled_plan(run_cli, ca):
    code, out, _ = run_cli(
        "assess", "--mode", "model",
        "--applicability", ca["applicability"],
        "--measurements", ca["measurements"],
        "--company", "company-a", "--timestamp", TS,
    )
    assert code == 0
    assert "Overall: " + expected_stages.CA_MODEL_LABEL_LINE in out
    assert "Stage changes" not in out  # no delta section in model mode


def test_assess_structured_output_and_report_subcommand_agree(run_cli, ca, tmp_path):
    doc_path = tmp_path / "report.json"
    text_path = tmp_path / "report.txt"
    code, stdout_text, _ = run_cli(*assess_args(ca))
    assert code == 0
    assert run_cli(*assess_args(ca, "--out", doc_path, "--out-text", text_path))[0] == 0
    assert text_path.read_text(encoding="utf-8") == stdout_text

    document = parse_report(doc_path.read_text(encoding="utf-8"))
    assert document.mode == "independent"
    assert document.minimums.mode == "risk"

    code, rendered, _ = run_cli("report", doc_path)
    assert code == 0
    assert rendered == stdout_text


def test_assess_reruns_are_byte_identical(run_cli, ca, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli(*assess_args(ca, "--out", first, "--out-text", tmp_path / "a.txt"))[0] == 0
    assert run_cli(*assess_args(ca, "--out", second, "--out-text", tmp_path / "b.txt"))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_report_subcommand_rejects_other_document_kinds(run_cli, ca, tmp_path):
    plan_path = tmp_path / "plan.json"
    run_cli(
        "stage-plan", "build",
        "--survey", ca["survey"], "--applicability", ca["applicability"], "--out", plan_path,
    )
    code, _, err = run_cli("report", plan_path)
    assert code == 1
    assert "assessment-report" in err


def test_compare_modes_outputs(run_cli, ca, tmp_path):
    out = tmp_path / "comparison.json"
    code, text, _ = run_cli(
        "compare-modes",
        "--survey", ca["survey"], "--ratings", ca["ratings"],
        "--applicability", ca["applicability"], "--measurements", ca["measurements"],
        "--company", "company-a", "--timestamp", TS, "--out", out,
    )
    assert code == 0
    assert "independent:   " + expected_stages.CA_LABEL_LINE in text
    assert "model:         " + expected_stages.CA_MODEL_LABEL_LINE in text
    assert "naive average: 3.22 (Defined)" in text
    document = parse_document(out.read_text(encoding="utf-8"), "mode-comparison", str(out))
    assert document["independent"]["level"] == {"exact": "89/27", "display": "3.30"}
    assert document["model"]["level"] == {"exact": "106/31", "display": "3.42"}


def test_compare_modes_needs_survey(run_cli, ca):
    code, _, err = run_cli("compare-modes", "--measurements", ca["measurements"])
    assert code == 64
    assert "needs --survey" in err


def test_excluded_measurement_rows_change_nothing(run_cli, ca, tmp_path, ca_paths):
    extended = ca_paths["measurements"].read_text(encoding="utf-8")
    for control in expected_stages.CA_EXCLUDED:
        extended += f"{control},1\n"
    bigger = tmp_path / "m.csv"
    bigger.write_text(extended, encoding="utf-8")
    base = run_cli(*assess_args(ca))
    padded = run_cli(*assess_args({**ca, "measurements": str(bigger)}))
    assert base == padded


def test_structured_report_is_valid_json_with_expected_kind(run_cli, ca, tmp_path):
    out = tmp_path / "report.json"
    run_cli(*assess_args(ca, "--out", out, "--out-text", tmp_path / "t.txt"))
    raw = json.loads(out.read_text(encoding="utf-8"))
    assert raw["kind"] == "assessment-report"
    assert raw["format_version"] == "1"
    assert raw["label"] == {
        "stage": "Intermediate",
        "level": {"exact": "89/27", "display": "3.30"},
        "level_name": "Defined",
        "incomplete": False,
    }


def test_bom_prefixed_csv_gives_identical_reports(run_cli, ca, tmp_path, ca_paths):
    bom = tmp_path / "measurements.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + ca_paths["measurements"].read_bytes())
    outputs = []
    for name, paths in (("plain", ca), ("bom", {**ca, "measurements": str(bom)})):
        doc, text = tmp_path / f"{name}.json", tmp_path / f"{name}.txt"
        assert run_cli(*assess_args(paths, "--out", doc, "--out-text", text))[0] == 0
        outputs.append((doc.read_bytes(), text.read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_import_skips_dataclasses_and_datetime():
    # -S keeps site hooks (.pth files) from importing modules on their own
    env = {**os.environ, "PYTHONPATH": str(Path(ismaturity.__file__).parents[1])}
    probe = "import sys, ismaturity.cli; print(sorted({'dataclasses', 'datetime'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Mistyped and malformed documents: exit 1, never a traceback

def written_document(run_cli, ca, tmp_path, kind):
    """A valid document of `kind` on disk, and a command line that reads it."""
    path = tmp_path / f"{kind}.json"
    out = tmp_path / "out.json"
    if kind == "report":
        assert run_cli(*assess_args(ca, "--out", path, "--out-text", tmp_path / "report.txt"))[0] == 0
        return path, ("report", path)
    if kind == "catalog":
        path.write_text(canonical_json(catalog_document(ismaturity.default_catalog())), encoding="utf-8")
        return path, ("minimums", "build", "--mode", "fixed:3", "--catalog", path, "--out", out)
    assert run_cli("import-survey", ca["survey"], "--out", path)[0] == 0
    return path, ("stage-plan", "build", "--importance", path, "--out", out)


@pytest.mark.parametrize(
    ("kind", "mutate"),
    [
        ("report", lambda doc: doc["gaps"][0].update(priority="false")),
        ("report", lambda doc: doc["label"].update(incomplete="no")),
        ("report", lambda doc: doc["stages"][0]["members"].__setitem__(0, 5)),
        ("report", lambda doc: doc["requirements"]["A.5.1.1"].update(priority=1)),
        ("report", lambda doc: doc.update(measurements=[])),
        ("catalog", lambda doc: doc.update(controls=5)),
        ("catalog", lambda doc: doc.update(dependencies=5)),
        ("catalog", lambda doc: doc["controls"][0].update(title=7)),
        ("importance", lambda doc: doc.update(responses=[])),
        ("importance", lambda doc: doc.update(responses={"r": [1]})),
        ("importance", lambda doc: doc.update(controls=5)),
    ],
    ids=[
        "priority-string", "incomplete-string", "int-member", "int-priority", "list-measurements",
        "catalog-int-controls", "catalog-int-dependencies", "catalog-int-title",
        "importance-list-responses", "importance-list-scores", "importance-int-controls",
    ],
)
def test_report_rejects_mistyped_fields(run_cli, ca, tmp_path, kind, mutate):
    # Also covers the catalog and importance documents the CLI reads; stage plans follow.
    path, command = written_document(run_cli, ca, tmp_path, kind)
    document = json.loads(path.read_text(encoding="utf-8"))
    mutate(document)
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(*command)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {path}: ")


def requirement(level, priority, raw_score):
    return {"required_level": level, "priority": priority, "raw_score": raw_score}


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (lambda doc: doc.update(mode="whatever"), "mode must be 'model' or 'independent', got 'whatever'"),
        (lambda doc: doc.update(minimums_mode="fixed:9"), "unknown minimum mode 'fixed:9'"),
        (lambda doc: doc.update(mode="whatever", minimums_mode="fixed:9"), "mode must be"),
        (lambda doc: doc.update(minimums_mode="fixed:3"), "does not fit minimum mode fixed:3"),
        (lambda doc: doc["requirements"].update({"A.5.1.1": requirement(5, False, None)}),
         "raw score for A.5.1.1 must be 2..6 in minimum mode risk, found None"),
        (lambda doc: doc["requirements"].update({"A.5.1.1": requirement(4, False, 5)}),
         "does not fit minimum mode risk"),
        (lambda doc: doc["requirements"].update({"A.5.1.1": requirement(5, True, 5)}),
         "does not fit minimum mode risk"),
        (lambda doc: doc["label"].update(level_name="Managed"),
         "label.level_name does not follow from the report's inputs: found 'Managed', rebuilt 'Defined'"),
    ],
    ids=[
        "unknown-mode", "unknown-minimums-mode", "both-unknown", "fixed-mode-risk-requirements",
        "risk-null-raw-score", "risk-level-off-score", "risk-priority-off-score", "wrong-level-name",
    ],
)
def test_report_rejects_values_its_modes_rule_out(run_cli, ca, tmp_path, mutate, message):
    path, command = written_document(run_cli, ca, tmp_path, "report")
    document = json.loads(path.read_text(encoding="utf-8"))
    mutate(document)
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(*command)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {path}: ")
    assert message in err


@pytest.mark.parametrize(
    "content",
    [b"\xff", b"[" * 100_000, b'{"a": ' + b"9" * 5_000 + b"}"],
    ids=["undecodable-byte", "nesting-too-deep", "integer-too-long"],
)
def test_report_rejects_unreadable_json_bytes(run_cli, tmp_path, content):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    code, out, err = run_cli("report", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {path}: ")


def move_first_member(document):
    document["stages"][1]["members"].append(document["stages"][0]["members"].pop(0))


@pytest.mark.parametrize(
    ("mutate", "where"),
    [
        (lambda doc: doc["label"].update(stage="Full"), "label.stage"),
        (lambda doc: doc.update(gaps=[], priority_controls=[]), "gaps"),
        (lambda doc: doc["gaps"].append(dict(doc["gaps"][0])), "gaps"),
        (lambda doc: doc["stages"][2]["average"].update(exact="100/29"), "stages[2].average.exact"),
        (lambda doc: doc["misallocation_findings"][0].update(later_level=4),
         "misallocation_findings[0].later_level"),
        (move_first_member, "stages[0].average.exact"),
        (lambda doc: doc["label"].update(incomplete=0), "label.incomplete"),
        (lambda doc: doc["label"].update(verdict="Full"), "label.verdict"),
    ],
    ids=[
        "label-stage", "no-gaps", "extra-gap", "stage-average", "finding-level", "member-moved",
        "false-as-0", "extra-label-key",
    ],
)
def test_report_rejects_derived_fields_its_inputs_contradict(run_cli, ca, tmp_path, mutate, where):
    path, command = written_document(run_cli, ca, tmp_path, "report")
    document = json.loads(path.read_text(encoding="utf-8"))
    mutate(document)
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(*command)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {path}: {where} does not follow from the report's inputs")


def test_report_with_a_control_id_too_long_for_int_exits_one(run_cli, ca, tmp_path):
    path, command = written_document(run_cli, ca, tmp_path, "report")
    document = json.loads(path.read_text(encoding="utf-8"))
    document["measurements"]["A.5.1." + "1" * 5000] = 3
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(*command)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {path}: control id 'A.5.1.111")
    assert err.endswith(": control field of 5000 digits is too long\n")


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (lambda doc: doc["measurements"].update({"10.1.1": doc["measurements"]["A.10.1.1"]}),
         "'measurements' names control A.10.1.1 twice"),
        (lambda doc: doc["not_applicable"].append(dict(doc["not_applicable"][0])),
         "'not_applicable' names control A.14.2.1 twice"),
    ],
    ids=["measurements", "not-applicable"],
)
def test_report_naming_a_control_twice_exits_one(run_cli, ca, tmp_path, mutate, message):
    path, command = written_document(run_cli, ca, tmp_path, "report")
    document = json.loads(path.read_text(encoding="utf-8"))
    mutate(document)
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(*command)
    assert (code, out, err) == (1, "", f"input error: {path}: {message}\n")


def test_report_with_a_threshold_below_one_exits_one(run_cli, ca, tmp_path):
    path, command = written_document(run_cli, ca, tmp_path, "report")
    document = json.loads(path.read_text(encoding="utf-8"))
    document["misallocation_threshold"] = 0
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(*command)
    assert (code, out, err) == (1, "", f"input error: {path}: misallocation threshold 0 is below 1\n")


def test_report_on_another_document_kind_names_the_kind_it_expected(run_cli, ca_paths):
    path = ca_paths["survey"].parent / "expected" / "compare_modes.json"
    code, out, err = run_cli("report", path)
    assert (code, out) == (1, "")
    assert err == (
        f"input error: {path}: expected an assessment-report document, found kind 'mode-comparison'\n"
    )


def test_report_with_a_staged_control_also_excluded_exits_two(run_cli, ca, tmp_path):
    path, command = written_document(run_cli, ca, tmp_path, "report")
    document = json.loads(path.read_text(encoding="utf-8"))
    member = document["stages"][0]["members"][0]
    document["not_applicable"].append({"control": member, "justification": "out of scope"})
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(*command)
    assert (code, out) == (2, "")
    assert err == f"inconsistent inputs: controls both staged and excluded: {member}\n"


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("excluded", [7], "not a string"),
        ("boundaries", [86, 57, 29, 5], "strictly increasing"),
        ("boundaries", [29.7, 56, 84, 111], "must be integers"),
        ("boundaries", ["29", 56, 84, 111], "must be integers"),
        ("boundaries", [True, 56, 84, 111], "must be integers"),
        ("assignment", {"A.5.1.1": "Expert"}, "unknown stage 'Expert'"),
    ],
)
def test_stage_plan_diff_rejects_malformed_plans(run_cli, ca, tmp_path, field, value, message):
    path = tmp_path / "plan.json"
    run_cli(
        "stage-plan", "build",
        "--survey", ca["survey"], "--applicability", ca["applicability"], "--out", path,
    )
    document = json.loads(path.read_text(encoding="utf-8"))
    document[field] = value
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli("stage-plan", "diff", "default", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {path}: ") and message in err


def test_output_into_a_missing_directory_exits_one(run_cli, ca, tmp_path):
    code, _, err = run_cli(*assess_args(ca, "--out", tmp_path / "absent" / "report.json"))
    assert code == 1
    assert "cannot write file" in err and "absent" in err
    assert list(tmp_path.iterdir()) == []


def second_delta_for_the_first_control(document):
    document["stage_plan_deltas"].append(dict(document["stage_plan_deltas"][0]))


def derived(path, found, rebuilt):
    return f"{path} does not follow from the report's inputs: found {found}, rebuilt {rebuilt}"


# A report's stage changes are rebuilt: its plan against the bundled default plan.
@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (lambda doc: doc["stage_plan_deltas"][0].update(to="Full"),
         derived("stage_plan_deltas[0].to", "'Full'", "'Essential'")),
        (lambda doc: doc["stage_plan_deltas"][0].update(to="excluded"),
         derived("stage_plan_deltas[0].to", "'excluded'", "'Essential'")),
        (second_delta_for_the_first_control, derived("stage_plan_deltas", "a list of 12", "a list of 11")),
        (lambda doc: doc["stage_plan_deltas"][7].update(to="Essential"),
         derived("stage_plan_deltas[7].to", "'Essential'", "'excluded'")),
        (lambda doc: doc["stage_plan_deltas"][0].update(control="A.18.9.9"),
         derived("stage_plan_deltas[0].control", "'A.18.9.9'", "'A.5.1.2'")),
        (lambda doc: doc["stage_plan_deltas"][0].update({"from": "Full"}),
         derived("stage_plan_deltas[0].from", "'Full'", "'Intermediate'")),
        (lambda doc: doc["stage_plan_deltas"].pop(3), derived("stage_plan_deltas", "a list of 10", "a list of 11")),
        (lambda doc: doc.update(stage_plan_deltas=None), derived("stage_plan_deltas", "None", "a list of 11")),
    ],
    ids=["to-another-stage", "to-excluded", "control-twice", "excluded-control-staged", "unknown-control",
         "forged-from", "one-deleted", "null"],
)
def test_report_rejects_deltas_its_stages_contradict(run_cli, ca, tmp_path, mutate, message):
    path, command = written_document(run_cli, ca, tmp_path, "report")
    document = json.loads(path.read_text(encoding="utf-8"))
    assert len(document["stage_plan_deltas"]) == 11
    mutate(document)
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(*command)
    assert (code, out) == (1, "")
    assert err == f"input error: {path}: {message}\n"


def expected_report(ca_paths, name):
    return json.loads((ca_paths["survey"].parent / "expected" / name).read_text(encoding="utf-8"))


# A model report's plan is the bundled default plan without its exclusions; its stage rows are not read.
THREE_ROWS = "stages: found 3 rows, but a report has one per stage, 4"


@pytest.mark.parametrize(
    ("name", "mutate", "message"),
    [
        ("assess_model.json",
         lambda doc: doc.update(stage_plan_deltas=[{"control": "A.5.1.2", "from": "Intermediate", "to": "Essential"}]),
         derived("stage_plan_deltas", "a list of 1", "None")),
        # the model label of these inputs is Essential 3.42, not the independent report's Intermediate
        ("assess_independent.json", lambda doc: doc.update(mode="model"),
         derived("stages[0].members", "a list of 29", "a list of 31")),
        ("assess_independent.json", lambda doc: doc["stages"].pop(), THREE_ROWS),
        ("assess_model.json", lambda doc: doc["stages"].pop(), THREE_ROWS),
    ],
    ids=["deltas-on-a-model-report", "independent-relabelled-model", "three-rows-independent", "three-rows-model"],
)
def test_a_report_whose_plan_is_not_its_modes_exits_one(run_cli, ca_paths, tmp_path, name, mutate, message):
    document = json.loads((ca_paths["survey"].parent / "expected" / name).read_text(encoding="utf-8"))
    mutate(document)
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli("report", path)
    assert (code, out, err) == (1, "", f"input error: {path}: {message}\n")


def test_a_model_report_built_over_a_company_plan_exits_one(run_cli, ca_inputs, ca_minimums, ca_result, tmp_path):
    report = build_report(
        ca_result, gap_analysis(ca_result), misallocation_findings(ca_result), ca_inputs["applicability"], None,
        company="company-a", timestamp=TS, mode="model", minimums=ca_minimums,
    )
    path = tmp_path / "report.json"
    path.write_text(render_document(report, STRUCTURED), encoding="utf-8")
    code, out, err = run_cli("report", path)
    assert (code, out) == (1, "")
    assert err == f"input error: {path}: {derived('stages[0].members', 'a list of 29', 'a list of 31')}\n"


# ---------------------------------------------------------------------------
# Text that UTF-8 cannot encode (a lone surrogate) is exit 1, naming where it went

def test_report_whose_company_stdout_cannot_encode_exits_one(run_cli, ca, tmp_path):
    path, command = written_document(run_cli, ca, tmp_path, "report")
    document = json.loads(path.read_text(encoding="utf-8"))
    document["company"] = "\ud800"
    path.write_text(json.dumps(document), encoding="utf-8")  # escaped, so the file itself is valid UTF-8
    code, out, err = run_cli(*command)
    assert (code, out) == (1, "")
    assert err.startswith("input error: standard output: cannot write text: ")
    assert "surrogates not allowed" in err


def broken_pipe(*args):
    raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("method", ["write", "flush"])
def test_a_stdout_whose_reader_has_gone_exits_one(capsys, monkeypatch, method):
    stdout = io.StringIO()
    setattr(stdout, method, broken_pipe)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["stage-plan", "diff", "default", "default"])
    assert (code, capsys.readouterr().err) == (1, "input error: standard output: cannot write text: Broken pipe\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_pipe_on_stdout_exits_one_without_a_traceback(unbuffered):
    # unbuffered, print() meets the closed pipe; buffered, the flush before exit does
    env = {**os.environ, "PYTHONPATH": str(Path(ismaturity.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "ismaturity.cli", "stage-plan", "diff", "default", "default"],
                                stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"input error: standard output: cannot write text: Broken pipe\n")


def test_assess_with_an_undecodable_company_argument_exits_one(ca, tmp_path):
    # The byte 0xff in argv reaches Python as the lone surrogate U+DCFF.
    env = {**os.environ, "PYTHONPATH": str(Path(ismaturity.__file__).parents[1])}
    out = tmp_path / "report.json"
    argv = [sys.executable, "-m", "ismaturity.cli", *assess_args(ca, "--out", out, "--out-text", tmp_path / "t")]
    argv[argv.index("company-a")] = b"\xff"
    result = subprocess.run(argv, env=env, capture_output=True)
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.startswith(f"input error: {out}: cannot write text as UTF-8: ".encode())
    assert b"Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []
