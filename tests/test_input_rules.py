"""Each input rule that several readers share gives one message on every one of them.

One table per rule feeds the same bad fact to each reader of it: a CSV row
(whose error keeps the file and the row), a JSON document (whose error names
the file) and a library call.
"""

import json
from pathlib import Path

import pytest

from ismaturity import (
    ApplicabilityMap,
    ValidationError,
    build_minimum_db,
    default_stage_plan,
    evaluate,
    ingest_responses,
    load_applicability_csv,
    load_measurements_csv,
    load_survey_csv,
    parse_control_id,
)
from ismaturity.files import (
    catalog_document,
    deltas_from_document,
    default_catalog,
    importance_from_document,
    minimum_db_from_document,
)
from ismaturity.importance import ImportanceDatabase, fold_scores
from ismaturity.minimums import FixedMinimums
from ismaturity.reporting import parse_report

A5 = parse_control_id("A.5.1.1")
FIXED_3 = {"required_level": 3, "priority": False, "raw_score": None}
EXPECTED = Path(__file__).parent / "data" / "company_a" / "expected"


def edited_report(edit):
    """A call of parse_report on company_a's independent-mode report, as `edit` changes it, named r.json."""

    def read():
        report = json.loads((EXPECTED / "assess_independent.json").read_text(encoding="utf-8"))
        edit(report)
        return parse_report(json.dumps(report), source="r.json")

    return read


def message_of(call) -> str:
    with pytest.raises(ValidationError) as raised:
        call()
    return str(raised.value)


# ---------------------------------------------------------------------------
# A score: importance.add_score, for survey rows, importance documents and library calls

def survey_reader(tmp_path, respondent, score):
    path = tmp_path / "s.csv"
    path.write_text(f"respondent_id,control_id,score\nr0,A.5.1.2,3\n{respondent},A.5.1.1,{score}\n", encoding="utf-8")
    return lambda: load_survey_csv(path), f"{path}, row 3: "


def document_reader(tmp_path, respondent, score):
    document = {"controls": ["A.5.1.1", "A.5.1.2"], "responses": {"r0": {"A.5.1.2": 3}, respondent: {"A.5.1.1": score}}}
    return (
        lambda: importance_from_document(document, source="db.json"),
        # a respondent is checked before its scores, so an empty one names no control
        f"db.json: respondent {respondent}, control A.5.1.1: " if respondent else "db.json: ",
    )


def library_reader(tmp_path, respondent, score):
    rows = {"r0": {parse_control_id("A.5.1.2"): 3}, respondent: {A5: score}}
    return (
        lambda: ingest_responses(rows, default_catalog()),
        # fold_scores words a score as an importance document does
        f"respondent {respondent}, control A.5.1.1: " if respondent else "",
    )


@pytest.mark.parametrize("reader", [survey_reader, document_reader, library_reader], ids=["csv", "json", "library"])
@pytest.mark.parametrize(
    ("respondent", "score", "csv_score", "message"),
    [
        ("", 3, "3", "empty respondent_id"),
        ("r1", 6, "6", "score 6 outside 1..5"),
        ("r1", 0, "0", "score 0 outside 1..5"),
        ("r1", "x", "x", "score 'x' is not an integer"),
    ],
    ids=["empty-respondent", "score-6", "score-0", "score-not-an-integer"],
)
def test_one_score_rule_for_every_reader(tmp_path, reader, respondent, score, csv_score, message):
    call, prefix = reader(tmp_path, respondent, csv_score if reader is survey_reader else score)
    assert message_of(call) == prefix + message


STAGE_PLAN_BUILD = ("stage-plan", "build", "--importance", "{db}", "--out", "{out}")
IMPORT_SURVEY_INTO = ("import-survey", "{survey}", "--into", "{db}", "--out", "{out}")


# A respondent id: importance.check_respondent, for a respondent with scores and one without
@pytest.mark.parametrize(
    ("command", "with_scores"),
    [(STAGE_PLAN_BUILD, True), (IMPORT_SURVEY_INTO, True), (STAGE_PLAN_BUILD, False), (IMPORT_SURVEY_INTO, False)],
    ids=["stage-plan-build", "import-survey-into", "stage-plan-build-no-scores", "import-survey-into-no-scores"],
)
def test_an_importance_database_with_an_empty_respondent_exits_one(run_cli, ca_paths, tmp_path, command, with_scores):
    db = tmp_path / "db.json"
    assert run_cli("import-survey", ca_paths["survey"], "--out", db)[0] == 0
    document = json.loads(db.read_text(encoding="utf-8"))
    document["responses"][""] = document["responses"].pop("ca-resp-1") if with_scores else {}
    db.write_text(json.dumps(document), encoding="utf-8")
    paths = {"db": db, "out": tmp_path / "out.json", "survey": ca_paths["survey"]}
    code, out, err = run_cli(*(arg.format(**paths) for arg in command))
    assert (code, out) == (1, "")
    assert err == f"input error: {db}: empty respondent_id\n"
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# An exclusion's justification: minimums.check_justification

UNJUSTIFIED = "control {} marked not applicable without a justification"


def justification_readers(tmp_path, justification):
    """(call, message) for each reader of one exclusion with `justification`."""
    readers = {
        "map": (lambda: ApplicabilityMap({A5: justification}), UNJUSTIFIED.format(A5)),
        "minimum-db": (
            lambda: minimum_db_from_document(
                {"mode": "fixed:3", "requirements": {"A.5.1.2": FIXED_3}, "excluded": {"A.5.1.1": justification}},
                source="m.json",
            ),
            "m.json: " + UNJUSTIFIED.format(A5),
        ),
        "report": (  # its first exclusion is A.14.2.1's
            edited_report(lambda report: report["not_applicable"][0].update(justification=justification)),
            "r.json: " + UNJUSTIFIED.format("A.14.2.1"),
        ),
    }
    if isinstance(justification, str):  # a CSV cell is always text
        path = tmp_path / "a.csv"
        path.write_text(
            f"control_id,applicable,justification\nA.5.1.2,true,\nA.5.1.1,false,{justification}\n", encoding="utf-8"
        )
        readers["csv"] = (lambda: load_applicability_csv(path), f"{path}, row 3: " + UNJUSTIFIED.format(A5))
    return readers


@pytest.mark.parametrize("justification", ["", "   ", 5, None], ids=["empty", "blank", "number", "null"])
def test_one_justification_rule_for_every_reader(tmp_path, justification):
    readers = justification_readers(tmp_path, justification)
    assert len(readers) == (4 if isinstance(justification, str) else 3)
    for name, (call, message) in readers.items():
        assert message_of(call) == message, name


# ---------------------------------------------------------------------------
# A maturity level: minimums.check_level, for the measurements CSV, a report, evaluate and --fixed-level

def measurements_csv_reader(tmp_path, run_cli, level):
    path = tmp_path / "m.csv"
    path.write_text(f"control_id,level\nA.5.1.2,3\nA.5.1.1,{level}\n", encoding="utf-8")
    return message_of(lambda: load_measurements_csv(path)), f"{path}, row 3: "


def report_measurement_reader(tmp_path, run_cli, level):
    read = edited_report(lambda report: report["measurements"].update({"A.5.1.1": level}))
    return message_of(read), "r.json: control A.5.1.1: "


def evaluate_reader(tmp_path, run_cli, level):
    catalog = default_catalog()
    minimums = build_minimum_db(FixedMinimums(3), ApplicabilityMap(), catalog)
    measurements = {**dict.fromkeys(catalog.control_ids(), 3), A5: level}
    return message_of(lambda: evaluate(default_stage_plan(), minimums, measurements)), "control A.5.1.1: "


def fixed_level_reader(tmp_path, run_cli, level):
    code, out, err = run_cli("assess", "--mode", "model", "--measurements", "m.csv", "--fixed-level", level)
    assert (code, out) == (64, "")
    return err.splitlines()[-1], "ismaturity assess: error: argument --fixed-level: "


@pytest.mark.parametrize(
    ("reader", "level", "message"),
    [
        (measurements_csv_reader, "7", "maturity level 7 outside 0..5"),
        (measurements_csv_reader, "-1", "maturity level -1 outside 0..5"),
        (measurements_csv_reader, "x", "maturity level 'x' is not an integer"),
        (report_measurement_reader, 9, "maturity level 9 outside 0..5"),
        (report_measurement_reader, True, "maturity level True is not an integer"),
        (evaluate_reader, 9, "maturity level 9 outside 0..5"),
        (evaluate_reader, True, "maturity level True is not an integer"),
        (evaluate_reader, "x", "maturity level 'x' is not an integer"),
        (fixed_level_reader, 7, "maturity level 7 outside 1..5"),  # a fixed minimum is 1..5
        (fixed_level_reader, "x", "maturity level 'x' is not an integer"),
        (fixed_level_reader, "\u0663", "maturity level '\u0663' is not an integer"),  # ASCII digits only
    ],
    ids=[
        "csv-7", "csv-minus-1", "csv-x", "report-9", "report-true", "evaluate-9", "evaluate-true", "evaluate-x",
        "fixed-level-7", "fixed-level-x", "fixed-level-arabic-indic-3",
    ],
)
def test_one_level_rule_for_every_reader(tmp_path, run_cli, reader, level, message):
    found, prefix = reader(tmp_path, run_cli, level)
    assert found == prefix + message


# ---------------------------------------------------------------------------
# A control named twice: catalog.check_distinct in a list, the writer comparison in an object's
# keys (the table is test_files.py::test_document_readers_reject_a_control_named_twice); here an
# independent report's stage members, a diff document's deltas and a catalog file on the CLI. A
# report's stage deltas are rebuilt, not read (test_cli.py::test_report_rejects_deltas_its_stages_contradict).

DELTA = {"control": "A.5.1.2", "from": "Intermediate", "to": "Essential"}


@pytest.mark.parametrize(
    ("call", "message"),
    [
        # A.5.1.2 is the second member of the first stage
        (edited_report(lambda report: report["stages"][0]["members"].append("5.1.2")),
         "r.json: 'stages' names control A.5.1.2 twice"),
        (edited_report(lambda report: report["stages"][1]["members"].append("A.5.1.2")),
         "r.json: 'stages' names control A.5.1.2 twice"),
        (lambda: deltas_from_document({"deltas": [DELTA, DELTA]}, source="d.json"),
         "d.json: 'deltas' names control A.5.1.2 twice"),
    ],
    ids=["report-members-one-stage", "report-members-two-stages", "diff-deltas"],
)
def test_one_repeat_rule_for_every_reader(call, message):
    assert message_of(call) == message


def test_a_catalog_file_naming_a_control_twice_exits_one(run_cli, tmp_path):
    document = catalog_document(default_catalog())
    document["controls"].append(dict(document["controls"][0], id="5.1.1"))
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli("minimums", "build", "--fixed-level", "3", "--catalog", path, "--out", tmp_path / "m.json")
    assert (code, out) == (1, "")
    assert err == f"input error: {path}: 'controls' names control A.5.1.1 twice\n"


# ---------------------------------------------------------------------------
# Controls outside the catalog: catalog.check_known

UNKNOWN = "A.18.9.9, A.5.9.9"  # as listed in the input; the message sorts them as ids
SORTED = "A.5.9.9, A.18.9.9"


@pytest.mark.parametrize(
    ("flag", "header", "row", "what"),
    [
        ("--measurements", "control_id,level", "{cid},3", "measurements"),
        ("--ratings", "control_id,probability,impact", "{cid},low,high", "ratings"),
        ("--survey", "respondent_id,control_id,score", "r1,{cid},3", "survey rows"),
        ("--applicability", "control_id,applicable,justification", "{cid},false,a typo", "applicability rows"),
    ],
    ids=["measurements", "ratings", "survey", "applicability"],
)
def test_one_unknown_control_rule_for_every_csv_input(run_cli, ca_paths, tmp_path, flag, header, row, what):
    path = tmp_path / "in.csv"
    path.write_text("\n".join([header, *(row.format(cid=cid) for cid in UNKNOWN.split(", "))]) + "\n", encoding="utf-8")
    inputs = {"--survey": ca_paths["survey"], "--ratings": ca_paths["ratings"],
              "--measurements": ca_paths["measurements"], flag: path}
    code, out, err = run_cli("assess", "--mode", "independent", *(str(a) for pair in inputs.items() for a in pair))
    assert (code, out) == (1, "")
    assert err == f"input error: {path}: {what} for controls not in the catalog: {SORTED}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["assess", "--mode", "model", "--measurements", "{measurements}"],
        ["compare-modes", "--survey", "{survey}", "--fixed-level", "3", "--measurements", "{measurements}"],
        ["minimums", "build", "--fixed-level", "3", "--out", "{out}"],
        ["stage-plan", "build", "--survey", "{survey}", "--out", "{out}"],
    ],
    ids=["assess", "compare-modes", "minimums-build", "stage-plan-build"],
)
def test_an_exclusion_outside_the_catalog_exits_one_on_every_command(run_cli, ca_paths, tmp_path, command):
    path = tmp_path / "applicability.csv"
    # a row that names an applicable control outside the catalog is discarded: it changes no result
    path.write_text(
        ca_paths["applicability"].read_text(encoding="utf-8") + "A.18.9.9,true,\nA.5.9.9,false,a typo\n",
        encoding="utf-8",
    )
    paths = {"measurements": ca_paths["measurements"], "survey": ca_paths["survey"], "out": tmp_path / "out.json"}
    code, out, err = run_cli(*(arg.format(**paths) for arg in command), "--applicability", path)
    assert (code, out) == (1, "")
    assert err == f"input error: {path}: applicability rows for controls not in the catalog: A.5.9.9\n"
    assert not paths["out"].exists()


def test_one_unknown_control_rule_for_documents_and_library_calls():
    scores = {"r1": {parse_control_id(text): 3 for text in UNKNOWN.split(", ")}}
    document = {"controls": ["A.5.1.1"], "responses": {"r1": {text: 3 for text in UNKNOWN.split(", ")}}}
    empty = ImportanceDatabase(default_catalog().control_ids(), {})
    assert message_of(lambda: importance_from_document(document, source="db.json")) == (
        f"db.json: survey rows for controls not in the catalog: {SORTED}"
    )
    assert message_of(lambda: fold_scores(empty, scores)) == f"survey rows for controls not in the catalog: {SORTED}"
