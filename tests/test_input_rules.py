"""Each input rule that several readers share gives one message on every one of them.

One table per rule feeds the same bad fact to each reader of it: a CSV row
(whose error keeps the file and the row), a JSON document (whose error names
the file) and a library call.
"""

import json
import warnings

import pytest

from ismaturity import (
    ApplicabilityMap,
    SurveyResponse,
    ValidationError,
    ingest_responses,
    load_applicability_csv,
    load_survey_csv,
    mark_not_applicable,
    parse_control_id,
)
from ismaturity.files import catalog_document, default_catalog, importance_from_document, minimum_db_from_document
from ismaturity.importance import ImportanceDatabase, fold_scores

A5 = parse_control_id("A.5.1.1")
FIXED_3 = {"required_level": 3, "priority": False, "raw_score": None}


def message_of(call) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
        f"db.json: respondent {respondent}, control A.5.1.1: ",
    )


def library_reader(tmp_path, respondent, score):
    rows = [SurveyResponse("r0", parse_control_id("A.5.1.2"), 3), SurveyResponse(respondent, A5, score)]
    return lambda: ingest_responses(rows, default_catalog()), "entry 2: "


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


@pytest.mark.parametrize(
    "command",
    [
        ("stage-plan", "build", "--importance", "{db}", "--out", "{out}"),
        ("import-survey", "{survey}", "--into", "{db}", "--out", "{out}"),
    ],
    ids=["stage-plan-build", "import-survey-into"],
)
def test_an_importance_database_with_an_empty_respondent_exits_one(run_cli, ca_paths, tmp_path, command):
    db = tmp_path / "db.json"
    assert run_cli("import-survey", ca_paths["survey"], "--out", db)[0] == 0
    document = json.loads(db.read_text(encoding="utf-8"))
    document["responses"][""] = document["responses"].pop("ca-resp-1")
    db.write_text(json.dumps(document), encoding="utf-8")
    paths = {"db": db, "out": tmp_path / "out.json", "survey": ca_paths["survey"]}
    code, out, err = run_cli(*(arg.format(**paths) for arg in command))
    assert (code, out) == (1, "")
    assert err == f"input error: {db}: respondent , control A.10.1.1: empty respondent_id\n"
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# An exclusion's justification: minimums.check_justification

def justification_readers(tmp_path, justification):
    """(call, prefix) for each reader of one exclusion of A.5.1.1 with `justification`."""
    readers = {
        "map": (lambda: ApplicabilityMap({A5: justification}), ""),
        "mark": (lambda: mark_not_applicable(ApplicabilityMap(), A5, justification), ""),
        "minimum-db": (
            lambda: minimum_db_from_document(
                {"mode": "fixed:3", "requirements": {"A.5.1.2": FIXED_3}, "excluded": {"A.5.1.1": justification}},
                source="m.json",
            ),
            "m.json: ",
        ),
    }
    if isinstance(justification, str):  # a CSV cell is always text
        path = tmp_path / "a.csv"
        path.write_text(
            f"control_id,applicable,justification\nA.5.1.2,true,\nA.5.1.1,false,{justification}\n", encoding="utf-8"
        )
        readers["csv"] = (lambda: load_applicability_csv(path), f"{path}, row 3: ")
    return readers


@pytest.mark.parametrize("justification", ["", "   ", 5, None], ids=["empty", "blank", "number", "null"])
def test_one_justification_rule_for_every_reader(tmp_path, justification):
    readers = justification_readers(tmp_path, justification)
    assert len(readers) == (4 if isinstance(justification, str) else 3)
    for name, (call, prefix) in readers.items():
        assert message_of(call) == prefix + "control A.5.1.1 marked not applicable without a justification", name


# ---------------------------------------------------------------------------
# A control named twice: catalog.check_distinct, for every document kind (the table is
# test_files.py::test_document_readers_reject_a_control_named_twice); here a catalog file on the CLI

def test_a_catalog_file_naming_a_control_twice_exits_one(run_cli, tmp_path):
    document = catalog_document(default_catalog())
    document["controls"].append(dict(document["controls"][0], id="5.1.1"))
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli("minimums", "build", "--mode", "fixed:3", "--catalog", path, "--out", tmp_path / "m.json")
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
    ],
    ids=["measurements", "ratings", "survey"],
)
def test_one_unknown_control_rule_for_every_csv_input(run_cli, ca_paths, tmp_path, flag, header, row, what):
    path = tmp_path / "in.csv"
    path.write_text("\n".join([header, *(row.format(cid=cid) for cid in UNKNOWN.split(", "))]) + "\n", encoding="utf-8")
    inputs = {"--survey": ca_paths["survey"], "--ratings": ca_paths["ratings"],
              "--measurements": ca_paths["measurements"], flag: path}
    code, out, err = run_cli("assess", "--mode", "independent", *(str(a) for pair in inputs.items() for a in pair))
    assert (code, out) == (1, "")
    assert err == f"input error: {path}: {what} for controls not in the catalog: {SORTED}\n"


def test_one_unknown_control_rule_for_documents_and_library_calls():
    scores = {"r1": {parse_control_id(text): 3 for text in UNKNOWN.split(", ")}}
    document = {"controls": ["A.5.1.1"], "responses": {"r1": {text: 3 for text in UNKNOWN.split(", ")}}}
    empty = ImportanceDatabase(default_catalog().control_ids(), {})
    assert message_of(lambda: importance_from_document(document, source="db.json")) == (
        f"db.json: scores for controls not in the catalog: {SORTED}"
    )
    assert message_of(lambda: fold_scores(empty, scores)) == f"survey rows for controls not in the catalog: {SORTED}"
