"""CSV loaders, JSON document codecs, canonical serialization."""

import json
import os
import stat

import pytest

from ismaturity import ValidationError, load_catalog, parse_control_id
from ismaturity.files import (
    EXCLUDED_LABEL,
    canonical_json,
    catalog_document,
    deltas_from_document,
    diff_document,
    importance_document,
    importance_from_document,
    load_applicability_csv,
    load_measurements_csv,
    load_ratings_csv,
    load_survey_csv,
    minimum_db_document,
    minimum_db_from_document,
    parse_document,
    read_document,
    read_minimum_db_file,
    stage_plan_document,
    stage_plan_from_document,
    write_document,
    write_text_atomic,
)
from ismaturity.minimums import ApplicabilityMap, FixedMinimums, RiskGrade, build_minimum_db
from ismaturity.staging import Stage, StageDelta, diff_stage_plans, exclude_from_plan

from test_catalog import make_catalog
from test_staging import make_plan

IDS = ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.6.1.2"]


def cid(text):
    return parse_control_id(text)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CSV

def test_survey_csv_happy_path(tmp_path):
    path = write(
        tmp_path,
        "s.csv",
        # blank rows of any width are skipped, however many of their cells hold spaces
        "respondent_id,control_id,score\nr1,A.5.1.1,5\nr1,A.5.1.2,3\n\n , ,\t\n,\n r2 , A.5.1.1 ,4\n",
    )
    # respondents in order of first appearance, each one's scores in file order
    assert [(r, [(str(c), s) for c, s in scores.items()]) for r, scores in load_survey_csv(path).items()] == [
        ("r1", [("A.5.1.1", 5), ("A.5.1.2", 3)]),
        ("r2", [("A.5.1.1", 4)]),
    ]


def test_survey_csv_score_out_of_range_names_file_and_row(tmp_path):
    path = write(tmp_path, "s.csv", "respondent_id,control_id,score\nr1,A.5.1.1,6\n")
    with pytest.raises(ValidationError) as err:
        load_survey_csv(path)
    message = str(err.value)
    assert "s.csv" in message and "row 2" in message and "6" in message


def test_survey_csv_rejects_bad_header(tmp_path):
    path = write(tmp_path, "s.csv", "who,control,value\nr1,A.5.1.1,5\n")
    with pytest.raises(ValidationError, match="respondent_id,control_id,score"):
        load_survey_csv(path)


def test_survey_csv_rejects_duplicate_pair(tmp_path):
    path = write(
        tmp_path, "s.csv", "respondent_id,control_id,score\nr1,A.5.1.1,5\nr1,A.5.1.1,4\n"
    )
    with pytest.raises(ValidationError, match="row 3"):
        load_survey_csv(path)


def test_survey_csv_rejects_wrong_field_count(tmp_path):
    path = write(tmp_path, "s.csv", "respondent_id,control_id,score\nr1,A.5.1.1\n")
    with pytest.raises(ValidationError, match="expected 3 fields"):
        load_survey_csv(path)
    # skipped blank rows still count: the short row is row 5
    path = write(tmp_path, "s.csv", "respondent_id,control_id,score\nr1,A.5.1.1,5\n\n , \nr1,A.5.1.2\n")
    with pytest.raises(ValidationError, match="row 5: expected 3 fields, found 2"):
        load_survey_csv(path)


def test_measurements_csv_rejects_level_outside_scale(tmp_path):
    path = write(tmp_path, "m.csv", "control_id,level\nA.5.1.1,7\n")
    with pytest.raises(ValidationError, match="outside 0..5"):
        load_measurements_csv(path)


def test_measurements_csv_loads_levels(tmp_path):
    path = write(tmp_path, "m.csv", "control_id,level\nA.5.1.1,0\nA.5.1.2,5\n")
    assert load_measurements_csv(path) == {cid("A.5.1.1"): 0, cid("A.5.1.2"): 5}


def test_ratings_csv_parses_grades_case_insensitively(tmp_path):
    path = write(
        tmp_path, "r.csv", "control_id,probability,impact\nA.5.1.1,Low,HIGH\nA.5.1.2,medium,medium\n"
    )
    ratings = load_ratings_csv(path)
    assert ratings[cid("A.5.1.1")] == (RiskGrade.LOW, RiskGrade.HIGH)
    assert ratings[cid("A.5.1.2")] == (RiskGrade.MEDIUM, RiskGrade.MEDIUM)


def test_ratings_csv_rejects_unknown_grade(tmp_path):
    path = write(tmp_path, "r.csv", "control_id,probability,impact\nA.5.1.1,severe,low\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_ratings_csv(path)


def test_applicability_csv_accepts_yes_no_true_false(tmp_path):
    path = write(
        tmp_path,
        "a.csv",
        "control_id,applicable,justification\n"
        "A.5.1.1,true,\nA.5.1.2,no,outsourced\nA.6.1.1,yes,\nA.6.1.2,FALSE,procured\n",
    )
    amap = load_applicability_csv(path)
    assert amap.is_applicable(cid("A.5.1.1"))
    assert amap.not_applicable == {cid("A.5.1.2"): "outsourced", cid("A.6.1.2"): "procured"}


def test_applicability_csv_requires_justification_for_exclusions(tmp_path):
    path = write(tmp_path, "a.csv", "control_id,applicable,justification\nA.5.1.1,false,\n")
    with pytest.raises(ValidationError, match="without a justification"):
        load_applicability_csv(path)


def test_applicability_csv_rejects_unknown_word(tmp_path):
    path = write(tmp_path, "a.csv", "control_id,applicable,justification\nA.5.1.1,maybe,x\n")
    with pytest.raises(ValidationError, match="true or false"):
        load_applicability_csv(path)


def test_missing_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_survey_csv(tmp_path / "absent.csv")


# Each loader with its header and one valid data row, row 2.
CSV_LOADERS = {
    "survey": (load_survey_csv, "respondent_id,control_id,score", "r1,A.5.1.1,3"),
    "measurements": (load_measurements_csv, "control_id,level", "A.5.1.1,3"),
    "ratings": (load_ratings_csv, "control_id,probability,impact", "A.5.1.1,low,high"),
    "applicability": (load_applicability_csv, "control_id,applicable,justification", "A.5.1.1,no,outsourced"),
}


@pytest.mark.parametrize(
    ("loader", "text", "error"),
    [
        ("survey", "{header}\n{valid}\n,A.5.1.2,3\n", "row 3: empty respondent_id"),
        ("survey", "{header}\n{valid}\nr1,A.5.1,3\n", "row 3: control id 'A.5.1' must have three numeric fields"),
        ("survey", "{header}\n{valid}\nr1,A.5.1.2,x\n", "row 3: score 'x' is not an integer"),
        ("survey", "{header}\n{valid}\nr1,A.5.1.2,6\n", "row 3: score 6 outside 1..5"),
        # an integer is spelt in ASCII digits only, as a control id is, without `_`
        ("survey", "{header}\n{valid}\nr1,A.5.1.2,\u0663\n", "row 3: score '\u0663' is not an integer"),
        ("survey", "{header}\n{valid}\nr1,A.5.1.1,4\n", "row 3: duplicate response for (r1, A.5.1.1)"),
        ("survey", "{header}\n{valid}\n\n , ,\nr1,A.5.1.2\n", "row 5: expected 3 fields, found 2"),
        ("survey", "{header}\n{valid}\nr1,A.5.1.2,{long}\n",
         "row 3: unreadable CSV: field larger than field limit (131072)"),
        ("survey", "who,control,value\n{valid}\n",
         "row 1: bad header 'who,control,value' (expected respondent_id,control_id,score)"),
        ("survey", "{header},{long}\n{valid}\n", "row 1: unreadable CSV: field larger than field limit (131072)"),
        ("measurements", "{header}\n{valid}\nA.x.1.2,3\n",
         "row 3: control id 'A.x.1.2': field 'x' is not a number"),
        ("measurements", "{header}\n{valid}\nA.5.1.2,3.5\n", "row 3: maturity level '3.5' is not an integer"),
        ("measurements", "{header}\n{valid}\nA.5.1.2,-1\n", "row 3: maturity level -1 outside 0..5"),
        ("measurements", "{header}\n{valid}\nA.5.1.2,0_5\n", "row 3: maturity level '0_5' is not an integer"),
        ("measurements", "{header}\n{valid}\nA.5.1.2,\u0664\n", "row 3: maturity level '\u0664' is not an integer"),
        ("measurements", "{header}\n{valid}\nA.5.1.1,2\n", "row 3: duplicate measurement for A.5.1.1"),
        ("measurements", "{header}\n{valid}\n\nA.5.1.2,2,1\n", "row 4: expected 2 fields, found 3"),
        ("measurements", "{long}\n", "row 1: unreadable CSV: field larger than field limit (131072)"),
        ("ratings", "{header}\n{valid}\nA.4.1.1,low,low\n",
         "row 3: control id 'A.4.1.1': section 4 is outside A.5..A.18"),
        ("ratings", "{header}\n{valid}\nA.5.1.2,severe,low\n",
         "row 3: unknown risk grade 'severe' (expected low, medium or high)"),
        ("ratings", "{header}\n{valid}\nA.5.1.2,low,huge\n",
         "row 3: unknown risk grade 'huge' (expected low, medium or high)"),
        ("ratings", "{header}\n{valid}\nA.5.1.1,medium,medium\n", "row 3: duplicate rating for A.5.1.1"),
        ("ratings", "control_id,probability\n{valid}\n",
         "row 1: bad header 'control_id,probability' (expected control_id,probability,impact)"),
        ("applicability", "{header}\n{valid}\nA.5.1.2,maybe,x\n",
         "row 3: applicable must be true or false, found 'maybe'"),
        ("applicability", "{header}\n{valid}\nA.5.1.2,false, \n",
         "row 3: control A.5.1.2 marked not applicable without a justification"),
        ("applicability", "{header}\n{valid}\nA.5.1.1,yes,\n", "row 3: duplicate applicability row for A.5.1.1"),
        ("applicability", "{header}\n{valid}\nA.5.1.2,no,{long}\n",
         "row 3: unreadable CSV: field larger than field limit (131072)"),
        # a quoted cell spanning lines 2-3: the next record starts on line 4
        ("survey", '{header}\nr1,A.5.1.1,"3\n"\nr1,A.5.1.2,9\n', "row 4: score 9 outside 1..5"),
    ],
)
def test_csv_row_errors_name_file_and_row(tmp_path, loader, text, error):
    load, header, valid = CSV_LOADERS[loader]
    path = write(tmp_path, f"{loader}.csv", text.format(header=header, valid=valid, long="x" * 140_000))
    with pytest.raises(ValidationError) as err:
        load(path)
    assert str(err.value) == f"{path}, {error}"


# ---------------------------------------------------------------------------
# JSON plumbing

def test_canonical_json_is_sorted_indented_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'


def test_format_version_major_check():
    def parse(**version):
        return parse_document(json.dumps({**version, "kind": "stage-plan"}), "stage-plan", "x")

    assert parse(format_version="1")["format_version"] == "1"
    assert parse(format_version="1.4")["format_version"] == "1.4"
    with pytest.raises(ValidationError) as raised:
        parse(format_version="2")
    assert str(raised.value) == "x: unsupported format_version '2' (this reader understands major 1)"
    for version in ({}, {"format_version": ""}, {"format_version": 1}):
        with pytest.raises(ValidationError) as raised:
            parse(**version)
        assert str(raised.value) == "x: missing format_version"


def test_parse_document_rejects_wrong_kind():
    text = canonical_json({"format_version": "1", "kind": "stage-plan"})
    with pytest.raises(ValidationError, match="expected a control-catalog"):
        parse_document(text, "control-catalog", "x")


def test_parse_document_rejects_invalid_json():
    with pytest.raises(ValidationError, match="not valid JSON"):
        parse_document("{", "stage-plan", "x")


def test_write_document_read_document_round_trip(tmp_path):
    catalog = make_catalog(IDS)
    path = tmp_path / "catalog.json"
    write_document(path, catalog_document(catalog))
    raw = read_document(path, "control-catalog")
    assert raw == catalog_document(catalog)
    # canonical serialization: writing the re-read document is byte-identical
    second = tmp_path / "again.json"
    write_document(second, raw)
    assert second.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_write_text_atomic_applies_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "out.txt", "payload")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == 0o666 & ~umask


def test_write_text_atomic_reports_os_errors_and_leaves_no_temp_file(tmp_path):
    with pytest.raises(ValidationError, match="missing.*cannot write file"):
        write_text_atomic(tmp_path / "missing" / "out.txt", "payload")
    (tmp_path / "taken").mkdir()
    with pytest.raises(ValidationError, match="cannot write file"):
        write_text_atomic(tmp_path / "taken", "payload")  # a directory is no regular file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []
    # a FIFO and a symlink loop would be replaced by a regular file if the rename ran
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "l1").symlink_to("l2")
    (tmp_path / "l2").symlink_to("l1")
    for name in ("fifo", "l1"):
        with pytest.raises(ValidationError, match=f"{name}: cannot write file: not a regular file"):
            write_text_atomic(tmp_path / name, "payload")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "l1", "l2", "taken"]
    assert stat.S_ISFIFO((tmp_path / "fifo").lstat().st_mode)
    assert os.readlink(tmp_path / "l1") == "l2" and os.readlink(tmp_path / "l2") == "l1"


def test_write_text_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(target, "payload")
    write_text_atomic(target, "payload 2")  # overwrite in place
    assert target.read_text(encoding="utf-8") == "payload 2"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ---------------------------------------------------------------------------
# Document codecs

def test_importance_document_round_trip():
    from ismaturity import default_importance_db

    db = default_importance_db()
    assert importance_from_document(importance_document(db)) == db


def test_importance_document_rejects_unknown_control():
    document = {
        "format_version": "1",
        "kind": "importance-database",
        "controls": ["A.5.1.1"],
        "responses": {"r1": {"A.6.1.1": 3}},
    }
    with pytest.raises(ValidationError, match="scores for controls not in the catalog: A.6.1.1"):
        importance_from_document(document)


def test_stage_plan_document_round_trip(default_plan):
    plan = exclude_from_plan(default_plan, [cid("A.5.1.1")])
    assert stage_plan_from_document(stage_plan_document(plan)) == plan


def test_stage_plan_document_rejects_overlap():
    plan = make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.6.1.1": 3, "A.6.1.2": 4})
    document = stage_plan_document(plan)
    document["excluded"] = ["A.5.1.1"]
    with pytest.raises(ValidationError, match="both assigned and excluded"):
        stage_plan_from_document(document)


def test_stage_plan_document_rejects_unknown_provenance():
    plan = make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.6.1.1": 3, "A.6.1.2": 4})
    document = stage_plan_document(plan)
    document["provenance"]["A.5.1.1"] = "guessed"
    with pytest.raises(ValidationError, match="guessed"):
        stage_plan_from_document(document)


@pytest.mark.parametrize(
    ("boundaries", "message"),
    [([86, 57, 29, 5], "strictly increasing"), ([1, 2, 3, 5], "does not match the control count 4$")],
)
def test_stage_plan_document_rejects_bad_boundaries(boundaries, message):
    plan = make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.6.1.1": 3, "A.6.1.2": 4})
    document = stage_plan_document(plan)
    document["boundaries"] = boundaries
    with pytest.raises(ValidationError, match=message):
        stage_plan_from_document(document)


def test_minimum_db_document_round_trip_for_both_modes(catalog, ca_minimums):
    assert minimum_db_from_document(minimum_db_document(ca_minimums)) == ca_minimums
    fixed = build_minimum_db(FixedMinimums(level=4), ApplicabilityMap(), catalog)
    assert minimum_db_from_document(minimum_db_document(fixed)) == fixed


def test_minimum_db_document_rejects_bad_mode_and_levels(ca_minimums, tmp_path):
    document = minimum_db_document(ca_minimums)
    # only the tags build_minimum_db writes: fixed:1 .. fixed:5, one ASCII digit
    for mode in ("adhoc", "fixed:0", "fixed:9", "fixed:\u0663", "fixed:03"):
        path = tmp_path / "mins.json"
        path.write_text(canonical_json(dict(document, mode=mode)), encoding="utf-8")
        with pytest.raises(ValidationError, match="unknown minimum mode") as raised:
            read_minimum_db_file(path)
        assert str(raised.value).startswith(f"{path}: ")
    bad_level = json.loads(canonical_json(document))
    key = next(iter(bad_level["requirements"]))
    bad_level["requirements"][key]["required_level"] = 0
    with pytest.raises(ValidationError, match="required level"):
        minimum_db_from_document(bad_level)


@pytest.mark.parametrize(
    ("mode", "requirement"),
    [
        ("risk", {"required_level": 5, "priority": False, "raw_score": None}),
        ("risk", {"required_level": 3, "priority": False, "raw_score": 4}),
        ("risk", {"required_level": 5, "priority": False, "raw_score": 6}),
        ("risk", {"required_level": 5, "priority": True, "raw_score": 5}),
        ("risk", {"required_level": 5, "priority": False, "raw_score": 7}),
        ("fixed:3", {"required_level": 2, "priority": False, "raw_score": 3}),
        ("fixed:3", {"required_level": 3, "priority": False, "raw_score": 3}),
        ("fixed:3", {"required_level": 3, "priority": True, "raw_score": None}),
        ("fixed:3", {"required_level": 4, "priority": False, "raw_score": None}),
    ],
)
def test_minimum_db_requirements_must_fit_the_mode(mode, requirement):
    fitting = {"required_level": 3, "priority": False, "raw_score": 3 if mode == "risk" else None}
    document = {"mode": mode, "requirements": {text: fitting for text in IDS}, "excluded": {}}
    minimum_db_from_document(document)
    document["requirements"]["A.6.1.1"] = requirement
    with pytest.raises(ValidationError, match="A.6.1.1") as raised:
        minimum_db_from_document(document, source="mins.json")
    assert str(raised.value).startswith("mins.json: ")


def test_diff_document_round_trip(default_plan, ca_plan):
    deltas = diff_stage_plans(default_plan, ca_plan)
    assert deltas_from_document(diff_document(deltas)) == deltas
    document = diff_document(deltas)
    excluded_sides = [d["to"] for d in document["deltas"] if d["to"] == EXCLUDED_LABEL]
    assert len(excluded_sides) == 3  # exclusions appear as the literal word


def test_delta_document_rejects_unknown_stage_label():
    document = diff_document([StageDelta(cid("A.5.1.1"), Stage.ESSENTIAL, Stage.FULL)])
    document["deltas"][0]["to"] = "Ultimate"
    with pytest.raises(ValidationError, match="Ultimate"):
        deltas_from_document(document)


def edited_plan(edit):
    document = stage_plan_document(make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.6.1.1": 3, "A.6.1.2": 4}))
    edit(document)
    return document


def assigned_in_two_spellings(document):
    """A.5.1.1 assigned and tagged once more as 5.1.1, with boundaries that count five controls."""
    document["assignment"]["5.1.1"] = "Essential"
    document["provenance"]["5.1.1"] = "partitioned"
    document["boundaries"] = [1, 2, 3, 5]


FIXED_3 = {"required_level": 3, "priority": False, "raw_score": None}
CONTROL_RECORD = {"id": "A.5.1.1", "title": "x", "section_name": "s", "objective_text": "o"}


@pytest.mark.parametrize(
    ("read", "document", "message"),
    [
        (load_catalog, {"controls": [CONTROL_RECORD, dict(CONTROL_RECORD, id="5.1.1")], "dependencies": []},
         "'controls' names control A.5.1.1 twice"),
        (importance_from_document, {"controls": ["A.5.1.1", "5.1.1"], "responses": {}},
         "'controls' names control A.5.1.1 twice"),
        (importance_from_document, {"controls": ["A.5.1.1"], "responses": {"r1": {"A.5.1.1": 1, "5.1.1": 5}}},
         "respondent r1, control A.5.1.1: duplicate response for (r1, A.5.1.1)"),
        (stage_plan_from_document, edited_plan(lambda doc: doc["assignment"].update({"5.1.1": "Essential"})),
         "assignment['5.1.1']: found 'Essential', but the writer writes nothing"),
        (stage_plan_from_document, edited_plan(lambda doc: doc["provenance"].update({" A.5.1.1": "partitioned"})),
         "provenance[' A.5.1.1']: found 'partitioned', but the writer writes nothing"),
        (stage_plan_from_document, edited_plan(assigned_in_two_spellings),
         "assignment['5.1.1']: found 'Essential', but the writer writes nothing"),
        (stage_plan_from_document,
         edited_plan(lambda doc: doc.update(excluded=["A.7.1.1", "A.7.1.1"], boundaries=[1, 2, 3, 5])),
         "'excluded' names control A.7.1.1 twice"),
        (minimum_db_from_document, {"mode": "fixed:3", "requirements": {"A.5.1.1": FIXED_3, "5.1.1": FIXED_3},
                                    "excluded": {}},
         "'requirements' names control A.5.1.1 twice"),
        (minimum_db_from_document, {"mode": "fixed:3", "requirements": {"A.5.1.1": FIXED_3},
                                    "excluded": {"A.7.1.1": "outsourced", "7.1.1": "outsourced"}},
         "excluded['7.1.1']: found 'outsourced', but the writer writes nothing"),
        (deltas_from_document, {"deltas": [{"control": "A.5.1.1", "from": "Essential", "to": "Full"},
                                           {"control": "5.1.1", "from": "Essential", "to": "Advanced"}]},
         "'deltas' names control A.5.1.1 twice"),
    ],
    ids=["catalog-controls", "importance-controls", "importance-scores", "plan-assignment", "plan-provenance",
         "plan-assignment-and-provenance", "plan-excluded", "minimums-requirements", "minimums-excluded",
         "diff-deltas"],
)
def test_document_readers_reject_a_control_named_twice(read, document, message):
    # two spellings of one id, or one id listed twice, would otherwise collapse into one entry
    with pytest.raises(ValidationError) as raised:
        read(document, source="doc.json")
    assert str(raised.value) == f"doc.json: {message}"


def test_bundled_defaults_load_and_agree(catalog, default_plan):
    assert len(catalog) == 114
    assert default_plan.universe() == set(catalog.control_ids())
    assert default_plan.excluded == ()
