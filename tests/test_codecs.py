"""Properties of the document codecs: lossless round trips and strict reading."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ismaturity import (
    ApplicabilityMap,
    ControlId,
    RiskGrade,
    Stage,
    ValidationError,
    build_minimum_db,
    build_stage_plan,
    compare_modes,
    diff_stage_plans,
    evaluate,
    exclude_from_plan,
    gap_analysis,
    ingest_responses,
    load_catalog,
    misallocation_findings,
)
from ismaturity.files import (
    KIND_CATALOG,
    KIND_DIFF,
    KIND_IMPORTANCE,
    KIND_MINIMUMS,
    KIND_STAGE_PLAN,
    canonical_json,
    catalog_document,
    default_catalog,
    deltas_from_document,
    diff_document,
    importance_document,
    importance_from_document,
    minimum_db_document,
    minimum_db_from_document,
    parse_document,
    read_minimum_db_file,
    requirements_record,
    stage_plan_document,
    stage_plan_from_document,
)
from ismaturity.minimums import FixedMinimums, MinimumRequirement, RiskMinimums
from ismaturity.reporting import (
    HUMAN,
    STRUCTURED,
    build_report,
    model_plan,
    parse_comparison,
    parse_report,
    render_comparison,
    render_document,
    stage_changes,
)

from test_catalog import make_catalog
from test_staging import synthetic_ids

EXPECTED = Path(__file__).parent / "data" / "company_a" / "expected"
POOL = synthetic_ids(30)
GRADES = st.sampled_from(list(RiskGrade))
WORDS = st.text(min_size=1, max_size=12).filter(str.strip)


@st.composite
def scenarios(draw):
    """A small catalog with a prerequisite DAG, a full survey, exclusions, ratings, measurements."""
    ids = sorted(draw(st.lists(st.sampled_from(POOL), min_size=5, max_size=12, unique=True)), key=POOL.index)
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=4))
    edges = sorted({(a, b) for a, b in pairs if POOL.index(a) < POOL.index(b)})  # forward only: acyclic
    catalog = make_catalog(ids, edges=edges)
    respondents = draw(st.integers(1, 3))
    rows = {
        f"r{r}": {control: draw(st.integers(1, 5)) for control in catalog.control_ids()} for r in range(respondents)
    }
    excluded = draw(st.lists(st.sampled_from(catalog.control_ids()), max_size=len(ids) - 4, unique=True))
    applicability = ApplicabilityMap({control: draw(WORDS) for control in excluded})
    applicable = [control for control in catalog.control_ids() if control not in excluded]
    ratings = {control: (draw(GRADES), draw(GRADES)) for control in applicable}
    measurements = {control: draw(st.integers(0, 5)) for control in applicable}
    fixed = draw(st.none() | st.integers(1, 5))
    return catalog, rows, applicability, ratings, measurements, fixed


def pipeline(scenario):
    """The value of each document kind but the report, built from one scenario."""
    catalog, rows, applicability, ratings, measurements, fixed = scenario
    db = ingest_responses(rows, catalog)
    plan = build_stage_plan(db, catalog, applicability)
    unrestricted = build_stage_plan(db, catalog)
    mins = build_minimum_db(
        RiskMinimums(ratings) if fixed is None else FixedMinimums(fixed), applicability, catalog
    )
    mins_model = build_minimum_db(FixedMinimums(3), applicability, catalog)
    return {
        "catalog": catalog,
        "importance": db,
        "stage-plan": plan,
        "minimums": mins,
        "diff": diff_stage_plans(unrestricted, plan),
        "comparison": compare_modes(
            evaluate(exclude_from_plan(unrestricted, mins_model.excluded), mins_model, measurements),
            evaluate(plan, mins, measurements),
        ),
    }


def file_codec(kind, read, write):
    """(read, write) between a value and the text of its document file."""
    return (
        lambda text: read(parse_document(text, kind, "doc.json"), source="doc.json"),
        lambda value: canonical_json(write(value)),
    )


CODECS = {
    "catalog": file_codec(KIND_CATALOG, load_catalog, catalog_document),
    "importance": file_codec(KIND_IMPORTANCE, importance_from_document, importance_document),
    "stage-plan": file_codec(KIND_STAGE_PLAN, stage_plan_from_document, stage_plan_document),
    "minimums": file_codec(KIND_MINIMUMS, minimum_db_from_document, minimum_db_document),
    "diff": file_codec(KIND_DIFF, deltas_from_document, diff_document),
    "comparison": (
        lambda text: parse_comparison(text, source="doc.json"),
        lambda comparison: render_comparison(comparison, STRUCTURED, company="c", timestamp="t"),
    ),
}


@settings(max_examples=60, deadline=None)
@given(scenarios(), WORDS, WORDS)
def test_every_document_kind_round_trips_byte_identically(scenario, company, timestamp):
    catalog, rows, applicability, ratings, measurements, fixed = scenario
    values = pipeline(scenario)
    for kind in ("catalog", "importance", "stage-plan", "minimums", "diff"):
        read, write = CODECS[kind]
        text = write(values[kind])
        assert write(read(text)) == text

    plan, mins = values["stage-plan"], values["minimums"]
    assert_report_round_trips(plan, mins, applicability, measurements, "independent", company, timestamp)

    text = render_comparison(values["comparison"], STRUCTURED, company=company, timestamp=timestamp)
    assert render_comparison(parse_comparison(text), STRUCTURED, company=company, timestamp=timestamp) == text


def assert_report_round_trips(plan, mins, applicability, measurements, mode, company, timestamp):
    """The report `assess` writes in `mode` over `plan` reads back as the same bytes."""
    result = evaluate(plan, mins, measurements)
    report = build_report(
        result, gap_analysis(result), misallocation_findings(result), applicability, stage_changes(mode, plan),
        company=company, timestamp=timestamp, mode=mode, minimums=mins,
    )
    text = render_document(report, STRUCTURED)
    assert render_document(parse_report(text), STRUCTURED) == text


BUNDLED_IDS = default_catalog().control_ids()


# A model report's plan is the bundled default plan without the report's exclusions.
@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(BUNDLED_IDS), max_size=40, unique=True).flatmap(
        lambda excluded: st.tuples(st.just(excluded), st.lists(WORDS, min_size=len(excluded), max_size=len(excluded)))
    ),
    st.lists(st.integers(0, 5), min_size=len(BUNDLED_IDS), max_size=len(BUNDLED_IDS)),
    st.integers(1, 5),
    WORDS,
    WORDS,
)
def test_a_model_report_round_trips_byte_identically(exclusions, levels, fixed, company, timestamp):
    excluded, justifications = exclusions
    catalog = default_catalog()
    applicability = ApplicabilityMap(dict(zip(excluded, justifications)))
    measurements = {cid: level for cid, level in zip(BUNDLED_IDS, levels) if cid not in excluded}
    mins = build_minimum_db(FixedMinimums(fixed), applicability, catalog)
    plan = model_plan(applicability.excluded_within(catalog))
    assert_report_round_trips(plan, mins, applicability, measurements, "model", company, timestamp)


# ---------------------------------------------------------------------------
# Strict report reading

REPORTS = [
    (json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8")),
     (EXPECTED / f"{name}.txt").read_text(encoding="utf-8"))
    for name in ("assess_independent", "assess_model")
]


def nodes(value, path=()):
    """(path, value) of every node of a parsed JSON document, containers included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from nodes(item, path + (index,))


def replaced(document, path, value):
    """A deep copy of `document` with the node at `path` set to `value`."""
    if not path:
        return value
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(
    max_size=8
)
JSON_VALUES = SCALARS | st.lists(SCALARS, min_size=1, max_size=2) | st.dictionaries(
    st.text(max_size=4), SCALARS, min_size=1, max_size=2
)
ANY_JSON = JSON_VALUES | st.sampled_from([[], {}])
MUTATIONS = st.sampled_from(
    [
        (which, path, old)
        for which, (document, _) in enumerate(REPORTS)
        for path, old in nodes(document)
        if not isinstance(old, (dict, list))
    ]
).flatmap(
    lambda leaf: st.tuples(st.just(leaf), ANY_JSON.filter(lambda new: type(new) is not type(leaf[2])))
)


@settings(max_examples=400, deadline=None)
@given(MUTATIONS)
def test_a_mistyped_leaf_is_rejected_or_changes_nothing(mutation):
    (which, path, _), value = mutation
    document, human = REPORTS[which]
    try:
        parsed = parse_report(json.dumps(replaced(document, path, value)))
    except ValidationError:
        return
    assert render_document(parsed, HUMAN) == human


# An independent report's stage members are its plan, an input of the
# evaluation: another valid id in their place is a different plan, which
# evaluate may find inconsistent with the measurements (exit 2). test_cli
# covers a member moved between stages. A model report's members are derived.
DERIVED = (
    "stages", "label", "naive_average", "gaps", "priority_controls", "misallocation_findings", "stage_plan_deltas"
)
DERIVED_LEAVES = [
    (which, path, old)
    for which, (document, _) in enumerate(REPORTS)
    for path, old in nodes(document)
    if path and path[0] in DERIVED and not isinstance(old, (dict, list))
    and ("members" not in path or document["mode"] == "model")
]
STRING_LEAVES = sorted({old for _, _, old in DERIVED_LEAVES if type(old) is str})
SAME_TYPE = {
    bool: st.booleans(),
    int: st.integers(0, 6) | st.integers(),
    str: st.sampled_from(STRING_LEAVES) | st.text(max_size=8),
    type(None): st.none(),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(DERIVED_LEAVES).flatmap(lambda leaf: st.tuples(st.just(leaf), SAME_TYPE[type(leaf[2])])))
def test_a_derived_leaf_changed_within_its_type_is_rejected_or_changes_nothing(mutation):
    (which, path, _), value = mutation
    document, _ = REPORTS[which]
    try:
        parsed = parse_report(json.dumps(replaced(document, path, value)))
    except ValidationError:
        return
    assert render_document(parsed, STRUCTURED) == canonical_json(document)


# ---------------------------------------------------------------------------
# Strict reading of the other six document kinds


@pytest.mark.parametrize("kind", list(CODECS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_mistyped_node_is_rejected_or_changes_nothing(kind, data):
    # Nullable fields are drawn too: a requirement's raw_score must fit the
    # minimum mode and a label's level its level_name, so the other type a
    # field allows is caught as well.
    read, write = CODECS[kind]
    text = write(pipeline(data.draw(scenarios()))[kind])
    document = json.loads(text)
    path, old = data.draw(st.sampled_from(list(nodes(document))))
    value = data.draw(ANY_JSON.filter(lambda new: type(new) is not type(old)))
    try:
        parsed = read(json.dumps(replaced(document, path, value)))
    except ValidationError:
        return
    # Every kind but the catalog, a hand-written input, reads only as its writer writes it.
    assert kind == "catalog"
    assert write(parsed) == text


# ---------------------------------------------------------------------------
# A document reads only as its writer writes it

COMPARED = [kind for kind in CODECS if kind != "catalog"]
CONTROL_ID = re.compile(r"A\.\d+\.\d+\.\d+")


def repeating(document, path, key, value):
    """The JSON text of `document` in which the object at `path` gives `key` once more, with `value`."""
    marker = "\0repeated\0"
    node = dict(nodes(document))[path]
    pairs = [*node.items(), (key, value)]
    text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    return json.dumps(replaced(document, path, marker)).replace(json.dumps(marker), text)


@pytest.mark.parametrize("kind", COMPARED)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_document_its_writer_would_not_write_is_rejected(kind, data):
    read, write = CODECS[kind]
    document = json.loads(write(pipeline(data.draw(scenarios()))[kind]))
    objects = [(path, node) for path, node in nodes(document) if type(node) is dict]
    id_keys = [(path, node, key) for path, node in objects for key in node if CONTROL_ID.fullmatch(key)]
    edit = data.draw(st.sampled_from(["extra key", "repeated key"] + (["re-spelled id"] if id_keys else [])))
    if edit == "extra key":
        path, node = data.draw(st.sampled_from(objects))
        key = data.draw(st.text(max_size=4).filter(lambda key: key not in node))  # too short for a control id
        text = json.dumps(replaced(document, path, {**node, key: data.draw(JSON_VALUES)}))
    elif edit == "re-spelled id":
        path, node, key = data.draw(st.sampled_from(id_keys))
        spelling = data.draw(st.sampled_from([key[2:], " " + key]))
        text = json.dumps(replaced(document, path, {spelling if k == key else k: v for k, v in node.items()}))
    else:
        path, node = data.draw(st.sampled_from([(path, node) for path, node in objects if node]))
        key = data.draw(st.sampled_from(list(node)))
        text = repeating(document, path, key, data.draw(st.just(node[key]) | JSON_VALUES))
    with pytest.raises(ValidationError) as raised:
        read(text)
    assert str(raised.value).startswith("doc.json: ")


def expected_document(name):
    return json.loads((EXPECTED / name).read_text(encoding="utf-8"))


def edited(document, section, step, **extra):
    """The JSON text of `document` whose record `document[section][step]` has the `extra` keys too."""
    document[section][step].update(extra)
    return json.dumps(document)


@pytest.mark.parametrize(
    ("name", "edit", "command", "message"),
    [
        ("stage_plan.json", lambda doc: repeating(doc, ("assignment",), "A.5.1.1", "Full"),
         ("stage-plan", "diff", "default"), "unreadable JSON: key 'A.5.1.1' appears twice in one object"),
        ("stage_plan.json", lambda doc: json.dumps({**doc, "note": "draft"}),
         ("stage-plan", "diff", "default"), "note: found 'draft', but the writer writes nothing"),
        ("assess_independent.json", lambda doc: repeating(doc, (), "company", "company-b"),
         ("report",), "unreadable JSON: key 'company' appears twice in one object"),
        # a report's inputs are read with a key-set check, worded as the writer comparison words it
        ("assess_independent.json", lambda doc: json.dumps({**doc, "note": "draft"}),
         ("report",), "note: found 'draft', but the writer writes nothing"),
        ("assess_independent.json", lambda doc: edited(doc, "not_applicable", 0, reviewed=True),
         ("report",), "not_applicable[0].reviewed: found True, but the writer writes nothing"),
        # stage changes are derived: the rebuilt ones have no such key
        ("assess_independent.json", lambda doc: edited(doc, "stage_plan_deltas", 2, reason=["x"]),
         ("report",), "stage_plan_deltas[2].reason does not follow from the report's inputs: found a list of 1,"
         " rebuilt nothing"),
        ("assess_independent.json", lambda doc: edited(doc, "requirements", "A.5.1.1", source=None),
         ("report",), "requirements['A.5.1.1'].source: found None, but the writer writes nothing"),
    ],
    ids=["plan-key-twice", "plan-unknown-key", "report-company-twice", "report-unknown-key",
         "report-exclusion-unknown-key", "report-delta-unknown-key", "report-requirement-unknown-key"],
)
def test_a_document_its_writer_would_not_write_exits_one(run_cli, tmp_path, name, edit, command, message):
    path = tmp_path / name
    path.write_text(edit(expected_document(name)), encoding="utf-8")
    code, out, err = run_cli(*command, path)
    assert (code, out, err) == (1, "", f"input error: {path}: {message}\n")


def test_a_minimum_database_with_a_bare_key_and_an_extra_field_is_rejected(tmp_path):
    document = expected_document("minimums_risk.json")
    document["requirements"]["5.1.1"] = {"note": "x", **document["requirements"].pop("A.5.1.1")}
    path = tmp_path / "mins.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ValidationError) as raised:
        read_minimum_db_file(path)
    assert str(raised.value) == (
        f"{path}: requirements['5.1.1']: found an object with keys 'note', 'priority', 'raw_score',"
        " 'required_level', but the writer writes nothing"
    )


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        ({"company": 5}, "'company' must be a string, found 5"),
        ({"timestamp": None}, "'timestamp' must be a string, found None"),
    ],
    ids=["company", "timestamp"],
)
def test_a_comparison_reads_company_and_timestamp_as_strings(edit, message):
    text = json.dumps({**expected_document("compare_modes.json"), **edit})
    with pytest.raises(ValidationError) as raised:
        parse_comparison(text, source="c.json")
    assert str(raised.value) == f"c.json: {message}"


# ---------------------------------------------------------------------------
# The canonical writer against the standard library's indenting encoder

STRINGS = st.text(st.characters(blacklist_categories=()), max_size=8) | st.sampled_from(
    ["", "Kontrollzielüberprüfung", "控制", "\x00\x1f\x7f\t\n", "\ud800", "a\udfffb", "\u2028\u2029", '"\\/']
)
LEAVES = st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | STRINGS
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, children, max_size=4),
    max_leaves=24,
)


@st.composite
def values_sharing_dicts(draw):
    """Values in which the same dict objects recur, at one indent and at several."""
    inner = draw(st.dictionaries(STRINGS, VALUES, min_size=1, max_size=3))
    outer = {**draw(st.dictionaries(STRINGS, VALUES, max_size=2)), "inner": inner}
    return draw(
        st.recursive(
            st.sampled_from([inner, outer]) | LEAVES,
            lambda children: st.lists(children, max_size=4) | st.dictionaries(STRINGS, children, max_size=4),
            max_leaves=12,
        )
    )


SHARED = {"level": 3, "priority": False, "levels": [1, True]}


@settings(max_examples=500, deadline=None)
@given(VALUES | values_sharing_dicts())
@example([True, 1, False, 0, None, {}, [], ()])
@example({"big": 10**40, "negative": -(2**70), "": {"": [[], {}]}})
@example({"a": SHARED, "b": SHARED, "c": [SHARED, {"d": SHARED}], "e": {"f": SHARED}})
def test_canonical_json_writes_what_json_dumps_writes(value):
    assert canonical_json(value) == json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def test_requirement_records_keep_the_exact_json_type_of_each_field():
    # Equal requirements share one record, but false is not 0 and true is not 1.
    requirements = {
        ControlId(5, 1, 1): MinimumRequirement(3, False),
        ControlId(5, 1, 2): MinimumRequirement(3, 0),
        ControlId(5, 1, 3): MinimumRequirement(3, False),
        ControlId(5, 1, 4): MinimumRequirement(1, True, 1),
        ControlId(5, 1, 5): MinimumRequirement(True, 1, True),
    }
    expected = {
        str(cid): {"required_level": req.required_level, "priority": req.priority, "raw_score": req.raw_score}
        for cid, req in requirements.items()
    }
    text = canonical_json(requirements_record(requirements))
    assert text == json.dumps(expected, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert '"priority": false' in text and '"priority": 0' in text


class Text(str):
    pass


@pytest.mark.parametrize(
    "bad",
    [1.5, float("nan"), b"bytes", {1, 2}, Fraction(1, 3), object(), Stage.FULL, Text("subclass")],
    ids=lambda bad: type(bad).__name__,
)
def test_canonical_json_rejects_every_other_type(bad):
    for document in (bad, [1, bad], ("a", {"b": bad})):
        with pytest.raises(TypeError):
            canonical_json(document)


@pytest.mark.parametrize("key", [1, None, True, ("a",), Text("subclass")], ids=repr)
def test_canonical_json_rejects_keys_other_than_strings(key):
    with pytest.raises(TypeError):
        canonical_json({key: 1})
    with pytest.raises(TypeError):
        canonical_json([{"a": 1, key: 1}])
