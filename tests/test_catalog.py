"""Control identifiers, catalog loading, dependency validation."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ismaturity import (
    ControlId,
    DependencyGraph,
    ValidationError,
    load_catalog,
    parse_control_id,
    topological_order,
    validate_dependencies,
)
from ismaturity.catalog import (
    ID_CACHE_SIZE,
    SECTION_MAX,
    SECTION_MIN,
    Control,
    ControlCatalog,
    _parse_stripped,
)
from ismaturity.files import catalog_document

from oracles import has_cycle, id_key


def make_catalog(ids, edges=()):
    controls = tuple(
        Control(id=parse_control_id(t), title=t, section_name="s", objective_text="o")
        for t in sorted(ids, key=lambda t: parse_control_id(t))
    )
    graph = DependencyGraph.from_pairs(
        (parse_control_id(a), parse_control_id(b)) for a, b in edges
    )
    return ControlCatalog(controls=controls, dependencies=graph)


def test_parse_canonical_form():
    cid = parse_control_id("A.5.1.1")
    assert (cid.section, cid.objective, cid.control) == (5, 1, 1)
    assert str(cid) == "A.5.1.1"


def test_parse_accepts_bare_and_lowercase_spellings():
    assert parse_control_id("9.2.3") == parse_control_id("A.9.2.3")
    assert parse_control_id("a.9.2.3") == parse_control_id("A.9.2.3")
    assert parse_control_id("  A.18.1.4 ") == ControlId(18, 1, 4)


@pytest.mark.parametrize(
    "text",
    [
        "", "A.5.1", "A.5.1.1.1", "A.x.1.1", "A.4.1.1", "A.19.1.1", "A.5.0.1", "A.5.1.0", "B.5.1.1",
        # digits outside ASCII: a superscript int() rejects, an Arabic-Indic five it accepts
        "A.5.1.\u00b2", "A.\u0665.1.1",
        # not strings at all, as a mistyped JSON document delivers them; a list
        # or a dict must not reach the id cache, which would hash it
        5, None, [], {},
        # a field with more digits than int() converts (4,300 by default)
        pytest.param("A.5.1." + "1" * 5000, id="field-past-the-int-digit-limit"),
    ],
)
def test_parse_rejects_malformed_ids(text):
    with pytest.raises(ValidationError):
        parse_control_id(text)


# Independent oracle of the accepted spellings: optional surrounding whitespace
# (what str.strip removes), an optional "A."/"a." prefix, three ASCII numbers.
ID_ORACLE = re.compile(r"\s*(?:[Aa]\.)?([0-9]+)\.([0-9]+)\.([0-9]+)\s*")


def oracle_parse(text):
    match = ID_ORACLE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        return None
    section, objective, control = map(int, match.groups())
    if 5 <= section <= 18 and objective >= 1 and control >= 1:
        return ControlId(section, objective, control)
    return None


ID_SPACES = st.sampled_from(["", "", "", " ", "\t", "\n", "\u00a0", "\u2003", "\x1f"])
ID_NUMBERS = st.sampled_from(["1", "2", "5", "9", "18"]) | st.sampled_from(
    ["0", "4", "19", "25", "05", "007", "00", "018", "", "x", "\u0665", "\u00b2", "\uff15", "1_0", "+5", "-5", " 5", "5 "]
)
ID_TEXTS = st.builds(
    lambda before, prefix, numbers, after: before + prefix + ".".join(numbers) + after,
    ID_SPACES,
    st.sampled_from(["A.", "A.", "A.", "", "a.", "B.", "A", "A..", ".", "AA.", "\u0391."]),
    st.lists(ID_NUMBERS, min_size=3, max_size=3) | st.lists(ID_NUMBERS, min_size=2, max_size=5),
    ID_SPACES,
)


def reference_message(text):
    """The ValidationError message for a rejected id, one check after another."""
    if not isinstance(text, str):
        return f"control id {text!r} is not a string"
    raw = text.strip()
    if not raw:
        return "empty control id"
    parts = (raw[2:] if raw[:2] in ("A.", "a.") else raw).split(".")
    if len(parts) != 3:
        return f"control id {raw!r} must have three numeric fields"
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            return f"control id {raw!r}: field {part!r} is not a number"
    section, objective, control = map(int, parts)
    if not 5 <= section <= 18:
        return f"control id {raw!r}: section {section} is outside A.5..A.18"
    return f"control id {raw!r}: objective and control must be >= 1"


@settings(max_examples=1000, deadline=None)
@given(ID_TEXTS | st.text(max_size=10) | st.sampled_from([5, None, [], 5.1, b"A.5.1.1"]))
@example("A.\u0665.1.1")
@example("A.5.0.1")
@example("A.5.1.0")
@example("A.4.1.1")
@example("A.19.1.1")
@example("A.05.01.001")
@example(" a.18.1.4\u2003")
def test_parse_control_id_accepts_exactly_what_the_oracle_accepts(text):
    expected = oracle_parse(text)
    try:
        parsed = parse_control_id(text)
    except ValidationError as exc:
        assert expected is None
        assert str(exc) == reference_message(text)
    else:
        assert parsed == expected
        assert type(parsed) is ControlId


SPELLED_IDS = st.builds(
    lambda before, prefix, numbers, after: before + prefix + ".".join(map(str, numbers)) + after,
    ID_SPACES,
    st.sampled_from(["A.", ""]),
    st.tuples(st.integers(0, 20), st.integers(0, 99), st.integers(0, 99)),
    ID_SPACES,
)


def outcome(parse, text):
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.text() | ID_TEXTS | SPELLED_IDS)
def test_cached_parse_matches_the_uncached_body(text):
    expected = outcome(_parse_stripped.__wrapped__, text.strip())
    first = outcome(parse_control_id, text)
    second = outcome(parse_control_id, text)
    assert first == second == expected
    assert type(first) is type(second) is type(expected)
    if type(expected) is ControlId:
        assert second is first  # the second call is answered from the cache


@given(st.integers(SECTION_MIN, SECTION_MAX), st.integers(1, 10**6), st.integers(1, 10**6))
def test_printed_id_is_the_canonical_spelling(section, objective, control):
    cid = ControlId(section, objective, control)
    assert str(cid) == str(cid) == f"A.{section}.{objective}.{control}"
    assert parse_control_id(str(cid)) == cid


def test_id_caches_stay_within_their_bound():
    sections = range(SECTION_MIN, SECTION_MAX + 1)
    ids = [ControlId(s, o, c) for s in sections for o in range(1, 31) for c in range(1, 31)]
    assert len(ids) > ID_CACHE_SIZE
    for cid in ids:
        assert parse_control_id(str(cid)) == cid
    for cache in (ControlId.__str__, _parse_stripped):
        info = cache.cache_info()
        assert (info.maxsize, info.currsize) == (ID_CACHE_SIZE, ID_CACHE_SIZE)


def test_control_ids_order_numerically_not_lexically():
    assert parse_control_id("A.9.2.3") < parse_control_id("A.10.1.1")
    assert parse_control_id("A.11.1.2") < parse_control_id("A.11.1.10")


def test_default_catalog_shape(catalog):
    assert len(catalog) == 114
    sections = {cid.section for cid in catalog.control_ids()}
    assert sections == set(range(5, 19))
    assert catalog.control_ids() == tuple(sorted(catalog.control_ids()))
    # one shipped prerequisite: the policy exists before it is reviewed
    assert catalog.dependencies.edges == (
        (parse_control_id("A.5.1.1"), parse_control_id("A.5.1.2")),
    )


def test_default_catalog_metadata_present(catalog):
    for control in catalog.controls:
        assert control.title and control.section_name and control.objective_text


def test_get_unknown_control_raises(catalog):
    with pytest.raises(ValidationError):
        catalog.get(ControlId(5, 9, 9))


def test_load_catalog_round_trip(catalog):
    assert load_catalog(catalog_document(catalog)) == catalog


def test_load_catalog_rejects_duplicate_ids():
    document = {
        "controls": [
            {"id": "A.5.1.1", "title": "x", "section_name": "s", "objective_text": "o"},
            {"id": "A.5.1.1", "title": "y", "section_name": "s", "objective_text": "o"},
        ],
        "dependencies": [],
    }
    with pytest.raises(ValidationError) as raised:
        load_catalog(document)
    assert str(raised.value) == "catalog document: 'controls' names control A.5.1.1 twice"


def test_load_catalog_rejects_unknown_edge_endpoint():
    document = {
        "controls": [{"id": "A.5.1.1", "title": "x", "section_name": "s", "objective_text": "o"}],
        "dependencies": [{"prerequisite": "A.5.1.1", "dependent": "A.5.1.2"}],
    }
    with pytest.raises(ValidationError, match="A.5.1.2"):
        load_catalog(document)


def test_validate_dependencies_flags_self_edge_and_cycle():
    catalog = make_catalog(
        ["A.5.1.1", "A.5.1.2", "A.6.1.1"],
        edges=[("A.5.1.1", "A.5.1.1"), ("A.5.1.2", "A.6.1.1"), ("A.6.1.1", "A.5.1.2")],
    )
    kinds = sorted(f.kind for f in validate_dependencies(catalog))
    assert kinds == ["cycle", "self-edge"]


def test_validate_dependencies_clean_graph_has_no_findings(catalog):
    assert validate_dependencies(catalog) == ()


def test_cycle_detection_matches_oracle_on_random_graphs():
    rng = random.Random(20260814)
    universe = [f"A.{s}.{o}.{c}" for s in (5, 6, 7) for o in (1, 2) for c in (1, 2, 3)]
    for _ in range(300):
        ids = rng.sample(universe, rng.randint(2, len(universe)))
        edges = []
        for _ in range(rng.randint(0, 12)):
            a, b = rng.choice(ids), rng.choice(ids)
            if a != b:
                edges.append((a, b))
        catalog = make_catalog(ids, edges=[])
        graph = DependencyGraph.from_pairs(
            (parse_control_id(a), parse_control_id(b)) for a, b in edges
        )
        catalog = ControlCatalog(controls=catalog.controls, dependencies=graph)
        findings = validate_dependencies(catalog)
        assert any(f.kind == "cycle" for f in findings) == has_cycle(ids, edges)
        cycles = [f.message.removeprefix("dependency cycle: ").split(" -> ") for f in findings]
        for cycle in cycles:  # a real cycle from its smallest id: each step an edge, closing on its first id
            assert cycle[0] == cycle[-1] == min(cycle, key=id_key)
            assert all((a, b) in edges for a, b in zip(cycle, cycle[1:]))
        members = [cid for cycle in cycles for cid in cycle[1:]]
        assert len(members) == len(set(members))  # disjoint, and every cycle passes through one of them
        assert not has_cycle([i for i in ids if i not in members], [e for e in edges if not set(e) & set(members)])


def test_topological_order_respects_edges_and_breaks_ties_by_id():
    catalog = make_catalog(
        ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.6.1.2"],
        edges=[("A.6.1.1", "A.5.1.1")],
    )
    order = topological_order(catalog.control_ids(), catalog.dependencies.edges)
    assert order.index(parse_control_id("A.6.1.1")) < order.index(parse_control_id("A.5.1.1"))
    # nodes that are free at the same time come out in id order
    assert order[-1] == parse_control_id("A.6.1.2")


def test_topological_order_rejects_cyclic_graph():
    catalog = make_catalog(
        ["A.5.1.1", "A.5.1.2"],
        edges=[("A.5.1.1", "A.5.1.2"), ("A.5.1.2", "A.5.1.1")],
    )
    with pytest.raises(Exception):
        topological_order(catalog.control_ids(), catalog.dependencies.edges)
