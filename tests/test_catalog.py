"""Control identifiers, catalog loading, dependency validation."""

import random

import pytest

from ismaturity import (
    ControlId,
    DependencyGraph,
    ValidationError,
    load_catalog,
    parse_control_id,
    topological_order,
    validate_dependencies,
)
from ismaturity.catalog import Control, ControlCatalog
from ismaturity.files import catalog_document

from oracles import has_cycle


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
    ],
)
def test_parse_rejects_malformed_ids(text):
    with pytest.raises(ValidationError):
        parse_control_id(text)


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
    with pytest.raises(ValidationError, match="duplicate"):
        load_catalog(document)


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
        found_cycle = any(f.kind == "cycle" for f in validate_dependencies(catalog))
        assert found_cycle == has_cycle(ids, edges)


def test_topological_order_respects_edges_and_breaks_ties_by_id():
    catalog = make_catalog(
        ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.6.1.2"],
        edges=[("A.6.1.1", "A.5.1.1")],
    )
    order = topological_order(catalog)
    assert order.index(parse_control_id("A.6.1.1")) < order.index(parse_control_id("A.5.1.1"))
    # nodes that are free at the same time come out in id order
    assert order[-1] == parse_control_id("A.6.1.2")


def test_topological_order_rejects_cyclic_graph():
    catalog = make_catalog(
        ["A.5.1.1", "A.5.1.2"],
        edges=[("A.5.1.1", "A.5.1.2"), ("A.5.1.2", "A.5.1.1")],
    )
    with pytest.raises(Exception):
        topological_order(catalog)
