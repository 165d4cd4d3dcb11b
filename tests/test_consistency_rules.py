"""Every ConsistencyError the package raises, and the checks no other test reaches, each message in full.

A ConsistencyError (exit 2 on the command line) means inputs that each parse
but disagree. Two rules in catalog word most of them: check_same (two
records cover the same controls) and check_covered (every applicable
control has an input); both list the controls involved, sorted by id.
"""

import json

import pytest

from ismaturity import (
    ApplicabilityMap,
    ConsistencyError,
    RiskGrade,
    ValidationError,
    build_minimum_db,
    build_stage_plan,
    compare_modes,
    diff_stage_plans,
    evaluate,
    exclude_from_plan,
    naive_average,
    parse_control_id,
    topological_order,
)
from ismaturity.files import stage_plan_document, stage_plan_from_document
from ismaturity.importance import ImportanceDatabase
from ismaturity.minimums import FixedMinimums, RiskMinimums
from ismaturity.reporting import build_report, parse_comparison, render_comparison

from test_catalog import make_catalog
from test_staging import make_plan

IDS = ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.6.1.2"]
A5, A6 = parse_control_id("A.5.1.1"), parse_control_id("A.6.1.2")
# Sorted by id it comes last; sorted as text it would come first.
OUTSIDE = parse_control_id("A.18.2.3")
CATALOG = make_catalog(IDS)
PLAN = make_plan({text: stage for stage, text in enumerate(IDS, start=1)})
LEVELS = {parse_control_id(text): 3 for text in IDS}
LOW = (RiskGrade.LOW, RiskGrade.LOW)


def minimums(excluded=(), ids=IDS):
    """A fixed:3 minimum database over `ids`, excluding `excluded`."""
    amap = ApplicabilityMap(dict.fromkeys(excluded, "not used here"))
    return build_minimum_db(FixedMinimums(3), amap, make_catalog(ids))


def levels(*drop, add=None):
    """LEVELS without the controls `drop`, with the measurements `add`."""
    return {**{cid: level for cid, level in LEVELS.items() if cid not in drop}, **(add or {})}


def scored_by_nobody():
    """A survey in which nobody scored A.5.1.1 or A.6.1.2."""
    return ImportanceDatabase(CATALOG.control_ids(), {"r1": {parse_control_id(t): 3 for t in IDS[1:3]}})


def report_excluding_what_the_map_does_not():
    plan = exclude_from_plan(PLAN, [A6])
    excluding = minimums([A6])
    result = evaluate(plan, excluding, levels(A6))
    return build_report(
        result, (), (), ApplicabilityMap(), None, company="c", timestamp="t", mode="model", minimums=excluding
    )


CONSISTENCY_ERRORS = [
    # assessment.evaluate: plan, minimums and measurements cover the same applicable controls
    pytest.param(
        lambda: evaluate(exclude_from_plan(PLAN, [A6]), minimums([A5]), levels(A5, A6)),
        "plan and minimum database disagree on exclusions: A.5.1.1, A.6.1.2",
        id="evaluate-exclusions",
    ),
    pytest.param(
        lambda: evaluate(PLAN._replace(excluded=(A5,)), minimums([A5]), LEVELS),
        "controls both staged and excluded: A.5.1.1",
        id="evaluate-staged-and-excluded",
    ),
    pytest.param(
        lambda: evaluate(PLAN, minimums(ids=IDS[:-1] + [str(OUTSIDE)]), LEVELS),
        "plan and minimum database cover different controls: A.6.1.2, A.18.2.3",
        id="evaluate-plan-and-requirements",
    ),
    pytest.param(  # a missing measurement is named ahead of an extra one
        lambda: evaluate(PLAN, minimums(), levels(A5, A6, add={OUTSIDE: 3})),
        "applicable controls without measurements: A.5.1.1, A.6.1.2",
        id="evaluate-missing-measurements",
    ),
    pytest.param(
        lambda: evaluate(exclude_from_plan(PLAN, [A6]), minimums([A6]), levels(add={OUTSIDE: 3})),
        "measurements provided for excluded controls: A.6.1.2",
        id="evaluate-excluded-measurements",
    ),
    pytest.param(
        lambda: evaluate(PLAN, minimums(), levels(add={OUTSIDE: 3})),
        "measurements for controls outside the plan: A.18.2.3",
        id="evaluate-measurements-outside-the-plan",
    ),
    pytest.param(
        lambda: naive_average({}),
        "cannot average an empty measurement set",
        id="naive-average-empty",
    ),
    # reporting
    pytest.param(
        lambda: compare_modes(
            evaluate(exclude_from_plan(PLAN, [A5]), minimums([A5]), levels(A5)),
            evaluate(exclude_from_plan(PLAN, [A6]), minimums([A6]), levels(A6)),
        ),
        "inconsistent applicability between modes: A.5.1.1, A.6.1.2",
        id="compare-modes-exclusions",
    ),
    pytest.param(
        report_excluding_what_the_map_does_not,
        "minimum database excludes A.6.1.2 but the applicability map does not",
        id="build-report-exclusions",
    ),
    # staging
    pytest.param(
        lambda: diff_stage_plans(PLAN, make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.6.1.1": 3, str(OUTSIDE): 4})),
        "plans cover different control sets; differing controls: A.6.1.2, A.18.2.3",
        id="diff-stage-plans-universes",
    ),
    pytest.param(
        lambda: build_stage_plan(scored_by_nobody(), CATALOG),
        "applicable controls without survey responses: A.5.1.1, A.6.1.2",
        id="build-stage-plan-unscored",
    ),
    pytest.param(
        lambda: scored_by_nobody().average(A5),
        "no survey responses recorded for A.5.1.1",
        id="importance-average-unscored",
    ),
    # minimums
    pytest.param(
        lambda: build_minimum_db(
            RiskMinimums({parse_control_id(t): LOW for t in IDS[1:3]}), ApplicabilityMap(), CATALOG
        ),
        "applicable controls without risk ratings: A.5.1.1, A.6.1.2",
        id="build-minimum-db-ratings",
    ),
    # catalog
    pytest.param(
        lambda: topological_order([A5, A6], [(A5, A6), (A6, A5)]),
        "dependency graph contains a cycle",
        id="topological-order-cycle",
    ),
]


@pytest.mark.parametrize(("call", "message"), CONSISTENCY_ERRORS)
def test_every_consistency_error_is_worded_in_full(call, message):
    with pytest.raises(ConsistencyError) as raised:
        call()
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# Checks of other kinds that no other test reaches

def test_topological_order_rejects_an_edge_outside_its_nodes():
    with pytest.raises(ValidationError) as raised:
        topological_order([A5], [(A5, A6)])
    assert str(raised.value) == "dependency (A.5.1.1 -> A.6.1.2) references a control outside the graph"


def test_a_stage_plan_document_whose_provenance_misses_an_assigned_control():
    document = stage_plan_document(PLAN)
    del document["provenance"]["A.5.1.2"]
    with pytest.raises(ValidationError) as raised:
        stage_plan_from_document(document, source="p.json")
    assert str(raised.value) == "p.json: provenance must cover exactly the assigned controls"


@pytest.mark.parametrize("exact", ["1/0", "x"])
def test_a_comparison_average_whose_exact_value_is_no_fraction(exact):
    result = evaluate(PLAN, minimums(), LEVELS)
    comparison = compare_modes(result, result)
    document = json.loads(render_comparison(comparison, "structured", company="c", timestamp="t"))
    document["naive_average"]["exact"] = exact
    with pytest.raises(ValidationError) as raised:
        parse_comparison(json.dumps(document), source="c.json")
    assert str(raised.value) == f"c.json: malformed average record: {{'display': '3.00', 'exact': {exact!r}}}"


def test_build_minimum_db_rejects_a_mode_of_neither_kind():
    with pytest.raises(TypeError) as raised:
        build_minimum_db("fixed:3", ApplicabilityMap(), CATALOG)
    assert str(raised.value) == "unsupported minimum mode 'fixed:3'"
