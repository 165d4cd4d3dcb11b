"""Quartile partitioning, tie absorption, prerequisite promotion, plan diffs."""

import random
from fractions import Fraction

import pytest

from ismaturity import (
    ConsistencyError,
    DependencyGraph,
    Stage,
    StagePlan,
    ValidationError,
    build_stage_plan,
    default_boundaries,
    diff_stage_plans,
    exclude_from_plan,
    ingest_responses,
    parse_control_id,
    partition_quartiles,
    promote_prerequisites,
)
from ismaturity.minimums import ApplicabilityMap
from ismaturity.staging import PARTITIONED, PROMOTED, check_boundaries

from oracles import partition_by_quartiles, promotion_fixpoint
from test_catalog import make_catalog


def cid(text):
    return parse_control_id(text)


def synthetic_ids(count):
    ids = []
    for section in range(5, 19):
        for objective in range(1, 4):
            for control in range(1, 11):
                ids.append(f"A.{section}.{objective}.{control}")
                if len(ids) == count:
                    return ids
    raise AssertionError("count too large for the synthetic id space")


def make_plan(stage_numbers):
    assignment = {cid(t): Stage(n) for t, n in stage_numbers.items()}
    provenance = {c: PARTITIONED for c in assignment}
    return StagePlan(assignment=assignment, provenance=provenance, boundaries_used=(1, 2, 3, len(assignment)))


def test_stage_ordering_and_labels():
    assert Stage.ESSENTIAL < Stage.INTERMEDIATE < Stage.ADVANCED < Stage.FULL
    assert [s.label for s in Stage] == ["Essential", "Intermediate", "Advanced", "Full"]
    assert Stage.from_label("Advanced") is Stage.ADVANCED
    with pytest.raises(ValidationError):
        Stage.from_label("advanced")


@pytest.mark.parametrize("label", [5, None, [], {}, "advanced", " Advanced", "ADVANCED", 3.0, ""], ids=repr)
def test_from_label_rejects_every_non_label(label):
    with pytest.raises(ValidationError, match="unknown stage"):
        Stage.from_label(label)


def test_default_boundaries_use_ceiling():
    assert default_boundaries(114) == (29, 57, 86, 114)
    assert default_boundaries(111) == (28, 56, 84, 111)
    assert default_boundaries(4) == (1, 2, 3, 4)
    assert default_boundaries(5) == (2, 3, 4, 5)
    with pytest.raises(ValidationError):
        default_boundaries(3)


def test_partition_without_ties_cuts_at_exact_boundaries():
    ids = synthetic_ids(8)
    averages = {cid(t): Fraction(8 - n, 1) for n, t in enumerate(ids)}
    plan = partition_quartiles(averages, (2, 4, 6, 8))
    assert plan.members(Stage.ESSENTIAL) == tuple(sorted(map(cid, ids[:2])))
    assert plan.members(Stage.FULL) == tuple(sorted(map(cid, ids[6:])))
    assert all(tag == PARTITIONED for tag in plan.provenance.values())


def test_boundary_tie_group_is_absorbed_into_earlier_stage():
    ids = synthetic_ids(8)
    # positions 2 and 3 share an average; the first stage takes both
    values = [9, 8, 8, 7, 6, 5, 4, 3]
    averages = {cid(t): Fraction(v, 1) for t, v in zip(ids, values)}
    plan = partition_quartiles(averages, (2, 4, 6, 8))
    assert plan.sizes() == {Stage.ESSENTIAL: 3, Stage.INTERMEDIATE: 1, Stage.ADVANCED: 2, Stage.FULL: 2}


def test_absorption_can_leave_a_stage_empty():
    ids = synthetic_ids(8)
    # one giant tie group swallows the spans of stages one through three
    values = [9, 8, 8, 8, 8, 8, 8, 3]
    averages = {cid(t): Fraction(v, 1) for t, v in zip(ids, values)}
    plan = partition_quartiles(averages, (2, 4, 6, 8))
    assert plan.sizes() == {Stage.ESSENTIAL: 7, Stage.INTERMEDIATE: 0, Stage.ADVANCED: 0, Stage.FULL: 1}


def test_documented_four_way_tie_keeps_thirty_controls():
    # four equal averages straddling the first boundary at position 29:
    # positions 27..30 tie, so Essential ends at 30 controls, not 31
    ids = synthetic_ids(114)
    averages = {}
    for n, t in enumerate(ids, start=1):
        if 27 <= n <= 30:
            averages[cid(t)] = Fraction(300 - 27, 1)
        else:
            averages[cid(t)] = Fraction(300 - n, 1)
    plan = partition_quartiles(averages, (29, 57, 86, 114))
    assert plan.sizes()[Stage.ESSENTIAL] == 30
    assert plan.sizes()[Stage.INTERMEDIATE] == 27
    # the rule is spelled out where it is implemented
    assert "30" in partition_quartiles.__doc__ and "31" in partition_quartiles.__doc__


def test_partition_rejects_bad_boundaries():
    ids = synthetic_ids(8)
    averages = {cid(t): Fraction(n, 1) for n, t in enumerate(ids)}
    for bad in [
        (2, 4, 6), (2, 4, 6, 9), (4, 2, 6, 8), (0, 4, 6, 8), (8, 6, 4, 2), (2.5, 4, 6, 8), ("2", 4, 6, 8),
    ]:
        with pytest.raises(ValidationError):
            partition_quartiles(averages, bad)
    with pytest.raises(ValidationError):
        partition_quartiles({}, (1, 2, 3, 4))


def test_check_boundaries_lets_a_restricted_plan_keep_its_partition_boundaries():
    assert check_boundaries((29, 57, 86, 114), 114) == (29, 57, 86, 114)
    # exclude_from_plan left 111 of the 114 partitioned controls assigned
    assert check_boundaries((29, 57, 86, 114), 111, 114) == (29, 57, 86, 114)
    for bounds in [(29, 57, 86, 110), (29, 57, 86, 115)]:
        with pytest.raises(ValidationError, match="does not match the control count 111..114"):
            check_boundaries(bounds, 111, 114)


def test_partition_matches_enumeration_oracle_on_random_tie_heavy_inputs():
    rng = random.Random(20260814)
    ids = synthetic_ids(40)
    for _ in range(300):
        count = rng.randint(4, 40)
        chosen = rng.sample(ids, count)
        # few distinct values so boundary ties happen constantly
        averages = {t: Fraction(rng.randint(1, 6), rng.choice([1, 2, 3])) for t in chosen}
        boundaries = tuple(sorted(rng.sample(range(1, count), 3))) + (count,) if count > 4 else (1, 2, 3, 4)
        if len(set(boundaries)) != 4:
            continue
        plan = partition_quartiles({cid(t): a for t, a in averages.items()}, boundaries)
        expected = partition_by_quartiles(averages, boundaries)
        got = {str(c): int(s) for c, s in plan.assignment.items()}
        assert got == expected


def test_promotion_pulls_prerequisite_forward():
    plan = make_plan({"A.5.1.1": 3, "A.5.1.2": 1, "A.6.1.1": 2})
    graph = DependencyGraph.from_pairs([(cid("A.5.1.1"), cid("A.5.1.2"))])
    promoted = promote_prerequisites(plan, graph)
    assert promoted.assignment[cid("A.5.1.1")] is Stage.ESSENTIAL
    assert promoted.provenance[cid("A.5.1.1")] == PROMOTED
    # untouched controls keep stage and provenance
    assert promoted.assignment[cid("A.6.1.1")] is Stage.INTERMEDIATE
    assert promoted.provenance[cid("A.6.1.1")] == PARTITIONED


def test_promotion_follows_chains_transitively():
    plan = make_plan({"A.5.1.1": 4, "A.5.1.2": 3, "A.6.1.1": 1})
    graph = DependencyGraph.from_pairs(
        [(cid("A.5.1.1"), cid("A.5.1.2")), (cid("A.5.1.2"), cid("A.6.1.1"))]
    )
    promoted = promote_prerequisites(plan, graph)
    assert promoted.assignment[cid("A.5.1.1")] is Stage.ESSENTIAL
    assert promoted.assignment[cid("A.5.1.2")] is Stage.ESSENTIAL


def test_promotion_never_demotes_a_satisfied_plan():
    plan = make_plan({"A.5.1.1": 1, "A.5.1.2": 2})
    graph = DependencyGraph.from_pairs([(cid("A.5.1.1"), cid("A.5.1.2"))])
    assert promote_prerequisites(plan, graph) == plan


def test_promotion_ignores_edges_to_excluded_controls():
    plan = make_plan({"A.5.1.1": 3})
    graph = DependencyGraph.from_pairs([(cid("A.5.1.1"), cid("A.5.1.2"))])
    promoted = promote_prerequisites(plan, graph)
    assert promoted.assignment[cid("A.5.1.1")] is Stage.ADVANCED


def test_promotion_rejects_cyclic_graph():
    plan = make_plan({"A.5.1.1": 1, "A.5.1.2": 2})
    graph = DependencyGraph.from_pairs(
        [(cid("A.5.1.1"), cid("A.5.1.2")), (cid("A.5.1.2"), cid("A.5.1.1"))]
    )
    with pytest.raises(ConsistencyError, match="cycle"):
        promote_prerequisites(plan, graph)


def test_promotion_matches_fixpoint_oracle_on_random_dags():
    rng = random.Random(99)
    ids = synthetic_ids(16)
    for _ in range(300):
        nodes = rng.sample(ids, rng.randint(2, 16))
        order = nodes[:]
        rng.shuffle(order)
        position = {t: n for n, t in enumerate(order)}
        edges = []
        for a in nodes:
            for b in nodes:
                if position[a] < position[b] and rng.random() < 0.15:
                    edges.append((a, b))
        stages = {t: rng.randint(1, 4) for t in nodes}
        plan = make_plan(stages)
        graph = DependencyGraph.from_pairs((cid(a), cid(b)) for a, b in edges)
        promoted = promote_prerequisites(plan, graph)
        expected = promotion_fixpoint(stages, edges)
        assert {str(c): int(s) for c, s in promoted.assignment.items()} == expected
        for a, b in edges:
            assert promoted.assignment[cid(a)] <= promoted.assignment[cid(b)]
        for t in nodes:
            assert promoted.assignment[cid(t)] <= Stage(stages[t])
            if promoted.assignment[cid(t)] < Stage(stages[t]):
                assert promoted.provenance[cid(t)] == PROMOTED


def test_build_stage_plan_requires_scores_for_applicable_controls():
    ids = synthetic_ids(8)
    catalog = make_catalog(ids)
    db = ingest_responses({"r1": {cid(t): 3 for t in ids[:6]}}, catalog)
    with pytest.raises(ConsistencyError) as err:
        build_stage_plan(db, catalog)
    assert ids[6] in str(err.value) and ids[7] in str(err.value)


def test_build_stage_plan_drops_excluded_controls_before_partitioning():
    ids = synthetic_ids(8)
    catalog = make_catalog(ids)
    scores = [5, 5, 4, 4, 3, 3, 2, 2]
    rows = {r: {cid(t): s for t, s in zip(ids, scores)} for r in ("r1", "r2")}
    amap = ApplicabilityMap(not_applicable={cid(ids[0]): "outsourced"})
    plan = build_stage_plan(ingest_responses(rows, catalog), catalog, amap)
    assert plan.excluded == (cid(ids[0]),)
    assert cid(ids[0]) not in plan.assignment
    assert len(plan.assignment) == 7
    assert plan.boundaries_used == default_boundaries(7)


def test_exclude_from_plan_moves_controls_to_excluded():
    plan = make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.6.1.1": 3, "A.6.1.2": 4})
    restricted = exclude_from_plan(plan, [cid("A.5.1.2"), cid("A.9.9.9")])
    assert restricted.excluded == (cid("A.5.1.2"),)  # unknown ids are ignored
    assert cid("A.5.1.2") not in restricted.assignment
    assert restricted.assignment[cid("A.5.1.1")] is Stage.ESSENTIAL


def test_diff_reports_moves_and_exclusions_sorted_by_id():
    before = make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.11.1.2": 3, "A.6.1.1": 4})
    after_base = make_plan({"A.5.1.1": 1, "A.5.1.2": 1, "A.11.1.2": 3, "A.6.1.1": 4})
    after = exclude_from_plan(after_base, [cid("A.11.1.2")])
    deltas = diff_stage_plans(before, after)
    assert [(str(d.control), d.before, d.after) for d in deltas] == [
        ("A.5.1.2", Stage.INTERMEDIATE, Stage.ESSENTIAL),
        ("A.11.1.2", Stage.ADVANCED, None),
    ]


def test_diff_identical_plans_is_empty(default_plan):
    assert diff_stage_plans(default_plan, default_plan) == ()


def test_diff_rejects_different_universes():
    a = make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.6.1.1": 3, "A.6.1.2": 4})
    b = make_plan({"A.5.1.1": 1, "A.5.1.2": 2, "A.6.1.1": 3, "A.7.1.1": 4})
    with pytest.raises(ConsistencyError, match="A.6.1.2"):
        diff_stage_plans(a, b)


def test_members_are_sorted_and_sizes_consistent(default_plan):
    total = 0
    for stage in Stage:
        members = default_plan.members(stage)
        assert list(members) == sorted(members)
        total += len(members)
    assert total == len(default_plan.assignment) == 114
