"""Quartile staging: partition controls by average importance, promote prerequisites.

Controls are sorted by descending average importance (ascending id breaks
exact ties for a stable layout) and cut into the four implementation stages
Essential < Intermediate < Advanced < Full at cumulative boundary positions.
A tie group that straddles a boundary is absorbed whole into the earlier
stage, so actual stage sizes may deviate from the ideal quartile split; later
boundaries are not re-balanced afterwards. Prerequisite promotion then pulls
every control forward to the earliest stage of anything reachable from it
along prerequisite -> dependent edges, so no prerequisite is scheduled after
one of its dependents.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .catalog import ControlCatalog, ControlId, DependencyGraph, check_covered, check_same, topological_order
from .errors import ValidationError
from .minimums import ApplicabilityMap
from .importance import ImportanceDatabase


class Stage(IntEnum):
    """The four implementation stages, ordered earliest to latest.

    `label` ("Essential", ...) is the spelling documents and text use. It
    is set once per member, and from_label looks it up in a table.
    """

    ESSENTIAL = 1
    INTERMEDIATE = 2
    ADVANCED = 3
    FULL = 4

    def __init__(self, value: int) -> None:
        self.label = self.name.capitalize()

    @classmethod
    def from_label(cls, text: str) -> "Stage":
        stage = _STAGES_BY_LABEL.get(text) if type(text) is str else None
        if stage is None:
            raise ValidationError(f"unknown stage {text!r}")
        return stage


_STAGES_BY_LABEL = {stage.label: stage for stage in Stage}


# Provenance tags: how a control ended up in its final stage.
PARTITIONED = "partitioned"
PROMOTED = "promoted"


class StagePlan(NamedTuple):
    """Assignment of every applicable control to a stage.

    `provenance` records whether each control sits where the partition put it
    or was pulled forward by prerequisite promotion. `boundaries_used` keeps
    the cumulative targets the partition ran with, and `excluded` lists the
    not-applicable controls left out of the assignment entirely.
    """

    assignment: Mapping[ControlId, Stage]
    provenance: Mapping[ControlId, str]
    boundaries_used: tuple[int, int, int, int]
    excluded: tuple[ControlId, ...] = ()

    def members(self, stage: Stage) -> tuple[ControlId, ...]:
        return tuple(sorted(cid for cid, s in self.assignment.items() if s == stage))

    def sizes(self) -> dict[Stage, int]:
        counts = {stage: 0 for stage in Stage}
        for stage in self.assignment.values():
            counts[stage] += 1
        return counts

    def universe(self) -> frozenset[ControlId]:
        return frozenset(self.assignment) | frozenset(self.excluded)


class StageDelta(NamedTuple):
    """One difference between two plans; None stands for excluded."""

    control: ControlId
    before: Stage | None
    after: Stage | None


def default_boundaries(count: int) -> tuple[int, int, int, int]:
    """Cumulative stage boundaries for `count` controls: ceil(k * count / 4).

    For 114 controls this gives (29, 57, 86, 114), i.e. ideal stage sizes
    29/28/29/28. At least four controls are required, otherwise the four cut
    positions collide.
    """
    if count < 4:
        raise ValidationError(f"need at least 4 controls to stage, got {count}")
    return tuple(-(-k * count // 4) for k in (1, 2, 3, 4))  # type: ignore[return-value]


def check_boundaries(
    boundaries: Sequence[int], count: int, universe: int | None = None
) -> tuple[int, int, int, int]:
    """Validate cumulative stage boundaries for `count` staged controls.

    Exactly four integers (no floats, strings or booleans), strictly
    increasing, the first at least 1 and the last equal to `count`. A plan
    restricted by exclude_from_plan keeps the boundaries its partition ran
    with, so readers of stored plans pass the plan's whole universe as
    `universe`; the last boundary may then lie anywhere from `count` to
    `universe`.
    """
    bounds = tuple(boundaries)
    if len(bounds) != 4:
        raise ValidationError(f"exactly four boundaries required, got {len(bounds)}")
    if any(type(b) is not int for b in bounds):
        raise ValidationError(f"boundaries must be integers, got {bounds}")
    if any(b <= a for a, b in zip(bounds, bounds[1:])) or bounds[0] < 1:
        raise ValidationError(f"boundaries must be strictly increasing and positive, got {bounds}")
    top = count if universe is None else universe
    if not count <= bounds[-1] <= top:
        span = str(count) if top == count else f"{count}..{top}"
        raise ValidationError(f"last boundary {bounds[-1]} does not match the control count {span}")
    return bounds  # type: ignore[return-value]


def partition_quartiles(
    averages: Mapping[ControlId, Fraction], boundaries: Sequence[int]
) -> StagePlan:
    """Cut the importance-sorted control sequence into four stages.

    Each stage takes controls up to its cumulative boundary position, then
    absorbs every following control whose average exactly equals the average
    at the boundary position, pulling whole tie groups into the earlier
    stage. Later boundaries keep their original cumulative targets (no
    re-balancing); a stage whose span was swallowed entirely by absorption
    comes out empty.

    Worked edge case: with boundaries (29, 57, 86, 114) and a four-way tie at
    sorted positions 27..30, the first stage ends at position 30, i.e. 30
    controls (29 plus the one absorbed tie). Descriptions of this scenario
    sometimes state 31; the rule as specified gives 30 and is applied
    literally here.
    """
    if not averages:
        raise ValidationError("cannot partition an empty control set")
    bounds = check_boundaries(boundaries, len(averages))
    # Rank the distinct averages once, so the sort compares ints, not Fractions.
    rank = {value: i for i, value in enumerate(sorted(set(averages.values()), reverse=True))}
    order = sorted(averages, key=lambda cid: (rank[averages[cid]], cid))
    assignment: dict[ControlId, Stage] = {}
    provenance: dict[ControlId, str] = {}
    index = 0
    for stage, target in zip(Stage, bounds):
        if index >= target:
            continue  # earlier absorption consumed this stage's whole span
        end = target
        boundary_average = averages[order[end - 1]]
        while end < len(order) and averages[order[end]] == boundary_average:
            end += 1
        for cid in order[index:end]:
            assignment[cid] = stage
            provenance[cid] = PARTITIONED
        index = end
    return StagePlan(assignment=assignment, provenance=provenance, boundaries_used=bounds)


def promote_prerequisites(plan: StagePlan, graph: DependencyGraph) -> StagePlan:
    """Pull prerequisites forward until no one is scheduled after a dependent.

    Computes the unique fixpoint in a single reverse-topological pass: each
    control ends at the minimum of its own partitioned stage and the final
    stages of every control reachable from it along prerequisite -> dependent
    edges. Promotion never moves a control to a later stage, and a plan that
    already satisfies every edge comes back unchanged (same provenance).
    Edges touching controls outside the assignment (excluded ones) are
    ignored.
    """
    edges = [
        (prereq, dep)
        for prereq, dep in graph.edges
        if prereq in plan.assignment and dep in plan.assignment
    ]
    final: dict[ControlId, Stage] = dict(plan.assignment)
    dependents: dict[ControlId, list[ControlId]] = {}
    for prereq, dep in edges:
        dependents.setdefault(prereq, []).append(dep)
    for cid in reversed(topological_order(plan.assignment, edges)):
        for dep in dependents.get(cid, ()):
            if final[dep] < final[cid]:
                final[cid] = final[dep]
    provenance = {
        cid: (PROMOTED if final[cid] < plan.assignment[cid] else plan.provenance.get(cid, PARTITIONED))
        for cid in final
    }
    return StagePlan(
        assignment=final,
        provenance=provenance,
        boundaries_used=plan.boundaries_used,
        excluded=plan.excluded,
    )


def build_stage_plan(
    db: ImportanceDatabase, catalog: ControlCatalog, applicability: ApplicabilityMap | None = None
) -> StagePlan:
    """Full staging pipeline: drop excluded controls, partition, promote.

    Every applicable control needs at least one survey response; controls
    nobody scored are reported together in one error, since averaging them is
    undefined. Boundaries come from default_boundaries over the applicable
    count.
    """
    applicability = applicability or ApplicabilityMap()
    excluded = applicability.excluded_within(catalog)
    excluded_set = set(excluded)
    applicable = [cid for cid in catalog.control_ids() if cid not in excluded_set]
    totals = {cid: db.sum_and_count(cid) for cid in applicable}
    check_covered(totals.keys(), {cid for cid, (_, count) in totals.items() if count}, "survey responses")
    averages = {cid: Fraction(total, count) for cid, (total, count) in totals.items()}
    plan = partition_quartiles(averages, default_boundaries(len(applicable)))
    plan = plan._replace(excluded=excluded)
    return promote_prerequisites(plan, catalog.dependencies)


def exclude_from_plan(plan: StagePlan, excluded: Iterable[ControlId]) -> StagePlan:
    """Restrict a plan to controls outside `excluded`.

    Used when a shared plan (the bundled default) is evaluated under a
    company-specific applicability map: dropped controls move to the
    excluded list, everything else keeps its stage and provenance.
    """
    drop = set(excluded)
    assignment = {cid: stage for cid, stage in plan.assignment.items() if cid not in drop}
    provenance = {cid: tag for cid, tag in plan.provenance.items() if cid not in drop}
    merged = tuple(sorted(set(plan.excluded) | (drop & plan.universe())))
    return StagePlan(
        assignment=assignment,
        provenance=provenance,
        boundaries_used=plan.boundaries_used,
        excluded=merged,
    )


def diff_stage_plans(a: StagePlan, b: StagePlan) -> tuple[StageDelta, ...]:
    """All per-control differences between two plans over the same catalog.

    One delta per control whose stage or exclusion status differs, sorted by
    ControlId; exclusion shows up as None on the corresponding side. Plans
    covering different control universes cannot be compared meaningfully and
    raise ConsistencyError listing the mismatch.
    """
    universe_a = a.universe()
    check_same(universe_a, b.universe(), "plans cover different control sets; differing controls")
    deltas = []
    for cid in sorted(universe_a):
        before = a.assignment.get(cid)
        after = b.assignment.get(cid)
        if before != after:
            deltas.append(StageDelta(control=cid, before=before, after=after))
    return tuple(deltas)
