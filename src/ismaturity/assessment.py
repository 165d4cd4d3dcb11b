"""Gated evaluation of measured maturity levels against a stage plan.

A stage is complete when every applicable control in it measures at or above
its minimum required level. The overall label is the highest stage whose
prefix (itself and every earlier stage) is complete; if even Essential is
incomplete the label stays Essential with an explicit incomplete flag. All
four stage averages are always computed, also past the label, so progress in
later stages stays visible. Averages are exact rationals; only rendering
rounds.

The naive average over all applicable controls is computed alongside as the
non-gated baseline: two organizations can share a naive average to two
decimals yet sit at different label stages, which is exactly the distinction
the gate exists to surface.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .catalog import ControlId
from .errors import ConsistencyError, ValidationError
from .minimums import LEVEL_MAX, LEVEL_MIN, MinimumLevelDatabase
from .staging import Stage, StagePlan

# Measured maturity levels per control; must cover the applicable set exactly.
MeasurementSet = Mapping[ControlId, int]


class Gap(NamedTuple):
    """One control measured below its minimum."""

    control: ControlId
    stage: Stage
    measured: int
    required: int
    priority: bool


class StageResult(NamedTuple):
    """Outcome of one stage: membership, exact average, completeness, failures.

    `average` is None only for a stage with no controls (possible after heavy
    tie absorption or promotion); an empty stage counts as complete since
    nothing in it is below minimum.
    """

    stage: Stage
    members: tuple[ControlId, ...]
    average: Fraction | None
    complete: bool
    failing: tuple[Gap, ...]


class MisallocationFinding(NamedTuple):
    """A later-stage control outscoring an earlier-stage failing control.

    One finding per (later, earlier) stage pair, carrying the extreme example
    from each side: the highest-measured later control and the
    lowest-measured failing earlier control.
    """

    later_stage: Stage
    earlier_stage: Stage
    later_control: ControlId
    later_level: int
    earlier_control: ControlId
    earlier_level: int


class Label(NamedTuple):
    """The gated result: the stage reached and its exact average.

    `incomplete` marks the one case where even Essential is not complete
    and the stage is only the entry stage; `level` is None for an empty
    stage.
    """

    stage: Stage
    level: Fraction | None
    incomplete: bool


class AssessmentResult(NamedTuple):
    """Complete outcome of one gated evaluation, self-contained for reporting."""

    stage_results: tuple[StageResult, StageResult, StageResult, StageResult]
    label: Label
    naive_average: Fraction
    priority_gaps: tuple[Gap, ...]
    measurements: Mapping[ControlId, int]

    def stage_result(self, stage: Stage) -> StageResult:
        return self.stage_results[stage - 1]


def _check_coverage(plan: StagePlan, mins: MinimumLevelDatabase, measurements: MeasurementSet) -> None:
    if set(plan.excluded) != set(mins.excluded):
        odd = sorted(set(plan.excluded) ^ set(mins.excluded))
        raise ConsistencyError(
            "plan and minimum database disagree on exclusions: "
            + ", ".join(str(c) for c in odd)
        )
    applicable = set(plan.assignment)
    staged_and_excluded = sorted(applicable.intersection(plan.excluded))
    if staged_and_excluded:
        raise ConsistencyError(
            "controls both staged and excluded: " + ", ".join(str(c) for c in staged_and_excluded)
        )
    if applicable != set(mins.requirements):
        odd = sorted(applicable ^ set(mins.requirements))
        raise ConsistencyError(
            "plan and minimum database cover different controls: "
            + ", ".join(str(c) for c in odd)
        )
    measured = set(measurements)
    missing = sorted(applicable - measured)
    if missing:
        raise ConsistencyError(
            "applicable controls without measurements: " + ", ".join(str(c) for c in missing)
        )
    extra = sorted(measured - applicable)
    if extra:
        excluded = [c for c in extra if c in set(plan.excluded)]
        if excluded:
            raise ConsistencyError(
                "measurements provided for excluded controls: "
                + ", ".join(str(c) for c in excluded)
            )
        raise ConsistencyError(
            "measurements for controls outside the plan: " + ", ".join(str(c) for c in extra)
        )
    for cid in sorted(measured):
        value = measurements[cid]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"measured level for {cid} is not an integer: {value!r}")
        if not LEVEL_MIN <= value <= LEVEL_MAX:
            raise ValidationError(f"measured level for {cid} outside {LEVEL_MIN}..{LEVEL_MAX}: {value}")


def evaluate(
    plan: StagePlan, mins: MinimumLevelDatabase, measurements: MeasurementSet
) -> AssessmentResult:
    """Run the gated assessment.

    Plan, minimums and measurements must all cover the same applicable
    control set (and agree on exclusions, none of which may be staged); any
    mismatch is reported in one ConsistencyError listing the controls
    involved. Measured levels are integers 0..5, read as the level fully
    reached.
    """
    _check_coverage(plan, mins, measurements)
    stage_results = []
    for stage in Stage:
        members = plan.members(stage)
        failing = tuple(
            Gap(
                control=cid,
                stage=stage,
                measured=measurements[cid],
                required=mins.requirements[cid].required_level,
                priority=mins.requirements[cid].priority,
            )
            for cid in members
            if measurements[cid] < mins.requirements[cid].required_level
        )
        average = Fraction(sum(measurements[cid] for cid in members), len(members)) if members else None
        stage_results.append(
            StageResult(
                stage=stage,
                members=members,
                average=average,
                complete=not failing,
                failing=failing,
            )
        )
    label_stage = Stage.ESSENTIAL
    label_incomplete = not stage_results[0].complete
    if not label_incomplete:
        for result in stage_results:
            if not result.complete:
                break
            label_stage = result.stage
    priority_gaps = tuple(
        gap for result in stage_results for gap in result.failing if gap.priority
    )
    return AssessmentResult(
        stage_results=tuple(stage_results),
        label=Label(label_stage, stage_results[label_stage - 1].average, label_incomplete),
        naive_average=naive_average(measurements),
        priority_gaps=priority_gaps,
        measurements=dict(measurements),
    )


def naive_average(measurements: MeasurementSet) -> Fraction:
    """Plain mean over all applicable controls, ignoring stages and gates."""
    if not measurements:
        raise ConsistencyError("cannot average an empty measurement set")
    return Fraction(sum(measurements.values()), len(measurements))


def gap_analysis(result: AssessmentResult) -> tuple[Gap, ...]:
    """Every below-minimum control exactly once, in remediation order.

    Ordered by stage (earliest first), priority controls ahead of the rest
    within a stage, then by ControlId. This is the order the gaps block the
    label, so it doubles as a work queue.
    """
    gaps = [gap for stage_result in result.stage_results for gap in stage_result.failing]
    return tuple(sorted(gaps, key=lambda g: (g.stage, not g.priority, g.control)))


def misallocation_findings(
    result: AssessmentResult, threshold: int = 2
) -> tuple[MisallocationFinding, ...]:
    """Heuristic scan for effort invested out of order.

    Emits one finding per (later, earlier) stage pair where some later-stage
    control's measured level exceeds some earlier-stage failing control's
    measured level by at least `threshold` (default 2). Each finding carries
    the clearest example pair: the highest later-stage control against the
    lowest failing earlier-stage control, ties resolved toward the smaller
    ControlId. The threshold is a reporting heuristic, not part of the label
    computation.
    """
    peaks: dict[Stage, tuple[int, ControlId]] = {}
    floors: dict[Stage, tuple[int, ControlId]] = {}
    for stage_result in result.stage_results:
        # members are id-sorted, so strict comparisons keep the smallest id on ties
        for cid in stage_result.members:
            level = result.measurements[cid]
            if stage_result.stage not in peaks or level > peaks[stage_result.stage][0]:
                peaks[stage_result.stage] = (level, cid)
        if stage_result.failing:
            low = min(stage_result.failing, key=lambda gap: (gap.measured, gap.control))
            floors[stage_result.stage] = (low.measured, low.control)
    findings = []
    for later in Stage:
        if later not in peaks:
            continue
        later_level, later_control = peaks[later]
        for earlier in Stage:
            if earlier >= later or earlier not in floors:
                continue
            earlier_level, earlier_control = floors[earlier]
            if later_level - earlier_level >= threshold:
                findings.append(
                    MisallocationFinding(
                        later_stage=later,
                        earlier_stage=earlier,
                        later_control=later_control,
                        later_level=later_level,
                        earlier_control=earlier_control,
                        earlier_level=earlier_level,
                    )
                )
    findings.sort(key=lambda f: (f.later_stage, f.earlier_stage))
    return tuple(findings)
