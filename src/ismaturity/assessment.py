"""Gated evaluation of measured maturity levels against a stage plan.

A stage is complete when every applicable control in it measures at or above
its minimum required level. The overall label is the highest stage whose
prefix (itself and every earlier stage) is complete; if even Essential is
incomplete the label stays Essential with an explicit incomplete flag. All
four stage averages are always computed, also past the label, so progress in
later stages stays visible. Averages are exact rationals; only rendering
rounds. A measured level follows minimums.check_level; an error names its control.

The naive average over all applicable controls is computed alongside as the
non-gated baseline: two organizations can share a naive average to two
decimals yet sit at different label stages, which is exactly the distinction
the gate exists to surface.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .catalog import ControlId, check_covered, check_same
from .errors import ConsistencyError, ValidationError
from .minimums import LEVEL_MAX, LEVEL_MIN, MinimumLevelDatabase, check_level
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
    measurements: Mapping[ControlId, int]

    def stage_result(self, stage: Stage) -> StageResult:
        return self.stage_results[stage - 1]


def _check_coverage(plan: StagePlan, mins: MinimumLevelDatabase, measurements: MeasurementSet) -> None:
    excluded = set(plan.excluded)
    check_same(excluded, mins.excluded.keys(), "plan and minimum database disagree on exclusions")
    applicable = plan.assignment.keys()
    staged_and_excluded = sorted(applicable & excluded)
    if staged_and_excluded:
        raise ConsistencyError(
            "controls both staged and excluded: " + ", ".join(str(c) for c in staged_and_excluded)
        )
    check_same(applicable, mins.requirements.keys(), "plan and minimum database cover different controls")
    measured = measurements.keys()
    check_covered(applicable, measured, "measurements")
    if len(measured) != len(applicable):
        extra = sorted(measured - applicable)
        excluded_extra = [c for c in extra if c in excluded]
        if excluded_extra:
            raise ConsistencyError(
                "measurements provided for excluded controls: " + ", ".join(str(c) for c in excluded_extra)
            )
        raise ConsistencyError(
            "measurements for controls outside the plan: " + ", ".join(str(c) for c in extra)
        )
    # A scan without a call per control; check_level words the first bad level in id order.
    bad = [
        cid for cid, value in measurements.items()
        if not (isinstance(value, int) and not isinstance(value, bool) and LEVEL_MIN <= value <= LEVEL_MAX)
    ]
    if bad:
        cid = min(bad)
        try:
            check_level(measurements[cid])
        except ValidationError as exc:
            raise ValidationError(f"control {cid}: {exc}") from None


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
    grouped: dict[Stage, list[ControlId]] = {stage: [] for stage in Stage}
    for cid in sorted(plan.assignment):
        grouped[plan.assignment[cid]].append(cid)
    stage_results = []
    for stage in Stage:
        members = tuple(grouped[stage])
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
    return AssessmentResult(
        stage_results=tuple(stage_results),
        label=Label(label_stage, stage_results[label_stage - 1].average, label_incomplete),
        naive_average=naive_average(measurements),
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


# The level difference misallocation_findings looks for when not given one.
DEFAULT_MISALLOCATION_THRESHOLD = 2


def check_misallocation_threshold(threshold: int) -> int:
    """Validate a misallocation threshold; returns it for chaining.

    A threshold below 1 is a ValidationError: it would report pairs whose
    later level does not exceed the earlier one.
    """
    if threshold < 1:
        raise ValidationError(f"misallocation threshold {threshold} is below 1")
    return threshold


def misallocation_findings(
    result: AssessmentResult, threshold: int = DEFAULT_MISALLOCATION_THRESHOLD
) -> tuple[MisallocationFinding, ...]:
    """Heuristic scan for effort invested out of order.

    Emits one finding per (later, earlier) stage pair where some later-stage
    control's measured level exceeds some earlier-stage failing control's
    measured level by at least `threshold`. Each finding carries the
    clearest example pair: the highest later-stage control against the
    lowest failing earlier-stage control, ties resolved toward the smaller
    ControlId. The threshold is a reporting heuristic, not part of the label
    computation; check_misallocation_threshold validates it.
    """
    check_misallocation_threshold(threshold)
    peaks: dict[Stage, tuple[int, ControlId]] = {}
    floors: dict[Stage, tuple[int, ControlId]] = {}
    levels = result.measurements
    for stage_result in result.stage_results:
        if stage_result.members:
            # members are id-sorted and max keeps the first of equal levels: the smallest id
            peak = max(stage_result.members, key=levels.__getitem__)
            peaks[stage_result.stage] = (levels[peak], peak)
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
