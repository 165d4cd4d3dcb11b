"""Maturity scale, the probability x impact matrix, and minimum-level databases.

Maturity is measured on the six-step 0..5 process scale (Non-existent,
Initial, Repeatable, Defined, Managed, Optimized). Each applicable control
gets a minimum required level, either one fixed floor for the whole catalog
or a per-control level derived from a risk rating: grade weights Low=1,
Medium=2, High=3 are summed, sums up to 5 map straight to the required
level, and the maxed-out 3+3 cell maps to level 5 with a priority flag
that travels into gap reporting. Not-applicable controls require a written
justification, carry required level 0, and are excluded from every
computation.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple

from .catalog import ControlCatalog, ControlId
from .errors import ConsistencyError, ValidationError

LEVEL_MIN = 0
LEVEL_MAX = 5

# Display names for the 0..5 maturity scale, in label-line form.
LEVEL_NAMES = {
    0: "Non-existent",
    1: "Initial",
    2: "Repeatable",
    3: "Defined",
    4: "Managed",
    5: "Optimized",
}


def level_name(level: int) -> str:
    return LEVEL_NAMES[check_level(level)]


def check_level(value: int, *, minimum: int = LEVEL_MIN) -> int:
    """Validate one maturity level; returns it for chaining."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"maturity level {value!r} is not an integer")
    if not minimum <= value <= LEVEL_MAX:
        raise ValidationError(f"maturity level {value} outside {minimum}..{LEVEL_MAX}")
    return value


class RiskGrade(Enum):
    """Probability or impact grade of a control's associated risk."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def weight(self) -> int:
        return {RiskGrade.LOW: 1, RiskGrade.MEDIUM: 2, RiskGrade.HIGH: 3}[self]


def parse_risk_grade(text: str) -> RiskGrade:
    try:
        return RiskGrade(text.strip().lower())
    except ValueError:
        raise ValidationError(f"unknown risk grade {text!r} (expected low, medium or high)") from None


class MinimumRequirement(NamedTuple):
    """Minimum acceptable maturity level for one applicable control.

    `raw_score` keeps the undiminished weight sum (2..6) in risk mode so the
    provenance of a capped level-5 cell stays auditable; fixed mode has none.
    """

    required_level: int
    priority: bool = False
    raw_score: int | None = None


def risk_minimum(probability: RiskGrade, impact: RiskGrade) -> MinimumRequirement:
    """Matrix cell for one (probability, impact) pair; symmetric in its arguments.

    Weight sums 2..5 become the required level directly. The 3+3 cell exceeds
    the scale, so it is capped at level 5 and flagged priority: such controls
    head the gap list whenever they measure below minimum.
    """
    raw = probability.weight + impact.weight
    return MinimumRequirement(required_level=min(raw, LEVEL_MAX), priority=raw == 6, raw_score=raw)


class ApplicabilityMap:
    """Sparse map of not-applicable controls to their mandatory justifications.

    Controls absent from the map are applicable; there is no way to record an
    exclusion without a written reason. Instances are immutable.
    """

    __slots__ = ("not_applicable",)

    def __init__(self, not_applicable: Mapping[ControlId, str] | None = None) -> None:
        not_applicable = {} if not_applicable is None else not_applicable
        for cid, justification in not_applicable.items():
            if not justification or not justification.strip():
                raise ValidationError(f"control {cid} marked not applicable without a justification")
        object.__setattr__(self, "not_applicable", not_applicable)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ApplicabilityMap):
            return NotImplemented
        return self.not_applicable == other.not_applicable

    def is_applicable(self, cid: ControlId) -> bool:
        return cid not in self.not_applicable

    def justification(self, cid: ControlId) -> str | None:
        return self.not_applicable.get(cid)

    def excluded_within(self, catalog: ControlCatalog) -> tuple[ControlId, ...]:
        return tuple(sorted(cid for cid in self.not_applicable if cid in catalog))


def mark_not_applicable(
    amap: ApplicabilityMap, cid: ControlId, justification: str
) -> ApplicabilityMap:
    """Exclude one control, recording why. The justification must be non-empty."""
    if not justification or not justification.strip():
        raise ValidationError(f"control {cid} needs a non-empty justification to be excluded")
    entries = dict(amap.not_applicable)
    entries[cid] = justification
    return ApplicabilityMap(not_applicable=entries)


def mark_applicable(amap: ApplicabilityMap, cid: ControlId) -> ApplicabilityMap:
    """Inverse of mark_not_applicable; a no-op for controls already applicable."""
    if cid not in amap.not_applicable:
        return amap
    entries = dict(amap.not_applicable)
    del entries[cid]
    return ApplicabilityMap(not_applicable=entries)


class FixedMinimums(NamedTuple):
    """Mode: one fixed floor (1..5) for every applicable control."""

    level: int


class RiskMinimums(NamedTuple):
    """Mode: per-control (probability, impact) ratings fed through the matrix."""

    ratings: Mapping[ControlId, tuple[RiskGrade, RiskGrade]]


class MinimumLevelDatabase(NamedTuple):
    """Per-control minimum requirements plus the exclusions they were built with.

    `mode` is the human-readable tag ("fixed:<n>" or "risk"); `excluded` maps
    each not-applicable control to its justification and implies required
    level 0.
    """

    mode: str
    requirements: Mapping[ControlId, MinimumRequirement]
    excluded: Mapping[ControlId, str]

    def required_level(self, cid: ControlId) -> int:
        if cid in self.excluded:
            return 0
        try:
            return self.requirements[cid].required_level
        except KeyError:
            raise ValidationError(f"control {cid} is not covered by this minimum database") from None


def build_minimum_db(
    mode: FixedMinimums | RiskMinimums,
    applicability: ApplicabilityMap,
    catalog: ControlCatalog,
) -> MinimumLevelDatabase:
    """Build the per-control minimum database for one assessment run.

    Fixed mode assigns the same required level (priority false) everywhere.
    Risk mode requires a rating for every applicable control and reports all
    missing ones in a single error; ratings supplied for excluded controls
    are ignored, so exclusions never change anyone else's minimum.
    """
    excluded = {
        cid: applicability.not_applicable[cid] for cid in applicability.excluded_within(catalog)
    }
    applicable = [cid for cid in catalog.control_ids() if cid not in excluded]
    if isinstance(mode, FixedMinimums):
        check_level(mode.level, minimum=1)
        requirements = {
            cid: MinimumRequirement(required_level=mode.level) for cid in applicable
        }
        return MinimumLevelDatabase(
            mode=f"fixed:{mode.level}", requirements=requirements, excluded=excluded
        )
    if isinstance(mode, RiskMinimums):
        missing = [cid for cid in applicable if cid not in mode.ratings]
        if missing:
            raise ConsistencyError(
                "no risk rating for applicable controls: " + ", ".join(str(c) for c in missing)
            )
        requirements = {cid: risk_minimum(*mode.ratings[cid]) for cid in applicable}
        return MinimumLevelDatabase(mode="risk", requirements=requirements, excluded=excluded)
    raise TypeError(f"unsupported minimum mode {mode!r}")
