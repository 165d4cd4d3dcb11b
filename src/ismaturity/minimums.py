"""Maturity scale, the probability x impact matrix, and minimum-level databases.

Maturity is measured on the six-step 0..5 process scale (Non-existent,
Initial, Repeatable, Defined, Managed, Optimized); check_level is the rule
for every reader of a level, and holds a fixed minimum to 1..5. Each
applicable control gets a minimum required level, either one fixed floor for
the whole catalog or a per-control level derived from a risk rating: grade
weights Low=1, Medium=2, High=3 are summed, sums up to 5 map straight to the
required level, and the maxed-out 3+3 cell maps to level 5 with a priority
flag that travels into gap reporting. Not-applicable controls require a
written justification, carry required level 0, and are excluded from every
computation; an ApplicabilityMap is built whole from its exclusions, and
check_justification is the rule for every reader of one.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple

from .catalog import ControlCatalog, ControlId, check_covered
from .errors import ValidationError

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
    return scored_minimum(probability.weight + impact.weight)


def scored_minimum(raw_score: int) -> MinimumRequirement:
    """The requirement for one weight sum (2..6): the level, capped at 5, and priority for 6."""
    return MinimumRequirement(
        required_level=min(raw_score, LEVEL_MAX), priority=raw_score == 6, raw_score=raw_score
    )


def check_justification(cid: ControlId, justification) -> str:
    """The one rule for excluding a control: its justification is a non-blank string. Returns it."""
    if not isinstance(justification, str) or not justification.strip():
        raise ValidationError(f"control {cid} marked not applicable without a justification")
    return justification


class ApplicabilityMap:
    """Sparse map of not-applicable controls to their mandatory justifications.

    Controls absent from the map are applicable; there is no way to record an
    exclusion without a written reason. Instances are immutable.
    """

    __slots__ = ("not_applicable",)

    def __init__(self, not_applicable: Mapping[ControlId, str] | None = None) -> None:
        not_applicable = {} if not_applicable is None else not_applicable
        for cid, justification in not_applicable.items():
            check_justification(cid, justification)
        object.__setattr__(self, "not_applicable", not_applicable)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def is_applicable(self, cid: ControlId) -> bool:
        return cid not in self.not_applicable

    def excluded_within(self, catalog: ControlCatalog) -> tuple[ControlId, ...]:
        return tuple(sorted(cid for cid in self.not_applicable if cid in catalog))


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


# The mode tags build_minimum_db writes, each with the fixed level it names.
_MODE_TAGS = {"risk": None, **{f"fixed:{level}": level for level in range(1, LEVEL_MAX + 1)}}


def parse_mode_tag(tag: str) -> int | None:
    """The fixed level a mode tag names ("fixed:1" .. "fixed:5"), or None for "risk".

    Exactly the tags build_minimum_db writes are accepted: "fixed:03",
    "fixed:0" or a non-ASCII digit are a ValidationError.
    """
    if tag not in _MODE_TAGS:
        raise ValidationError(f"unknown minimum mode {tag!r} (expected risk or fixed:<level>)")
    return _MODE_TAGS[tag]


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
        check_covered(set(applicable), mode.ratings.keys(), "risk ratings")
        requirements = {cid: risk_minimum(*mode.ratings[cid]) for cid in applicable}
        return MinimumLevelDatabase(mode="risk", requirements=requirements, excluded=excluded)
    raise TypeError(f"unsupported minimum mode {mode!r}")
