"""Survey ingestion and the per-control average-importance database.

Stakeholders grade every control on a 1..5 Likert scale (1 no importance,
3 neutral, 5 very important). The database keeps the raw integer score of
each (respondent, control) pair so that per-control averages are exact
rationals; nothing is rounded before render time. Exactness matters: equal
averages at a quartile boundary change stage sizes downstream, and float
arithmetic would manufacture or destroy such ties.

Raw scores are also what makes resubmission honest: replacing a respondent's
earlier submission must subtract their old answers, which aggregate
(sum, count) pairs alone cannot do. The aggregates, computed once per
database in a single pass over the raw scores, remain the published surface
via sum_and_count()/control_average().
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .catalog import ControlCatalog, ControlId
from .errors import ConsistencyError, ValidationError

LIKERT_MIN = 1
LIKERT_MAX = 5


class IncompleteSurveyWarning(UserWarning):
    """A respondent did not score every control in the catalog."""


class SurveyResponse(NamedTuple):
    """One survey row: a respondent's importance score for one control."""

    respondent_id: str
    control_id: ControlId
    score: int


class ImportanceDatabase:
    """Accumulated Likert scores, keyed respondent -> control -> score.

    `controls` fixes the catalog universe the database was built against, so
    controls nobody scored still report (sum 0, count 0) rather than vanishing.
    Instances are immutable; ingest and merge always return new ones. The
    per-control (sum, count) totals are computed once, here, from the raw
    scores; scores for controls outside `controls` are not counted.
    """

    __slots__ = ("controls", "responses", "_totals")

    def __init__(
        self, controls: tuple[ControlId, ...], responses: Mapping[str, Mapping[ControlId, int]]
    ) -> None:
        sums = dict.fromkeys(controls, 0)
        counts = dict.fromkeys(controls, 0)
        for scores in responses.values():
            for cid, score in scores.items():
                if cid in sums:
                    sums[cid] += score
                    counts[cid] += 1
        set_field = object.__setattr__
        set_field(self, "controls", controls)
        set_field(self, "responses", responses)
        set_field(self, "_totals", {cid: (sums[cid], counts[cid]) for cid in sums})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ImportanceDatabase):
            return NotImplemented
        return (self.controls, self.responses) == (other.controls, other.responses)

    @property
    def respondents(self) -> tuple[str, ...]:
        return tuple(sorted(self.responses))

    def sum_and_count(self, cid: ControlId) -> tuple[int, int]:
        """Exact (sum of scores, number of responses) for one control."""
        try:
            return self._totals[cid]
        except KeyError:
            raise ValidationError(f"control {cid} is not in this database's catalog") from None

    def average(self, cid: ControlId) -> Fraction:
        total, count = self.sum_and_count(cid)
        if count == 0:
            raise ConsistencyError(f"no survey responses recorded for {cid}")
        return Fraction(total, count)


def control_average(db: ImportanceDatabase, cid: ControlId) -> Fraction:
    """Exact average importance of one control; error when nobody scored it."""
    return db.average(cid)


def _check_response(response: SurveyResponse, known: set[ControlId], entry: int) -> None:
    if response.control_id not in known:
        raise ValidationError(f"entry {entry}: control {response.control_id} is not in the catalog")
    if not isinstance(response.score, int) or isinstance(response.score, bool):
        raise ValidationError(f"entry {entry}: score {response.score!r} is not an integer")
    if not LIKERT_MIN <= response.score <= LIKERT_MAX:
        raise ValidationError(
            f"entry {entry}: score {response.score} outside {LIKERT_MIN}..{LIKERT_MAX}"
        )
    if not response.respondent_id:
        raise ValidationError(f"entry {entry}: empty respondent id")


def _collect(
    responses: Iterable[SurveyResponse], known: set[ControlId]
) -> dict[str, dict[ControlId, int]]:
    by_respondent: dict[str, dict[ControlId, int]] = {}
    for entry, response in enumerate(responses, start=1):
        _check_response(response, known, entry)
        scores = by_respondent.setdefault(response.respondent_id, {})
        if response.control_id in scores:
            raise ValidationError(
                f"duplicate response for ({response.respondent_id}, {response.control_id}) at entry {entry}"
            )
        scores[response.control_id] = response.score
    return by_respondent


def _warn_incomplete(by_respondent: Mapping[str, Mapping[ControlId, int]], known: set[ControlId]) -> None:
    for respondent in sorted(by_respondent):
        missing = len(known) - len(by_respondent[respondent])
        if missing:
            warnings.warn(
                f"respondent {respondent} scored {len(by_respondent[respondent])} of "
                f"{len(known)} controls ({missing} missing)",
                IncompleteSurveyWarning,
                stacklevel=3,
            )


def ingest_responses(
    responses: Iterable[SurveyResponse], catalog: ControlCatalog
) -> ImportanceDatabase:
    """Build a fresh database from survey rows.

    Every control id must exist in the catalog and every score must be a 1..5
    integer. A duplicate (respondent, control) pair is rejected, naming the
    offending entry: silent overwrites would corrupt the exact sums. A
    respondent who skipped controls triggers an IncompleteSurveyWarning;
    partial coverage is tolerated, conflicting coverage is not.
    """
    known = set(catalog.control_ids())
    by_respondent = _collect(responses, known)
    _warn_incomplete(by_respondent, known)
    return ImportanceDatabase(controls=catalog.control_ids(), responses=by_respondent)


def merge_responses(
    db: ImportanceDatabase, new: Iterable[SurveyResponse], *, replace: bool = False
) -> ImportanceDatabase:
    """Fold a new batch of responses into an existing database.

    A respondent already in the registry is rejected unless `replace` is set,
    in which case the new submission replaces the old one wholesale. Merging
    an empty batch returns an equal database, and merging batches over
    disjoint respondent sets is order-independent, so ingest-all-at-once and
    ingest-in-batches agree.
    """
    known = set(db.controls)
    incoming = _collect(new, known)
    clash = sorted(set(incoming) & set(db.responses))
    if clash and not replace:
        raise ValidationError(
            "respondents already in the database: "
            + ", ".join(clash)
            + " (pass replace=True to resubmit)"
        )
    _warn_incomplete(incoming, known)
    merged = {respondent: dict(scores) for respondent, scores in db.responses.items()}
    for respondent, scores in incoming.items():
        merged[respondent] = scores
    return ImportanceDatabase(controls=db.controls, responses=merged)
