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
via sum_and_count()/average().

The survey's rules are written here once: add_score checks a row into
{respondent: {control: score}}, and fold_scores checks that table against the
catalog and the respondents present and warns of incomplete ones. The CSV
reader (files.read_survey), the CLI and ingest_responses/merge_responses
(whose errors name the 1-based entry) all use both; an importance document
(files.importance_from_document) checks each respondent with check_respondent,
also one with no scores, and each stored score with add_score.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .catalog import ControlCatalog, ControlId, check_known
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
        """Exact average importance of one control; error when nobody scored it."""
        total, count = self.sum_and_count(cid)
        if count == 0:
            raise ConsistencyError(f"no survey responses recorded for {cid}")
        return Fraction(total, count)


def check_respondent(respondent: str) -> None:
    """The one rule for a respondent id, whether or not scores come with it: it is non-empty."""
    if not respondent:
        raise ValidationError("empty respondent_id")


def add_score(scores: dict[str, dict[ControlId, int]], respondent: str, cid: ControlId, score) -> None:
    """Check one survey row and store it as `scores[respondent][cid]`: the survey's row rules, written once.

    The respondent must be non-empty, the score an integer (not a bool) in
    1..5, and the (respondent, control) pair new to `scores`: a silent
    overwrite would corrupt the exact sums. Whether `cid` is in a catalog is
    fold_scores' check, made once every row has passed this one.
    """
    check_respondent(respondent)
    if not isinstance(score, int) or isinstance(score, bool):
        raise ValidationError(f"score {score!r} is not an integer")
    if not LIKERT_MIN <= score <= LIKERT_MAX:
        raise ValidationError(f"score {score} outside {LIKERT_MIN}..{LIKERT_MAX}")
    by_control = scores.setdefault(respondent, {})
    if cid in by_control:
        raise ValidationError(f"duplicate response for ({respondent}, {cid})")
    by_control[cid] = score


def fold_scores(
    db: ImportanceDatabase, scores: Mapping[str, dict[ControlId, int]], *,
    replace: bool = False, replace_flag: str = "replace=True",
) -> ImportanceDatabase:
    """`db` with the per-respondent `scores`, as add_score builds them, folded in.

    Every control scored must be one of `db.controls`; the unknown ones are
    named together, sorted. A respondent already in `db` is an error naming
    `replace_flag`, the caller's way to set `replace`, which swaps in the new
    submission wholesale. Each new respondent who skipped controls triggers an
    IncompleteSurveyWarning: partial coverage is tolerated, conflicting is not.
    """
    known = set(db.controls)
    check_known(set().union(*scores.values()), known, "survey rows")
    clash = sorted(scores.keys() & db.responses.keys())
    if clash and not replace:
        raise ValidationError(
            f"respondents already in the database: {', '.join(clash)} (pass {replace_flag} to resubmit)"
        )
    for respondent in sorted(scores):
        scored, missing = len(scores[respondent]), len(known) - len(scores[respondent])
        if missing:
            warnings.warn(
                f"respondent {respondent} scored {scored} of {len(known)} controls ({missing} missing)",
                IncompleteSurveyWarning,
                stacklevel=3,
            )
    merged = {respondent: dict(by_control) for respondent, by_control in db.responses.items()}
    merged.update(scores)
    return ImportanceDatabase(controls=db.controls, responses=merged)


def _scores_of(responses: Iterable[SurveyResponse]) -> dict[str, dict[ControlId, int]]:
    """The per-respondent scores of `responses`; an error names the 1-based entry it is about."""
    scores: dict[str, dict[ControlId, int]] = {}
    for entry, (respondent, cid, score) in enumerate(responses, start=1):
        try:
            add_score(scores, respondent, cid, score)
        except ValidationError as exc:
            raise ValidationError(f"entry {entry}: {exc}") from None
    return scores


def ingest_responses(responses: Iterable[SurveyResponse], catalog: ControlCatalog) -> ImportanceDatabase:
    """Build a fresh database from survey rows, under add_score's and fold_scores' rules."""
    return fold_scores(ImportanceDatabase(catalog.control_ids(), {}), _scores_of(responses))


def merge_responses(
    db: ImportanceDatabase, new: Iterable[SurveyResponse], *, replace: bool = False
) -> ImportanceDatabase:
    """Fold a new batch of responses into an existing database, under fold_scores' rules.

    Merging an empty batch returns an equal database, and merging batches
    over disjoint respondent sets is order-independent, so ingest-all-at-once
    and ingest-in-batches agree.
    """
    return fold_scores(db, _scores_of(new), replace=replace)
