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
{respondent: {control: score}}, and fold_scores checks a whole table against
them, the catalog and the respondents present. Neither warns: the CLI reports
a respondent who skipped controls from the table it folded. A survey is read
by files.load_survey_csv and folded into a fresh database by ingest_responses
(into a stored one, for import-survey --into, by fold_scores); an importance
document's table is folded into an empty database by fold_scores too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .catalog import ControlCatalog, ControlId, check_known
from .errors import ConsistencyError, ValidationError

LIKERT_MIN = 1
LIKERT_MAX = 5
_LIKERT_SCORES = frozenset(range(LIKERT_MIN, LIKERT_MAX + 1))


class ImportanceDatabase:
    """Accumulated Likert scores, keyed respondent -> control -> score.

    `controls` fixes the catalog universe the database was built against, so
    controls nobody scored still report (sum 0, count 0) rather than vanishing.
    Instances are immutable; fold_scores always returns a new one. The
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
    db: ImportanceDatabase, scores: Mapping[str, dict[ControlId, int]], *, replace: bool = False
) -> ImportanceDatabase:
    """`db` with the per-respondent `scores` folded in; every respondent and score must pass add_score.

    Every control scored must be one of `db.controls`; the unknown ones are
    named together, sorted, once every score has passed. A respondent already
    in `db` is an error unless `replace` (the CLI's --replace) swaps in the
    new submission wholesale. Partial coverage is tolerated, conflicting is not.
    """
    # A scan without a call per cell finds the respondents who may break a rule; check_respondent and
    # add_score word the first bad one in (respondent, control) order, prefixed "respondent r1, control A.5.1.1: ".
    suspects = [
        respondent for respondent, by_control in scores.items()
        if not respondent
        or not ({*map(type, by_control.values())} <= {int} and _LIKERT_SCORES.issuperset(by_control.values()))
    ]
    for respondent in sorted(suspects):
        check_respondent(respondent)
        for cid in sorted(scores[respondent]):
            try:
                add_score({}, respondent, cid, scores[respondent][cid])
            except ValidationError as exc:
                raise ValidationError(f"respondent {respondent}, control {cid}: {exc}") from None
    check_known(set().union(*scores.values()), set(db.controls), "survey rows")
    clash = sorted(scores.keys() & db.responses.keys())
    if clash and not replace:
        raise ValidationError(
            f"respondents already in the database: {', '.join(clash)} (pass --replace to resubmit)"
        )
    merged = {respondent: dict(by_control) for respondent, by_control in db.responses.items()}
    merged.update(scores)
    return ImportanceDatabase(controls=db.controls, responses=merged)


def ingest_responses(scores: Mapping[str, dict[ControlId, int]], catalog: ControlCatalog) -> ImportanceDatabase:
    """A fresh database over `catalog`'s controls with the survey table `scores` folded in (fold_scores)."""
    return fold_scores(ImportanceDatabase(catalog.control_ids(), {}), scores)
