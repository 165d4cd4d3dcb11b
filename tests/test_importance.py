"""Survey ingestion, exact averages, batch merging, the checks on a survey table."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismaturity import (
    ConsistencyError,
    ValidationError,
    ingest_responses,
    parse_control_id,
)
from ismaturity.importance import ImportanceDatabase, fold_scores

import expected_stages
from test_catalog import make_catalog

IDS = ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.6.1.2"]


def table(*surveys):
    """One survey table, {respondent: {control: score}}, from (respondent, {id text: score}) pairs."""
    return {
        respondent: {parse_control_id(text): score for text, score in scores.items()} for respondent, scores in surveys
    }


def full_survey(respondent, scores):
    return respondent, dict(zip(IDS, scores))


def test_average_is_exact_rational():
    catalog = make_catalog(IDS)
    rows = table(full_survey("r1", [5, 4, 3, 2]), full_survey("r2", [4, 4, 3, 2]), full_survey("r3", [5, 3, 3, 2]))
    db = ingest_responses(rows, catalog)
    assert db.average(parse_control_id("A.5.1.1")) == Fraction(14, 3)
    assert db.sum_and_count(parse_control_id("A.5.1.1")) == (14, 3)
    assert db.respondents == ("r1", "r2", "r3")


def test_unscored_control_keeps_zero_aggregate_but_average_errors():
    catalog = make_catalog(IDS)
    db = ingest_responses(table(("r1", {"A.5.1.1": 3})), catalog)
    assert db.sum_and_count(parse_control_id("A.6.1.1")) == (0, 0)
    with pytest.raises(ConsistencyError, match="no survey responses"):
        db.average(parse_control_id("A.6.1.1"))


@pytest.mark.parametrize("score", [0, 6, -1])
def test_score_outside_likert_range_rejected(score):
    catalog = make_catalog(IDS)
    with pytest.raises(ValidationError, match="outside 1..5"):
        ingest_responses(table(("r1", {"A.5.1.1": score})), catalog)


def test_unknown_control_rejected():
    catalog = make_catalog(IDS)
    with pytest.raises(ValidationError, match="not in the catalog"):
        ingest_responses(table(("r1", {"A.9.9.9": 3})), catalog)


@pytest.mark.parametrize(
    ("surveys", "message"),
    [
        ([("r1", {"A.5.1.1": 9})], "respondent r1, control A.5.1.1: score 9 outside 1..5"),
        ([("r1", {"A.5.1.1": True})], "respondent r1, control A.5.1.1: score True is not an integer"),
        ([("r1", {"A.5.1.1": 3.0})], "respondent r1, control A.5.1.1: score 3.0 is not an integer"),
        ([("r1", {"A.5.1.1": "3"})], "respondent r1, control A.5.1.1: score '3' is not an integer"),
        ([("", {})], "empty respondent_id"),
        ([("r1", dict.fromkeys(IDS, 9)), ("", {"A.5.1.1": True})], "empty respondent_id"),
        # the first bad cell in (respondent, control) order, ahead of controls outside the catalog
        ([("r2", {"A.5.1.1": 0}), ("r1", {"A.9.9.9": 3, "A.6.1.1": 6, "A.5.1.2": 7})],
         "respondent r1, control A.5.1.2: score 7 outside 1..5"),
    ],
    ids=["score-9", "bool", "float", "text", "empty-respondent", "empty-respondent-first", "first-in-order"],
)
def test_fold_rejects_a_table_add_score_would_not_build(surveys, message):
    catalog = make_catalog(IDS)
    for fold in (lambda rows: fold_scores(ImportanceDatabase(catalog.control_ids(), {}), rows),
                 lambda rows: ingest_responses(rows, catalog)):
        with pytest.raises(ValidationError) as raised:
            fold(table(*surveys))
        assert str(raised.value) == message


def test_incomplete_respondent_ingests_without_a_warning():
    # the suite turns every warning into an error; the CLI prints an incomplete respondent itself
    catalog = make_catalog(IDS)
    db = ingest_responses(table(("r1", {"A.5.1.1": 3})), catalog)
    assert db.sum_and_count(parse_control_id("A.5.1.1")) == (3, 1)
    assert db.responses == {"r1": {parse_control_id("A.5.1.1"): 3}}


def test_merge_new_respondent_extends_database():
    catalog = make_catalog(IDS)
    db = ingest_responses(table(full_survey("r1", [5, 4, 3, 2])), catalog)
    merged = fold_scores(db, table(full_survey("r2", [1, 1, 1, 1])))
    assert merged.respondents == ("r1", "r2")
    assert merged.sum_and_count(parse_control_id("A.5.1.1")) == (6, 2)
    # the original database is untouched
    assert db.respondents == ("r1",)


def test_merge_existing_respondent_requires_replace():
    catalog = make_catalog(IDS)
    db = ingest_responses(table(full_survey("r1", [5, 4, 3, 2])), catalog)
    with pytest.raises(ValidationError) as raised:
        fold_scores(db, table(full_survey("r1", [1, 1, 1, 1])))
    assert str(raised.value) == "respondents already in the database: r1 (pass --replace to resubmit)"


def test_replace_swaps_the_whole_submission():
    catalog = make_catalog(IDS)
    db = ingest_responses(table(full_survey("r1", [5, 4, 3, 2])), catalog)
    swapped = fold_scores(db, table(("r1", {"A.5.1.1": 1})), replace=True)
    # old scores are fully gone, including for controls the new batch skipped
    assert swapped.sum_and_count(parse_control_id("A.5.1.1")) == (1, 1)
    assert swapped.sum_and_count(parse_control_id("A.5.1.2")) == (0, 0)


def test_merge_empty_batch_is_identity():
    catalog = make_catalog(IDS)
    db = ingest_responses(table(full_survey("r1", [5, 4, 3, 2])), catalog)
    assert fold_scores(db, {}) == db


def test_batched_ingest_equals_single_ingest():
    catalog = make_catalog(IDS)
    rng = random.Random(7)
    rows = table(*(full_survey(f"r{n:02d}", [rng.randint(1, 5) for _ in IDS]) for n in range(12)))
    all_at_once = ingest_responses(rows, catalog)
    for _ in range(25):
        respondents = sorted(rows)
        rng.shuffle(respondents)
        first = set(respondents[:rng.randint(0, len(respondents))])
        db = ingest_responses({r: scores for r, scores in rows.items() if r in first}, catalog)
        db = fold_scores(db, {r: scores for r, scores in rows.items() if r not in first})
        assert db == all_at_once
        for text in IDS:
            assert db.average(parse_control_id(text)) == all_at_once.average(parse_control_id(text))


def test_bundled_panel_covers_every_control(catalog):
    from ismaturity import default_importance_db

    db = default_importance_db()
    assert len(db.respondents) == 40
    for cid in catalog.control_ids():
        total, count = db.sum_and_count(cid)
        assert count == 40
        assert Fraction(total, count) == db.average(cid)
    # The panel's design: ranked by the frozen default stages, in stage order and each id-sorted, the control at
    # rank r sums to 201 - r, except that each of three tie groups, straddling the cumulative boundaries 29, 57
    # and 86, shares the sum of its first rank.
    ranked = [
        parse_control_id(text)
        for members in expected_stages.default_stage_lists().values()
        for text in sorted(members, key=parse_control_id)
    ]
    assert sorted(ranked) == list(catalog.control_ids())
    tie_leaders = {30: 29, 31: 29, 58: 57, 87: 86}
    for rank, cid in enumerate(ranked, start=1):
        assert db.sum_and_count(cid)[0] == 201 - tie_leaders.get(rank, rank), (rank, str(cid))


# One step: an operation and its batch, respondent -> control -> score.
_batches = st.dictionaries(
    st.sampled_from(["r0", "r1", "r2", "r3"]),
    st.dictionaries(st.sampled_from(IDS), st.integers(1, 5), min_size=1),
)
_steps = st.lists(st.tuples(st.sampled_from(["ingest", "merge", "replace"]), _batches), max_size=8)


@settings(max_examples=150, deadline=None)
@given(_steps)
def test_totals_match_a_recount_after_any_ingest_and_merge(steps):
    catalog = make_catalog(IDS)
    db = ingest_responses({}, catalog)
    for operation, batch in steps:
        rows = table(*batch.items())
        if operation == "ingest":
            db = ingest_responses(rows, catalog)
        elif operation == "replace":
            db = fold_scores(db, rows, replace=True)
        elif not set(batch) & set(db.responses):
            db = fold_scores(db, rows)
        for cid in catalog.control_ids():
            scores = [s[cid] for s in db.responses.values() if cid in s]
            assert db.sum_and_count(cid) == (sum(scores), len(scores))
        with pytest.raises(ValidationError, match="not in this database's catalog"):
            db.sum_and_count(parse_control_id("A.9.9.9"))
