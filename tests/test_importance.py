"""Survey ingestion, exact averages, batch merging."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismaturity import (
    ConsistencyError,
    SurveyResponse,
    ValidationError,
    ingest_responses,
    parse_control_id,
)
from ismaturity.importance import add_score, fold_scores

from test_catalog import make_catalog

IDS = ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.6.1.2"]


def response(respondent, text, score):
    return SurveyResponse(respondent, parse_control_id(text), score)


def full_survey(respondent, scores):
    return [response(respondent, text, score) for text, score in zip(IDS, scores)]


def merge(db, rows, replace=False):
    """`db` with the survey `rows` folded in, as the CLI's import-survey --into folds a survey."""
    scores = {}
    for row in rows:
        add_score(scores, *row)
    return fold_scores(db, scores, replace=replace)


def test_average_is_exact_rational():
    catalog = make_catalog(IDS)
    rows = full_survey("r1", [5, 4, 3, 2]) + full_survey("r2", [4, 4, 3, 2]) + full_survey("r3", [5, 3, 3, 2])
    db = ingest_responses(rows, catalog)
    assert db.average(parse_control_id("A.5.1.1")) == Fraction(14, 3)
    assert db.sum_and_count(parse_control_id("A.5.1.1")) == (14, 3)
    assert db.respondents == ("r1", "r2", "r3")


def test_unscored_control_keeps_zero_aggregate_but_average_errors():
    catalog = make_catalog(IDS)
    db = ingest_responses([response("r1", "A.5.1.1", 3)], catalog)
    assert db.sum_and_count(parse_control_id("A.6.1.1")) == (0, 0)
    with pytest.raises(ConsistencyError, match="no survey responses"):
        db.average(parse_control_id("A.6.1.1"))


@pytest.mark.parametrize("score", [0, 6, -1])
def test_score_outside_likert_range_rejected(score):
    catalog = make_catalog(IDS)
    with pytest.raises(ValidationError, match="outside 1..5"):
        ingest_responses([response("r1", "A.5.1.1", score)], catalog)


def test_unknown_control_rejected():
    catalog = make_catalog(IDS)
    with pytest.raises(ValidationError, match="not in the catalog"):
        ingest_responses([response("r1", "A.9.9.9", 3)], catalog)


def test_duplicate_respondent_control_pair_rejected_with_entry_number():
    catalog = make_catalog(IDS)
    rows = [response("r1", "A.5.1.1", 3), response("r1", "A.5.1.1", 4)]
    with pytest.raises(ValidationError, match="entry 2"):
        ingest_responses(rows, catalog)


def test_incomplete_respondent_ingests_without_a_warning():
    # the suite turns every warning into an error; the CLI prints an incomplete respondent itself
    catalog = make_catalog(IDS)
    db = ingest_responses([response("r1", "A.5.1.1", 3)], catalog)
    assert db.sum_and_count(parse_control_id("A.5.1.1")) == (3, 1)
    assert db.responses == {"r1": {parse_control_id("A.5.1.1"): 3}}


def test_merge_new_respondent_extends_database():
    catalog = make_catalog(IDS)
    db = ingest_responses(full_survey("r1", [5, 4, 3, 2]), catalog)
    merged = merge(db, full_survey("r2", [1, 1, 1, 1]))
    assert merged.respondents == ("r1", "r2")
    assert merged.sum_and_count(parse_control_id("A.5.1.1")) == (6, 2)
    # the original database is untouched
    assert db.respondents == ("r1",)


def test_merge_existing_respondent_requires_replace():
    catalog = make_catalog(IDS)
    db = ingest_responses(full_survey("r1", [5, 4, 3, 2]), catalog)
    with pytest.raises(ValidationError) as raised:
        merge(db, full_survey("r1", [1, 1, 1, 1]))
    assert str(raised.value) == "respondents already in the database: r1 (pass --replace to resubmit)"


def test_replace_swaps_the_whole_submission():
    catalog = make_catalog(IDS)
    db = ingest_responses(full_survey("r1", [5, 4, 3, 2]), catalog)
    swapped = merge(db, [response("r1", "A.5.1.1", 1)], replace=True)
    # old scores are fully gone, including for controls the new batch skipped
    assert swapped.sum_and_count(parse_control_id("A.5.1.1")) == (1, 1)
    assert swapped.sum_and_count(parse_control_id("A.5.1.2")) == (0, 0)


def test_merge_empty_batch_is_identity():
    catalog = make_catalog(IDS)
    db = ingest_responses(full_survey("r1", [5, 4, 3, 2]), catalog)
    assert merge(db, []) == db


def test_batched_ingest_equals_single_ingest():
    catalog = make_catalog(IDS)
    rng = random.Random(7)
    rows = []
    for n in range(12):
        rows += full_survey(f"r{n:02d}", [rng.randint(1, 5) for _ in IDS])
    all_at_once = ingest_responses(rows, catalog)
    for _ in range(25):
        respondents = sorted({row.respondent_id for row in rows})
        rng.shuffle(respondents)
        cut = rng.randint(0, len(respondents))
        first = {r for r in respondents[:cut]}
        db = ingest_responses([row for row in rows if row.respondent_id in first], catalog)
        db = merge(db, [row for row in rows if row.respondent_id not in first])
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
    db = ingest_responses([], catalog)
    for operation, batch in steps:
        rows = [
            response(respondent, text, score)
            for respondent, scores in batch.items()
            for text, score in scores.items()
        ]
        if operation == "ingest":
            db = ingest_responses(rows, catalog)
        elif operation == "replace":
            db = merge(db, rows, replace=True)
        elif not set(batch) & set(db.responses):
            db = merge(db, rows)
        for cid in catalog.control_ids():
            scores = [s[cid] for s in db.responses.values() if cid in s]
            assert db.sum_and_count(cid) == (sum(scores), len(scores))
        with pytest.raises(ValidationError, match="not in this database's catalog"):
            db.sum_and_count(parse_control_id("A.9.9.9"))
