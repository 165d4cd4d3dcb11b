"""Gated evaluation, gap ordering, misallocation heuristic."""

import random
from fractions import Fraction

import pytest

from ismaturity import (
    ApplicabilityMap,
    ConsistencyError,
    Stage,
    ValidationError,
    build_minimum_db,
    evaluate,
    gap_analysis,
    misallocation_findings,
    naive_average,
    parse_control_id,
)
from ismaturity.minimums import FixedMinimums, RiskMinimums, RiskGrade
from ismaturity.staging import exclude_from_plan

from oracles import prefix_gated_label
from test_catalog import make_catalog
from test_staging import make_plan, synthetic_ids


def cid(text):
    return parse_control_id(text)


EIGHT = synthetic_ids(8)
# two controls per stage
STAGES8 = {t: n // 2 + 1 for n, t in enumerate(EIGHT)}


def fixed_mins(ids, level, excluded=None):
    catalog = make_catalog(ids)
    amap = ApplicabilityMap(not_applicable=excluded or {})
    return build_minimum_db(FixedMinimums(level=level), amap, catalog)


def test_all_stages_complete_labels_full():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3)
    result = evaluate(plan, mins, {cid(t): 3 for t in EIGHT})
    assert result.label.stage is Stage.FULL
    assert not result.label.incomplete
    assert result.label.level == Fraction(3)
    assert all(sr.complete for sr in result.stage_results)


def test_label_stops_before_first_incomplete_stage():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3)
    measured = {cid(t): 3 for t in EIGHT}
    measured[cid(EIGHT[4])] = 2  # one Advanced control below minimum
    result = evaluate(plan, mins, measured)
    assert result.label.stage is Stage.INTERMEDIATE
    assert not result.label.incomplete
    # averages are still reported for stages past the label
    assert result.stage_result(Stage.ADVANCED).average == Fraction(5, 2)
    assert result.stage_result(Stage.FULL).complete


def test_incomplete_essential_keeps_label_with_flag():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3)
    measured = {cid(t): 5 for t in EIGHT}
    measured[cid(EIGHT[0])] = 0
    result = evaluate(plan, mins, measured)
    assert result.label.stage is Stage.ESSENTIAL
    assert result.label.incomplete
    assert result.label.level == Fraction(5, 2)


def test_empty_stage_is_vacuously_complete_with_no_average():
    stages = dict(STAGES8)
    for t in EIGHT[2:4]:
        stages[t] = 1  # empty the Intermediate stage
    plan = make_plan(stages)
    mins = fixed_mins(EIGHT, 1)
    result = evaluate(plan, mins, {cid(t): 1 for t in EIGHT})
    intermediate = result.stage_result(Stage.INTERMEDIATE)
    assert intermediate.members == ()
    assert intermediate.average is None
    assert intermediate.complete
    assert result.label.stage is Stage.FULL


def test_naive_average_is_plain_mean():
    assert naive_average({cid(EIGHT[0]): 1, cid(EIGHT[1]): 4}) == Fraction(5, 2)
    with pytest.raises(ConsistencyError):
        naive_average({})


def test_coverage_checks_report_every_mismatch():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3)
    missing = {cid(t): 3 for t in EIGHT[:-2]}
    with pytest.raises(ConsistencyError) as err:
        evaluate(plan, mins, missing)
    assert EIGHT[-1] in str(err.value) and EIGHT[-2] in str(err.value)

    extra = {cid(t): 3 for t in EIGHT}
    extra[cid("A.18.2.3")] = 3
    with pytest.raises(ConsistencyError, match="outside the plan"):
        evaluate(plan, mins, extra)


def test_measurements_for_excluded_controls_are_rejected():
    keep = EIGHT[:-1]
    plan = exclude_from_plan(make_plan(STAGES8), [cid(EIGHT[-1])])
    mins = fixed_mins(EIGHT, 3, excluded={cid(EIGHT[-1]): "not applicable here"})
    measured = {cid(t): 3 for t in EIGHT}
    with pytest.raises(ConsistencyError, match="excluded"):
        evaluate(plan, mins, measured)
    result = evaluate(plan, mins, {cid(t): 3 for t in keep})
    assert result.label.stage is Stage.FULL


def test_plan_and_minimums_must_agree_on_exclusions():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3, excluded={cid(EIGHT[0]): "gone"})
    with pytest.raises(ConsistencyError, match="disagree on exclusions"):
        evaluate(plan, mins, {cid(t): 3 for t in EIGHT})


def test_measured_levels_must_be_integers_zero_to_five():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3)
    measured = {cid(t): 3 for t in EIGHT}
    measured[cid(EIGHT[0])] = 6
    with pytest.raises(ValidationError) as raised:
        evaluate(plan, mins, measured)
    assert str(raised.value) == f"control {EIGHT[0]}: maturity level 6 outside 0..5"
    # Of several bad levels the first in id order is named, whatever the order of the mapping.
    backwards = {cid(t): 3 for t in reversed(EIGHT)}
    backwards[cid(EIGHT[5])] = "3"
    backwards[cid(EIGHT[2])] = -1
    with pytest.raises(ValidationError) as raised:
        evaluate(plan, mins, backwards)
    assert str(raised.value) == f"control {EIGHT[2]}: maturity level -1 outside 0..5"
    backwards[cid(EIGHT[1])] = True
    with pytest.raises(ValidationError) as raised:
        evaluate(plan, mins, backwards)
    assert str(raised.value) == f"control {EIGHT[1]}: maturity level True is not an integer"


def test_gap_analysis_orders_by_stage_priority_then_id():
    catalog = make_catalog(EIGHT)
    ratings = {cid(t): (RiskGrade.HIGH, RiskGrade.MEDIUM) for t in EIGHT}  # level 5
    ratings[cid(EIGHT[3])] = (RiskGrade.HIGH, RiskGrade.HIGH)  # priority, level 5
    mins = build_minimum_db(RiskMinimums(ratings=ratings), ApplicabilityMap(), catalog)
    plan = make_plan(STAGES8)
    result = evaluate(plan, mins, {cid(t): 1 for t in EIGHT})
    gaps = gap_analysis(result)
    assert [str(g.control) for g in gaps[:4]] == [EIGHT[0], EIGHT[1], EIGHT[3], EIGHT[2]]
    assert gaps[2].priority  # the priority control jumps ahead within its stage
    assert [g.control for g in gaps if g.priority] == [cid(EIGHT[3])]


def test_label_matches_brute_force_oracle_on_random_cases():
    rng = random.Random(20260814)
    for _ in range(400):
        count = rng.randint(4, 8)
        ids = EIGHT[:count]
        stages = {t: rng.randint(1, 4) for t in ids}
        required = {t: rng.randint(1, 5) for t in ids}
        measured = {t: rng.randint(0, 5) for t in ids}
        catalog = make_catalog(ids)
        ratings = {}
        grade_for = {
            2: (RiskGrade.LOW, RiskGrade.LOW),
            3: (RiskGrade.LOW, RiskGrade.MEDIUM),
            4: (RiskGrade.MEDIUM, RiskGrade.MEDIUM),
            5: (RiskGrade.MEDIUM, RiskGrade.HIGH),
        }
        usable_required = {t: max(2, level) for t, level in required.items()}
        for t, level in usable_required.items():
            ratings[cid(t)] = grade_for[level]
        mins = build_minimum_db(RiskMinimums(ratings=ratings), ApplicabilityMap(), catalog)
        plan = make_plan(stages)
        result = evaluate(plan, mins, {cid(t): v for t, v in measured.items()})
        expected_stage, expected_incomplete = prefix_gated_label(
            stages, usable_required, measured
        )
        assert int(result.label.stage) == expected_stage
        assert result.label.incomplete == expected_incomplete


def test_misallocation_pairs_highest_later_against_lowest_failing_earlier():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3)
    measured = {cid(t): 3 for t in EIGHT}
    measured[cid(EIGHT[0])] = 1   # Essential failing at 1
    measured[cid(EIGHT[1])] = 2   # Essential failing at 2
    measured[cid(EIGHT[6])] = 5   # Full control invested to 5
    result = evaluate(plan, mins, measured)
    findings = misallocation_findings(result)
    by_pair = {(f.later_stage, f.earlier_stage): f for f in findings}
    full_vs_essential = by_pair[(Stage.FULL, Stage.ESSENTIAL)]
    assert str(full_vs_essential.later_control) == EIGHT[6]
    assert full_vs_essential.later_level == 5
    assert str(full_vs_essential.earlier_control) == EIGHT[0]
    assert full_vs_essential.earlier_level == 1
    # Intermediate and Advanced controls at 3 also clear the threshold over level 1
    assert (Stage.INTERMEDIATE, Stage.ESSENTIAL) in by_pair
    assert (Stage.ADVANCED, Stage.ESSENTIAL) in by_pair
    assert len(findings) == 3


def test_misallocation_respects_threshold():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3)
    measured = {cid(t): 3 for t in EIGHT}
    measured[cid(EIGHT[0])] = 2
    measured[cid(EIGHT[6])] = 4
    result = evaluate(plan, mins, measured)
    # only the Full peak at 4 clears the default threshold over the floor at 2
    assert [(f.later_stage, f.earlier_stage) for f in misallocation_findings(result)] == [
        (Stage.FULL, Stage.ESSENTIAL)
    ]
    assert misallocation_findings(result, threshold=3) == ()
    # below 1 a "finding" would not need the later level to exceed the earlier one
    for threshold in (0, -1):
        with pytest.raises(ValidationError, match=f"misallocation threshold {threshold} is below 1"):
            misallocation_findings(result, threshold=threshold)


def test_misallocation_without_failing_controls_is_empty():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 2)
    measured = {cid(t): 2 for t in EIGHT}
    measured[cid(EIGHT[7])] = 5
    result = evaluate(plan, mins, measured)
    assert misallocation_findings(result) == ()


def test_tied_peaks_and_floors_resolve_to_smaller_id():
    plan = make_plan(STAGES8)
    mins = fixed_mins(EIGHT, 3)
    measured = {cid(t): 3 for t in EIGHT}
    measured[cid(EIGHT[0])] = 1
    measured[cid(EIGHT[1])] = 1   # tied Essential floor
    measured[cid(EIGHT[6])] = 5
    measured[cid(EIGHT[7])] = 5   # tied Full peak
    result = evaluate(plan, mins, measured)
    finding = {(f.later_stage, f.earlier_stage): f for f in misallocation_findings(result)}[
        (Stage.FULL, Stage.ESSENTIAL)
    ]
    assert str(finding.later_control) == EIGHT[6]
    assert str(finding.earlier_control) == EIGHT[0]
