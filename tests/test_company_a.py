"""End-to-end checks of the bundled worked example against frozen values.

The company-a fixtures exercise every pipeline step at once: a seven-person
survey reshuffles the default plan, three development controls are excluded,
risk ratings produce two failing minimums, and the measurements are complete
through the Intermediate stage. Every expected number here is either frozen
in expected_stages.py or recomputed from the raw CSVs with the oracle code.
"""

from fractions import Fraction

from ismaturity import Stage, evaluate, parse_control_id
from ismaturity.assessment import gap_analysis, misallocation_findings, naive_average
from ismaturity.minimums import FixedMinimums, build_minimum_db
from ismaturity.reporting import format_level, label_line
from ismaturity.staging import diff_stage_plans, exclude_from_plan

import expected_stages
import oracles

STAGE_BY_LABEL = {
    "Essential": Stage.ESSENTIAL,
    "Intermediate": Stage.INTERMEDIATE,
    "Advanced": Stage.ADVANCED,
    "Full": Stage.FULL,
}


def cid(text):
    return parse_control_id(text)


def plan_lists(plan):
    out = {stage: [] for stage in Stage}
    for control, stage in plan.assignment.items():
        out[stage].append(control)
    return {stage: sorted(members) for stage, members in out.items()}


def test_plan_matches_frozen_memberships(ca_plan):
    expected = expected_stages.company_a_stage_lists()
    actual = plan_lists(ca_plan)
    for label, stage in STAGE_BY_LABEL.items():
        assert [str(c) for c in actual[stage]] == expected[label], label
    assert [str(c) for c in ca_plan.excluded] == expected_stages.CA_EXCLUDED
    assert ca_plan.boundaries_used == (28, 56, 84, 111)
    assert tuple(len(expected[label]) for label in STAGE_BY_LABEL) == expected_stages.CA_SIZES


def test_plan_matches_quartile_oracle_on_the_raw_survey(ca_paths, ca_plan):
    averages = oracles.survey_averages_from_csv(ca_paths["survey"])
    for control in expected_stages.CA_EXCLUDED:
        averages.pop(control)
    boundaries = oracles.quartile_boundaries(len(averages))
    assert boundaries == (28, 56, 84, 111)
    reference = oracles.partition_by_quartiles(averages, boundaries)
    for control, stage in ca_plan.assignment.items():
        assert reference[str(control)] == stage.value, control


def test_deltas_against_default_plan(default_plan, ca_plan):
    deltas = diff_stage_plans(default_plan, ca_plan)
    assert len(deltas) == 11
    moves = {
        str(d.control): (d.before.label, d.after.label)
        for d in deltas
        if d.after is not None
    }
    assert moves == expected_stages.CA_MOVES
    dropped = sorted(str(d.control) for d in deltas if d.after is None)
    assert dropped == expected_stages.CA_EXCLUDED


def test_minimum_database_shape(ca_minimums):
    priorities = [str(c) for c, req in ca_minimums.requirements.items() if req.priority]
    assert priorities == [expected_stages.CA_PRIORITY_CONTROL]
    assert ca_minimums.requirements[cid("A.9.2.3")].required_level == 5
    for control in expected_stages.CA_FAILING:
        assert ca_minimums.requirements[cid(control)].required_level == 4
    assert sorted(str(c) for c in ca_minimums.excluded) == expected_stages.CA_EXCLUDED
    assert len(ca_minimums.requirements) == 111


def test_overall_label(ca_result):
    assert ca_result.label.stage is Stage.INTERMEDIATE
    assert ca_result.label.level == Fraction(89, 27)
    assert not ca_result.label.incomplete
    assert label_line(ca_result.label.stage, ca_result.label.level) == expected_stages.CA_LABEL_LINE


def test_stage_averages_match_oracle_and_frozen_display(ca_paths, ca_result):
    measured = oracles.measurements_from_csv(ca_paths["measurements"])
    lists = expected_stages.company_a_stage_lists()
    by_stage = {row.stage: row for row in ca_result.stage_results}
    for label, stage in STAGE_BY_LABEL.items():
        row = by_stage[stage]
        recomputed = oracles.mean(measured[c] for c in lists[label])
        assert row.average == recomputed, label
        exact, display = expected_stages.CA_STAGE_AVERAGES[label]
        assert row.average == Fraction(*(int(p) for p in exact.split("/")))
        assert format_level(row.average) == display
    assert by_stage[Stage.ESSENTIAL].complete
    assert by_stage[Stage.INTERMEDIATE].complete
    assert not by_stage[Stage.ADVANCED].complete
    # Full is complete on its own, but the broken Advanced prefix gates the label
    assert by_stage[Stage.FULL].complete
    assert [str(g.control) for g in by_stage[Stage.ADVANCED].failing] == expected_stages.CA_FAILING


def test_naive_average(ca_paths, ca_result, ca_inputs):
    measured = oracles.measurements_from_csv(ca_paths["measurements"])
    assert ca_result.naive_average == oracles.mean(measured.values())
    exact, display = expected_stages.CA_NAIVE
    assert ca_result.naive_average == Fraction(*(int(p) for p in exact.split("/")))
    assert format_level(ca_result.naive_average) == display
    assert naive_average(ca_inputs["measurements"]) == ca_result.naive_average


def test_gaps_and_misallocation(ca_result):
    gaps = gap_analysis(ca_result)
    assert [str(g.control) for g in gaps] == expected_stages.CA_FAILING
    assert all(g.stage is Stage.ADVANCED for g in gaps)
    assert not any(g.priority for g in gaps)
    for gap in gaps:
        assert gap.measured == expected_stages.CA_FAILING_LEVELS[str(gap.control)]
        assert gap.required == 4

    findings = misallocation_findings(ca_result)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.later_stage is Stage.FULL
    assert finding.earlier_stage is Stage.ADVANCED
    assert str(finding.later_control) == "A.10.1.1"
    assert finding.later_level == 5
    assert str(finding.earlier_control) == "A.14.1.3"
    assert finding.earlier_level == 2


def test_model_mode_on_the_same_measurements(catalog, default_plan, ca_inputs):
    applicability = ca_inputs["applicability"]
    plan = exclude_from_plan(default_plan, applicability.excluded_within(catalog))
    minimums = build_minimum_db(FixedMinimums(level=3), applicability, catalog)
    result = evaluate(plan, minimums, ca_inputs["measurements"])
    assert result.label.stage is Stage.ESSENTIAL
    assert result.label.level == Fraction(106, 31)
    assert label_line(result.label.stage, result.label.level) == expected_stages.CA_MODEL_LABEL_LINE
    by_stage = {row.stage: row for row in result.stage_results}
    assert by_stage[Stage.ESSENTIAL].complete
    failing = [str(g.control) for g in by_stage[Stage.INTERMEDIATE].failing]
    assert failing == expected_stages.CA_MODEL_FAILING_INTERMEDIATE
