"""Level formatting, report assembly, rendering, and mode comparison."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismaturity import ConsistencyError, Stage, ValidationError, exclude_from_plan, parse_control_id
from ismaturity.assessment import evaluate, misallocation_findings
from ismaturity.minimums import ApplicabilityMap, FixedMinimums, build_minimum_db
from ismaturity.reporting import (
    build_report,
    compare_modes,
    comparison_document_dict,
    format_level,
    label_line,
    parse_comparison,
    parse_report,
    render_comparison,
    render_document,
    report_document_dict,
    stage_changes,
)
from ismaturity.files import canonical_json

from oracles import decimal_display
from test_catalog import make_catalog

import expected_stages


def cid(text):
    return parse_control_id(text)


# ---------------------------------------------------------------------------
# Number formatting

@pytest.mark.parametrize(
    ("value", "display"),
    [
        (Fraction(89, 27), "3.30"),
        (Fraction(86, 28), "3.07"),
        (Fraction(101, 29), "3.48"),
        (Fraction(106, 31), "3.42"),
        (Fraction(357, 111), "3.22"),
        (Fraction(3), "3.00"),
        (Fraction(1, 8), "0.13"),  # 0.125: halves round up
        (Fraction(5, 2), "2.50"),
        (Fraction(0), "0.00"),
        (Fraction(5), "5.00"),
    ],
)
def test_format_level(value, display):
    assert format_level(value) == display


def test_format_level_matches_decimal_oracle():
    rng = random.Random(5)
    for _ in range(500):
        value = Fraction(rng.randrange(0, 600), rng.randrange(1, 120))
        assert format_level(value) == decimal_display(value)


def fraction_display(value: Fraction) -> str:
    """Half-up two-decimal display computed in Fraction arithmetic: the reference for format_level."""
    scaled = value * 100
    whole = scaled.numerator // scaled.denominator
    if (scaled - whole) * 2 >= 1:
        whole += 1
    return f"{whole // 100}.{whole % 100:02d}"


@settings(max_examples=500, deadline=None)
@given(st.fractions() | st.fractions(max_denominator=400) | st.integers(-10**6, 10**6).map(lambda n: Fraction(n, 200)))
def test_format_level_matches_the_fraction_formula(value):
    assert format_level(value) == fraction_display(value)


def test_label_line_shapes():
    assert (
        label_line(Stage.INTERMEDIATE, Fraction(89, 27))
        == "Intermediate Stage, Maturity Level 3.30 (Defined)"
    )
    assert label_line(Stage.ESSENTIAL, None) == "Essential Stage, Maturity Level n/a (no controls)"
    # the name comes from the floor of the exact value, not the rounded text
    assert label_line(Stage.FULL, Fraction(399, 100)) == "Full Stage, Maturity Level 3.99 (Defined)"


# ---------------------------------------------------------------------------
# Report building

IDS = ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.6.1.2"]


def small_setup():
    from ismaturity.staging import Stage as S, StagePlan

    catalog = make_catalog(IDS)
    assignment = {
        cid("A.5.1.1"): S.ESSENTIAL,
        cid("A.5.1.2"): S.INTERMEDIATE,
        cid("A.6.1.1"): S.ADVANCED,
        cid("A.6.1.2"): S.FULL,
    }
    plan = StagePlan(
        assignment=assignment,
        provenance={c: "partitioned" for c in assignment},
        boundaries_used=(1, 2, 3, 4),
        excluded=(),
    )
    amap = ApplicabilityMap()
    minimums = build_minimum_db(FixedMinimums(level=3), amap, catalog)
    measurements = {c: 3 for c in assignment}
    result = evaluate(plan, minimums, measurements)
    return plan, amap, minimums, measurements, result


def test_build_report_rejects_unknown_mode():
    _, amap, minimums, _, result = small_setup()
    with pytest.raises(ValidationError, match="model"):
        build_report(
            result, (), (), amap, None,
            company="x", timestamp="t", mode="hybrid", minimums=minimums,
        )


def test_build_report_rejects_exclusion_disagreement():
    plan, _, _, measurements, _ = small_setup()
    catalog = make_catalog(IDS)
    excluding = ApplicabilityMap(not_applicable={cid("A.6.1.2"): "procured"})
    minimums = build_minimum_db(FixedMinimums(level=3), excluding, catalog)
    from ismaturity.staging import exclude_from_plan

    result = evaluate(exclude_from_plan(plan, [cid("A.6.1.2")]), minimums, {
        c: lvl for c, lvl in measurements.items() if c != cid("A.6.1.2")
    })
    with pytest.raises(ConsistencyError, match="applicability map does not"):
        build_report(
            result, (), (), ApplicabilityMap(), None,
            company="x", timestamp="t", mode="model", minimums=minimums,
        )


def test_structured_report_round_trips_byte_identically(ca_plan, ca_minimums, ca_inputs, ca_result):
    from ismaturity.assessment import gap_analysis

    text = render_document(
        build_report(
            ca_result,
            gap_analysis(ca_result),
            misallocation_findings(ca_result),
            ca_inputs["applicability"],
            stage_changes("independent", ca_plan),
            company="company-a",
            timestamp="2026-01-01T00:00:00Z",
            mode="independent",
            minimums=ca_minimums,
        ),
        "structured",
    )
    doc = parse_report(text)
    assert canonical_json(report_document_dict(doc)) == text
    assert doc.company == "company-a"
    assert doc.result.label.stage is Stage.INTERMEDIATE
    assert doc.result.label.level == Fraction(89, 27)
    assert len(doc.deltas) == 11


def test_human_report_layout(ca_plan, ca_minimums, ca_inputs, ca_result):
    from ismaturity.assessment import gap_analysis

    text = render_document(
        build_report(
            ca_result,
            gap_analysis(ca_result),
            misallocation_findings(ca_result),
            ca_inputs["applicability"],
            (),
            company="company-a",
            timestamp="2026-01-01T00:00:00Z",
            mode="independent",
            minimums=ca_minimums,
        ),
        "human",
    )
    assert text.startswith("Security Maturity Assessment\n============================\n")
    assert "Overall: Intermediate Stage, Maturity Level 3.30 (Defined)" in text
    assert "Naive average over all applicable controls: 3.22 (Defined)" in text
    assert "Gaps (measured below minimum):" in text
    assert "Priority controls below minimum:\n  none" in text
    assert "Misallocation findings (heuristic, threshold 2):" in text
    assert "Not applicable (with justification):" in text
    assert "A.14.2.1:" in text  # justification text follows the control id
    # deltas passed as an empty tuple: section present with the none marker
    assert "Stage changes vs the default plan:\n  none" in text
    assert text.endswith("\n")


def test_human_report_omits_delta_section_when_none():
    plan, amap, minimums, measurements, result = small_setup()
    text = render_document(
        build_report(result, (), (), amap, None, company="x", timestamp="t", mode="model", minimums=minimums),
        "human",
    )
    assert "Stage changes" not in text
    assert "Gaps (measured below minimum):\n  none" in text


def test_human_report_with_essential_incomplete_and_a_priority_gap():
    from ismaturity.assessment import gap_analysis
    from ismaturity.minimums import RiskGrade, RiskMinimums

    plan, _, _, measurements, _ = small_setup()
    catalog = make_catalog(IDS + ["A.7.1.1"])
    amap = ApplicabilityMap(not_applicable={cid("A.7.1.1"): "no staff"})
    ratings = {c: (RiskGrade.LOW, RiskGrade.MEDIUM) for c in plan.assignment}  # level 3
    ratings[cid("A.5.1.1")] = (RiskGrade.HIGH, RiskGrade.HIGH)  # capped at level 5 and flagged priority
    minimums = build_minimum_db(RiskMinimums(ratings=ratings), amap, catalog)
    plan = plan._replace(excluded=(cid("A.7.1.1"),))
    result = evaluate(plan, minimums, {**measurements, cid("A.6.1.2"): 5})
    doc = build_report(
        result, gap_analysis(result), misallocation_findings(result), amap, None,
        company="x", timestamp="t", mode="independent", minimums=minimums,
    )
    text = render_document(doc, "human")
    assert render_document(parse_report(render_document(doc, "structured")), "human") == text
    assert text.split("\n\n")[2:] == [
        "Overall: Essential Stage, Maturity Level 3.00 (Defined)\n"
        "Note: the Essential stage itself is not yet complete; the label marks the entry stage.\n"
        "Naive average over all applicable controls: 3.50 (Defined)",
        "Gaps (measured below minimum):\n"
        "  A.5.1.1     Essential     measured 3, minimum 5  [priority]",
        "Priority controls below minimum:\n  A.5.1.1",
        "Misallocation findings (heuristic, threshold 2):\n"
        "  Full control A.6.1.2 at level 5 vs Essential failing control A.5.1.1 at level 3",
        "Not applicable (with justification):\n  A.7.1.1: no staff\n",
    ]


def test_render_document_rejects_unknown_format():
    plan, amap, minimums, measurements, result = small_setup()
    doc = build_report(
        result, (), (), amap, None,
        company="x", timestamp="t", mode="model", minimums=minimums,
    )
    with pytest.raises(ValidationError, match="unknown report format"):
        render_document(doc, "pdf")


def test_parse_report_rejects_malformed_document():
    text = canonical_json({"format_version": "1", "kind": "assessment-report"})
    with pytest.raises(ValidationError, match="malformed assessment report"):
        parse_report(text)


# ---------------------------------------------------------------------------
# Mode comparison

def model_result(catalog, default_plan, applicability, measurements):
    """Model mode's evaluation: the default plan without the exclusions of `applicability`, a floor of 3."""
    mins_model = build_minimum_db(FixedMinimums(level=3), applicability, catalog)
    return evaluate(exclude_from_plan(default_plan, mins_model.excluded), mins_model, measurements)


def test_compare_modes_on_company_a(catalog, default_plan, ca_result, ca_inputs):
    comparison = compare_modes(
        model_result(catalog, default_plan, ca_inputs["applicability"], ca_inputs["measurements"]), ca_result
    )
    assert label_line(comparison.independent.stage, comparison.independent.level) == (
        expected_stages.CA_LABEL_LINE
    )
    assert label_line(comparison.model.stage, comparison.model.level) == (
        expected_stages.CA_MODEL_LABEL_LINE
    )
    assert format_level(comparison.naive) == expected_stages.CA_NAIVE[1]
    assert not comparison.independent.incomplete
    assert not comparison.model.incomplete


def test_compare_modes_rejects_exclusion_mismatch(catalog, default_plan, ca_result, ca_inputs):
    # the model side excludes nothing, so it also measures the controls company_a excludes
    measured = {**dict.fromkeys(catalog.control_ids(), 3), **ca_inputs["measurements"]}
    model = model_result(catalog, default_plan, ApplicabilityMap(), measured)
    with pytest.raises(ConsistencyError, match="inconsistent applicability"):
        compare_modes(model, ca_result)


def test_comparison_round_trip_and_human_rendering(catalog, default_plan, ca_result, ca_inputs):
    comparison = compare_modes(
        model_result(catalog, default_plan, ca_inputs["applicability"], ca_inputs["measurements"]), ca_result
    )
    text = render_comparison(comparison, "structured", company="company-a", timestamp="t")
    again = parse_comparison(text)
    assert again == comparison
    assert canonical_json(
        comparison_document_dict(again, company="company-a", timestamp="t")
    ) == text
    edited = json.loads(text)
    edited["independent"]["level"]["display"] = "9.99"
    with pytest.raises(ValidationError) as raised:
        parse_comparison(json.dumps(edited), source="c.json")
    assert str(raised.value) == "c.json: independent.level.display: found '9.99', but the writer writes '3.30'"

    human = render_comparison(comparison, "human", company="company-a", timestamp="t")
    assert human.startswith("Strategy Mode Comparison\n")
    assert "independent:   " + expected_stages.CA_LABEL_LINE in human
    assert "model:         " + expected_stages.CA_MODEL_LABEL_LINE in human
    assert "naive average: 3.22 (Defined)" in human

    with pytest.raises(ValidationError, match="unknown report format"):
        render_comparison(comparison, "pdf", company="c", timestamp="t")
