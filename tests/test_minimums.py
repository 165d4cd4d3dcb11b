"""Risk matrix, fixed floors, applicability handling."""

import pytest

from ismaturity import (
    ApplicabilityMap,
    ConsistencyError,
    RiskGrade,
    ValidationError,
    build_minimum_db,
    level_name,
    mark_applicable,
    mark_not_applicable,
    parse_risk_grade,
    parse_control_id,
    risk_minimum,
)
from ismaturity.minimums import FixedMinimums, RiskMinimums, check_level

from oracles import RISK_MATRIX
from test_catalog import make_catalog

IDS = ["A.5.1.1", "A.5.1.2", "A.6.1.1", "A.6.1.2"]


def cid(text):
    return parse_control_id(text)


def test_level_names_cover_the_six_levels():
    assert level_name(0) == "Non-existent"
    assert level_name(1) == "Initial"
    assert level_name(2) == "Repeatable"
    assert level_name(3) == "Defined"
    assert level_name(4) == "Managed"
    assert level_name(5) == "Optimized"


def test_check_level_bounds():
    assert check_level(0) == 0
    assert check_level(5) == 5
    with pytest.raises(ValidationError):
        check_level(6)
    with pytest.raises(ValidationError):
        check_level(0, minimum=1)


def test_parse_risk_grade():
    assert parse_risk_grade("low") is RiskGrade.LOW
    assert parse_risk_grade("Medium") is RiskGrade.MEDIUM
    assert parse_risk_grade(" HIGH ") is RiskGrade.HIGH
    with pytest.raises(ValidationError):
        parse_risk_grade("severe")


def test_grade_weights():
    assert [g.weight for g in (RiskGrade.LOW, RiskGrade.MEDIUM, RiskGrade.HIGH)] == [1, 2, 3]


@pytest.mark.parametrize(("probability", "impact"), sorted(RISK_MATRIX))
def test_risk_matrix_matches_oracle_cell_by_cell(probability, impact):
    expected_level, expected_priority = RISK_MATRIX[(probability, impact)]
    req = risk_minimum(parse_risk_grade(probability), parse_risk_grade(impact))
    assert req.required_level == expected_level
    assert req.priority == expected_priority
    assert req.raw_score == RiskGrade[probability.upper()].weight + RiskGrade[impact.upper()].weight


def test_only_the_double_high_cell_is_priority():
    priorities = [
        (p, i)
        for p in RiskGrade
        for i in RiskGrade
        if risk_minimum(p, i).priority
    ]
    assert priorities == [(RiskGrade.HIGH, RiskGrade.HIGH)]
    assert risk_minimum(RiskGrade.HIGH, RiskGrade.HIGH).required_level == 5


def test_applicability_requires_justification():
    with pytest.raises(ValidationError):
        ApplicabilityMap(not_applicable={cid("A.5.1.1"): "  "})
    # a justification that is not a string is the same input error, not an AttributeError
    with pytest.raises(ValidationError, match="control A.5.1.1 marked not applicable without a justification"):
        ApplicabilityMap(not_applicable={cid("A.5.1.1"): 5})
    with pytest.raises(ValidationError, match="control A.5.1.1 marked not applicable without a justification"):
        mark_not_applicable(ApplicabilityMap(), cid("A.5.1.1"), 5)


def test_mark_not_applicable_and_back():
    amap = ApplicabilityMap()
    assert amap.is_applicable(cid("A.5.1.1"))
    marked = mark_not_applicable(amap, cid("A.5.1.1"), "outsourced entirely")
    assert not marked.is_applicable(cid("A.5.1.1"))
    assert marked.justification(cid("A.5.1.1")) == "outsourced entirely"
    assert mark_applicable(marked, cid("A.5.1.1")) == amap


def test_excluded_within_only_reports_catalog_members():
    catalog = make_catalog(IDS)
    amap = ApplicabilityMap(
        not_applicable={cid("A.5.1.1"): "why", cid("A.9.9.9"): "not in this catalog"}
    )
    assert amap.excluded_within(catalog) == (cid("A.5.1.1"),)


def test_fixed_mode_gives_every_applicable_control_the_same_floor():
    catalog = make_catalog(IDS)
    amap = ApplicabilityMap(not_applicable={cid("A.6.1.2"): "n/a"})
    db = build_minimum_db(FixedMinimums(level=3), amap, catalog)
    assert db.mode == "fixed:3"
    assert sorted(map(str, db.requirements)) == ["A.5.1.1", "A.5.1.2", "A.6.1.1"]
    assert all(req.required_level == 3 and not req.priority for req in db.requirements.values())
    assert db.excluded == {cid("A.6.1.2"): "n/a"}  # excluded controls have no requirement
    assert cid("A.9.9.9") not in db.requirements and cid("A.9.9.9") not in db.excluded  # outside the catalog


def test_fixed_mode_rejects_levels_outside_one_to_five():
    catalog = make_catalog(IDS)
    for level in (0, 6):
        with pytest.raises(ValidationError):
            build_minimum_db(FixedMinimums(level=level), ApplicabilityMap(), catalog)


def test_risk_mode_requires_a_rating_for_every_applicable_control():
    catalog = make_catalog(IDS)
    ratings = {cid("A.5.1.1"): (RiskGrade.LOW, RiskGrade.LOW)}
    with pytest.raises(ConsistencyError) as err:
        build_minimum_db(RiskMinimums(ratings=ratings), ApplicabilityMap(), catalog)
    assert "A.5.1.2" in str(err.value) and "A.6.1.2" in str(err.value)


def test_risk_mode_ignores_ratings_for_excluded_controls():
    catalog = make_catalog(IDS)
    amap = ApplicabilityMap(not_applicable={cid("A.6.1.2"): "n/a"})
    base = {
        cid("A.5.1.1"): (RiskGrade.LOW, RiskGrade.HIGH),
        cid("A.5.1.2"): (RiskGrade.MEDIUM, RiskGrade.MEDIUM),
        cid("A.6.1.1"): (RiskGrade.HIGH, RiskGrade.HIGH),
    }
    with_extra = dict(base)
    with_extra[cid("A.6.1.2")] = (RiskGrade.HIGH, RiskGrade.HIGH)
    db_without = build_minimum_db(RiskMinimums(ratings=base), amap, catalog)
    db_with = build_minimum_db(RiskMinimums(ratings=with_extra), amap, catalog)
    assert db_without == db_with
    assert db_with.requirements[cid("A.5.1.1")].required_level == 4
    assert db_with.requirements[cid("A.6.1.1")].priority
