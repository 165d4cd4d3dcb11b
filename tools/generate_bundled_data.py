"""Regenerate the bundled importance panel and the company-a test fixtures.

The script reads the bundled control catalog (src/ismaturity/data/
catalog_default.json, 114 controls and 1 dependency) and the bundled default
stage plan (src/ismaturity/data/stage_plan_default.json, the 114 controls'
stages) through the package. Both files are maintained by hand;
tests/test_catalog.py and tests/test_acceptance.py check their form.
Everything this script writes is synthetic and fully determined by the
construction rules below; no survey of real stakeholders is shipped. The
script is the authoritative record of how the numbers were designed. It
builds the data, writes it, and asserts only that the package's bundled
loader reads back the panel it built and that the panel partitions to the
bundled plan. Whether the data still has its designed properties (stage
sizes and members, the tie groups, every company-a outcome) is checked by
the tier-1 tests: tests/test_acceptance.py, tests/test_company_a.py and
tests/test_reporting.py, against the literal lists in
tests/expected_stages.py. Run it from the repository root:

    PYTHONPATH=src python tools/generate_bundled_data.py

Outputs:

    src/ismaturity/data/importance_default.json   synthetic 40-person panel
    tests/data/company_a/survey.csv               7-person importance survey
    tests/data/company_a/applicability.csv        3 exclusions + 2 explicit yes rows
    tests/data/company_a/ratings.csv              risk ratings for applicable controls
    tests/data/company_a/measurements.csv         measured levels for applicable controls

Design of the default panel: controls are ranked in the order of the bundled
default plan (each stage id-sorted), rank r gets score sum 201 - r over 40
respondents, except that three deliberate tie groups share their leader's
sum: ranks 29..31, 57..58 and 86..87. Partitioning 114 controls cuts at
cumulative positions (29, 57, 86, 114); the ties sit exactly on the first
three boundaries, and absorbing them whole yields stage sizes 31/27/29/27.

Design of company a: eight controls move stage relative to the default plan
and three development-related controls are excluded, giving sizes
29/27/28/27 over 111 applicable controls and exactly 11 plan differences.
Survey sums per resulting stage live in disjoint bands (31..35 / 25..29 /
19..24 / 10..18) plus one designed tie pair at sum 30 that straddles the
first boundary (position 28 of 111). Measured levels equal each control's
risk-derived minimum except two designed failures in the Advanced stage, so
the gated label lands on Intermediate while both the naive average and the
later stages look healthier.
"""

from __future__ import annotations

from pathlib import Path

from ismaturity import ControlId, Stage, build_stage_plan, ingest_responses, parse_control_id
from ismaturity.files import (
    APPLICABILITY_HEADER,
    MEASUREMENTS_HEADER,
    RATINGS_HEADER,
    SURVEY_HEADER,
    canonical_json,
    default_catalog,
    default_importance_db,
    default_stage_plan,
    importance_document,
    write_text_atomic,
)

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "src" / "ismaturity" / "data"
FIXTURE_DIR = ROOT / "tests" / "data" / "company_a"

PANEL_RESPONDENTS = [f"panel-{n:03d}" for n in range(1, 41)]

# Ranks whose score sums are collapsed onto a tie-group leader; each group
# straddles one cumulative quartile boundary (29, 57, 86) of 114 controls.
TIE_LEADERS = {29: 29, 30: 29, 31: 29, 57: 57, 58: 57, 86: 86, 87: 86}

# --- company a -------------------------------------------------------------

CA_MOVES = {
    "A.5.1.2": (Stage.INTERMEDIATE, Stage.ESSENTIAL),
    "A.6.1.2": (Stage.INTERMEDIATE, Stage.ESSENTIAL),
    "A.6.1.5": (Stage.ESSENTIAL, Stage.INTERMEDIATE),
    "A.6.2.2": (Stage.ESSENTIAL, Stage.FULL),
    "A.7.1.1": (Stage.ESSENTIAL, Stage.ADVANCED),
    "A.7.2.3": (Stage.ADVANCED, Stage.FULL),
    "A.11.1.2": (Stage.ADVANCED, Stage.INTERMEDIATE),
    "A.18.1.4": (Stage.ESSENTIAL, Stage.INTERMEDIATE),
}

CA_EXCLUSIONS = {
    "A.14.2.1": "no in-house software development; all systems are procured",
    "A.14.2.6": "no development environments are operated",
    "A.14.2.7": "development is never outsourced and none occurs internally",
}

CA_RESPONDENTS = [f"ca-resp-{n}" for n in range(1, 8)]

# Survey score-sum bands per resulting stage (7 respondents, so sums 7..35).
CA_SUM_BANDS = {
    Stage.ESSENTIAL: (35, 5),
    Stage.INTERMEDIATE: (29, 5),
    Stage.ADVANCED: (24, 6),
    Stage.FULL: (18, 9),
}
CA_TIE_SUM = 30  # the designed pair straddling the first boundary
CA_EXCLUDED_SUM = 12

# Measured levels: designed so every control sits exactly at its minimum
# except the two Advanced-stage failures.
CA_FAILING = {"A.9.3.1": 3, "A.14.1.3": 2}  # measured, both require level 4
CA_PRIORITY_CONTROL = "A.9.2.3"  # rated high/high, measured at 5, passing


def spread_scores(total: int, count: int, offset: int) -> list[int]:
    """Split `total` into `count` scores 1..5, rotating who gets the extras."""
    q, remainder = divmod(total, count)
    scores = [q] * count
    for k in range(remainder):
        scores[(offset + k) % count] += 1
    assert all(1 <= s <= 5 for s in scores) and sum(scores) == total
    return scores


def panel_rank_order() -> list[ControlId]:
    plan = default_stage_plan()
    order = [cid for stage in Stage for cid in plan.members(stage)]
    assert len(order) == 114 and len(set(order)) == 114
    return order


def panel_scores() -> dict[str, dict[ControlId, int]]:
    scores: dict[str, dict[ControlId, int]] = {respondent: {} for respondent in PANEL_RESPONDENTS}
    for rank, cid in enumerate(panel_rank_order(), start=1):
        total = 201 - TIE_LEADERS.get(rank, rank)
        for respondent, score in zip(PANEL_RESPONDENTS, spread_scores(total, 40, offset=rank - 1)):
            scores[respondent][cid] = score
    return scores


def ca_stage_sets() -> dict[Stage, set[ControlId]]:
    plan = default_stage_plan()
    stages = {stage: set(plan.members(stage)) for stage in Stage}
    for text, (before, after) in CA_MOVES.items():
        cid = parse_control_id(text)
        stages[before].remove(cid)
        stages[after].add(cid)
    for text in CA_EXCLUSIONS:
        cid = parse_control_id(text)
        for members in stages.values():
            members.discard(cid)
    return stages


def ca_survey_sums() -> dict[ControlId, int]:
    stages = ca_stage_sets()
    sums: dict[ControlId, int] = {}
    essential = sorted(stages[Stage.ESSENTIAL])
    top, width = CA_SUM_BANDS[Stage.ESSENTIAL]
    for i, cid in enumerate(essential[:-2]):
        sums[cid] = top - (i % width)
    for cid in essential[-2:]:
        sums[cid] = CA_TIE_SUM
    for stage in (Stage.INTERMEDIATE, Stage.ADVANCED, Stage.FULL):
        top, width = CA_SUM_BANDS[stage]
        for i, cid in enumerate(sorted(stages[stage])):
            sums[cid] = top - (i % width)
    for text in CA_EXCLUSIONS:
        sums[parse_control_id(text)] = CA_EXCLUDED_SUM
    assert len(sums) == 114
    return sums


def ca_survey_scores() -> dict[str, dict[ControlId, int]]:
    sums = ca_survey_sums()
    scores: dict[str, dict[ControlId, int]] = {respondent: {} for respondent in CA_RESPONDENTS}
    for index, cid in enumerate(sorted(sums)):
        for respondent, score in zip(CA_RESPONDENTS, spread_scores(sums[cid], 7, offset=index)):
            scores[respondent][cid] = score
    return scores


def ca_measurements() -> dict[ControlId, int]:
    """Measured maturity levels for the 111 applicable controls."""
    stages = ca_stage_sets()

    def assign(stage: Stage, special: dict[str, int], fives: int, fours: int) -> dict[ControlId, int]:
        special_ids = {parse_control_id(t): level for t, level in special.items()}
        members = sorted(stages[stage])
        levels = dict(special_ids)
        rest = [cid for cid in members if cid not in special_ids]
        for i, cid in enumerate(rest):
            levels[cid] = 5 if i < fives else 4 if i < fives + fours else 3
        assert set(levels) == set(members)
        return levels

    measurements: dict[ControlId, int] = {}
    measurements.update(assign(Stage.ESSENTIAL, {CA_PRIORITY_CONTROL: 5, "A.5.1.2": 4, "A.6.1.2": 3}, 2, 7))
    measurements.update(
        assign(Stage.INTERMEDIATE, {"A.6.1.5": 3, "A.18.1.4": 3, "A.13.2.3": 2, "A.16.1.7": 2}, 1, 8)
    )
    measurements.update(assign(Stage.ADVANCED, {**CA_FAILING, "A.7.1.1": 3}, 0, 3))
    measurements.update(
        assign(
            Stage.FULL,
            {"A.10.1.1": 5, "A.10.1.2": 5, "A.14.2.2": 2, "A.14.2.3": 2, "A.14.2.4": 2, "A.14.2.8": 2},
            0,
            0,
        )
    )
    return measurements


def ca_ratings(measurements: dict[ControlId, int]) -> dict[ControlId, tuple[str, str]]:
    """Grades whose matrix outcome equals each control's designed minimum.

    Minimum = measured level everywhere except the two designed failures
    (rated up to level 4) and the priority control (high/high, level 5,
    still passing). Rotating through the equivalent-grade cells exercises the
    whole matrix.
    """
    by_level = {
        3: [("low", "medium"), ("medium", "low")],
        4: [("medium", "medium"), ("high", "low"), ("low", "high")],
        5: [("medium", "high"), ("high", "medium")],
    }
    overrides = {
        parse_control_id(CA_PRIORITY_CONTROL): ("high", "high"),
        parse_control_id("A.9.3.1"): ("medium", "medium"),
        parse_control_id("A.14.1.3"): ("low", "high"),
    }
    counters = {3: 0, 4: 0, 5: 0}
    ratings: dict[ControlId, tuple[str, str]] = {}
    for cid in sorted(measurements):
        if cid in overrides:
            ratings[cid] = overrides[cid]
            continue
        level = measurements[cid]
        if level == 2:
            ratings[cid] = ("low", "low")
        else:
            options = by_level[level]
            ratings[cid] = options[counters[level] % len(options)]
            counters[level] += 1
    return ratings


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)

    catalog = default_catalog()
    db = ingest_responses(panel_scores(), catalog)
    write_text_atomic(DATA_DIR / "importance_default.json", canonical_json(importance_document(db)))

    survey_rows = [
        [respondent, str(cid), str(score)]
        for respondent, by_control in sorted(ca_survey_scores().items())
        for cid, score in sorted(by_control.items())
    ]
    write_csv(FIXTURE_DIR / "survey.csv", SURVEY_HEADER, survey_rows)

    applicability_rows = [["A.5.1.1", "true", ""], ["A.10.1.1", "yes", ""]]
    applicability_rows += [[text, "false", reason] for text, reason in sorted(CA_EXCLUSIONS.items())]
    applicability_rows.sort(key=lambda row: parse_control_id(row[0]))
    write_csv(FIXTURE_DIR / "applicability.csv", APPLICABILITY_HEADER, applicability_rows)

    measurements = ca_measurements()
    write_csv(
        FIXTURE_DIR / "measurements.csv",
        MEASUREMENTS_HEADER,
        [[str(cid), str(level)] for cid, level in sorted(measurements.items())],
    )

    ratings = ca_ratings(measurements)
    write_csv(
        FIXTURE_DIR / "ratings.csv",
        RATINGS_HEADER,
        [[str(cid), p, i] for cid, (p, i) in sorted(ratings.items())],
    )

    # the bundled loader must read back the panel built here, which must partition to the bundled plan
    assert default_importance_db() == db
    assert build_stage_plan(db, catalog) == default_stage_plan()
    print(f"wrote {DATA_DIR} and {FIXTURE_DIR}")


if __name__ == "__main__":
    main()
