"""Regenerate the bundled data files and the company-a test fixtures.

Everything this script writes is synthetic and fully determined by the
construction rules below; no survey of real stakeholders is shipped. The
script is the authoritative record of how the numbers were designed, and it
asserts every property the package's tests later rely on, so a regeneration
that drifts from the design fails loudly instead of silently rewriting
fixtures.

Outputs:

    src/ismaturity/data/catalog_default.json      114 controls + 1 dependency
    src/ismaturity/data/importance_default.json   synthetic 40-person panel
    src/ismaturity/data/stage_plan_default.json   the default stage database
    tests/data/company_a/survey.csv               7-person importance survey
    tests/data/company_a/applicability.csv        3 exclusions + 2 explicit yes rows
    tests/data/company_a/ratings.csv              risk ratings for applicable controls
    tests/data/company_a/measurements.csv         measured levels for applicable controls

Design of the default panel: controls are ranked in the order of the default
stage database (each stage id-sorted), rank r gets score sum 201 - r over 40
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

from fractions import Fraction
from pathlib import Path

from ismaturity import (
    ApplicabilityMap,
    ControlCatalog,
    ControlId,
    RiskGrade,
    Stage,
    build_minimum_db,
    build_stage_plan,
    compare_modes,
    diff_stage_plans,
    evaluate,
    exclude_from_plan,
    format_level,
    gap_analysis,
    ingest_responses,
    label_line,
    misallocation_findings,
    parse_control_id,
)
from ismaturity.catalog import Control, DependencyGraph
from ismaturity.files import (
    catalog_document,
    importance_document,
    stage_plan_document,
    write_text_atomic,
    canonical_json,
)
from ismaturity.minimums import FixedMinimums, RiskMinimums

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "src" / "ismaturity" / "data"
FIXTURE_DIR = ROOT / "tests" / "data" / "company_a"

SECTION_NAMES = {
    5: "Information security policies",
    6: "Organization of information security",
    7: "Human resource security",
    8: "Asset management",
    9: "Access control",
    10: "Cryptography",
    11: "Physical and environmental security",
    12: "Operations security",
    13: "Communications security",
    14: "System acquisition, development and maintenance",
    15: "Supplier relationships",
    16: "Information security incident management",
    17: "Information security aspects of business continuity management",
    18: "Compliance",
}

OBJECTIVE_TEXTS = {
    (5, 1): "Provide management direction and support for information security.",
    (6, 1): "Establish a management framework for information security work.",
    (6, 2): "Secure teleworking and the use of mobile devices.",
    (7, 1): "Ensure candidates understand and suit their responsibilities before hiring.",
    (7, 2): "Keep personnel aware of and accountable for their security duties.",
    (7, 3): "Protect the organization's interests when employment changes or ends.",
    (8, 1): "Identify assets and assign protection responsibilities.",
    (8, 2): "Classify information according to its importance to the organization.",
    (8, 3): "Prevent unauthorized disclosure, modification, removal or destruction of media.",
    (9, 1): "Limit access to information and information processing facilities.",
    (9, 2): "Grant authorized users access and keep unauthorized users out of systems.",
    (9, 3): "Make users accountable for safeguarding their authentication information.",
    (9, 4): "Prevent unauthorized access to systems and applications.",
    (10, 1): "Use cryptography to protect confidentiality, authenticity and integrity.",
    (11, 1): "Prevent unauthorized physical access to information and facilities.",
    (11, 2): "Prevent loss, damage, theft or compromise of assets and interruption of operations.",
    (12, 1): "Ensure correct and secure operation of information processing facilities.",
    (12, 2): "Protect information and processing facilities against malware.",
    (12, 3): "Protect against loss of data.",
    (12, 4): "Record events and generate evidence.",
    (12, 5): "Ensure the integrity of operational systems.",
    (12, 6): "Prevent exploitation of technical vulnerabilities.",
    (12, 7): "Minimize the impact of audit activities on operational systems.",
    (13, 1): "Protect information in networks and the supporting facilities.",
    (13, 2): "Keep transferred information secure, inside and outside the organization.",
    (14, 1): "Make security an integral part of information systems across their lifecycle.",
    (14, 2): "Design and implement security within the development lifecycle.",
    (14, 3): "Protect data used for testing.",
    (15, 1): "Protect organizational assets that suppliers can access.",
    (15, 2): "Maintain the agreed level of security in supplier service delivery.",
    (16, 1): "Manage security incidents consistently and effectively.",
    (17, 1): "Embed information security continuity in business continuity management.",
    (17, 2): "Ensure availability of information processing facilities.",
    (18, 1): "Avoid breaches of legal, statutory, regulatory or contractual obligations.",
    (18, 2): "Ensure security is operated according to policies and procedures.",
}

CONTROL_TITLES = {
    "A.5.1.1": "Policies for information security",
    "A.5.1.2": "Review of the policies for information security",
    "A.6.1.1": "Information security roles and responsibilities",
    "A.6.1.2": "Segregation of duties",
    "A.6.1.3": "Contact with authorities",
    "A.6.1.4": "Contact with special interest groups",
    "A.6.1.5": "Information security in project management",
    "A.6.2.1": "Mobile device policy",
    "A.6.2.2": "Teleworking",
    "A.7.1.1": "Screening",
    "A.7.1.2": "Terms and conditions of employment",
    "A.7.2.1": "Management responsibilities",
    "A.7.2.2": "Information security awareness, education and training",
    "A.7.2.3": "Disciplinary process",
    "A.7.3.1": "Termination or change of employment responsibilities",
    "A.8.1.1": "Inventory of assets",
    "A.8.1.2": "Ownership of assets",
    "A.8.1.3": "Acceptable use of assets",
    "A.8.1.4": "Return of assets",
    "A.8.2.1": "Classification of information",
    "A.8.2.2": "Labelling of information",
    "A.8.2.3": "Handling of assets",
    "A.8.3.1": "Management of removable media",
    "A.8.3.2": "Disposal of media",
    "A.8.3.3": "Physical media transfer",
    "A.9.1.1": "Access control policy",
    "A.9.1.2": "Access to networks and network services",
    "A.9.2.1": "User registration and de-registration",
    "A.9.2.2": "User access provisioning",
    "A.9.2.3": "Management of privileged access rights",
    "A.9.2.4": "Management of secret authentication information of users",
    "A.9.2.5": "Review of user access rights",
    "A.9.2.6": "Removal or adjustment of access rights",
    "A.9.3.1": "Use of secret authentication information",
    "A.9.4.1": "Information access restriction",
    "A.9.4.2": "Secure log-on procedures",
    "A.9.4.3": "Password management system",
    "A.9.4.4": "Use of privileged utility programs",
    "A.9.4.5": "Access control to program source code",
    "A.10.1.1": "Policy on the use of cryptographic controls",
    "A.10.1.2": "Key management",
    "A.11.1.1": "Physical security perimeter",
    "A.11.1.2": "Physical entry controls",
    "A.11.1.3": "Securing offices, rooms and facilities",
    "A.11.1.4": "Protecting against external and environmental threats",
    "A.11.1.5": "Working in secure areas",
    "A.11.1.6": "Delivery and loading areas",
    "A.11.2.1": "Equipment siting and protection",
    "A.11.2.2": "Supporting utilities",
    "A.11.2.3": "Cabling security",
    "A.11.2.4": "Equipment maintenance",
    "A.11.2.5": "Removal of assets",
    "A.11.2.6": "Security of equipment and assets off-premises",
    "A.11.2.7": "Secure disposal or re-use of equipment",
    "A.11.2.8": "Unattended user equipment",
    "A.11.2.9": "Clear desk and clear screen policy",
    "A.12.1.1": "Documented operating procedures",
    "A.12.1.2": "Change management",
    "A.12.1.3": "Capacity management",
    "A.12.1.4": "Separation of development, testing and operational environments",
    "A.12.2.1": "Controls against malware",
    "A.12.3.1": "Information backup",
    "A.12.4.1": "Event logging",
    "A.12.4.2": "Protection of log information",
    "A.12.4.3": "Administrator and operator logs",
    "A.12.4.4": "Clock synchronisation",
    "A.12.5.1": "Installation of software on operational systems",
    "A.12.6.1": "Management of technical vulnerabilities",
    "A.12.6.2": "Restrictions on software installation",
    "A.12.7.1": "Information systems audit controls",
    "A.13.1.1": "Network controls",
    "A.13.1.2": "Security of network services",
    "A.13.1.3": "Segregation in networks",
    "A.13.2.1": "Information transfer policies and procedures",
    "A.13.2.2": "Agreements on information transfer",
    "A.13.2.3": "Electronic messaging",
    "A.13.2.4": "Confidentiality or non-disclosure agreements",
    "A.14.1.1": "Information security requirements analysis and specification",
    "A.14.1.2": "Securing application services on public networks",
    "A.14.1.3": "Protecting application services transactions",
    "A.14.2.1": "Secure development policy",
    "A.14.2.2": "System change control procedures",
    "A.14.2.3": "Technical review of applications after operating platform changes",
    "A.14.2.4": "Restrictions on changes to software packages",
    "A.14.2.5": "Secure system engineering principles",
    "A.14.2.6": "Secure development environment",
    "A.14.2.7": "Outsourced development",
    "A.14.2.8": "System security testing",
    "A.14.2.9": "System acceptance testing",
    "A.14.3.1": "Protection of test data",
    "A.15.1.1": "Information security policy for supplier relationships",
    "A.15.1.2": "Addressing security within supplier agreements",
    "A.15.1.3": "Information and communication technology supply chain",
    "A.15.2.1": "Monitoring and review of supplier services",
    "A.15.2.2": "Managing changes to supplier services",
    "A.16.1.1": "Responsibilities and procedures",
    "A.16.1.2": "Reporting information security events",
    "A.16.1.3": "Reporting information security weaknesses",
    "A.16.1.4": "Assessment of and decision on information security events",
    "A.16.1.5": "Response to information security incidents",
    "A.16.1.6": "Learning from information security incidents",
    "A.16.1.7": "Collection of evidence",
    "A.17.1.1": "Planning information security continuity",
    "A.17.1.2": "Implementing information security continuity",
    "A.17.1.3": "Verify, review and evaluate information security continuity",
    "A.17.2.1": "Availability of information processing facilities",
    "A.18.1.1": "Identification of applicable legislation and contractual requirements",
    "A.18.1.2": "Intellectual property rights",
    "A.18.1.3": "Protection of records",
    "A.18.1.4": "Privacy and protection of personally identifiable information",
    "A.18.1.5": "Regulation of cryptographic controls",
    "A.18.2.1": "Independent review of information security",
    "A.18.2.2": "Compliance with security policies and standards",
    "A.18.2.3": "Technical compliance review",
}

# Reviewing the security policy presupposes having one.
DEPENDENCY_EDGES = [("A.5.1.1", "A.5.1.2")]

# The default stage database: stage membership for all 114 controls.
DEFAULT_STAGES = {
    Stage.ESSENTIAL: [
        "A.5.1.1", "A.6.1.1", "A.6.1.5", "A.6.2.2", "A.7.1.1", "A.7.2.1",
        "A.8.1.2", "A.8.1.3", "A.8.2.1", "A.8.2.3", "A.9.1.2", "A.9.2.1",
        "A.9.2.3", "A.9.2.4", "A.9.2.5", "A.9.4.2", "A.9.4.4", "A.11.1.5",
        "A.11.2.4", "A.11.2.5", "A.11.2.6", "A.11.2.7", "A.12.5.1",
        "A.12.6.2", "A.13.1.3", "A.15.1.3", "A.18.1.1", "A.18.1.2",
        "A.18.1.3", "A.18.1.4", "A.18.1.5",
    ],
    Stage.INTERMEDIATE: [
        "A.5.1.2", "A.6.1.2", "A.6.2.1", "A.7.2.2", "A.8.1.1", "A.8.3.1",
        "A.9.2.6", "A.9.4.3", "A.11.1.3", "A.11.2.2", "A.11.2.3",
        "A.12.1.3", "A.12.1.4", "A.12.2.1", "A.13.1.1", "A.13.2.1",
        "A.13.2.3", "A.14.1.1", "A.14.2.6", "A.15.1.1", "A.16.1.1",
        "A.16.1.2", "A.16.1.4", "A.16.1.5", "A.16.1.7", "A.17.1.1",
        "A.18.2.2",
    ],
    Stage.ADVANCED: [
        "A.7.2.3", "A.8.1.4", "A.8.2.2", "A.9.1.1", "A.9.3.1", "A.9.4.1",
        "A.9.4.5", "A.11.1.1", "A.11.1.2", "A.11.2.1", "A.11.2.9",
        "A.12.1.1", "A.12.1.2", "A.12.3.1", "A.12.4.1", "A.12.6.1",
        "A.12.7.1", "A.13.1.2", "A.13.2.4", "A.14.1.2", "A.14.1.3",
        "A.14.2.5", "A.14.2.9", "A.15.1.2", "A.15.2.1", "A.16.1.3",
        "A.17.2.1", "A.18.2.1", "A.18.2.3",
    ],
    Stage.FULL: [
        "A.6.1.3", "A.6.1.4", "A.7.1.2", "A.7.3.1", "A.8.3.2", "A.8.3.3",
        "A.9.2.2", "A.10.1.1", "A.10.1.2", "A.11.1.4", "A.11.1.6",
        "A.11.2.8", "A.12.4.2", "A.12.4.3", "A.12.4.4", "A.13.2.2",
        "A.14.2.1", "A.14.2.2", "A.14.2.3", "A.14.2.4", "A.14.2.7",
        "A.14.2.8", "A.14.3.1", "A.15.2.2", "A.16.1.6", "A.17.1.2",
        "A.17.1.3",
    ],
}

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


def build_catalog() -> ControlCatalog:
    controls = []
    for text, title in CONTROL_TITLES.items():
        cid = parse_control_id(text)
        controls.append(
            Control(
                id=cid,
                title=title,
                section_name=SECTION_NAMES[cid.section],
                objective_text=OBJECTIVE_TEXTS[(cid.section, cid.objective)],
            )
        )
    controls.sort(key=lambda c: c.id)
    graph = DependencyGraph.from_pairs(
        (parse_control_id(a), parse_control_id(b)) for a, b in DEPENDENCY_EDGES
    )
    return ControlCatalog(controls=tuple(controls), dependencies=graph)


def spread_scores(total: int, count: int, offset: int) -> list[int]:
    """Split `total` into `count` scores 1..5, rotating who gets the extras."""
    q, remainder = divmod(total, count)
    scores = [q] * count
    for k in range(remainder):
        scores[(offset + k) % count] += 1
    assert all(1 <= s <= 5 for s in scores) and sum(scores) == total
    return scores


def panel_rank_order() -> list[ControlId]:
    order = []
    for stage in Stage:
        order.extend(sorted(parse_control_id(t) for t in DEFAULT_STAGES[stage]))
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
    stages = {stage: set(parse_control_id(t) for t in DEFAULT_STAGES[stage]) for stage in Stage}
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


def check_default_plan(catalog: ControlCatalog, db) -> "StagePlan":
    plan = build_stage_plan(db, catalog)
    assert plan.boundaries_used == (29, 57, 86, 114)
    expected_sizes = {Stage.ESSENTIAL: 31, Stage.INTERMEDIATE: 27, Stage.ADVANCED: 29, Stage.FULL: 27}
    assert plan.sizes() == expected_sizes, plan.sizes()
    for stage in Stage:
        expected = tuple(sorted(parse_control_id(t) for t in DEFAULT_STAGES[stage]))
        assert plan.members(stage) == expected, f"{stage}: membership drifted"
    assert all(tag == "partitioned" for tag in plan.provenance.values())
    # the three designed tie groups really are ties
    for texts, total in (
        (("A.18.1.3", "A.18.1.4", "A.18.1.5"), 172),
        (("A.17.1.1", "A.18.2.2"), 144),
        (("A.18.2.1", "A.18.2.3"), 115),
    ):
        for text in texts:
            assert db.average(parse_control_id(text)) == Fraction(total, 40)
    return plan


def check_company_a(catalog: ControlCatalog, default_plan) -> None:
    from ismaturity.files import (
        load_applicability_csv,
        load_measurements_csv,
        load_ratings_csv,
        load_survey_csv,
    )

    survey = load_survey_csv(FIXTURE_DIR / "survey.csv")
    applicability = load_applicability_csv(FIXTURE_DIR / "applicability.csv")
    measurements = load_measurements_csv(FIXTURE_DIR / "measurements.csv")
    ratings = load_ratings_csv(FIXTURE_DIR / "ratings.csv")

    db = ingest_responses(survey, catalog)
    plan = build_stage_plan(db, catalog, applicability)
    expected_stages = ca_stage_sets()
    assert plan.sizes() == {
        Stage.ESSENTIAL: 29, Stage.INTERMEDIATE: 27, Stage.ADVANCED: 28, Stage.FULL: 27,
    }, plan.sizes()
    for stage in Stage:
        assert set(plan.members(stage)) == expected_stages[stage], f"{stage}: wrong members"
    assert plan.boundaries_used == (28, 56, 84, 111)

    deltas = diff_stage_plans(default_plan, plan)
    assert len(deltas) == 11, len(deltas)
    moved = {str(d.control): (d.before, d.after) for d in deltas}
    for text, (before, after) in CA_MOVES.items():
        assert moved[text] == (before, after), text
    for text in CA_EXCLUSIONS:
        assert moved[text][1] is None, text

    mins = build_minimum_db(RiskMinimums(ratings=ratings), applicability, catalog)
    priority = parse_control_id(CA_PRIORITY_CONTROL)
    assert mins.requirements[priority].priority and mins.requirements[priority].required_level == 5
    assert sum(req.priority for req in mins.requirements.values()) == 1
    for text in CA_FAILING:
        assert mins.requirements[parse_control_id(text)].required_level == 4

    result = evaluate(plan, mins, measurements)
    assert result.label.stage is Stage.INTERMEDIATE and not result.label.incomplete
    assert result.label.level == Fraction(89, 27)
    assert label_line(result.label.stage, result.label.level) == (
        "Intermediate Stage, Maturity Level 3.30 (Defined)"
    )
    stage_expect = {
        Stage.ESSENTIAL: (Fraction(101, 29), "3.48", True),
        Stage.INTERMEDIATE: (Fraction(89, 27), "3.30", True),
        Stage.ADVANCED: (Fraction(86, 28), "3.07", False),
        Stage.FULL: (Fraction(81, 27), "3.00", True),
    }
    for stage, (average, display, complete) in stage_expect.items():
        sr = result.stage_result(stage)
        assert sr.average == average and sr.complete == complete
        assert format_level(sr.average) == display
    assert result.naive_average == Fraction(357, 111)
    assert format_level(result.naive_average) == "3.22"

    gaps = gap_analysis(result)
    assert [str(g.control) for g in gaps] == ["A.9.3.1", "A.14.1.3"]
    assert all(g.required == 4 and not g.priority for g in gaps)  # no priority gap

    findings = misallocation_findings(result)
    assert len(findings) == 1
    f = findings[0]
    assert (f.later_stage, f.earlier_stage) == (Stage.FULL, Stage.ADVANCED)
    assert str(f.later_control) == "A.10.1.1" and f.later_level == 5
    assert str(f.earlier_control) == "A.14.1.3" and f.earlier_level == 2

    # model mode: bundled plan restricted to the same exclusions, fixed floor 3
    mins_model = build_minimum_db(FixedMinimums(level=3), applicability, catalog)
    restricted = exclude_from_plan(default_plan, applicability.excluded_within(catalog))
    model_result = evaluate(restricted, mins_model, measurements)
    assert model_result.label.stage is Stage.ESSENTIAL and not model_result.label.incomplete
    assert model_result.label.level == Fraction(106, 31)
    assert label_line(model_result.label.stage, model_result.label.level) == (
        "Essential Stage, Maturity Level 3.42 (Defined)"
    )
    failing = model_result.stage_result(Stage.INTERMEDIATE).failing
    assert sorted(str(g.control) for g in failing) == ["A.13.2.3", "A.16.1.7"]

    comparison = compare_modes(model_result, result)
    assert comparison.independent.stage is Stage.INTERMEDIATE
    assert comparison.model.stage is Stage.ESSENTIAL
    assert comparison.naive == Fraction(357, 111)


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)

    catalog = build_catalog()
    write_text_atomic(DATA_DIR / "catalog_default.json", canonical_json(catalog_document(catalog)))

    db = ingest_responses(panel_scores(), catalog)
    write_text_atomic(DATA_DIR / "importance_default.json", canonical_json(importance_document(db)))

    plan = check_default_plan(catalog, db)
    write_text_atomic(DATA_DIR / "stage_plan_default.json", canonical_json(stage_plan_document(plan)))

    survey_rows = [
        [respondent, str(cid), str(score)]
        for respondent, by_control in sorted(ca_survey_scores().items())
        for cid, score in sorted(by_control.items())
    ]
    write_csv(FIXTURE_DIR / "survey.csv", ["respondent_id", "control_id", "score"], survey_rows)

    applicability_rows = [["A.5.1.1", "true", ""], ["A.10.1.1", "yes", ""]]
    applicability_rows += [[text, "false", reason] for text, reason in sorted(CA_EXCLUSIONS.items())]
    applicability_rows.sort(key=lambda row: parse_control_id(row[0]))
    write_csv(
        FIXTURE_DIR / "applicability.csv",
        ["control_id", "applicable", "justification"],
        applicability_rows,
    )

    measurements = ca_measurements()
    write_csv(
        FIXTURE_DIR / "measurements.csv",
        ["control_id", "level"],
        [[str(cid), str(level)] for cid, level in sorted(measurements.items())],
    )

    ratings = ca_ratings(measurements)
    write_csv(
        FIXTURE_DIR / "ratings.csv",
        ["control_id", "probability", "impact"],
        [[str(cid), p, i] for cid, (p, i) in sorted(ratings.items())],
    )

    check_company_a(catalog, plan)

    # the bundled loaders must reproduce exactly what was built here
    from ismaturity.files import default_catalog, default_importance_db, default_stage_plan

    assert default_catalog() == catalog
    assert default_importance_db() == db
    assert default_stage_plan() == plan
    print(f"wrote {DATA_DIR} and {FIXTURE_DIR}; all design checks passed")


if __name__ == "__main__":
    main()
