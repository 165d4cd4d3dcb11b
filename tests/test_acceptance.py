"""Acceptance suite: ten end-to-end criteria, one printed line each.

Every test prints exactly one "criterion NN PASS/FAIL: ..." line straight to
the terminal (bypassing pytest's capture), so a full run ends with a
ten-line scoreboard. All numeric comparisons are exact; the only tolerances
are the stated wall-clock budgets on the bulk randomized criteria.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources

import pytest

from ismaturity import (
    DependencyGraph,
    Stage,
    default_catalog,
    default_importance_db,
    default_stage_plan,
    evaluate,
    parse_control_id,
)
from ismaturity import files
from ismaturity.assessment import gap_analysis, misallocation_findings
from ismaturity.files import (
    canonical_json,
    catalog_document,
    deltas_from_document,
    diff_document,
    importance_document,
    importance_from_document,
    load_applicability_csv,
    minimum_db_document,
    minimum_db_from_document,
    stage_plan_document,
    stage_plan_from_document,
)
from ismaturity.catalog import load_catalog
from ismaturity.minimums import (
    ApplicabilityMap,
    FixedMinimums,
    MinimumLevelDatabase,
    MinimumRequirement,
    RiskGrade,
    build_minimum_db,
    risk_minimum,
)
from ismaturity.reporting import format_level, label_line
from ismaturity.staging import (
    PARTITIONED,
    PROMOTED,
    StagePlan,
    build_stage_plan,
    diff_stage_plans,
    exclude_from_plan,
    partition_quartiles,
    promote_prerequisites,
)

import expected_stages
import oracles

TS = "2026-02-02T12:00:00Z"


@pytest.fixture
def criterion(capsys):
    """Wrap a test body; print its one-line verdict outside capture."""

    @contextmanager
    def _report(number, summary):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:02d} FAIL: {summary}")
            raise
        with capsys.disabled():
            print(f"criterion {number:02d} PASS: {summary}")

    return _report


def cid(text):
    return parse_control_id(text)


STAGE_BY_LABEL = {
    "Essential": Stage.ESSENTIAL,
    "Intermediate": Stage.INTERMEDIATE,
    "Advanced": Stage.ADVANCED,
    "Full": Stage.FULL,
}


def test_01_bundled_stage_database(criterion):
    with criterion(1, "bundled 114-control stage database matches the frozen lists"):
        files.default_catalog.cache_clear()
        files.default_importance_db.cache_clear()
        files.default_stage_plan.cache_clear()
        started = time.monotonic()
        catalog = default_catalog()
        db = default_importance_db()
        plan = default_stage_plan()
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"cold load took {elapsed:.2f}s"
        assert len(catalog) == 114
        assert len(db.respondents) == 40
        sizes = plan.sizes()
        assert tuple(sizes[stage] for stage in Stage) == expected_stages.DEFAULT_SIZES
        lists = expected_stages.default_stage_lists()
        for label, stage in STAGE_BY_LABEL.items():
            assert [str(c) for c in plan.members(stage)] == lists[label], label
        assert plan.boundaries_used == (29, 57, 86, 114)
        # the plan and panel files are maintained by hand and no tool rewrites them, so their form is checked here
        data = resources.files("ismaturity") / "data"
        written = (data / "stage_plan_default.json").read_bytes()
        assert written == canonical_json(stage_plan_document(plan)).encode("utf-8")
        written = (data / "importance_default.json").read_bytes()
        assert written == canonical_json(importance_document(db)).encode("utf-8")
        # the bundled panel partitions back to the bundled plan, with nothing promoted
        assert build_stage_plan(db, catalog) == plan
        assert set(plan.provenance.values()) == {PARTITIONED}
        # the three designed tie groups, each straddling one boundary, really are ties
        for texts, total in (
            (("A.18.1.3", "A.18.1.4", "A.18.1.5"), 172),
            (("A.17.1.1", "A.18.2.2"), 144),
            (("A.18.2.1", "A.18.2.3"), 115),
        ):
            for text in texts:
                assert db.average(cid(text)) == Fraction(total, 40), text


def test_02_risk_matrix(criterion):
    with criterion(2, "all nine risk matrix cells give the reference minimums"):
        for (p_text, i_text), (level, priority) in oracles.RISK_MATRIX.items():
            requirement = risk_minimum(RiskGrade(p_text), RiskGrade(i_text))
            assert requirement.required_level == level, (p_text, i_text)
            assert requirement.priority == priority, (p_text, i_text)
            weights = {"low": 1, "medium": 2, "high": 3}
            assert requirement.raw_score == weights[p_text] + weights[i_text]


def test_03_quartile_partition_without_ties(criterion):
    with criterion(3, "114 distinct averages split into stages of 29/28/29/28"):
        ids = list(default_catalog().control_ids())
        averages = {control: Fraction(570 - i, 114) for i, control in enumerate(ids)}
        plan = partition_quartiles(averages, (29, 57, 86, 114))
        sizes = plan.sizes()
        assert tuple(sizes[stage] for stage in Stage) == (29, 28, 29, 28)
        reference = oracles.partition_by_quartiles(
            {str(c): a for c, a in averages.items()}, (29, 57, 86, 114)
        )
        assert {str(c): s.value for c, s in plan.assignment.items()} == reference


def test_04_boundary_tie_absorption(criterion):
    with criterion(4, "a four-way tie at positions 27..30 makes the first stage 30"):
        ids = list(default_catalog().control_ids())
        values = [1000 - 5 * i for i in range(114)]
        for position in (26, 27, 28, 29):  # 0-based: sorted positions 27..30
            values[position] = values[26]
        averages = {control: Fraction(values[i], 200) for i, control in enumerate(ids)}
        plan = partition_quartiles(averages, (29, 57, 86, 114))
        sizes = plan.sizes()
        assert sizes[Stage.ESSENTIAL] == 30
        assert tuple(sizes[stage] for stage in Stage) == (30, 27, 29, 28)
        reference = oracles.partition_by_quartiles(
            {str(c): a for c, a in averages.items()}, (29, 57, 86, 114)
        )
        assert {str(c): s.value for c, s in plan.assignment.items()} == reference
        # the divergent reading of this edge case is documented at the rule
        doc = partition_quartiles.__doc__
        assert "gives 30" in doc and "31" in doc


def test_05_promotion_against_fixpoint_oracle(criterion):
    with criterion(5, "1000 random dependency graphs promote exactly to the fixpoint"):
        rng = random.Random(20260814)
        started = time.monotonic()
        for _ in range(1000):
            count = rng.randint(4, 20)
            names = [f"A.5.{i + 1}.1" for i in range(count)]
            order = names[:]
            rng.shuffle(order)
            edges = [
                (order[i], order[j])
                for i in range(count)
                for j in range(i + 1, count)
                if rng.random() < 0.15
            ]
            stage_numbers = {name: rng.randint(1, 4) for name in names}
            plan = StagePlan(
                assignment={cid(n): Stage(s) for n, s in stage_numbers.items()},
                provenance={cid(n): PARTITIONED for n in names},
                boundaries_used=(1, 2, 3, count),
            )
            graph = DependencyGraph.from_pairs((cid(a), cid(b)) for a, b in edges)
            promoted = promote_prerequisites(plan, graph)
            expected = oracles.promotion_fixpoint(stage_numbers, edges)
            actual = {str(c): s.value for c, s in promoted.assignment.items()}
            assert actual == expected
            for prerequisite, dependent in edges:
                assert actual[prerequisite] <= actual[dependent]
            for name in names:
                assert actual[name] <= stage_numbers[name]  # never pushed later
                moved = actual[name] != stage_numbers[name]
                tag = promoted.provenance[cid(name)]
                assert tag == (PROMOTED if moved else PARTITIONED)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_06_company_a_end_to_end(criterion, default_plan, ca_plan, ca_result, ca_paths):
    with criterion(6, "the worked company example reproduces every frozen outcome"):
        deltas = diff_stage_plans(default_plan, ca_plan)
        assert len(deltas) == 11
        moves = {
            str(d.control): (d.before.label, d.after.label)
            for d in deltas
            if d.after is not None
        }
        assert moves == expected_stages.CA_MOVES
        assert sorted(str(d.control) for d in deltas if d.after is None) == (
            expected_stages.CA_EXCLUDED
        )

        assert ca_result.label.stage is Stage.INTERMEDIATE
        assert label_line(ca_result.label.stage, ca_result.label.level) == (
            expected_stages.CA_LABEL_LINE
        )
        measured = oracles.measurements_from_csv(ca_paths["measurements"])
        lists = expected_stages.company_a_stage_lists()
        by_stage = {row.stage: row for row in ca_result.stage_results}
        for label, stage in STAGE_BY_LABEL.items():
            row = by_stage[stage]
            assert row.average == oracles.mean(measured[c] for c in lists[label])
            exact, display = expected_stages.CA_STAGE_AVERAGES[label]
            assert format_level(row.average) == display
        assert by_stage[Stage.ESSENTIAL].complete
        assert by_stage[Stage.INTERMEDIATE].complete
        assert not by_stage[Stage.ADVANCED].complete
        assert [str(g.control) for g in by_stage[Stage.ADVANCED].failing] == (
            expected_stages.CA_FAILING
        )
        assert format_level(ca_result.naive_average) == expected_stages.CA_NAIVE[1]


def test_07_gated_label_differs_from_equal_naive_averages(criterion):
    with criterion(7, "two portfolios with naive average 3.00 get different labels"):
        catalog = default_catalog()
        plan = default_stage_plan()
        minimums = build_minimum_db(FixedMinimums(level=3), ApplicabilityMap(), catalog)
        flat = {control: 3 for control in catalog.control_ids()}
        result_x = evaluate(plan, minimums, flat)

        shifted = dict(flat)
        shifted[plan.members(Stage.ESSENTIAL)[0]] = 2
        shifted[plan.members(Stage.FULL)[0]] = 4
        result_y = evaluate(plan, minimums, shifted)

        assert result_x.naive_average == result_y.naive_average == Fraction(3)
        assert format_level(result_x.naive_average) == "3.00"
        assert format_level(result_y.naive_average) == "3.00"
        assert result_x.label.stage is Stage.FULL and not result_x.label.incomplete
        assert result_y.label.stage is Stage.ESSENTIAL and result_y.label.incomplete
        assert label_line(result_x.label.stage, result_x.label.level) != label_line(
            result_y.label.stage, result_y.label.level
        )


def test_08_raising_a_measurement_never_lowers_the_label(criterion):
    with criterion(8, "500 random single-level improvements never lower the label"):
        rng = random.Random(1889)
        names = [f"A.5.{i + 1}.1" for i in range(8)]
        ids = [cid(n) for n in names]
        plan = StagePlan(
            assignment={c: Stage(1 + i // 2) for i, c in enumerate(ids)},
            provenance={c: PARTITIONED for c in ids},
            boundaries_used=(2, 4, 6, 8),
        )

        def rank(result):
            return (result.label.stage.value, 0 if result.label.incomplete else 1)

        started = time.monotonic()
        for _ in range(500):
            minimums = MinimumLevelDatabase(
                mode="risk",
                requirements={
                    c: MinimumRequirement(required_level=rng.randint(1, 5)) for c in ids
                },
                excluded={},
            )
            measured = {c: rng.randint(0, 5) for c in ids}
            before = evaluate(plan, minimums, measured)
            candidates = [c for c in ids if measured[c] < 5]
            if not candidates:
                continue
            raised = dict(measured)
            raised[rng.choice(candidates)] += 1
            after = evaluate(plan, minimums, raised)
            assert rank(after) >= rank(before), (measured, raised)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_09_excluded_controls_never_affect_results(criterion, run_cli, ca_paths, tmp_path):
    with criterion(9, "rows for excluded controls change no byte of any report"):
        rng = random.Random(99)
        base_args = (
            "assess", "--mode", "independent",
            "--survey", str(ca_paths["survey"]),
            "--applicability", str(ca_paths["applicability"]),
            "--company", "company-a", "--timestamp", TS,
        )
        base_json = tmp_path / "base.json"
        base_text = tmp_path / "base.txt"
        code, _, err = run_cli(
            *base_args,
            "--ratings", str(ca_paths["ratings"]),
            "--measurements", str(ca_paths["measurements"]),
            "--out", base_json, "--out-text", base_text,
        )
        assert code == 0, err

        # the three justifications must surface in the rendered report
        amap = load_applicability_csv(ca_paths["applicability"])
        text = base_text.read_text(encoding="utf-8")
        for control in expected_stages.CA_EXCLUDED:
            assert f"{control}: {amap.not_applicable[cid(control)]}" in text

        grades = ["low", "medium", "high"]
        for round_no in range(3):
            padded_measurements = tmp_path / f"m{round_no}.csv"
            padded_ratings = tmp_path / f"r{round_no}.csv"
            extra_m = "".join(
                f"{control},{rng.randint(0, 5)}\n" for control in expected_stages.CA_EXCLUDED
            )
            extra_r = "".join(
                f"{control},{rng.choice(grades)},{rng.choice(grades)}\n"
                for control in expected_stages.CA_EXCLUDED
            )
            padded_measurements.write_text(
                ca_paths["measurements"].read_text(encoding="utf-8") + extra_m, encoding="utf-8"
            )
            padded_ratings.write_text(
                ca_paths["ratings"].read_text(encoding="utf-8") + extra_r, encoding="utf-8"
            )
            out_json = tmp_path / f"out{round_no}.json"
            out_text = tmp_path / f"out{round_no}.txt"
            code, _, err = run_cli(
                *base_args,
                "--ratings", str(padded_ratings),
                "--measurements", str(padded_measurements),
                "--out", out_json, "--out-text", out_text,
            )
            assert code == 0, err
            assert out_json.read_bytes() == base_json.read_bytes(), round_no
            assert out_text.read_bytes() == base_text.read_bytes(), round_no


def test_10_documents_round_trip_and_runs_are_deterministic(
    criterion, run_cli, catalog, default_plan, ca_plan, ca_minimums, ca_inputs, ca_paths, tmp_path
):
    with criterion(10, "every document kind round-trips and reruns are byte-identical"):
        from ismaturity.reporting import (
            build_report,
            comparison_document_dict,
            compare_modes,
            parse_comparison,
            parse_report,
            report_document_dict,
        )

        def doc_of(kind, text):
            return files.parse_document(text, kind, "round-trip")

        fixed = build_minimum_db(FixedMinimums(level=3), ca_inputs["applicability"], catalog)
        deltas = diff_stage_plans(default_plan, ca_plan)
        round_trips = [
            (
                catalog_document(catalog),
                lambda t: catalog_document(load_catalog(doc_of("control-catalog", t))),
            ),
            (
                importance_document(default_importance_db()),
                lambda t: importance_document(
                    importance_from_document(doc_of("importance-database", t))
                ),
            ),
            (
                stage_plan_document(ca_plan),
                lambda t: stage_plan_document(stage_plan_from_document(doc_of("stage-plan", t))),
            ),
            (
                minimum_db_document(ca_minimums),
                lambda t: minimum_db_document(
                    minimum_db_from_document(doc_of("minimum-level-database", t))
                ),
            ),
            (
                minimum_db_document(fixed),
                lambda t: minimum_db_document(
                    minimum_db_from_document(doc_of("minimum-level-database", t))
                ),
            ),
            (
                diff_document(deltas),
                lambda t: diff_document(deltas_from_document(doc_of("stage-plan-diff", t))),
            ),
        ]
        for document, reparse in round_trips:
            text = canonical_json(document)
            assert canonical_json(reparse(text)) == text

        result = evaluate(ca_plan, ca_minimums, ca_inputs["measurements"])
        report = build_report(
            result,
            gap_analysis(result),
            misallocation_findings(result),
            ca_inputs["applicability"],
            deltas,
            company="company-a",
            timestamp=TS,
            mode="independent",
            minimums=ca_minimums,
        )
        report_text = canonical_json(report_document_dict(report))
        assert canonical_json(report_document_dict(parse_report(report_text))) == report_text

        comparison = compare_modes(
            evaluate(exclude_from_plan(default_plan, fixed.excluded), fixed, ca_inputs["measurements"]), result
        )
        comparison_text = canonical_json(
            comparison_document_dict(comparison, company="company-a", timestamp=TS)
        )
        assert canonical_json(
            comparison_document_dict(parse_comparison(comparison_text), company="company-a", timestamp=TS)
        ) == comparison_text

        # identical invocations write identical bytes
        common = (
            "--survey", str(ca_paths["survey"]),
            "--ratings", str(ca_paths["ratings"]),
            "--applicability", str(ca_paths["applicability"]),
            "--measurements", str(ca_paths["measurements"]),
            "--company", "company-a", "--timestamp", TS,
        )
        for name, argv in (
            ("assess", ("assess", "--mode", "independent", *common)),
            ("compare-modes", ("compare-modes", *common)),
        ):
            first = tmp_path / f"{name}-1.json"
            second = tmp_path / f"{name}-2.json"
            assert run_cli(*argv, "--out", first, "--out-text", tmp_path / f"{name}-1.txt")[0] == 0
            assert run_cli(*argv, "--out", second, "--out-text", tmp_path / f"{name}-2.txt")[0] == 0
            assert first.read_bytes() == second.read_bytes(), name
            assert (tmp_path / f"{name}-1.txt").read_bytes() == (
                tmp_path / f"{name}-2.txt"
            ).read_bytes(), name
