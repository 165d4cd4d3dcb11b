"""The benchmark workloads: seeded inputs, one operation, its reference check.

Each workload generates its inputs from the run's seed, computes the expected
results with the import-free oracles in tests/oracles.py, and then exposes
`op(i)` (the timed operation) and `check(i, output)` (the untimed reference
check, returning a list of mismatches; empty means correct). In-process
operations call the package through its modules' attributes, so the tracer's
wrappers are picked up when they are installed.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import inputs
from inputs import STAGE_LABELS

TIMESTAMP = "2018-07-16T00:00:00Z"
MODEL_LEVEL = 3


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_modules() -> SimpleNamespace:
    """The package modules the operations call through (imported once sys.path is set)."""
    from ismaturity import assessment, catalog, cli, files, importance, minimums, reporting, staging

    return SimpleNamespace(
        assessment=assessment, catalog=catalog, cli=cli, files=files,
        importance=importance, minimums=minimums, reporting=reporting, staging=staging,
    )


# ---------------------------------------------------------------------------
# Expected results, from the oracles only


@dataclass
class Expected:
    stages: dict[str, int]
    required: dict[str, tuple[int, bool]]
    measured: dict[str, int]
    label_stage: int = 0
    incomplete: bool = False
    label_level: Fraction | None = None
    naive: Fraction = Fraction(0)
    gaps: set[str] = field(default_factory=set)


def expected_result(oracles, stages, required, measured) -> Expected:
    exp = Expected(stages=stages, required=required, measured=measured)
    exp.label_stage, exp.incomplete = oracles.prefix_gated_label(
        stages, {cid: level for cid, (level, _) in required.items()}, measured
    )
    members = [cid for cid, stage in stages.items() if stage == exp.label_stage]
    exp.label_level = oracles.mean(measured[cid] for cid in members) if members else None
    exp.naive = oracles.mean(measured.values())
    exp.gaps = {cid for cid in stages if measured[cid] < required[cid][0]}
    return exp


def independent_stages(oracles, averages, applicable, edges) -> dict[str, int]:
    chosen = {cid: averages[cid] for cid in applicable}
    partition = oracles.partition_by_quartiles(chosen, oracles.quartile_boundaries(len(chosen)))
    kept = [(a, b) for a, b in edges if a in partition and b in partition]
    return oracles.promotion_fixpoint(partition, kept)


def default_plan_stages(root: Path, excluded) -> dict[str, int]:
    assignment = _default_assignment(root)
    return {cid: STAGE_LABELS.index(label) + 1 for cid, label in assignment.items() if cid not in excluded}


@functools.lru_cache(maxsize=None)
def _default_assignment(root: Path) -> dict[str, str]:
    return inputs.bundled_json(root, "stage_plan_default.json")["assignment"]


def _exact(record) -> Fraction | None:
    return None if record is None else Fraction(record["exact"])


def label_problems(record: dict, exp: Expected, oracles, where: str) -> list[str]:
    problems = []
    if record["stage"] != STAGE_LABELS[exp.label_stage - 1] or record["incomplete"] != exp.incomplete:
        problems.append(f"{where}: label {record['stage']}/{record['incomplete']} != oracle")
    if _exact(record["level"]) != exp.label_level:
        problems.append(f"{where}: label level != oracle")
    elif exp.label_level is not None and record["level"]["display"] != oracles.decimal_display(exp.label_level):
        problems.append(f"{where}: label display != oracle")
    return problems


def report_problems(text: str, exp: Expected, oracles) -> list[str]:
    """Compare a structured report with the oracle's expected result."""
    doc = json.loads(text)
    problems = []
    for row in doc["stages"]:
        number = STAGE_LABELS.index(row["stage"]) + 1
        want = sorted((cid for cid, s in exp.stages.items() if s == number), key=oracles.id_key)
        if row["members"] != want:
            problems.append(f"stage {row['stage']} members differ from oracle")
    problems += label_problems(doc["label"], exp, oracles, "report")
    if _exact(doc["naive_average"]) != exp.naive:
        problems.append("naive average != oracle")
    required = {cid: (r["required_level"], r["priority"]) for cid, r in doc["requirements"].items()}
    if required != exp.required:
        problems.append("requirements differ from oracle")
    if doc["measurements"] != exp.measured:
        problems.append("measurements differ from input")
    gaps = [gap["control"] for gap in doc["gaps"]]
    if len(gaps) != len(exp.gaps) or set(gaps) != exp.gaps:
        problems.append(f"{len(gaps)} gaps, oracle has {len(exp.gaps)}")
    return problems


def _csv_records(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Shared bookkeeping: generated files, first-seen output digests."""

    name = ""
    items_per_op = 1
    warmup_ops = 0

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")
        self.oracles = load_oracles(root)
        self.m = package_modules()
        self.files: dict[str, Path] = {}
        self._digests: dict[object, str] = {}

    def input_digests(self) -> dict[str, str]:
        return {name: inputs.sha256_file(path) for name, path in sorted(self.files.items())}

    def same_as_before(self, key, text: str) -> bool:
        """True when `text` matches the first output seen under `key`."""
        return self._digests.setdefault(key, _sha(text)) == _sha(text)

    def input_key(self, i: int):
        """Operations with equal keys repeat the same work on the same input."""
        return 0

    def inproc(self, i: int):
        """The operation in process, as traced runs trace it; `op` itself unless overridden."""
        return self.op(i)

    def check_inproc(self, i: int, output) -> list[str]:
        return self.check(i, output)

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError

    def _round_trip(self, parsed, human: str) -> list[str]:
        reporting = self.m.reporting
        again = reporting.render_document(parsed, reporting.HUMAN)
        return [] if again == human else ["structured -> parse_report -> human differs from human"]

    def _report_checks(self, key, structured: str, exp: Expected) -> list[str]:
        problems = report_problems(structured, exp, self.oracles)
        if not self.same_as_before(key, structured):
            problems.append("structured output not byte-identical to an earlier operation")
        return problems


# ---------------------------------------------------------------------------
# In-process pipelines


class _Pipeline(Workload):
    """Independent-mode pipeline from generated files to rendered report."""

    def _expect(self, catalog_ids, edges, excluded, required) -> Expected:
        averages = self.oracles.survey_averages_from_csv(self.files["survey"])
        applicable = [cid for cid in catalog_ids if cid not in excluded]
        stages = independent_stages(self.oracles, averages, applicable, edges)
        measured = self.oracles.measurements_from_csv(self.files["measurements"])
        return expected_result(self.oracles, stages, required, measured)

    def _assess(self, catalog, rows, applicability, mins, measurements, deltas_against=None):
        m = self.m
        db = m.importance.ingest_responses(rows, catalog)
        plan = m.staging.build_stage_plan(db, catalog, applicability)
        result = m.assessment.evaluate(plan, mins, measurements)
        gaps = m.assessment.gap_analysis(result)
        findings = m.assessment.misallocation_findings(result)
        deltas = None if deltas_against is None else m.staging.diff_stage_plans(deltas_against, plan)
        report = m.reporting.build_report(
            result, gaps, findings, applicability, deltas,
            company=self.name, timestamp=TIMESTAMP, mode="independent", minimums=mins,
        )
        render = m.reporting.render_document
        return render(report, m.reporting.STRUCTURED), render(report, m.reporting.HUMAN)


class Survey5k(_Pipeline):
    """5,000 respondents x 114 bundled controls: the respondents axis."""

    name = "survey-5k"
    respondents = 5000

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        ids = inputs.bundled_control_ids(root)
        self.items_per_op = self.respondents * len(ids)
        excluded = inputs.pick_exclusions(self.rng, ids, 3)
        applicable = [cid for cid in ids if cid not in excluded]
        self.files = {
            "survey": inputs.write_survey(work / "survey.csv", self.rng, self.respondents, ids),
            "ratings": inputs.write_ratings(work / "ratings.csv", self.rng, ids),
            "applicability": inputs.write_applicability(work / "applicability.csv", excluded),
            "measurements": inputs.write_measurements(
                work / "measurements.csv", inputs.measured_levels(self.rng, applicable)
            ),
        }
        matrix = self.oracles.RISK_MATRIX
        required = {
            row["control_id"]: matrix[(row["probability"], row["impact"])]
            for row in _csv_records(self.files["ratings"]) if row["control_id"] not in excluded
        }
        edges = [(d["prerequisite"], d["dependent"])
                 for d in inputs.bundled_json(root, "catalog_default.json")["dependencies"]]
        self.expected = self._expect(ids, edges, excluded, required)

    def op(self, i):
        m = self.m
        files = m.files
        catalog = files.default_catalog()
        rows = files.load_survey_csv(self.files["survey"])
        ratings = files.load_ratings_csv(self.files["ratings"])
        applicability = files.load_applicability_csv(self.files["applicability"])
        measurements = files.load_measurements_csv(self.files["measurements"])
        mins = m.minimums.build_minimum_db(m.minimums.RiskMinimums(ratings=ratings), applicability, catalog)
        structured, human = self._assess(
            catalog, rows, applicability, mins, measurements, deltas_against=files.default_stage_plan()
        )
        return structured, human

    def check(self, i, output):
        structured, human = output
        return self._report_checks("report", structured, self.expected) + self._round_trip(
            self.m.reporting.parse_report(structured), human
        )


class Catalog4k(_Pipeline):
    """A 4,000-control synthetic catalog with prerequisite chains: the controls axis."""

    name = "catalog-4k"
    controls = 4000
    respondents = 7

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        document = inputs.synthetic_catalog(self.rng, self.controls)
        ids = sorted((r["id"] for r in document["controls"]), key=self.oracles.id_key)
        self.items_per_op = len(ids)
        self.files = {
            "catalog": inputs.write_json(work / "catalog.json", document),
            "survey": inputs.write_survey(work / "survey.csv", self.rng, self.respondents, ids),
            "measurements": inputs.write_measurements(
                work / "measurements.csv", inputs.measured_levels(self.rng, ids)
            ),
        }
        edges = [(d["prerequisite"], d["dependent"]) for d in document["dependencies"]]
        required = {cid: (MODEL_LEVEL, False) for cid in ids}
        self.expected = self._expect(ids, edges, set(), required)

    def op(self, i):
        m = self.m
        files = m.files
        catalog = files.read_catalog_file(self.files["catalog"])
        rows = files.load_survey_csv(self.files["survey"])
        measurements = files.load_measurements_csv(self.files["measurements"])
        applicability = m.minimums.ApplicabilityMap()
        mins = m.minimums.build_minimum_db(m.minimums.FixedMinimums(level=MODEL_LEVEL), applicability, catalog)
        structured, human = self._assess(catalog, rows, applicability, mins, measurements)
        parsed = m.reporting.parse_report(structured)
        return structured, human, parsed

    def check(self, i, output):
        structured, human, parsed = output
        return self._report_checks("report", structured, self.expected) + self._round_trip(parsed, human)


class ModelSweep(Workload):
    """Many organizations against the bundled default plan, fixed minimum 3."""

    name = "model-sweep"
    organizations = 120
    warmup_ops = 20

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        ids = inputs.bundled_control_ids(root)
        pool = inputs.model_organizations(self.rng, ids, self.organizations)
        self.files = {"organizations": inputs.write_json(work / "organizations.json", pool)}
        with open(self.files["organizations"], encoding="utf-8") as handle:
            pool = json.load(handle)
        parse = self.m.catalog.parse_control_id
        applicability_map = self.m.minimums.ApplicabilityMap
        self.orgs = []
        self.expected = []
        for org in pool:
            self.orgs.append((
                org["name"],
                applicability_map({parse(cid): why for cid, why in org["excluded"].items()}),
                {parse(cid): level for cid, level in org["measurements"].items()},
            ))
            stages = default_plan_stages(root, org["excluded"])
            required = {cid: (MODEL_LEVEL, False) for cid in stages}
            self.expected.append(expected_result(self.oracles, stages, required, org["measurements"]))

    def input_key(self, i):
        return i % len(self.orgs)

    def op(self, i):
        m = self.m
        name, applicability, measurements = self.orgs[self.input_key(i)]
        catalog = m.files.default_catalog()
        plan = m.staging.exclude_from_plan(
            m.files.default_stage_plan(), applicability.excluded_within(catalog)
        )
        mins = m.minimums.build_minimum_db(m.minimums.FixedMinimums(level=MODEL_LEVEL), applicability, catalog)
        result = m.assessment.evaluate(plan, mins, measurements)
        gaps = m.assessment.gap_analysis(result)
        findings = m.assessment.misallocation_findings(result)
        report = m.reporting.build_report(
            result, gaps, findings, applicability, None,
            company=name, timestamp=TIMESTAMP, mode="model", minimums=mins,
        )
        render = m.reporting.render_document
        structured = render(report, m.reporting.STRUCTURED)
        human = render(report, m.reporting.HUMAN)
        again = render(m.reporting.parse_report(structured), m.reporting.HUMAN)
        return structured, human, again

    def check(self, i, output):
        structured, human, again = output
        k = self.input_key(i)
        problems = self._report_checks(k, structured, self.expected[k])
        if again != human:
            problems.append("structured -> parse_report -> human differs from human")
        return problems


# ---------------------------------------------------------------------------
# The command line, one fresh process per operation


@dataclass
class ProcessResult:
    wall_s: float
    exit_code: int
    stderr: str
    maxrss_kb: int


def run_process(argv, env, cwd) -> ProcessResult:
    """Run one child to completion; wall time and its own peak RSS via wait4."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.stderr.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(wall, child.returncode, stderr.decode("utf-8", "replace"), usage.ru_maxrss)


def package_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliCompanyA(Workload):
    """`python -m ismaturity.cli` on the company_a example, rows permuted by the seed."""

    name = "cli-company-a"
    warmup_ops = 4
    COMMANDS = ("assess_independent", "assess_model", "compare_modes", "report")

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        source = root / "tests" / "data" / "company_a"
        self.files = {
            name: inputs.permute_csv(source / f"{name}.csv", work / f"{name}.csv", self.rng)
            for name in ("survey", "ratings", "applicability", "measurements")
        }
        self.env = package_env(root)
        for sub in ("ref", "proc", "inproc"):
            (work / sub).mkdir(exist_ok=True)
        # Reference bytes: the same commands on the unpermuted example, in process.
        self.report_input = work / "ref" / "assess_independent.json"
        originals = {name: source / f"{name}.csv" for name in self.files}
        for command in self.COMMANDS:
            code = self.m.cli.main(self._argv(command, originals, work / "ref"))
            if code != 0:
                raise RuntimeError(f"reference run of {command} exited {code}")
        self.reference = {
            path.name: path.read_text(encoding="utf-8") for path in sorted((work / "ref").iterdir())
        }
        self._expect()

    def _expect(self) -> None:
        oracles = self.oracles
        excluded = {
            r["control_id"] for r in _csv_records(self.files["applicability"])
            if r["applicable"].strip().lower() in ("false", "no")
        }
        ids = inputs.bundled_control_ids(self.root)
        measured = {
            cid: level for cid, level in oracles.measurements_from_csv(self.files["measurements"]).items()
            if cid not in excluded
        }
        ratings = {
            r["control_id"]: oracles.RISK_MATRIX[(r["probability"], r["impact"])]
            for r in _csv_records(self.files["ratings"]) if r["control_id"] not in excluded
        }
        edges = [(d["prerequisite"], d["dependent"])
                 for d in inputs.bundled_json(self.root, "catalog_default.json")["dependencies"]]
        averages = oracles.survey_averages_from_csv(self.files["survey"])
        applicable = [cid for cid in ids if cid not in excluded]
        self.expected_independent = expected_result(
            oracles, independent_stages(oracles, averages, applicable, edges), ratings, measured
        )
        model_stages = default_plan_stages(self.root, excluded)
        self.expected_model = expected_result(
            oracles, model_stages, {cid: (MODEL_LEVEL, False) for cid in model_stages}, measured
        )

    def _argv(self, command: str, files: dict[str, Path], out: Path) -> list[str]:
        common = ["--applicability", str(files["applicability"]), "--measurements", str(files["measurements"]),
                  "--company", "company_a", "--timestamp", TIMESTAMP,
                  "--out", str(out / f"{command}.json"), "--out-text", str(out / f"{command}.txt")]
        independent = ["--survey", str(files["survey"]), "--ratings", str(files["ratings"])]
        if command == "assess_independent":
            return ["assess", "--mode", "independent", *independent, *common]
        if command == "assess_model":
            return ["assess", "--mode", "model", *common]
        if command == "compare_modes":
            return ["compare-modes", *independent, *common]
        return ["report", str(self.report_input), "--out", str(out / "report.txt")]

    def command(self, i: int) -> str:
        return self.COMMANDS[i % len(self.COMMANDS)]

    input_key = command

    def op(self, i):
        argv = [sys.executable, "-m", "ismaturity.cli", *self._argv(self.command(i), self.files, self.work / "proc")]
        return run_process(argv, self.env, self.work)

    def check(self, i, output):
        problems = []
        if output.exit_code != 0 or output.stderr:
            problems.append(f"exit {output.exit_code}: {output.stderr.strip()[:200]}")
        return problems + self._output_problems(i, self.work / "proc")

    def inproc(self, i):
        return self.m.cli.main(self._argv(self.command(i), self.files, self.work / "inproc"))

    def check_inproc(self, i, output):
        problems = [] if output == 0 else [f"in-process exit {output}"]
        return problems + self._output_problems(i, self.work / "inproc")

    def _output_problems(self, i: int, out: Path) -> list[str]:
        command = self.command(i)
        names = ["report.txt"] if command == "report" else [f"{command}.json", f"{command}.txt"]
        problems = []
        texts = {}
        for name in names:
            try:
                texts[name] = (out / name).read_text(encoding="utf-8")
            except OSError as exc:
                return [f"{command}: cannot read output: {exc}"]
            want = self.reference["assess_independent.txt" if name == "report.txt" else name]
            if texts[name] != want:
                problems.append(f"{name} not byte-identical to the unpermuted run")
        if command == "assess_independent":
            problems += report_problems(texts["assess_independent.json"], self.expected_independent, self.oracles)
        elif command == "assess_model":
            problems += report_problems(texts["assess_model.json"], self.expected_model, self.oracles)
        elif command == "compare_modes":
            doc = json.loads(texts["compare_modes.json"])
            problems += label_problems(doc["independent"], self.expected_independent, self.oracles, "independent")
            problems += label_problems(doc["model"], self.expected_model, self.oracles, "model")
            if _exact(doc["naive_average"]) != self.expected_model.naive:
                problems.append("comparison naive average != oracle")
        return problems


WORKLOADS = {w.name: w for w in (CliCompanyA, Survey5k, Catalog4k, ModelSweep)}
