"""Benchmark runner for ismaturity.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from a checkout of the repository; the package is imported from `src/`
(it need not be installed) and the reference oracles from `tests/oracles.py`.
One single-threaded benchmark process runs a closed loop with one client: the
next operation starts only after the previous one and its reference check
have finished. Inputs are generated from the seed under `.bench_work/`,
together with a JSON run record and, for traced runs, the span dump.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics, taken from spans recorded
around the package's public functions (see tracing.py), while untraced
operations interleaved with the traced ones give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import WORKLOADS, CliCompanyA, package_env, run_process

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
PROBE_EVERY_S = 0.5
INTERP_PROBES = 5
ALL = "all"

MACHINE_CAVEAT = (
    "Shared host: each vCPU slows by about 1.4-1.9x for seconds to minutes at a time "
    "(CPU time tracks wall time, so the program is not waiting). The calibration loop timed "
    "before and after the run shows such periods; it never rescales a metric."
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), ALL],
                        help=f"one workload, or {ALL!r} for every workload untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate(repeats: int = 5) -> float:
    """Median ms of a fixed pure-Python loop; recorded only."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for n in range(200_000):
            total += n * n % 7
        times.append(1000 * (time.perf_counter() - start))
    return stats.median(times)


def setup_probe() -> dict:
    """Fresh interpreter: import ismaturity.cli, then the first bundled loads."""
    probe = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run(
        [sys.executable, str(probe)], env=package_env(ROOT), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout.splitlines()[-1])


def interpreter_start_s() -> float:
    """Bare `python -c pass`: the machine's floor under every CLI process."""
    return run_process([sys.executable, "-c", "pass"], dict(os.environ), ROOT).wall_s


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


class Loop:
    """Timed closed loop: one operation at a time, each checked after timing.

    A set-up probe runs between operations whenever PROBE_EVERY_S have passed
    since the last one, so set-up is sampled throughout the run rather than
    only at its ends.
    """

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.walls: dict[str, list[float]] = {"op": [], "inproc": [], "traced": [], "warmup": []}
        self.by_input: dict[object, list[float]] = {}
        self.child_rss_kb = 0
        self.probes: list[dict] = []
        # Bare interpreter starts, interleaved with traced CLI operations.
        self.interp_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _timed(self, kind: str, run, check, i: int) -> None:
        self.attempted += 1
        traced = kind == "traced"
        if traced:
            self.tracer.begin(i)
        start = time.perf_counter()
        try:
            output = run(i)
        except Exception as exc:  # an operation that raises is a counted failure
            output, problems = None, [f"{type(exc).__name__}: {exc}"]
        else:
            problems = None
        wall = time.perf_counter() - start
        if traced:
            self.tracer.end(wall)
        if problems is None:
            try:
                problems = check(i, output)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{kind} {i}: " + "; ".join(problems))
            return
        self.walls[kind].append(wall)
        if kind == "op":
            self.by_input.setdefault(self.workload.input_key(i), []).append(wall)
            if isinstance(self.workload, CliCompanyA):
                self.child_rss_kb = max(self.child_rss_kb, output.maxrss_kb)

    def warm(self, count: int) -> None:
        """Operations left out of the timings that let caches fill and lazy set-up finish; still checked."""
        for i in range(count):
            self._timed("warmup", self.workload.op, self.workload.check, i)

    def run(self, seconds: float, first: int = 0) -> None:
        w = self.workload
        deadline = time.perf_counter() + seconds
        next_probe = 0.0
        i = first
        while True:
            if time.perf_counter() >= next_probe:
                self.probes.append(setup_probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            self._timed("op", w.op, w.check, i)
            if self.tracer is not None:
                if isinstance(w, CliCompanyA):
                    self._timed("inproc", w.inproc, w.check_inproc, i)
                    self.interp_s.append(interpreter_start_s())
                self._timed("traced", w.inproc, w.check_inproc, i)
            i += 1
            if time.perf_counter() >= deadline:
                return


def end_to_end(loop: Loop, workload) -> dict:
    if isinstance(workload, CliCompanyA):
        rss_kb = loop.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": min(p["setup_s"] for p in loop.probes), "unit": "s"},
        "op_best_ms": {"value": 1000 * stats.median_of_best(loop.by_input.values()), "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


# Per-layer metric -> span whose mean time per traced operation it reports.
SPAN_METRICS = {
    "files.load_survey_csv_ms": "files.load_survey_csv",
    "files.read_catalog_file_ms": "files.read_catalog_file",
    "files.small_csv_ms": "files.small_csv",
    "files.write_text_atomic_ms": "files.write_text_atomic",
    "catalog.load_catalog_ms": "catalog.load_catalog",
    "importance.ingest_ms": "importance.ingest",
    "importance.sum_and_count_ms": "importance.sum_and_count",
    "staging.partition_ms": "staging.partition",
    "staging.promote_ms": "staging.promote",
    "minimums.build_minimum_db_ms": "minimums.build_minimum_db",
    "assessment.evaluate_ms": "assessment.evaluate",
    "assessment.gap_analysis_ms": "assessment.gap_analysis",
    "assessment.misallocation_ms": "assessment.misallocation",
    "reporting.build_report_ms": "reporting.build_report",
    "reporting.render_structured_ms": "reporting.render_structured",
    "reporting.render_human_ms": "reporting.render_human",
    "reporting.parse_report_ms": "reporting.parse_report",
    "reporting.compare_modes_ms": "reporting.compare_modes",
}

# Per-layer counts (mean per traced operation), named as tracing.py counts them.
COUNT_METRICS = {
    "files.survey_rows": "count",
    "files.bytes_written": "bytes",
    "catalog.controls": "count",
    "catalog.edges": "count",
    "catalog.parse_control_id_calls": "count",
    "importance.respondents": "count",
    "importance.responses": "count",
    "importance.sum_and_count_calls": "count",
    "staging.promoted": "count",
    "staging.tie_absorbed": "count",
    "assessment.gaps": "count",
    "reporting.structured_bytes": "bytes",
}


def per_layer(loop: Loop, workload, summary: dict, interp_s: list[float]) -> dict:
    """Per-layer metrics; CLI parts come from probes and interpreter starts taken alongside the operations."""
    span = summary.get("span_ms", {})
    counts = summary.get("counts", {})
    cli = isinstance(workload, CliCompanyA)
    probes = loop.probes

    def med_ms(values):
        return 1000 * stats.median(values) if values else 0.0

    interp_ms = med_ms(loop.interp_s or interp_s)
    import_ms = med_ms([p["import_s"] for p in probes])
    bundled_ms = med_ms([p["bundled_load_s"] for p in probes])
    inproc_ms = med_ms(loop.walls["inproc"])
    responses = counts.get("importance.responses", 0)
    values = {
        "cli.interp_start_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.import_modules": (stats.median([p["modules"] for p in probes]), "count"),
        **{f"cli.{command}_ms": (med_ms(loop.by_input.get(command, []) if cli else []), "ms")
           for command in CliCompanyA.COMMANDS},
        "cli.inproc_ms": (inproc_ms, "ms"),
        "cli.unattributed_ms": (
            med_ms(loop.walls["op"]) - interp_ms - import_ms - bundled_ms - inproc_ms if cli else 0.0, "ms"),
        "files.bundled_load_ms": (bundled_ms, "ms"),
        **{name: (span.get(key, 0.0), "ms") for name, key in SPAN_METRICS.items()},
        **{name: (counts.get(name, 0), unit) for name, unit in COUNT_METRICS.items()},
        "staging.build_stage_plan_self_ms": (summary.get("self_ms", {}).get("staging.build_stage_plan", 0.0), "ms"),
        "importance.lookups_per_response": (
            counts.get("importance.lookups", 0) / responses if responses else 0.0, "ratio"),
        "trace.overhead_ms": (
            med_ms(loop.walls["traced"]) - med_ms(loop.walls["inproc" if cli else "op"]), "ms"),
        "trace.coverage": (summary.get("top_level_coverage", 0.0), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_table(summary: dict) -> list[str]:
    if not summary.get("ops"):
        return ["no traced operations"]
    lines = [f"per-layer self time over {summary['ops']} traced ops "
             f"(mean {summary['op_wall_ms']:.3f} ms per op):",
             f"  {'layer':<12}{'self ms/op':>14}{'share':>9}"]
    for layer, row in summary["layers"].items():
        lines.append(f"  {layer:<12}{row['self_ms']:>14.3f}{100 * row['share']:>8.1f}%")
    lines.append(f"  {'(outside)':<12}{'':>14}{100 * summary['unattributed_share']:>8.1f}%")
    lines.append("  largest spans, children included (ms/op):")
    for name, value in sorted(summary["span_ms"].items(), key=lambda kv: -kv[1])[:8]:
        lines.append(f"    {name:<34}{value:>12.3f}")
    for key, value in summary["counts"].items():
        lines.append(f"  count {key} = {value:g} per op")
    return lines


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; one line per metric."""
    correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{name} trace {trace}: exit {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            correct = correct and result["correct"]
            print(f"{name} trace {trace}: correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric} {value['value']:.6g} {value['unit']}")
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "ismaturity" / "cli.py", ROOT / "tests" / "oracles.py",
              ROOT / "tests" / "data" / "company_a"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        print("bench: not a checkout of the repository; missing " + ", ".join(missing), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == ALL:
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import ismaturity.cli  # noqa: F401  (compiles the package before the set-up probes time it)

    from tracing import Tracer

    work = WORK / args.workload
    records = WORK / "records"
    work.mkdir(parents=True, exist_ok=True)
    records.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    calibration_before = calibrate()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    digests = workload.input_digests()
    if tracer is not None:
        tracer.install()
    loop = Loop(workload, tracer)
    loop.warm(workload.warmup_ops)
    loop.run(args.seconds, first=workload.warmup_ops)
    if tracer is not None:
        tracer.uninstall()
    interp_s = [interpreter_start_s() for _ in range(INTERP_PROBES)] if tracer is not None else []
    calibration_after = calibrate()

    walls = loop.walls["op"]
    if not walls:
        print("bench: every operation failed: " + " | ".join(loop.failures[:3]), file=sys.stderr)
        return 1
    p90 = stats.tail_percentile(walls, 90)
    p50 = stats.median(walls)
    items_per_s = workload.items_per_op * len(walls) / sum(walls)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "package_file": ismaturity.cli.__file__,
        "package_from_src": Path(ismaturity.cli.__file__).resolve().is_relative_to(ROOT / "src"),
        "machine_caveat": MACHINE_CAVEAT,
        "calibration_ms": {"before": calibration_before, "after": calibration_after},
        "inputs_sha256": digests,
        "setup_probes": loop.probes,
        "ops": len(walls),
        "distinct_inputs": len(loop.by_input),
        "op_p50_ms": 1000 * p50,
        "op_ms": [round(1000 * w, 4) for w in walls],
        "op_p90_ms": None if p90 is None else 1000 * p90,
        "items_per_s": items_per_s,
        "fail_ratio": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:20],
    }
    if isinstance(workload, CliCompanyA):
        record["process_ms_by_command"] = {k: 1000 * stats.median(v) for k, v in loop.by_input.items()}
    if tracer is None:
        metrics = end_to_end(loop, workload)
    else:
        summary = tracer.summary()
        metrics = per_layer(loop, workload, summary, interp_s)
        record["trace_summary"] = summary
        tracer.dump(records / f"{tag}-spans.jsonl")
        print("\n".join(layer_table(summary)))
        print(f"tracing overhead: {metrics['trace.overhead_ms']['value']:.3f} ms per op (traced minus untraced median)")
    record["metrics"] = metrics
    with open(records / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"{args.workload}: {len(walls)} timed ops over {len(loop.by_input)} distinct inputs, "
          f"op_p50_ms {1000 * p50:.3f}, op_p90_ms "
          f"{'n/a (<10 samples beyond it)' if p90 is None else f'{1000 * p90:.3f}'}, "
          f"items_per_s {items_per_s:.4g}, fail_ratio {record['fail_ratio']:g}")
    print("inputs sha256: " + ", ".join(f"{k}={v}" for k, v in digests.items()))
    for failure in loop.failures[:5]:
        print("FAILED " + failure)
    print(json.dumps({"correct": not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
