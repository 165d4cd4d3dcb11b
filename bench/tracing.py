"""Span tracing around the package's public functions, installed from outside.

The package has no timing hooks of its own, so the tracer replaces each
listed function, in every `ismaturity.*` namespace that binds it, with a
wrapper that records a span: name, start, end, parent and the operation it
belongs to. Spans are kept in memory and written out when the run ends.
Counts are taken at the same boundaries, from arguments and results, after
the operation has finished so that counting never lands inside a span.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "files", "catalog", "importance", "staging", "minimums", "assessment", "reporting")

PROMOTED = "promoted"


def _survey_rows(args, kwargs, result):
    return {"files.survey_rows": len(result)}


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"files.bytes_written": len(text.encode("utf-8"))}


def _catalog_size(args, kwargs, result):
    return {"catalog.controls": len(result), "catalog.edges": len(result.dependencies.edges)}


def _ingested(args, kwargs, result):
    return {
        "importance.respondents": len(result.responses),
        "importance.responses": sum(len(scores) for scores in result.responses.values()),
    }


def _sum_and_count(args, kwargs, result):
    # one score lookup per stored respondent, made by every call
    return {"importance.sum_and_count_calls": 1, "importance.lookups": len(args[0].responses)}


def _tie_absorbed(args, kwargs, result):
    """Controls the partition placed in an earlier stage than their rank alone gives."""
    averages, bounds = args[0], [int(b) for b in args[1]]
    order = sorted(averages, key=lambda cid: (-averages[cid], cid))
    absorbed = 0
    for position, cid in enumerate(order):
        by_rank = next(stage for stage, bound in enumerate(bounds, start=1) if position < bound)
        absorbed += result.assignment[cid] < by_rank
    return {"staging.tie_absorbed": absorbed}


def _promoted(args, kwargs, result):
    return {"staging.promoted": sum(tag == PROMOTED for tag in result.provenance.values())}


def _gaps(args, kwargs, result):
    return {"assessment.gaps": len(result)}


def _structured_bytes(args, kwargs, result):
    fmt = args[1] if len(args) > 1 else kwargs["fmt"]
    return {"reporting.structured_bytes": len(result.encode("utf-8"))} if fmt == "structured" else {}


def _render_name(args, kwargs):
    return "reporting.render_" + (args[1] if len(args) > 1 else kwargs["fmt"])


# (module, attribute, span name or name function, count hook)
SPANNED = (
    ("ismaturity.cli", "main", "cli.main", None),
    ("ismaturity.files", "load_survey_csv", "files.load_survey_csv", _survey_rows),
    ("ismaturity.files", "read_catalog_file", "files.read_catalog_file", None),
    ("ismaturity.files", "load_ratings_csv", "files.small_csv", None),
    ("ismaturity.files", "load_applicability_csv", "files.small_csv", None),
    ("ismaturity.files", "load_measurements_csv", "files.small_csv", None),
    ("ismaturity.files", "write_text_atomic", "files.write_text_atomic", _text_bytes),
    ("ismaturity.catalog", "load_catalog", "catalog.load_catalog", _catalog_size),
    ("ismaturity.importance", "ingest_responses", "importance.ingest", _ingested),
    ("ismaturity.importance", "ImportanceDatabase.sum_and_count", "importance.sum_and_count", _sum_and_count),
    ("ismaturity.staging", "build_stage_plan", "staging.build_stage_plan", _promoted),
    ("ismaturity.staging", "partition_quartiles", "staging.partition", _tie_absorbed),
    ("ismaturity.staging", "promote_prerequisites", "staging.promote", None),
    ("ismaturity.staging", "exclude_from_plan", "staging.exclude_from_plan", None),
    ("ismaturity.staging", "diff_stage_plans", "staging.diff_stage_plans", None),
    ("ismaturity.minimums", "build_minimum_db", "minimums.build_minimum_db", None),
    ("ismaturity.assessment", "evaluate", "assessment.evaluate", None),
    ("ismaturity.assessment", "gap_analysis", "assessment.gap_analysis", _gaps),
    ("ismaturity.assessment", "misallocation_findings", "assessment.misallocation", None),
    ("ismaturity.reporting", "build_report", "reporting.build_report", None),
    ("ismaturity.reporting", "render_document", _render_name, _structured_bytes),
    ("ismaturity.reporting", "parse_report", "reporting.parse_report", None),
    ("ismaturity.reporting", "compare_modes", "reporting.compare_modes", None),
)

# Called too often for a span each (once per CSV row); counted only.
COUNTED = (("ismaturity.catalog", "parse_control_id", "catalog.parse_control_id_calls"),)


def _resolve(module_name: str, attribute: str):
    owner = sys.modules[module_name]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counts for the operation in progress, if any.

    Outside `begin()`/`end()` the wrappers call straight through, so the same
    installed tracer serves untraced and traced operations alike.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.op_wall: dict[int, float] = {}
        self._deferred: list = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._op: int | None = None
        self._counts_now: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, name, hook in SPANNED:
            self._replace(module_name, attribute, lambda original, n=name, h=hook: self._span_wrapper(original, n, h))
        for module_name, attribute, name in COUNTED:
            self._replace(module_name, attribute, lambda original, n=name: self._count_wrapper(original, n))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _replace(self, module_name: str, attribute: str, make_wrapper) -> None:
        owner, name = _resolve(module_name, attribute)
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._patched.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for module_name_, module in list(sys.modules.items()):
            if module_name_ != "ismaturity" and not module_name_.startswith("ismaturity."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, key, original))
                    setattr(module, key, wrapper)

    def _span_wrapper(self, original, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return original(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span_id = next(tracer._ids)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer._op, span_id, parent, span_name, start, end))
            if hook is not None:
                tracer._deferred.append((hook, args, kwargs, result))
            return result

        return traced

    def _count_wrapper(self, original, name):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._op is not None:
                tracer._counts_now[name] = tracer._counts_now.get(name, 0) + 1
            return original(*args, **kwargs)

        return counted

    # -- operations --------------------------------------------------------

    def begin(self, op: int) -> None:
        self._op = op
        self._counts_now = {}
        self._deferred = []

    def end(self, wall_s: float) -> None:
        """Close the operation; runs the deferred count hooks outside any span."""
        op, self._op = self._op, None
        counts = self._counts_now
        for hook, args, kwargs, result in self._deferred:
            for key, value in hook(args, kwargs, result).items():
                counts[key] = counts.get(key, 0) + value
        self._deferred = []
        self.counts[op] = counts
        self.op_wall[op] = wall_s

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-operation means of span times, self times, layer shares and counts."""
        ops = sorted(self.op_wall)
        if not ops:
            return {"ops": 0}
        child_time: dict[int, float] = defaultdict(float)
        for _op, _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        top_level = 0.0
        for _op, sid, parent, name, start, end in self.spans:
            duration = end - start
            own = duration - child_time[sid]
            inclusive[name] += duration
            self_time[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if parent is None:
                top_level += duration
        wall = sum(self.op_wall.values())
        count_totals: dict[str, int] = defaultdict(int)
        for counts in self.counts.values():
            for key, value in counts.items():
                count_totals[key] += value
        n = len(ops)
        return {
            "ops": n,
            "op_wall_ms": 1000 * wall / n,
            "top_level_coverage": top_level / wall if wall else 0.0,
            "span_ms": {k: 1000 * v / n for k, v in sorted(inclusive.items())},
            "self_ms": {k: 1000 * v / n for k, v in sorted(self_time.items())},
            "layers": {
                layer: {
                    "self_ms": 1000 * layer_self.get(layer, 0.0) / n,
                    "share": layer_self.get(layer, 0.0) / wall if wall else 0.0,
                }
                for layer in LAYERS
            },
            "unattributed_share": 1 - top_level / wall if wall else 0.0,
            "counts": {k: v / n for k, v in sorted(count_totals.items())},
        }

    def dump(self, path: Path) -> None:
        """Write one JSON line per span, times in seconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for op, sid, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"op": op, "id": sid, "parent": parent, "name": name,
                         "start": round(start - origin, 9), "end": round(end - origin, 9)}
                    )
                    + "\n"
                )
