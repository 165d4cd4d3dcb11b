"""Assessment reports and the model-vs-independent strategy comparison.

Reports exist in two formats built from the same document value: "structured"
is canonical JSON carrying every field needed to recompute the label and all
averages (an audit trail, round-trippable bit for bit), "human" is a fixed
plain-text layout for stakeholders. Rendering is a pure function of the
document; the run timestamp is an explicit input, never sampled here, so
identical inputs always produce identical bytes.

Averages stay exact rationals until the last moment: display rounding is
half-up to two decimals, and the overall line names the maturity level whose
floor the exact average has reached, e.g. "Intermediate Stage, Maturity
Level 3.30 (Defined)".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .assessment import (
    AssessmentResult,
    Gap,
    MisallocationFinding,
    evaluate,
    naive_average,
)
from .catalog import ControlId, parse_control_id
from .errors import ConsistencyError, ValidationError
from .files import (
    EXCLUDED_LABEL,
    FORMAT_VERSION,
    canonical_json,
    parse_document,
)
from .minimums import (
    ApplicabilityMap,
    MinimumLevelDatabase,
    MinimumRequirement,
    level_name,
)
from .staging import Stage, StageDelta, StagePlan, exclude_from_plan

KIND_REPORT = "assessment-report"
KIND_COMPARISON = "mode-comparison"

STRUCTURED = "structured"
HUMAN = "human"


def format_level(value: Fraction) -> str:
    """Render an exact average with two decimals, rounding halves up.

    Implemented over integers so no float ever touches the value: 89/27
    renders "3.30", 86/28 renders "3.07".
    """
    scaled = value * 100
    whole = scaled.numerator // scaled.denominator
    if (scaled - whole) * 2 >= 1:
        whole += 1
    return f"{whole // 100}.{whole % 100:02d}"


def label_line(stage: Stage, level: Fraction | None) -> str:
    """The overall result line, always in the same sentence shape."""
    if level is None:
        return f"{stage.label} Stage, Maturity Level n/a (no controls)"
    return (
        f"{stage.label} Stage, Maturity Level {format_level(level)}"
        f" ({level_name(math.floor(level))})"
    )


class StageRow(NamedTuple):
    """One line of the report's stage table."""

    stage: Stage
    members: tuple[ControlId, ...]
    average: Fraction | None
    complete: bool
    failing_count: int


class ReportDocument(NamedTuple):
    """Everything one assessment run produced, ready to serialize."""

    company: str
    timestamp: str
    mode: str
    minimums_mode: str
    misallocation_threshold: int
    stage_rows: tuple[StageRow, ...]
    label_stage: Stage
    label_level: Fraction | None
    label_incomplete: bool
    naive: Fraction
    gaps: tuple[Gap, ...]
    priority_controls: tuple[ControlId, ...]
    findings: tuple[MisallocationFinding, ...]
    not_applicable: tuple[tuple[ControlId, str], ...]
    deltas: tuple[StageDelta, ...] | None
    measurements: Mapping[ControlId, int]
    requirements: Mapping[ControlId, MinimumRequirement]


def build_report(
    result: AssessmentResult,
    gaps: Sequence[Gap],
    findings: Sequence[MisallocationFinding],
    applicability: ApplicabilityMap,
    deltas: Sequence[StageDelta] | None,
    *,
    company: str,
    timestamp: str,
    mode: str,
    minimums: MinimumLevelDatabase,
    misallocation_threshold: int = 2,
) -> ReportDocument:
    """Assemble the report document for one finished evaluation.

    `deltas` is the stage-change list against the default plan (independent
    runs) or None when no comparison applies (model runs). The applicability
    map must agree with the exclusions the minimums were built with; each
    excluded control surfaces with its justification even when there are
    none (the section stays present, just empty).
    """
    if mode not in ("model", "independent"):
        raise ValidationError(f"mode must be 'model' or 'independent', got {mode!r}")
    for cid in minimums.excluded:
        if applicability.is_applicable(cid):
            raise ConsistencyError(
                f"minimum database excludes {cid} but the applicability map does not"
            )
    not_applicable = tuple(
        (cid, applicability.justification(cid) or minimums.excluded[cid])
        for cid in sorted(minimums.excluded)
    )
    stage_rows = tuple(
        StageRow(
            stage=sr.stage,
            members=sr.members,
            average=sr.average,
            complete=sr.complete,
            failing_count=len(sr.failing),
        )
        for sr in result.stage_results
    )
    return ReportDocument(
        company=company,
        timestamp=timestamp,
        mode=mode,
        minimums_mode=minimums.mode,
        misallocation_threshold=misallocation_threshold,
        stage_rows=stage_rows,
        label_stage=result.label_stage,
        label_level=result.label_level,
        label_incomplete=result.label_incomplete,
        naive=result.naive_average,
        gaps=tuple(gaps),
        priority_controls=tuple(gap.control for gap in gaps if gap.priority),
        findings=tuple(findings),
        not_applicable=not_applicable,
        deltas=None if deltas is None else tuple(deltas),
        measurements=dict(result.measurements),
        requirements=dict(minimums.requirements),
    )


def render_report(
    result: AssessmentResult,
    gaps: Sequence[Gap],
    findings: Sequence[MisallocationFinding],
    applicability: ApplicabilityMap,
    deltas: Sequence[StageDelta] | None,
    fmt: str,
    **header,
) -> str:
    """Convenience wrapper: build the document, then render it in `fmt`."""
    return render_document(build_report(result, gaps, findings, applicability, deltas, **header), fmt)


# ---------------------------------------------------------------------------
# Serialization

def _fraction_fields(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {"exact": f"{value.numerator}/{value.denominator}", "display": format_level(value)}


def _fraction_from_fields(record, source: str) -> Fraction | None:
    if record is None:
        return None
    try:
        return Fraction(record["exact"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed average record: {record!r}", source=source) from None


def report_document_dict(doc: ReportDocument) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_REPORT,
        "company": doc.company,
        "timestamp": doc.timestamp,
        "mode": doc.mode,
        "minimums_mode": doc.minimums_mode,
        "misallocation_threshold": doc.misallocation_threshold,
        "stages": [
            {
                "stage": row.stage.label,
                "members": [str(cid) for cid in row.members],
                "average": _fraction_fields(row.average),
                "complete": row.complete,
                "failing_count": row.failing_count,
            }
            for row in doc.stage_rows
        ],
        "label": {
            "stage": doc.label_stage.label,
            "level": _fraction_fields(doc.label_level),
            "level_name": None if doc.label_level is None else level_name(math.floor(doc.label_level)),
            "incomplete": doc.label_incomplete,
        },
        "naive_average": _fraction_fields(doc.naive),
        "gaps": [
            {
                "control": str(gap.control),
                "stage": gap.stage.label,
                "measured": gap.measured,
                "required": gap.required,
                "priority": gap.priority,
            }
            for gap in doc.gaps
        ],
        "priority_controls": [str(cid) for cid in doc.priority_controls],
        "misallocation_findings": [
            {
                "later_stage": finding.later_stage.label,
                "earlier_stage": finding.earlier_stage.label,
                "later_control": str(finding.later_control),
                "later_level": finding.later_level,
                "earlier_control": str(finding.earlier_control),
                "earlier_level": finding.earlier_level,
            }
            for finding in doc.findings
        ],
        "not_applicable": [
            {"control": str(cid), "justification": justification}
            for cid, justification in doc.not_applicable
        ],
        "stage_plan_deltas": None
        if doc.deltas is None
        else [
            {
                "control": str(delta.control),
                "from": delta.before.label if delta.before is not None else EXCLUDED_LABEL,
                "to": delta.after.label if delta.after is not None else EXCLUDED_LABEL,
            }
            for delta in doc.deltas
        ],
        "measurements": {str(cid): lvl for cid, lvl in doc.measurements.items()},
        "requirements": {
            str(cid): {
                "required_level": req.required_level,
                "priority": req.priority,
                "raw_score": req.raw_score,
            }
            for cid, req in doc.requirements.items()
        },
    }


def parse_report(text: str, source: str = "report") -> ReportDocument:
    """Inverse of the structured rendering; used by the report subcommand."""
    raw = parse_document(text, KIND_REPORT, source)
    try:
        stage_rows = tuple(
            StageRow(
                stage=Stage.from_label(record["stage"]),
                members=tuple(parse_control_id(t) for t in record["members"]),
                average=_fraction_from_fields(record["average"], source),
                complete=bool(record["complete"]),
                failing_count=int(record["failing_count"]),
            )
            for record in raw["stages"]
        )
        label = raw["label"]
        gaps = tuple(
            Gap(
                control=parse_control_id(record["control"]),
                stage=Stage.from_label(record["stage"]),
                measured=int(record["measured"]),
                required=int(record["required"]),
                priority=bool(record["priority"]),
            )
            for record in raw["gaps"]
        )
        findings = tuple(
            MisallocationFinding(
                later_stage=Stage.from_label(record["later_stage"]),
                earlier_stage=Stage.from_label(record["earlier_stage"]),
                later_control=parse_control_id(record["later_control"]),
                later_level=int(record["later_level"]),
                earlier_control=parse_control_id(record["earlier_control"]),
                earlier_level=int(record["earlier_level"]),
            )
            for record in raw["misallocation_findings"]
        )
        raw_deltas = raw["stage_plan_deltas"]
        deltas = (
            None
            if raw_deltas is None
            else tuple(
                StageDelta(
                    control=parse_control_id(record["control"]),
                    before=None if record["from"] == EXCLUDED_LABEL else Stage.from_label(record["from"]),
                    after=None if record["to"] == EXCLUDED_LABEL else Stage.from_label(record["to"]),
                )
                for record in raw_deltas
            )
        )
        return ReportDocument(
            company=str(raw["company"]),
            timestamp=str(raw["timestamp"]),
            mode=str(raw["mode"]),
            minimums_mode=str(raw["minimums_mode"]),
            misallocation_threshold=int(raw["misallocation_threshold"]),
            stage_rows=stage_rows,
            label_stage=Stage.from_label(label["stage"]),
            label_level=_fraction_from_fields(label["level"], source),
            label_incomplete=bool(label["incomplete"]),
            naive=_fraction_from_fields(raw["naive_average"], source),
            gaps=gaps,
            priority_controls=tuple(parse_control_id(t) for t in raw["priority_controls"]),
            findings=findings,
            not_applicable=tuple(
                (parse_control_id(record["control"]), str(record["justification"]))
                for record in raw["not_applicable"]
            ),
            deltas=deltas,
            measurements={parse_control_id(t): int(v) for t, v in raw["measurements"].items()},
            requirements={
                parse_control_id(t): MinimumRequirement(
                    required_level=int(record["required_level"]),
                    priority=bool(record["priority"]),
                    raw_score=None if record["raw_score"] is None else int(record["raw_score"]),
                )
                for t, record in raw["requirements"].items()
            },
        )
    except (KeyError, TypeError, ValueError):
        raise ValidationError("malformed assessment report document", source=source) from None


def render_document(doc: ReportDocument, fmt: str) -> str:
    if fmt == STRUCTURED:
        return canonical_json(report_document_dict(doc))
    if fmt == HUMAN:
        return _render_human(doc)
    raise ValidationError(f"unknown report format {fmt!r} (expected structured or human)")


def _display(value: Fraction | None) -> str:
    return "n/a" if value is None else format_level(value)


def _render_human(doc: ReportDocument) -> str:
    lines: list[str] = []
    title = "Security Maturity Assessment"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append(f"Company:    {doc.company}")
    lines.append(f"Generated:  {doc.timestamp}")
    lines.append(f"Mode:       {doc.mode}")
    lines.append(f"Minimums:   {doc.minimums_mode}")
    lines.append("")
    lines.append(f"{'Stage':<13}{'Controls':>9}{'Average':>9}{'Complete':>10}{'Failing':>9}")
    lines.append("-" * 50)
    for row in doc.stage_rows:
        lines.append(
            f"{row.stage.label:<13}{len(row.members):>9}{_display(row.average):>9}"
            f"{('yes' if row.complete else 'no'):>10}{row.failing_count:>9}"
        )
    lines.append("")
    lines.append(f"Overall: {label_line(doc.label_stage, doc.label_level)}")
    if doc.label_incomplete:
        lines.append("Note: the Essential stage itself is not yet complete; the label marks the entry stage.")
    naive_name = level_name(math.floor(doc.naive))
    lines.append(
        f"Naive average over all applicable controls: {format_level(doc.naive)} ({naive_name})"
    )
    lines.append("")
    lines.append("Gaps (measured below minimum):")
    if doc.gaps:
        for gap in doc.gaps:
            flag = "  [priority]" if gap.priority else ""
            lines.append(
                f"  {str(gap.control):<11} {gap.stage.label:<13} measured {gap.measured}, minimum {gap.required}{flag}"
            )
    else:
        lines.append("  none")
    lines.append("")
    lines.append("Priority controls below minimum:")
    if doc.priority_controls:
        for cid in doc.priority_controls:
            lines.append(f"  {cid}")
    else:
        lines.append("  none")
    lines.append("")
    lines.append(f"Misallocation findings (heuristic, threshold {doc.misallocation_threshold}):")
    if doc.findings:
        for finding in doc.findings:
            lines.append(
                f"  {finding.later_stage.label} control {finding.later_control} at level {finding.later_level}"
                f" vs {finding.earlier_stage.label} failing control {finding.earlier_control}"
                f" at level {finding.earlier_level}"
            )
    else:
        lines.append("  none")
    lines.append("")
    lines.append("Not applicable (with justification):")
    if doc.not_applicable:
        for cid, justification in doc.not_applicable:
            lines.append(f"  {cid}: {justification}")
    else:
        lines.append("  none")
    if doc.deltas is not None:
        lines.append("")
        lines.append("Stage changes vs the default plan:")
        if doc.deltas:
            for delta in doc.deltas:
                before = delta.before.label if delta.before is not None else EXCLUDED_LABEL
                after = delta.after.label if delta.after is not None else EXCLUDED_LABEL
                lines.append(f"  {delta.control}: {before} -> {after}")
        else:
            lines.append("  none")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Mode comparison

class ModeComparison(NamedTuple):
    """Side-by-side outcome of the two strategies plus the naive baseline."""

    independent_stage: Stage
    independent_level: Fraction | None
    independent_incomplete: bool
    model_stage: Stage
    model_level: Fraction | None
    model_incomplete: bool
    naive: Fraction


def compare_modes(
    default_plan: StagePlan,
    company_plan: StagePlan,
    mins_model: MinimumLevelDatabase,
    mins_independent: MinimumLevelDatabase,
    measurements: Mapping[ControlId, int],
) -> ModeComparison:
    """Evaluate the same measurements under both strategies.

    The two minimum databases must carry identical exclusion sets, otherwise
    the averages would range over different controls and the comparison would
    be meaningless; the differing controls are listed in the error. The
    shared default plan is restricted to the same applicable set before the
    model-mode evaluation.
    """
    if set(mins_model.excluded) != set(mins_independent.excluded):
        odd = sorted(set(mins_model.excluded) ^ set(mins_independent.excluded))
        raise ConsistencyError(
            "inconsistent applicability between modes: " + ", ".join(str(c) for c in odd)
        )
    restricted = exclude_from_plan(default_plan, mins_model.excluded)
    model_result = evaluate(restricted, mins_model, measurements)
    independent_result = evaluate(company_plan, mins_independent, measurements)
    return ModeComparison(
        independent_stage=independent_result.label_stage,
        independent_level=independent_result.label_level,
        independent_incomplete=independent_result.label_incomplete,
        model_stage=model_result.label_stage,
        model_level=model_result.label_level,
        model_incomplete=model_result.label_incomplete,
        naive=naive_average(measurements),
    )


def _mode_fields(stage: Stage, level: Fraction | None, incomplete: bool) -> dict:
    return {
        "stage": stage.label,
        "level": _fraction_fields(level),
        "level_name": None if level is None else level_name(math.floor(level)),
        "incomplete": incomplete,
    }


def comparison_document_dict(comparison: ModeComparison, *, company: str, timestamp: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_COMPARISON,
        "company": company,
        "timestamp": timestamp,
        "independent": _mode_fields(
            comparison.independent_stage, comparison.independent_level, comparison.independent_incomplete
        ),
        "model": _mode_fields(comparison.model_stage, comparison.model_level, comparison.model_incomplete),
        "naive_average": _fraction_fields(comparison.naive),
    }


def parse_comparison(text: str, source: str = "comparison") -> ModeComparison:
    raw = parse_document(text, KIND_COMPARISON, source)
    try:
        return ModeComparison(
            independent_stage=Stage.from_label(raw["independent"]["stage"]),
            independent_level=_fraction_from_fields(raw["independent"]["level"], source),
            independent_incomplete=bool(raw["independent"]["incomplete"]),
            model_stage=Stage.from_label(raw["model"]["stage"]),
            model_level=_fraction_from_fields(raw["model"]["level"], source),
            model_incomplete=bool(raw["model"]["incomplete"]),
            naive=_fraction_from_fields(raw["naive_average"], source),
        )
    except (KeyError, TypeError, ValueError):
        raise ValidationError("malformed mode comparison document", source=source) from None


def render_comparison(comparison: ModeComparison, fmt: str, *, company: str, timestamp: str) -> str:
    if fmt == STRUCTURED:
        return canonical_json(comparison_document_dict(comparison, company=company, timestamp=timestamp))
    if fmt == HUMAN:
        naive_name = level_name(math.floor(comparison.naive))
        lines = [
            "Strategy Mode Comparison",
            "========================",
            f"Company:    {company}",
            f"Generated:  {timestamp}",
            "",
            f"independent:   {label_line(comparison.independent_stage, comparison.independent_level)}",
            f"model:         {label_line(comparison.model_stage, comparison.model_level)}",
            f"naive average: {format_level(comparison.naive)} ({naive_name})",
            "",
        ]
        return "\n".join(lines)
    raise ValidationError(f"unknown report format {fmt!r} (expected structured or human)")
