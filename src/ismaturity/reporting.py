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
    Label,
    MisallocationFinding,
    evaluate,
    naive_average,
)
from .catalog import ControlId, parse_control_id
from .errors import ConsistencyError, ValidationError, field, reading
from .files import (
    FORMAT_VERSION,
    canonical_json,
    deltas_from_record,
    deltas_record,
    parse_document,
    requirements_from_record,
    requirements_record,
    stage_label,
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
    whole, rest = divmod(value.numerator * 100, value.denominator)
    if 2 * rest >= value.denominator:
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
    label: Label
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
    _check_mode(mode)
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
        label=result.label,
        naive=result.naive_average,
        gaps=tuple(gaps),
        priority_controls=tuple(gap.control for gap in gaps if gap.priority),
        findings=tuple(findings),
        not_applicable=not_applicable,
        deltas=None if deltas is None else tuple(deltas),
        measurements=dict(result.measurements),
        requirements=dict(minimums.requirements),
    )


def _check_mode(mode: str) -> None:
    if mode not in ("model", "independent"):
        raise ValidationError(f"mode must be 'model' or 'independent', got {mode!r}")


# ---------------------------------------------------------------------------
# Serialization

def _fraction_fields(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {"exact": f"{value.numerator}/{value.denominator}", "display": format_level(value)}


def _fraction_from_fields(record, *, optional: bool = False) -> Fraction | None:
    if record is None and optional:
        return None
    field(record, "display", str)
    try:
        return Fraction(field(record, "exact", str))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed average record: {record!r}") from None


def _level_name(level: Fraction | None) -> str | None:
    return None if level is None else level_name(math.floor(level))


def _label_fields(label: Label) -> dict:
    return {
        "stage": label.stage.label,
        "level": _fraction_fields(label.level),
        "level_name": _level_name(label.level),
        "incomplete": label.incomplete,
    }


def _label_from_fields(record) -> Label:
    level = _fraction_from_fields(record["level"], optional=True)
    name = field(record, "level_name", str, type(None))
    if name != _level_name(level):
        raise ValidationError(f"label level_name {name!r} does not match its level")
    return Label(
        stage=Stage.from_label(record["stage"]),
        level=level,
        incomplete=field(record, "incomplete", bool),
    )


def _control_ids(record, key: str) -> tuple[ControlId, ...]:
    return tuple(parse_control_id(text) for text in field(record, key, list))


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
        "label": _label_fields(doc.label),
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
        "stage_plan_deltas": None if doc.deltas is None else deltas_record(doc.deltas),
        "measurements": {str(cid): lvl for cid, lvl in doc.measurements.items()},
        "requirements": requirements_record(doc.requirements),
    }


def parse_report(text: str, source: str = "report") -> ReportDocument:
    """Inverse of the structured rendering; used by the report subcommand.

    Every field is read at its exact JSON type, without coercion; anything
    else is a ValidationError naming the source. `mode` must be model or
    independent, `minimums_mode` a tag minimums.parse_mode_tag accepts, each
    requirement the one that tag gives, and the label's level_name the name
    of its level. Averages, gaps and the label are not yet re-derived from
    the members and measurements.
    """
    raw = parse_document(text, KIND_REPORT, source)
    with reading(source, "assessment report document"):
        stage_rows = tuple(
            StageRow(
                stage=Stage.from_label(record["stage"]),
                members=_control_ids(record, "members"),
                average=_fraction_from_fields(record["average"], optional=True),
                complete=field(record, "complete", bool),
                failing_count=field(record, "failing_count", int),
            )
            for record in field(raw, "stages", list)
        )
        gaps = tuple(
            Gap(
                control=parse_control_id(record["control"]),
                stage=Stage.from_label(record["stage"]),
                measured=field(record, "measured", int),
                required=field(record, "required", int),
                priority=field(record, "priority", bool),
            )
            for record in field(raw, "gaps", list)
        )
        findings = tuple(
            MisallocationFinding(
                later_stage=Stage.from_label(record["later_stage"]),
                earlier_stage=Stage.from_label(record["earlier_stage"]),
                later_control=parse_control_id(record["later_control"]),
                later_level=field(record, "later_level", int),
                earlier_control=parse_control_id(record["earlier_control"]),
                earlier_level=field(record, "earlier_level", int),
            )
            for record in field(raw, "misallocation_findings", list)
        )
        raw_deltas = field(raw, "stage_plan_deltas", list, type(None))
        levels = field(raw, "measurements", dict)
        mode = field(raw, "mode", str)
        _check_mode(mode)
        minimums_mode = field(raw, "minimums_mode", str)
        return ReportDocument(
            company=field(raw, "company", str),
            timestamp=field(raw, "timestamp", str),
            mode=mode,
            minimums_mode=minimums_mode,
            misallocation_threshold=field(raw, "misallocation_threshold", int),
            stage_rows=stage_rows,
            label=_label_from_fields(raw["label"]),
            naive=_fraction_from_fields(raw["naive_average"]),
            gaps=gaps,
            priority_controls=_control_ids(raw, "priority_controls"),
            findings=findings,
            not_applicable=tuple(
                (parse_control_id(record["control"]), field(record, "justification", str))
                for record in field(raw, "not_applicable", list)
            ),
            deltas=None if raw_deltas is None else deltas_from_record(raw_deltas),
            measurements={parse_control_id(t): field(levels, t, int) for t in levels},
            requirements=requirements_from_record(field(raw, "requirements", dict), minimums_mode),
        )


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
    lines.append(f"Overall: {label_line(doc.label.stage, doc.label.level)}")
    if doc.label.incomplete:
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
                lines.append(f"  {delta.control}: {stage_label(delta.before)} -> {stage_label(delta.after)}")
        else:
            lines.append("  none")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Mode comparison

class ModeComparison(NamedTuple):
    """Side-by-side outcome of the two strategies plus the naive baseline."""

    independent: Label
    model: Label
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
        independent=independent_result.label,
        model=model_result.label,
        naive=naive_average(measurements),
    )


def comparison_document_dict(comparison: ModeComparison, *, company: str, timestamp: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_COMPARISON,
        "company": company,
        "timestamp": timestamp,
        "independent": _label_fields(comparison.independent),
        "model": _label_fields(comparison.model),
        "naive_average": _fraction_fields(comparison.naive),
    }


def parse_comparison(text: str, source: str = "comparison") -> ModeComparison:
    raw = parse_document(text, KIND_COMPARISON, source)
    with reading(source, "mode comparison document"):
        return ModeComparison(
            independent=_label_from_fields(raw["independent"]),
            model=_label_from_fields(raw["model"]),
            naive=_fraction_from_fields(raw["naive_average"]),
        )


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
            f"independent:   {label_line(comparison.independent.stage, comparison.independent.level)}",
            f"model:         {label_line(comparison.model.stage, comparison.model.level)}",
            f"naive average: {format_level(comparison.naive)} ({naive_name})",
            "",
        ]
        return "\n".join(lines)
    raise ValidationError(f"unknown report format {fmt!r} (expected structured or human)")
