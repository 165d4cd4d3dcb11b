"""Assessment reports and the model-vs-independent strategy comparison.

Reports exist in two formats built from the same document value: "structured"
is canonical JSON, "human" is a fixed plain-text layout for stakeholders.
Rendering is a pure function of the document; the run timestamp is an
explicit input, never sampled here, so identical inputs always produce
identical bytes.

A report document keeps the records its evaluation used, uncopied: the
AssessmentResult (measurements, stage rows, label, naive average) and the
MinimumLevelDatabase (mode, requirements, and the exclusions evaluate checked
against the plan, whose justifications are the not-applicable section).

The structured report is the audit trail of its label: it carries every
input of the evaluation (exclusions, measurements, requirements, modes,
misallocation threshold, and an independent report's stage members). Model
mode's plan is the bundled default plan without the exclusions (model_plan),
and an independent plan is compared with the default plan for its stage
changes (stage_changes). One function, assess, evaluates a plan and derives
a report's sections from the result, for the assess command and for
parse_report, which re-runs it on a report's inputs and rejects a report
whose derived sections (stage rows, label, naive average, gaps, priority
controls, findings, stage changes) differ from it (files.check_document), so
the bundled default plan is part of what a report is checked against. Its
inputs, unlike a mode comparison, are not compared with their writer, which
would nearly double parse_report's time: their other readers' rules apply,
and a key the writer does not write is rejected (files.check_keys).

Averages stay exact rationals until the last moment: display rounding is
half-up to two decimals, and the overall line names the maturity level whose
floor the exact average has reached, e.g. "Intermediate Stage, Maturity
Level 3.30 (Defined)".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .assessment import (
    AssessmentResult,
    Gap,
    Label,
    MisallocationFinding,
    evaluate,
    gap_analysis,
    misallocation_findings,
)
from .catalog import ControlId, check_distinct, check_same, parse_control_id
from .errors import ConsistencyError, ValidationError, field, reading
from .files import (
    FORMAT_VERSION,
    canonical_json,
    check_as_written,
    check_document,
    check_keys,
    check_record_keys,
    default_stage_plan,
    delta_line,
    deltas_record,
    parse_document,
    requirements_from_record,
    requirements_record,
)
from .minimums import (
    ApplicabilityMap,
    MinimumLevelDatabase,
    check_justification,
    level_name,
)
from .staging import Stage, StageDelta, StagePlan, diff_stage_plans, exclude_from_plan

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
    return f"{stage.label} Stage, Maturity Level {_average(level)}"


def _average(value: Fraction) -> str:
    """An average with the name of the level it has reached, e.g. "3.30 (Defined)"."""
    return f"{format_level(value)} ({_level_name(value)})"


def model_plan(excluded: Iterable[ControlId]) -> StagePlan:
    """Model mode's plan: the bundled default plan without the `excluded` controls."""
    return exclude_from_plan(default_stage_plan(), excluded)


def stage_changes(mode: str, plan: StagePlan) -> tuple[StageDelta, ...] | None:
    """A report's stage changes: an independent `plan` against the bundled default plan.

    None in model mode, and when the plan covers other controls than the
    default plan does, so that no comparison applies.
    """
    if mode == "model":
        return None
    default = default_stage_plan()
    return diff_stage_plans(default, plan) if plan.universe() == default.universe() else None


class ReportDocument(NamedTuple):
    """Everything one assessment run produced, ready to serialize; each fact is read from one record."""

    company: str
    timestamp: str
    mode: str
    misallocation_threshold: int
    result: AssessmentResult
    gaps: tuple[Gap, ...]
    findings: tuple[MisallocationFinding, ...]
    minimums: MinimumLevelDatabase
    deltas: tuple[StageDelta, ...] | None


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
    """Assemble the report document for one finished evaluation, copying nothing out of `result` or `minimums`.

    `deltas` is stage_changes(mode, plan), derived like `gaps` and
    `findings`: assess works out all three. The applicability map must agree
    with the minimums' exclusions; those exclusions, with the justifications
    stored in `minimums`, are the report's not-applicable section, present
    even when empty.
    """
    _check_mode(mode)
    for cid in minimums.excluded:
        if applicability.is_applicable(cid):
            raise ConsistencyError(
                f"minimum database excludes {cid} but the applicability map does not"
            )
    return ReportDocument(
        company=company,
        timestamp=timestamp,
        mode=mode,
        misallocation_threshold=misallocation_threshold,
        result=result,
        gaps=tuple(gaps),
        findings=tuple(findings),
        minimums=minimums,
        deltas=None if deltas is None else tuple(deltas),
    )


def assess(
    plan: StagePlan,
    minimums: MinimumLevelDatabase,
    measurements: Mapping[ControlId, int],
    *,
    mode: str,
    company: str,
    timestamp: str,
    misallocation_threshold: int,
) -> ReportDocument:
    """The report of one assessment: `plan` evaluated against `minimums` on `measurements`, every section derived.

    The one place a report's gaps, findings and stage changes are worked out,
    for the assess command and for parse_report; `mode` names the mode whose
    plan `plan` is.
    """
    result = evaluate(plan, minimums, measurements)
    return build_report(
        result,
        gap_analysis(result),
        misallocation_findings(result, misallocation_threshold),
        ApplicabilityMap(minimums.excluded),
        stage_changes(mode, plan),
        company=company,
        timestamp=timestamp,
        mode=mode,
        minimums=minimums,
        misallocation_threshold=misallocation_threshold,
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
    return Label(
        stage=Stage.from_label(record["stage"]),
        level=_fraction_from_fields(record["level"], optional=True),
        incomplete=field(record, "incomplete", bool),
    )


def report_document_dict(doc: ReportDocument) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_REPORT,
        "company": doc.company,
        "timestamp": doc.timestamp,
        "mode": doc.mode,
        "minimums_mode": doc.minimums.mode,
        "misallocation_threshold": doc.misallocation_threshold,
        **_derived_sections(doc),
        "not_applicable": [
            {"control": str(cid), "justification": justification}
            for cid, justification in sorted(doc.minimums.excluded.items())
        ],
        "measurements": {str(cid): lvl for cid, lvl in doc.result.measurements.items()},
        "requirements": requirements_record(doc.minimums.requirements),
    }


def _derived_sections(doc: ReportDocument) -> dict:
    """The sections of a report's document that the evaluation derives from its inputs."""
    return {
        "stages": [
            {
                "stage": row.stage.label,
                "members": [str(cid) for cid in row.members],
                "average": _fraction_fields(row.average),
                "complete": row.complete,
                "failing_count": len(row.failing),
            }
            for row in doc.result.stage_results
        ],
        "label": _label_fields(doc.result.label),
        "naive_average": _fraction_fields(doc.result.naive_average),
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
        "priority_controls": [str(gap.control) for gap in doc.gaps if gap.priority],
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
        "stage_plan_deltas": None if doc.deltas is None else deltas_record(doc.deltas),
    }


# The keys report_document_dict writes besides the derived sections, and in each record of two input
# sections (the second by files.requirements_record); parse_report takes no other.
_INPUT_KEYS = frozenset({
    "format_version", "kind", "company", "timestamp", "mode", "minimums_mode", "misallocation_threshold",
    "not_applicable", "measurements", "requirements",
})
_NOT_APPLICABLE_KEYS = frozenset({"control", "justification"})
_REQUIREMENT_KEYS = frozenset({"required_level", "priority", "raw_score"})


def parse_report(text: str, source: str = "report") -> ReportDocument:
    """Read a structured report by rebuilding it; used by the report subcommand.

    Only the inputs are read, each at its exact JSON type (requirements must
    fit minimums_mode). The plan follows from the mode: a model report's is
    model_plan of its exclusions, an independent report's is read from the
    members of its four stage rows, in stage order, no control named twice.
    The document assess rebuilds from them is returned once its derived
    sections, stage_plan_deltas among them, equal the document's node for
    node; the first difference is a ValidationError naming the source and its
    path, and so are a stages list of other than four rows and a key the
    writer does not write, at the top level or in a record of not_applicable
    or requirements (files.check_record_keys). Inputs evaluate cannot
    reconcile (a member without a measurement) are its ConsistencyError.
    """
    raw = parse_document(text, KIND_REPORT, source)
    with reading(source, "assessment report document"):
        mode = field(raw, "mode", str)
        _check_mode(mode)  # as build_report does, but before minimums_mode is read
        minimums_mode = field(raw, "minimums_mode", str)
        records = field(raw, "not_applicable", list)
        excluded: dict[ControlId, str] = {}
        for record in records:
            cid = parse_control_id(record["control"])
            excluded[cid] = check_justification(cid, record["justification"])
        check_distinct(excluded, [record["control"] for record in records], "'not_applicable'")
        levels = field(raw, "measurements", dict)
        measurements = {parse_control_id(t): level for t, level in levels.items()}  # evaluate checks each level
        check_distinct(measurements, levels, "'measurements'")
        rows = field(raw, "stages", list)
        if len(rows) != len(Stage):
            raise ValidationError(f"stages: found {len(rows)} rows, but a report has one per stage, {len(Stage)}")
        if mode == "model":
            plan = model_plan(excluded)  # its stage rows are derived, and compared below
        else:
            members = [field(record, "members", list) for record in rows]
            assignment = {parse_control_id(t): stage for stage, texts in zip(Stage, members) for t in texts}
            if len(assignment) != sum(map(len, members)):  # a control repeats; only now are the texts listed
                check_distinct(assignment, [t for texts in members for t in texts], "'stages'")
            # evaluate reads a plan's assignment and exclusions only
            plan = StagePlan(assignment=assignment, provenance={}, boundaries_used=(), excluded=tuple(excluded))
        requirements = requirements_from_record(field(raw, "requirements", dict), minimums_mode)
        threshold = field(raw, "misallocation_threshold", int)
        minimums = MinimumLevelDatabase(mode=minimums_mode, requirements=requirements, excluded=excluded)
        document = assess(
            plan, minimums, measurements, mode=mode, company=field(raw, "company", str),
            timestamp=field(raw, "timestamp", str), misallocation_threshold=threshold,
        )
        derived = _derived_sections(document)
        check_document(
            {key: raw[key] for key in derived}, derived,
            "{path} does not follow from the report's inputs: found {found}, rebuilt {written}",
        )
        check_keys(raw, _INPUT_KEYS | derived.keys())
        check_record_keys(dict(enumerate(records)), _NOT_APPLICABLE_KEYS, "not_applicable")
        check_record_keys(raw["requirements"], _REQUIREMENT_KEYS, "requirements")
    return document


def render_document(doc: ReportDocument, fmt: str) -> str:
    if fmt == STRUCTURED:
        return canonical_json(report_document_dict(doc))
    if fmt == HUMAN:
        return _render_human(doc)
    raise ValidationError(f"unknown report format {fmt!r} (expected structured or human)")


def _display(value: Fraction | None) -> str:
    return "n/a" if value is None else format_level(value)


def _render_human(doc: ReportDocument) -> str:
    result = doc.result
    title = "Security Maturity Assessment"
    lines = [
        title,
        "=" * len(title),
        f"Company:    {doc.company}",
        f"Generated:  {doc.timestamp}",
        f"Mode:       {doc.mode}",
        f"Minimums:   {doc.minimums.mode}",
        "",
        f"{'Stage':<13}{'Controls':>9}{'Average':>9}{'Complete':>10}{'Failing':>9}",
        "-" * 50,
    ]
    for row in result.stage_results:
        lines.append(
            f"{row.stage.label:<13}{len(row.members):>9}{_display(row.average):>9}"
            f"{('yes' if row.complete else 'no'):>10}{len(row.failing):>9}"
        )
    lines += ["", f"Overall: {label_line(result.label.stage, result.label.level)}"]
    if result.label.incomplete:
        lines.append("Note: the Essential stage itself is not yet complete; the label marks the entry stage.")
    lines.append(f"Naive average over all applicable controls: {_average(result.naive_average)}")
    _section(lines, "Gaps (measured below minimum):", (
        f"{str(gap.control):<11} {gap.stage.label:<13} measured {gap.measured}, minimum {gap.required}"
        + ("  [priority]" if gap.priority else "")
        for gap in doc.gaps
    ))
    _section(lines, "Priority controls below minimum:", (str(gap.control) for gap in doc.gaps if gap.priority))
    _section(lines, f"Misallocation findings (heuristic, threshold {doc.misallocation_threshold}):", (
        f"{finding.later_stage.label} control {finding.later_control} at level {finding.later_level}"
        f" vs {finding.earlier_stage.label} failing control {finding.earlier_control}"
        f" at level {finding.earlier_level}"
        for finding in doc.findings
    ))
    _section(lines, "Not applicable (with justification):", (
        f"{cid}: {justification}" for cid, justification in sorted(doc.minimums.excluded.items())
    ))
    if doc.deltas is not None:
        _section(lines, "Stage changes vs the default plan:", map(delta_line, doc.deltas))
    lines.append("")
    return "\n".join(lines)


def _section(lines: list[str], title: str, items: Iterable[str]) -> None:
    """Append a blank line, `title` and each item indented, or `none` when there is no item."""
    lines += ["", title]
    count = len(lines)
    lines.extend("  " + item for item in items)
    if len(lines) == count:
        lines.append("  none")


# ---------------------------------------------------------------------------
# Mode comparison

class ModeComparison(NamedTuple):
    """Side-by-side outcome of the two strategies plus the naive baseline."""

    independent: Label
    model: Label
    naive: Fraction


def compare_modes(model: AssessmentResult, independent: AssessmentResult) -> ModeComparison:
    """One company's `model` and `independent` evaluations side by side, with their naive average.

    The two must have measured the same controls, that is, under the same
    exclusions, otherwise the averages would range over different controls
    and the comparison would be meaningless; the differing controls are
    listed in the error.
    """
    check_same(model.measurements.keys(), independent.measurements.keys(), "inconsistent applicability between modes")
    return ModeComparison(independent=independent.label, model=model.label, naive=independent.naive_average)


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
    """Read a structured mode comparison; it must be exactly what render_comparison writes for what it holds."""
    raw = parse_document(text, KIND_COMPARISON, source)
    with reading(source, "mode comparison document"):
        comparison = ModeComparison(
            independent=_label_from_fields(raw["independent"]),
            model=_label_from_fields(raw["model"]),
            naive=_fraction_from_fields(raw["naive_average"]),
        )
        company, timestamp = field(raw, "company", str), field(raw, "timestamp", str)
        check_as_written(raw, comparison_document_dict(comparison, company=company, timestamp=timestamp))
    return comparison


def render_comparison(comparison: ModeComparison, fmt: str, *, company: str, timestamp: str) -> str:
    if fmt == STRUCTURED:
        return canonical_json(comparison_document_dict(comparison, company=company, timestamp=timestamp))
    if fmt == HUMAN:
        lines = [
            "Strategy Mode Comparison",
            "========================",
            f"Company:    {company}",
            f"Generated:  {timestamp}",
            "",
            f"independent:   {label_line(comparison.independent.stage, comparison.independent.level)}",
            f"model:         {label_line(comparison.model.stage, comparison.model.level)}",
            f"naive average: {_average(comparison.naive)}",
            "",
        ]
        return "\n".join(lines)
    raise ValidationError(f"unknown report format {fmt!r} (expected structured or human)")
