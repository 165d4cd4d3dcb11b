"""Assessment reports and the model-vs-independent strategy comparison.

Reports exist in two formats built from the same document value: "structured"
is canonical JSON, "human" is a fixed plain-text layout for stakeholders.
Rendering is a pure function of the document; the run timestamp is an
explicit input, never sampled here, so identical inputs always produce
identical bytes.

The structured report is the audit trail of its label: it carries every
input of the evaluation (stage members, exclusions, measurements,
requirements, modes, misallocation threshold). parse_report re-runs the
evaluation on them and rejects a report whose derived sections (stage rows,
label, naive average, gaps, priority controls, findings) differ from it, or
whose stage changes against the default plan end anywhere but where the
report itself stages or excludes the control. Its inputs follow the rules
their other readers share (check_distinct, check_justification, check_level).
An average's display form must be its exact value's, in a comparison too.

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
    StageResult,
    evaluate,
    gap_analysis,
    misallocation_findings,
    naive_average,
)
from .catalog import ControlId, check_distinct, parse_control_id
from .errors import ConsistencyError, ValidationError, field, reading
from .files import (
    FORMAT_VERSION,
    canonical_json,
    delta_line,
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
    check_justification,
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
        f" ({_level_name(level)})"
    )


class ReportDocument(NamedTuple):
    """Everything one assessment run produced, ready to serialize."""

    company: str
    timestamp: str
    mode: str
    minimums_mode: str
    misallocation_threshold: int
    stage_rows: tuple[StageResult, ...]
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
    not_applicable = tuple((cid, applicability.justification(cid)) for cid in sorted(minimums.excluded))
    return ReportDocument(
        company=company,
        timestamp=timestamp,
        mode=mode,
        minimums_mode=minimums.mode,
        misallocation_threshold=misallocation_threshold,
        stage_rows=result.stage_results,
        label=result.label,
        naive=result.naive_average,
        gaps=tuple(gaps),
        priority_controls=tuple(gap.control for gap in gaps if gap.priority),
        findings=tuple(findings),
        not_applicable=not_applicable,
        deltas=None if deltas is None else tuple(deltas),
        measurements=result.measurements,
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
    display = field(record, "display", str)
    exact = field(record, "exact", str)
    try:
        value = Fraction(exact)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed average record: {record!r}") from None
    if display != format_level(value):
        raise ValidationError(f"average display {display!r} does not match its exact value {exact!r}")
    return value


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


def report_document_dict(doc: ReportDocument) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_REPORT,
        "company": doc.company,
        "timestamp": doc.timestamp,
        "mode": doc.mode,
        "minimums_mode": doc.minimums_mode,
        "misallocation_threshold": doc.misallocation_threshold,
        **_derived_sections(doc),
        "not_applicable": [
            {"control": str(cid), "justification": justification}
            for cid, justification in doc.not_applicable
        ],
        "stage_plan_deltas": None if doc.deltas is None else deltas_record(doc.deltas),
        "measurements": {str(cid): lvl for cid, lvl in doc.measurements.items()},
        "requirements": requirements_record(doc.requirements),
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
    }


def parse_report(text: str, source: str = "report") -> ReportDocument:
    """Read a structured report by rebuilding it; used by the report subcommand.

    Only the inputs are read, each at its exact JSON type (the stage rows
    give their members, in stage order, and requirements must fit
    minimums_mode). The rebuilt document is returned once its derived
    sections equal the document's node for node; the first difference is a
    ValidationError naming the source and its path. No control may be named
    twice among the stage members, nor in stage_plan_deltas, and each delta
    must end at its control's stage or exclusion in the report. Inputs
    evaluate cannot reconcile (a member without a measurement) are its
    ConsistencyError.
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
        members = [field(record, "members", list) for _, record in zip(Stage, field(raw, "stages", list))]
        assignment = {parse_control_id(t): stage for stage, texts in zip(Stage, members) for t in texts}
        if len(assignment) != sum(map(len, members)):  # a control repeats; only now are the texts listed
            check_distinct(assignment, [t for texts in members for t in texts], "'stages'")
        requirements = requirements_from_record(field(raw, "requirements", dict), minimums_mode)
        threshold = field(raw, "misallocation_threshold", int)
        raw_deltas = field(raw, "stage_plan_deltas", list, type(None))
        deltas = None if raw_deltas is None else deltas_from_record(raw_deltas, "'stage_plan_deltas'")
        if deltas:
            _check_deltas(deltas, assignment, excluded)
        # evaluate reads a plan's assignment and exclusions only
        plan = StagePlan(assignment=assignment, provenance={}, boundaries_used=(), excluded=tuple(excluded))
        minimums = MinimumLevelDatabase(mode=minimums_mode, requirements=requirements, excluded=excluded)
        result = evaluate(plan, minimums, measurements)
        document = build_report(
            result,
            gap_analysis(result),
            misallocation_findings(result, threshold),
            ApplicabilityMap(excluded),
            deltas,
            company=field(raw, "company", str),
            timestamp=field(raw, "timestamp", str),
            mode=mode,
            minimums=minimums,
            misallocation_threshold=threshold,
        )
        for key, rebuilt in _derived_sections(document).items():
            difference = _difference(raw[key], rebuilt)
            if difference is not None:
                steps, found, rebuilt = difference
                path = key + "".join(f"[{step}]" if type(step) is int else f".{step}" for step in reversed(steps))
                raise ValidationError(
                    f"{path} does not follow from the report's inputs:"
                    f" found {_shown(found)}, rebuilt {_shown(rebuilt)}"
                )
    return document


def _check_deltas(
    deltas: Sequence[StageDelta], assignment: Mapping[ControlId, Stage], excluded: Mapping[ControlId, str]
) -> None:
    """Each delta ends where the report puts its control: its stage, or excluded."""
    for index, delta in enumerate(deltas):
        cid = delta.control
        if cid in assignment:
            if delta.after == assignment[cid]:
                continue
            where = f"stages {cid} in {assignment[cid].label!r}"
        elif cid in excluded:
            if delta.after is None:
                continue
            where = f"excludes {cid}"
        else:
            where = f"neither stages nor excludes {cid}"
        raise ValidationError(
            f"stage_plan_deltas[{index}].to is {stage_label(delta.after)!r}, but the report {where}"
        )


def _difference(found, rebuilt):
    """None when `found` equals `rebuilt` node for node, each at its exact JSON type.

    Otherwise the first difference as (steps, found node, rebuilt node),
    where steps are the keys and list indexes leading to it, innermost first.
    """
    kind = type(rebuilt)
    if type(found) is kind:
        if kind is dict:
            if found.keys() == rebuilt.keys():
                return _first_difference((key, found[key], value) for key, value in rebuilt.items())
        elif kind is list:
            if len(found) == len(rebuilt):
                return _first_difference(zip(range(len(found)), found, rebuilt))
        elif found == rebuilt:
            return None
    return [], found, rebuilt


def _first_difference(children):
    """_difference over (step, found, rebuilt) children; scalars are compared here, without a call."""
    for step, found, rebuilt in children:
        kind = type(rebuilt)
        if kind is dict or kind is list:
            difference = _difference(found, rebuilt)
            if difference is not None:
                difference[0].append(step)
                return difference
        elif type(found) is not kind or found != rebuilt:
            return [step], found, rebuilt
    return None


def _shown(value) -> str:
    if type(value) is list:
        return f"a list of {len(value)}"
    if type(value) is dict:
        return "an object with keys " + ", ".join(map(repr, value))
    return repr(value)


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
            f"{('yes' if row.complete else 'no'):>10}{len(row.failing):>9}"
        )
    lines.append("")
    lines.append(f"Overall: {label_line(doc.label.stage, doc.label.level)}")
    if doc.label.incomplete:
        lines.append("Note: the Essential stage itself is not yet complete; the label marks the entry stage.")
    lines.append(
        f"Naive average over all applicable controls: {format_level(doc.naive)} ({_level_name(doc.naive)})"
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
                lines.append("  " + delta_line(delta))
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
        lines = [
            "Strategy Mode Comparison",
            "========================",
            f"Company:    {company}",
            f"Generated:  {timestamp}",
            "",
            f"independent:   {label_line(comparison.independent.stage, comparison.independent.level)}",
            f"model:         {label_line(comparison.model.stage, comparison.model.level)}",
            f"naive average: {format_level(comparison.naive)} ({_level_name(comparison.naive)})",
            "",
        ]
        return "\n".join(lines)
    raise ValidationError(f"unknown report format {fmt!r} (expected structured or human)")
