"""File formats: CSV inputs, versioned JSON documents, atomic writes.

These are the CLI's published contracts. Every JSON document carries
format_version "1" plus a "kind" tag; readers reject other major versions
and mismatched kinds. Serialization is canonical (sorted keys, two-space
indent, trailing newline), so equal values always produce identical bytes,
which is what makes the determinism guarantees testable at the file level.

CSV inputs are UTF-8 (an optional byte-order mark is skipped) with a
mandatory header row:

    survey         respondent_id,control_id,score        (score 1..5)
    ratings        control_id,probability,impact         (low|medium|high)
    applicability  control_id,applicable,justification   (true|false)
    measurements   control_id,level                      (level 0..5)

Validation errors name the file and 1-based row so records can be fixed at
the source. Writes go through a temp file in the target directory followed
by an atomic rename; a failing command never leaves a partial output behind.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .catalog import ControlCatalog, ControlId, load_catalog, parse_control_id
from .errors import ValidationError
from .importance import (
    LIKERT_MAX,
    LIKERT_MIN,
    ImportanceDatabase,
    SurveyResponse,
)
from .minimums import (
    LEVEL_MAX,
    LEVEL_MIN,
    ApplicabilityMap,
    MinimumLevelDatabase,
    MinimumRequirement,
    RiskGrade,
    parse_risk_grade,
)
from .staging import PARTITIONED, PROMOTED, Stage, StageDelta, StagePlan

FORMAT_VERSION = "1"

KIND_CATALOG = "control-catalog"
KIND_IMPORTANCE = "importance-database"
KIND_STAGE_PLAN = "stage-plan"
KIND_MINIMUMS = "minimum-level-database"
KIND_DIFF = "stage-plan-diff"

# Stage label used on the excluded side of a delta in documents and text.
EXCLUDED_LABEL = "excluded"


# ---------------------------------------------------------------------------
# JSON plumbing

def canonical_json(document: Mapping) -> str:
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via temp file + rename so readers never see a partial file."""
    target = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=target.parent, prefix=target.name + ".", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, target)
    except BaseException:
        os.unlink(handle.name)
        raise


def check_format_version(document: Mapping, source: str) -> None:
    version = document.get("format_version")
    if not isinstance(version, str) or not version:
        raise ValidationError("missing format_version", source=source)
    major = version.split(".", 1)[0]
    if major != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version!r} (this reader understands major {FORMAT_VERSION})",
            source=source,
        )


def read_document(path: str | Path, expected_kind: str) -> dict:
    source = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc}", source=source) from None
    return parse_document(text, expected_kind, source)


def parse_document(text: str, expected_kind: str, source: str) -> dict:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}", source=source) from None
    if not isinstance(document, dict):
        raise ValidationError("top-level JSON value must be an object", source=source)
    check_format_version(document, source)
    kind = document.get("kind")
    if kind != expected_kind:
        raise ValidationError(
            f"expected a {expected_kind} document, found kind {kind!r}", source=source
        )
    return document


def write_document(path: str | Path, document: Mapping) -> None:
    write_text_atomic(path, canonical_json(document))


# ---------------------------------------------------------------------------
# Catalog

def catalog_document(catalog: ControlCatalog) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_CATALOG,
        "controls": [
            {
                "id": str(control.id),
                "title": control.title,
                "section_name": control.section_name,
                "objective_text": control.objective_text,
            }
            for control in catalog.controls
        ],
        "dependencies": [
            {"prerequisite": str(prereq), "dependent": str(dep)}
            for prereq, dep in catalog.dependencies.edges
        ],
    }


def read_catalog_file(path: str | Path) -> ControlCatalog:
    document = read_document(path, KIND_CATALOG)
    try:
        return load_catalog(document)
    except ValidationError as exc:
        raise ValidationError(str(exc), source=str(path)) from None


# ---------------------------------------------------------------------------
# Importance database

def importance_document(db: ImportanceDatabase) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_IMPORTANCE,
        "controls": [str(cid) for cid in db.controls],
        "responses": {
            respondent: {str(cid): score for cid, score in scores.items()}
            for respondent, scores in db.responses.items()
        },
    }


def importance_from_document(document: Mapping, source: str = "importance document") -> ImportanceDatabase:
    try:
        controls = tuple(parse_control_id(text) for text in document["controls"])
        raw_responses = document["responses"]
    except (KeyError, TypeError):
        raise ValidationError("malformed importance database document", source=source) from None
    known = set(controls)
    responses: dict[str, dict[ControlId, int]] = {}
    for respondent, scores in raw_responses.items():
        parsed: dict[ControlId, int] = {}
        for text, score in scores.items():
            cid = parse_control_id(text)
            if cid not in known:
                raise ValidationError(
                    f"respondent {respondent} scores unknown control {cid}", source=source
                )
            if not isinstance(score, int) or isinstance(score, bool) or not LIKERT_MIN <= score <= LIKERT_MAX:
                raise ValidationError(
                    f"respondent {respondent}, control {cid}: score {score!r} outside {LIKERT_MIN}..{LIKERT_MAX}",
                    source=source,
                )
            parsed[cid] = score
        responses[respondent] = parsed
    return ImportanceDatabase(controls=controls, responses=responses)


def read_importance_file(path: str | Path) -> ImportanceDatabase:
    return importance_from_document(read_document(path, KIND_IMPORTANCE), source=str(path))


# ---------------------------------------------------------------------------
# Stage plan

def stage_plan_document(plan: StagePlan) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_STAGE_PLAN,
        "boundaries": list(plan.boundaries_used),
        "assignment": {str(cid): stage.label for cid, stage in plan.assignment.items()},
        "provenance": {str(cid): tag for cid, tag in plan.provenance.items()},
        "excluded": [str(cid) for cid in plan.excluded],
    }


def stage_plan_from_document(document: Mapping, source: str = "stage plan document") -> StagePlan:
    try:
        boundaries = tuple(int(b) for b in document["boundaries"])
        raw_assignment = document["assignment"]
        raw_provenance = document["provenance"]
        raw_excluded = document["excluded"]
    except (KeyError, TypeError, ValueError):
        raise ValidationError("malformed stage plan document", source=source) from None
    if len(boundaries) != 4:
        raise ValidationError("exactly four boundaries required", source=source)
    assignment: dict[ControlId, Stage] = {}
    for text, label in raw_assignment.items():
        assignment[parse_control_id(text)] = Stage.from_label(label)
    provenance: dict[ControlId, str] = {}
    for text, tag in raw_provenance.items():
        if tag not in (PARTITIONED, PROMOTED):
            raise ValidationError(f"unknown provenance tag {tag!r} for {text}", source=source)
        provenance[parse_control_id(text)] = tag
    if set(provenance) != set(assignment):
        raise ValidationError("provenance must cover exactly the assigned controls", source=source)
    excluded = tuple(sorted(parse_control_id(text) for text in raw_excluded))
    overlap = set(excluded) & set(assignment)
    if overlap:
        raise ValidationError(
            "controls both assigned and excluded: " + ", ".join(str(c) for c in sorted(overlap)),
            source=source,
        )
    return StagePlan(
        assignment=assignment,
        provenance=provenance,
        boundaries_used=boundaries,
        excluded=excluded,
    )


def read_stage_plan_file(path: str | Path) -> StagePlan:
    return stage_plan_from_document(read_document(path, KIND_STAGE_PLAN), source=str(path))


# ---------------------------------------------------------------------------
# Minimum-level database

def minimum_db_document(db: MinimumLevelDatabase) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_MINIMUMS,
        "mode": db.mode,
        "requirements": {
            str(cid): {
                "required_level": req.required_level,
                "priority": req.priority,
                "raw_score": req.raw_score,
            }
            for cid, req in db.requirements.items()
        },
        "excluded": {str(cid): justification for cid, justification in db.excluded.items()},
    }


def minimum_db_from_document(document: Mapping, source: str = "minimum database document") -> MinimumLevelDatabase:
    try:
        mode = document["mode"]
        raw_requirements = document["requirements"]
        raw_excluded = document["excluded"]
    except (KeyError, TypeError):
        raise ValidationError("malformed minimum database document", source=source) from None
    if mode != "risk" and not (
        isinstance(mode, str) and mode.startswith("fixed:") and mode[6:].isdigit()
    ):
        raise ValidationError(f"unknown minimum mode {mode!r}", source=source)
    requirements: dict[ControlId, MinimumRequirement] = {}
    for text, record in raw_requirements.items():
        cid = parse_control_id(text)
        try:
            level = record["required_level"]
            priority = record["priority"]
            raw_score = record["raw_score"]
        except (KeyError, TypeError):
            raise ValidationError(f"malformed requirement record for {cid}", source=source) from None
        if not isinstance(level, int) or isinstance(level, bool) or not 1 <= level <= LEVEL_MAX:
            raise ValidationError(f"required level for {cid} outside 1..{LEVEL_MAX}: {level!r}", source=source)
        if not isinstance(priority, bool):
            raise ValidationError(f"priority flag for {cid} must be boolean", source=source)
        if raw_score is not None and (not isinstance(raw_score, int) or not 2 <= raw_score <= 6):
            raise ValidationError(f"raw score for {cid} outside 2..6: {raw_score!r}", source=source)
        requirements[cid] = MinimumRequirement(
            required_level=level, priority=priority, raw_score=raw_score
        )
    excluded: dict[ControlId, str] = {}
    for text, justification in raw_excluded.items():
        cid = parse_control_id(text)
        if not isinstance(justification, str) or not justification.strip():
            raise ValidationError(f"excluded control {cid} lacks a justification", source=source)
        excluded[cid] = justification
    return MinimumLevelDatabase(mode=mode, requirements=requirements, excluded=excluded)


def read_minimum_db_file(path: str | Path) -> MinimumLevelDatabase:
    return minimum_db_from_document(read_document(path, KIND_MINIMUMS), source=str(path))


# ---------------------------------------------------------------------------
# Stage-plan diff

def _stage_label(stage: Stage | None) -> str:
    return stage.label if stage is not None else EXCLUDED_LABEL


def _stage_from_delta_label(label: str, source: str) -> Stage | None:
    if label == EXCLUDED_LABEL:
        return None
    try:
        return Stage.from_label(label)
    except ValidationError:
        raise ValidationError(f"unknown stage label {label!r}", source=source) from None


def diff_document(deltas: Sequence[StageDelta]) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_DIFF,
        "deltas": [
            {
                "control": str(delta.control),
                "from": _stage_label(delta.before),
                "to": _stage_label(delta.after),
            }
            for delta in deltas
        ],
    }


def deltas_from_document(document: Mapping, source: str = "diff document") -> tuple[StageDelta, ...]:
    try:
        raw = document["deltas"]
    except (KeyError, TypeError):
        raise ValidationError("malformed diff document", source=source) from None
    deltas = []
    for record in raw:
        try:
            deltas.append(
                StageDelta(
                    control=parse_control_id(record["control"]),
                    before=_stage_from_delta_label(record["from"], source),
                    after=_stage_from_delta_label(record["to"], source),
                )
            )
        except (KeyError, TypeError):
            raise ValidationError(f"malformed delta record: {record!r}", source=source) from None
    return tuple(deltas)


# ---------------------------------------------------------------------------
# CSV inputs

SURVEY_HEADER = ["respondent_id", "control_id", "score"]
RATINGS_HEADER = ["control_id", "probability", "impact"]
APPLICABILITY_HEADER = ["control_id", "applicable", "justification"]
MEASUREMENTS_HEADER = ["control_id", "level"]

_TRUE_WORDS = {"true", "yes"}
_FALSE_WORDS = {"false", "no"}


def _csv_rows(path: str | Path, header: list[str]):
    source = str(path)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc}", source=source) from None
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ValidationError(f"missing header row (expected {','.join(header)})", source=source) from None
        if [cell.strip() for cell in first] != header:
            raise ValidationError(
                f"bad header {','.join(first)!r} (expected {','.join(header)})",
                source=source,
                row=1,
            )
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue  # tolerate blank lines
            if len(row) != len(header):
                raise ValidationError(
                    f"expected {len(header)} fields, found {len(row)}", source=source, row=row_no
                )
            yield row_no, [cell.strip() for cell in row]


def _parse_control_cell(text: str, source: str, row_no: int) -> ControlId:
    try:
        return parse_control_id(text)
    except ValidationError as exc:
        raise ValidationError(str(exc), source=source, row=row_no) from None


def _parse_int_cell(text: str, what: str, source: str, row_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{what} {text!r} is not an integer", source=source, row=row_no) from None


def load_survey_csv(path: str | Path) -> list[SurveyResponse]:
    """Read survey rows; duplicates of one (respondent, control) pair are errors."""
    source = str(path)
    seen: set[tuple[str, ControlId]] = set()
    rows: list[SurveyResponse] = []
    for row_no, (respondent, control_text, score_text) in _csv_rows(path, SURVEY_HEADER):
        if not respondent:
            raise ValidationError("empty respondent_id", source=source, row=row_no)
        cid = _parse_control_cell(control_text, source, row_no)
        score = _parse_int_cell(score_text, "score", source, row_no)
        if not LIKERT_MIN <= score <= LIKERT_MAX:
            raise ValidationError(
                f"score {score} outside {LIKERT_MIN}..{LIKERT_MAX}", source=source, row=row_no
            )
        key = (respondent, cid)
        if key in seen:
            raise ValidationError(
                f"duplicate response for ({respondent}, {cid})", source=source, row=row_no
            )
        seen.add(key)
        rows.append(SurveyResponse(respondent_id=respondent, control_id=cid, score=score))
    return rows


def load_measurements_csv(path: str | Path) -> dict[ControlId, int]:
    """Read measured maturity levels, one row per control."""
    source = str(path)
    levels: dict[ControlId, int] = {}
    for row_no, (control_text, level_text) in _csv_rows(path, MEASUREMENTS_HEADER):
        cid = _parse_control_cell(control_text, source, row_no)
        level = _parse_int_cell(level_text, "level", source, row_no)
        if not LEVEL_MIN <= level <= LEVEL_MAX:
            raise ValidationError(
                f"level {level} outside {LEVEL_MIN}..{LEVEL_MAX}", source=source, row=row_no
            )
        if cid in levels:
            raise ValidationError(f"duplicate measurement for {cid}", source=source, row=row_no)
        levels[cid] = level
    return levels


def load_ratings_csv(path: str | Path) -> dict[ControlId, tuple[RiskGrade, RiskGrade]]:
    """Read per-control risk ratings (probability and impact grades)."""
    source = str(path)
    ratings: dict[ControlId, tuple[RiskGrade, RiskGrade]] = {}
    for row_no, (control_text, probability_text, impact_text) in _csv_rows(path, RATINGS_HEADER):
        cid = _parse_control_cell(control_text, source, row_no)
        try:
            probability = parse_risk_grade(probability_text)
            impact = parse_risk_grade(impact_text)
        except ValidationError as exc:
            raise ValidationError(str(exc), source=source, row=row_no) from None
        if cid in ratings:
            raise ValidationError(f"duplicate rating for {cid}", source=source, row=row_no)
        ratings[cid] = (probability, impact)
    return ratings


def load_applicability_csv(path: str | Path) -> ApplicabilityMap:
    """Read applicability decisions; not-applicable rows need a justification."""
    source = str(path)
    not_applicable: dict[ControlId, str] = {}
    seen: set[ControlId] = set()
    for row_no, (control_text, applicable_text, justification) in _csv_rows(path, APPLICABILITY_HEADER):
        cid = _parse_control_cell(control_text, source, row_no)
        if cid in seen:
            raise ValidationError(f"duplicate applicability row for {cid}", source=source, row=row_no)
        seen.add(cid)
        word = applicable_text.lower()
        if word in _TRUE_WORDS:
            continue
        if word not in _FALSE_WORDS:
            raise ValidationError(
                f"applicable must be true or false, found {applicable_text!r}", source=source, row=row_no
            )
        if not justification.strip():
            raise ValidationError(
                f"control {cid} marked not applicable without a justification", source=source, row=row_no
            )
        not_applicable[cid] = justification
    return ApplicabilityMap(not_applicable=not_applicable)


# ---------------------------------------------------------------------------
# Bundled defaults

def _bundled_text(name: str) -> str:
    return resources.files("ismaturity").joinpath("data").joinpath(name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def default_catalog() -> ControlCatalog:
    """The bundled 114-control catalog with its single prerequisite edge."""
    document = parse_document(_bundled_text("catalog_default.json"), KIND_CATALOG, "bundled catalog")
    return load_catalog(document)


@lru_cache(maxsize=None)
def default_importance_db() -> ImportanceDatabase:
    """Bundled synthetic importance panel; partitioning it reproduces the default plan."""
    return importance_from_document(
        parse_document(_bundled_text("importance_default.json"), KIND_IMPORTANCE, "bundled importance db"),
        source="bundled importance db",
    )


@lru_cache(maxsize=None)
def default_stage_plan() -> StagePlan:
    """The bundled default stage database (31/27/29/27 across the four stages)."""
    return stage_plan_from_document(
        parse_document(_bundled_text("stage_plan_default.json"), KIND_STAGE_PLAN, "bundled stage plan"),
        source="bundled stage plan",
    )
