"""File formats: CSV inputs, versioned JSON documents, atomic writes.

These are the CLI's published contracts. Every JSON document carries
format_version "1" plus a "kind" tag; readers reject other major versions
and mismatched kinds. Serialization is canonical (sorted keys, two-space
indent, trailing newline), so equal values always produce identical bytes,
which is what makes the determinism guarantees testable at the file level.
canonical_json is a local writer that produces the same bytes as
json.dumps(indent=2, sort_keys=True, ensure_ascii=False): the standard
library's indenting encoder runs in pure Python, and this one, which quotes
strings with the C quoting function, takes about half the time.

CSV inputs are UTF-8 (an optional byte-order mark is skipped) with a
mandatory header row:

    survey         respondent_id,control_id,score        (score 1..5)
    ratings        control_id,probability,impact         (low|medium|high)
    applicability  control_id,applicable,justification   (true|false)
    measurements   control_id,level                      (level 0..5)

Validation errors name the file and 1-based row so records can be fixed at
the source. Records that appear in more than one document (requirements,
stage deltas, the stage-or-excluded label) have one writer and one strict
reader here. Readers take every JSON value, container or scalar, only at
its exact type (errors.field: no coercion, and a boolean is not an integer)
and run inside errors.reading, which names the file in every error. Writes
go through a temp file in the target directory, fsynced and then atomically
renamed; a failing command never leaves a partial output behind.
"""

from __future__ import annotations

import csv
import json
import os
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .catalog import ControlCatalog, ControlId, load_catalog, parse_control_id
from .errors import ValidationError, field, reading
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
    parse_mode_tag,
    parse_risk_grade,
    scored_minimum,
)
from .staging import PARTITIONED, PROMOTED, Stage, StageDelta, StagePlan, check_boundaries

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

# The text of each JSON scalar type; canonical_json takes values at their
# exact type, so True is never written as 1 nor 1 as true.
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def canonical_json(document: Mapping) -> str:
    """`document` as json.dumps(indent=2, sort_keys=True, ensure_ascii=False) writes it, plus a newline.

    Only dicts with string keys, lists, tuples, strings, integers, booleans
    and None are accepted; any other value is a TypeError.
    """
    return _dump(document, "\n") + "\n"


def _dump(value, newline: str) -> str:
    """`value` as JSON text; `newline` is a newline plus the indent of the line it starts on."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring(key) + ": " + _dump(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_dump(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    scalar = _SCALARS.get(kind)
    if scalar is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return scalar(value)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via temp file + fsync + rename so readers never see a partial file.

    The temp file is created next to the target with mode 0o666, so the
    umask sets the final permissions as for any newly created file. Any OS
    failure (say, a missing directory) is a ValidationError naming `path`.
    """
    target = Path(path)
    temp = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as handle:
                handle.write(text.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write file: {exc.strerror or exc}", source=str(path)) from None


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


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc}", source=str(path)) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text: {exc}", source=str(path)) from None


def read_document(path: str | Path, expected_kind: str) -> dict:
    return parse_document(read_text(path), expected_kind, str(path))


def parse_document(text: str, expected_kind: str, source: str) -> dict:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}", source=source) from None
    except (RecursionError, ValueError) as exc:  # nesting too deep, an integer too long
        raise ValidationError(f"unreadable JSON: {exc}", source=source) from None
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
    return load_catalog(read_document(path, KIND_CATALOG), source=str(path))


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
    with reading(source, "importance database document"):
        controls = tuple(parse_control_id(text) for text in field(document, "controls", list))
        known = set(controls)
        raw_responses = field(document, "responses", dict)
        responses: dict[str, dict[ControlId, int]] = {}
        for respondent in raw_responses:
            scores = field(raw_responses, respondent, dict)
            parsed: dict[ControlId, int] = {}
            for text in scores:
                cid = parse_control_id(text)
                if cid not in known:
                    raise ValidationError(f"respondent {respondent} scores unknown control {cid}")
                score = field(scores, text, int)
                if not LIKERT_MIN <= score <= LIKERT_MAX:
                    raise ValidationError(
                        f"respondent {respondent}, control {cid}: score {score} outside {LIKERT_MIN}..{LIKERT_MAX}"
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
    with reading(source, "stage plan document"):
        assignment: dict[ControlId, Stage] = {}
        for text, label in field(document, "assignment", dict).items():
            assignment[parse_control_id(text)] = Stage.from_label(label)
        provenance: dict[ControlId, str] = {}
        for text, tag in field(document, "provenance", dict).items():
            if tag not in (PARTITIONED, PROMOTED):
                raise ValidationError(f"unknown provenance tag {tag!r} for {text}")
            provenance[parse_control_id(text)] = tag
        if set(provenance) != set(assignment):
            raise ValidationError("provenance must cover exactly the assigned controls")
        excluded = tuple(sorted(parse_control_id(text) for text in field(document, "excluded", list)))
        overlap = set(excluded) & set(assignment)
        if overlap:
            raise ValidationError(
                "controls both assigned and excluded: " + ", ".join(str(c) for c in sorted(overlap))
            )
        boundaries = check_boundaries(
            field(document, "boundaries", list), len(assignment), len(assignment) + len(excluded)
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
# Requirement records, shared by minimum databases and reports

def requirements_record(requirements: Mapping[ControlId, MinimumRequirement]) -> dict:
    return {
        str(cid): {
            "required_level": req.required_level,
            "priority": req.priority,
            "raw_score": req.raw_score,
        }
        for cid, req in requirements.items()
    }


def requirements_from_record(
    raw: Mapping, mode: str, control_id: Callable[[str], ControlId] = parse_control_id
) -> dict[ControlId, MinimumRequirement]:
    """Read a requirements object written under the minimum mode tag `mode`.

    Each requirement must be the one its mode gives: "fixed:<n>" means level
    n, no priority and a null raw score; "risk" means a raw score of 2..6 with
    the level and priority scored_minimum derives from it. Keys are read with
    `control_id`, so a reader that meets the same id texts elsewhere can parse
    each once. Runs inside the calling reader's `reading`.
    """
    fixed = parse_mode_tag(mode)
    fixed_requirement = None if fixed is None else MinimumRequirement(required_level=fixed)
    requirements: dict[ControlId, MinimumRequirement] = {}
    for text, record in raw.items():
        cid = control_id(text)
        requirement = MinimumRequirement(
            required_level=field(record, "required_level", int),
            priority=field(record, "priority", bool),
            raw_score=field(record, "raw_score", int, type(None)),
        )
        raw_score = requirement.raw_score
        if fixed_requirement is not None:
            expected = fixed_requirement
        elif raw_score is not None and 2 <= raw_score <= 6:
            expected = scored_minimum(raw_score)
        else:
            raise ValidationError(f"raw score for {cid} must be 2..6 in minimum mode {mode}, found {raw_score}")
        if requirement != expected:
            raise ValidationError(
                f"requirement for {cid} (required level {requirement.required_level}, priority"
                f" {requirement.priority}, raw score {raw_score}) does not fit minimum mode {mode}"
            )
        requirements[cid] = requirement
    return requirements


# ---------------------------------------------------------------------------
# Minimum-level database

def minimum_db_document(db: MinimumLevelDatabase) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": KIND_MINIMUMS,
        "mode": db.mode,
        "requirements": requirements_record(db.requirements),
        "excluded": {str(cid): justification for cid, justification in db.excluded.items()},
    }


def minimum_db_from_document(document: Mapping, source: str = "minimum database document") -> MinimumLevelDatabase:
    with reading(source, "minimum database document"):
        mode = field(document, "mode", str)
        requirements = requirements_from_record(field(document, "requirements", dict), mode)
        raw_excluded = field(document, "excluded", dict)
        excluded: dict[ControlId, str] = {}
        for text in raw_excluded:
            cid = parse_control_id(text)
            justification = field(raw_excluded, text, str)
            if not justification.strip():
                raise ValidationError(f"excluded control {cid} lacks a justification")
            excluded[cid] = justification
    return MinimumLevelDatabase(mode=mode, requirements=requirements, excluded=excluded)


def read_minimum_db_file(path: str | Path) -> MinimumLevelDatabase:
    return minimum_db_from_document(read_document(path, KIND_MINIMUMS), source=str(path))


# ---------------------------------------------------------------------------
# Stage deltas, shared by diff documents and reports

def stage_label(stage: Stage | None) -> str:
    """A stage's label, or the excluded marker for None."""
    return EXCLUDED_LABEL if stage is None else stage.label


def _stage_from_label(label: str) -> Stage | None:
    return None if label == EXCLUDED_LABEL else Stage.from_label(label)


def deltas_record(deltas: Sequence[StageDelta]) -> list[dict]:
    return [
        {"control": str(delta.control), "from": stage_label(delta.before), "to": stage_label(delta.after)}
        for delta in deltas
    ]


def deltas_from_record(raw: Sequence) -> tuple[StageDelta, ...]:
    """Read a list of delta records; runs inside the calling reader's `reading`."""
    return tuple(
        StageDelta(
            control=parse_control_id(record["control"]),
            before=_stage_from_label(record["from"]),
            after=_stage_from_label(record["to"]),
        )
        for record in raw
    )


def diff_document(deltas: Sequence[StageDelta]) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": KIND_DIFF, "deltas": deltas_record(deltas)}


def deltas_from_document(document: Mapping, source: str = "diff document") -> tuple[StageDelta, ...]:
    with reading(source, "diff document"):
        return deltas_from_record(field(document, "deltas", list))


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
    row_no = 0  # the last row read
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first is None:
                raise ValidationError(f"missing header row (expected {','.join(header)})", source=source)
            if [cell.strip() for cell in first] != header:
                raise ValidationError(
                    f"bad header {','.join(first)!r} (expected {','.join(header)})",
                    source=source,
                    row=1,
                )
            row_no = 1
            for row_no, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue  # tolerate blank lines
                if len(row) != len(header):
                    raise ValidationError(
                        f"expected {len(header)} fields, found {len(row)}", source=source, row=row_no
                    )
                yield row_no, [cell.strip() for cell in row]
        except UnicodeDecodeError as exc:  # decoding runs ahead of the rows, so no row is named
            raise ValidationError(f"not UTF-8 text: {exc}", source=source) from None
        except csv.Error as exc:
            raise ValidationError(f"unreadable CSV: {exc}", source=source, row=row_no + 1) from None


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
    return load_catalog(document, source="bundled catalog")


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
