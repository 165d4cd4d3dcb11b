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

The loaders return maps, the survey's {respondent: {control: score}}. Errors
name the file and the 1-based line the record starts on, so records can be
fixed at the source; _read_csv, the loaders' one error boundary, attaches
both. Each input rule has one implementation, which every
reader of that input calls: a score is importance.add_score's, in a survey
row and in an importance document (whose respondents without scores meet
importance.check_respondent too); a measured level is minimums.check_level's;
an exclusion's justification is a non-blank string
(minimums.check_justification); controls outside the catalog are named
together (catalog.check_known).
Records that appear in more than one document (requirements, stage deltas,
the stage-or-excluded label) have one writer here, and one strict reader
where they are read: a report's stage deltas are not read but rebuilt
(reporting.stage_changes), so only a diff document reads them.
Readers take every JSON value only at its exact type (errors.field) inside
errors.reading, which names the file in every error. No object may give a
key twice (parse_document), and a document reads only as its writer writes
it: a reader re-encodes the record it built with its kind's writer and
compares the two (check_as_written), so an unknown key or a second spelling
of an id is an error naming its path. Readers keep only the rules this
cannot see, such as a list naming a control twice (catalog.check_distinct).
The catalog, a hand-written input, and a report's inputs are not compared.
Writes go through a temp file in the target directory, fsynced and then
atomically renamed; a failing command never leaves a partial output behind.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import stat
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from .catalog import ControlCatalog, ControlId, check_distinct, check_known, load_catalog, parse_control_id
from .errors import ValidationError, field, reading
from .importance import ImportanceDatabase, add_score, add_stored_score, check_respondent
from .minimums import (
    ApplicabilityMap,
    MinimumLevelDatabase,
    MinimumRequirement,
    RiskGrade,
    check_justification,
    check_level,
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
    and None are accepted; any other value is a TypeError. A dict object
    that recurs at the same indent (requirements_record shares one record
    per distinct requirement) is written once per call.
    """
    return _dump(document, "\n", {}) + "\n"


def _dump(value, newline: str, written: dict) -> str:
    """`value` as JSON text; `newline` is a newline plus the indent of the line it starts on.

    `written` maps (id, indent) of each non-empty dict written so far in
    this call to its text; ids stay unique because the document keeps every
    object alive until the call returns.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        key = (id(value), len(newline))
        text = written.get(key)
        if text is None:
            inner = newline + "  "
            items = []
            for name in sorted(value):
                if type(name) is not str:
                    raise TypeError(f"keys must be str, not {type(name).__name__}")
                item = value[name]
                scalar = _SCALARS.get(type(item))
                items.append(
                    encode_basestring(name) + ": "
                    + (_dump(item, inner, written) if scalar is None else scalar(item))
                )
            text = written[key] = "{" + inner + ("," + inner).join(items) + newline + "}"
        return text
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [
            _dump(item, inner, written) if (scalar := _SCALARS.get(type(item))) is None else scalar(item)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    scalar = _SCALARS.get(kind)
    if scalar is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return scalar(value)


def regular_or_absent(path: str | Path) -> bool:
    """Whether `path`, with its symlinks followed, is a regular file or names nothing.

    A failed look other than a symlink loop (say, a missing directory) is left to the write to report.
    """
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except OSError as exc:
        return exc.errno != errno.ELOOP


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via temp file + fsync + rename so readers never see a partial file.

    A symlink is written through: the file it leads to is the target, and
    the link stays. A target that exists and is no regular file (a
    directory, a FIFO, a device, a symlink loop) is left as it is, since the
    rename would replace it with a regular file. The temp file is created
    next to the target with mode 0o666, so the umask sets the final
    permissions as for any newly created file. Any OS failure (say, a
    missing directory), and text UTF-8 cannot encode (a lone surrogate), is
    a ValidationError naming `path`.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"cannot write text as UTF-8: {exc}", source=str(path)) from None
    if not regular_or_absent(path):
        raise ValidationError("cannot write file: not a regular file", source=str(path))
    target = Path(os.path.realpath(path))
    temp = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write file: {exc.strerror or exc}", source=str(path)) from None


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc}", source=str(path)) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text: {exc}", source=str(path)) from None


def read_document(path: str | Path, expected_kind: str) -> dict:
    return parse_document(read_text(path), expected_kind, str(path))


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a key the text gives twice is an error, never its last value."""
    record = dict(pairs)
    if len(record) != len(pairs):
        seen: set = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"key {key!r} appears twice in one object")
    return record


def parse_document(text: str, expected_kind: str, source: str) -> dict:
    try:
        document = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}", source=source) from None
    except (RecursionError, ValueError) as exc:  # nesting too deep, an integer too long, a repeated key
        raise ValidationError(f"unreadable JSON: {exc}", source=source) from None
    if not isinstance(document, dict):
        raise ValidationError("top-level JSON value must be an object", source=source)
    version = document.get("format_version")
    if not isinstance(version, str) or not version:
        raise ValidationError("missing format_version", source=source)
    if version.split(".", 1)[0] != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version!r} (this reader understands major {FORMAT_VERSION})",
            source=source,
        )
    kind = document.get("kind")
    if kind != expected_kind:
        raise ValidationError(
            f"expected {'an' if expected_kind[:1] in 'aeiou' else 'a'} {expected_kind} document,"
            f" found kind {kind!r}",
            source=source,
        )
    return document


def write_document(path: str | Path, document: Mapping) -> None:
    write_text_atomic(path, canonical_json(document))


# What a key found in only one of two compared objects is compared with.
_NOTHING = object()


def check_document(found, written: dict, message: str) -> None:
    """Reject the parsed JSON `found` unless it is `written`, node for node and each node at its exact type.

    The package's one document comparator. The error is `message` formatted
    with the first differing node's path (the keys and list indexes leading to
    it, as in stages[2].average.exact or assignment['A.5.1.1']) and the two
    nodes as text; a key in one object only is compared with nothing. Objects
    compare as key sets, lists in order.
    """
    difference = _difference(found, written)
    if difference is not None:
        steps, found, written = difference
        raise ValidationError(message.format(path=_path(reversed(steps)), found=_shown(found), written=_shown(written)))


def _path(steps: Iterable) -> str:
    """The path text of `steps`, the keys and list indexes from the top down, as in stages[2].average.exact."""
    return "".join(f".{step}" if str(step).isidentifier() else f"[{step!r}]" for step in steps).removeprefix(".")


def _difference(found, written):
    """check_document's first difference as (steps innermost first, found node, written node), or None."""
    kind = type(written)
    if type(found) is kind:
        if kind is dict:
            if found.keys() == written.keys():
                return _first_difference((key, found[key], value) for key, value in written.items())
            key = next(key for key in (*found, *written) if (key in found) is not (key in written))
            return [key], found.get(key, _NOTHING), written.get(key, _NOTHING)
        if len(found) == len(written):
            return _first_difference(zip(range(len(found)), found, written))
    return [], found, written


def _first_difference(children):
    """_difference over (step, found, written) children; scalars are compared here, without a call."""
    for step, found, written in children:
        kind = type(written)
        if kind is dict or kind is list:
            difference = _difference(found, written)
            if difference is not None:
                difference[0].append(step)
                return difference
        elif type(found) is not kind or found != written:
            return [step], found, written
    return None


def _shown(value) -> str:
    if value is _NOTHING:
        return "nothing"
    if type(value) is list:
        return f"a list of {len(value)}"
    if type(value) is dict:
        return "an object with keys " + ", ".join(map(repr, value))
    return repr(value)


def check_as_written(document: Mapping, written: dict) -> None:
    """check_document of a reader's `document` and `written`, its writer's document of the record read from it.

    The envelope is parse_document's to check: a reader takes any 1.x.
    """
    envelope = ("format_version", "kind")
    found = {key: value for key, value in document.items() if key not in envelope}
    written = {key: value for key, value in written.items() if key not in envelope}
    check_document(found, written, "{path}: found {found}, but the writer writes {written}")


def check_keys(record: Mapping, written: AbstractSet[str], *steps) -> None:
    """Reject a key of the object `record`, at the path `steps`, that is not one of `written`, the keys its writer writes.

    A key-set check, worded as check_as_written words the same difference,
    for records that are read without the full comparison.
    """
    if not record.keys() <= written:
        key = next(key for key in record if key not in written)
        raise ValidationError(f"{_path((*steps, key))}: found {_shown(record[key])}, but the writer writes nothing")


def check_record_keys(records: Mapping, written: AbstractSet[str], *steps) -> None:
    """check_keys of every object in `records`, each keyed by its step from the path `steps`, in one set union."""
    if not written.issuperset(set().union(*records.values())):
        for step, record in records.items():
            check_keys(record, written, *steps, step)


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
        texts = field(document, "controls", list)
        controls = tuple(parse_control_id(text) for text in texts)
        known = set(controls)
        check_distinct(known, texts, "'controls'")
        raw_responses = field(document, "responses", dict)
        responses: dict[str, dict[ControlId, int]] = {}
        for respondent in raw_responses:
            check_respondent(respondent)  # also for a respondent without scores, whom add_score never sees
            responses[respondent] = {}
            for text, score in field(raw_responses, respondent, dict).items():
                add_stored_score(responses, respondent, parse_control_id(text), score)
        check_known(set().union(*responses.values()), known, "scores")
        db = ImportanceDatabase(controls=controls, responses=responses)
        check_as_written(document, importance_document(db))
    return db


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
        raw_assignment = field(document, "assignment", dict)
        assignment = {parse_control_id(text): Stage.from_label(label) for text, label in raw_assignment.items()}
        provenance: dict[ControlId, str] = {}
        for text, tag in field(document, "provenance", dict).items():
            if tag not in (PARTITIONED, PROMOTED):
                raise ValidationError(f"unknown provenance tag {tag!r} for {text}")
            provenance[parse_control_id(text)] = tag
        if set(provenance) != set(assignment):
            raise ValidationError("provenance must cover exactly the assigned controls")
        raw_excluded = field(document, "excluded", list)
        excluded = tuple(sorted({parse_control_id(text) for text in raw_excluded}))
        check_distinct(excluded, raw_excluded, "'excluded'")
        overlap = set(excluded) & set(assignment)
        if overlap:
            raise ValidationError(
                "controls both assigned and excluded: " + ", ".join(str(c) for c in sorted(overlap))
            )
        boundaries = field(document, "boundaries", list)
        plan = StagePlan(assignment, provenance, tuple(boundaries), excluded)
        check_as_written(document, stage_plan_document(plan))  # first: a control named twice is not miscounted
        check_boundaries(boundaries, len(assignment), len(assignment) + len(excluded))
    return plan


def read_stage_plan_file(path: str | Path) -> StagePlan:
    return stage_plan_from_document(read_document(path, KIND_STAGE_PLAN), source=str(path))


# ---------------------------------------------------------------------------
# Requirement records, shared by minimum databases and reports

def requirements_record(requirements: Mapping[ControlId, MinimumRequirement]) -> dict:
    """One record object per distinct requirement, so canonical_json writes each once.

    Requirements are told apart at the exact type of every field, so
    priority False and priority 0 stay two records, written false and 0.
    """
    shared: dict[tuple, dict] = {}
    record = {}
    for cid, req in requirements.items():
        key = (req, type(req.required_level), type(req.priority), type(req.raw_score))
        if key not in shared:
            shared[key] = {
                "required_level": req.required_level,
                "priority": req.priority,
                "raw_score": req.raw_score,
            }
        record[str(cid)] = shared[key]
    return record


# MinimumRequirement(...) without the named tuple's Python-level __new__.
_new_requirement = tuple.__new__


def requirements_from_record(raw: Mapping, mode: str) -> dict[ControlId, MinimumRequirement]:
    """Read a requirements object written under the minimum mode tag `mode`.

    Each requirement must be the one its mode gives: "fixed:<n>" means level
    n, no priority and a null raw score; "risk" means a raw score of 2..6 with
    the level and priority scored_minimum derives from it. Runs inside the
    calling reader's `reading`.
    """
    fixed = parse_mode_tag(mode)
    fixed_requirement = None if fixed is None else MinimumRequirement(required_level=fixed)
    requirements: dict[ControlId, MinimumRequirement] = {}
    for text, record in raw.items():
        cid = parse_control_id(text)
        requirement = _new_requirement(
            MinimumRequirement,
            (
                field(record, "required_level", int),
                field(record, "priority", bool),
                field(record, "raw_score", int, type(None)),
            ),
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
    check_distinct(requirements, raw, "'requirements'")
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
        excluded: dict[ControlId, str] = {}
        for text, justification in field(document, "excluded", dict).items():
            cid = parse_control_id(text)
            excluded[cid] = check_justification(cid, justification)
        db = MinimumLevelDatabase(mode=mode, requirements=requirements, excluded=excluded)
        check_as_written(document, minimum_db_document(db))
    return db


def read_minimum_db_file(path: str | Path) -> MinimumLevelDatabase:
    return minimum_db_from_document(read_document(path, KIND_MINIMUMS), source=str(path))


# ---------------------------------------------------------------------------
# Stage deltas, shared by diff documents and reports

def stage_label(stage: Stage | None) -> str:
    """A stage's label, or the excluded marker for None."""
    return EXCLUDED_LABEL if stage is None else stage.label


def delta_line(delta: StageDelta) -> str:
    """One stage change as text, as `stage-plan diff` and the human report print it."""
    return f"{delta.control}: {stage_label(delta.before)} -> {stage_label(delta.after)}"


def _stage_from_label(label: str) -> Stage | None:
    return None if label == EXCLUDED_LABEL else Stage.from_label(label)


def deltas_record(deltas: Sequence[StageDelta]) -> list[dict]:
    return [
        {"control": str(delta.control), "from": stage_label(delta.before), "to": stage_label(delta.after)}
        for delta in deltas
    ]


def diff_document(deltas: Sequence[StageDelta]) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": KIND_DIFF, "deltas": deltas_record(deltas)}


def deltas_from_document(document: Mapping, source: str = "diff document") -> tuple[StageDelta, ...]:
    with reading(source, "diff document"):
        raw = field(document, "deltas", list)
        deltas = tuple(
            StageDelta(
                control=parse_control_id(record["control"]),
                before=_stage_from_label(record["from"]),
                after=_stage_from_label(record["to"]),
            )
            for record in raw
        )
        check_distinct({delta.control for delta in deltas}, [record["control"] for record in raw], "'deltas'")
        check_as_written(document, diff_document(deltas))
    return deltas


# ---------------------------------------------------------------------------
# CSV inputs

SURVEY_HEADER = ["respondent_id", "control_id", "score"]
RATINGS_HEADER = ["control_id", "probability", "impact"]
APPLICABILITY_HEADER = ["control_id", "applicable", "justification"]
MEASUREMENTS_HEADER = ["control_id", "level"]

_TRUE_WORDS = {"true", "yes"}
_FALSE_WORDS = {"false", "no"}


def _read_csv(path: str | Path, header: list[str], read_row: Callable[..., None]) -> None:
    """Check the header, then call `read_row` with the stripped cells of each non-blank row.

    The CSV loaders' one error boundary: a ValidationError that names no file
    gets `path` and the 1-based line its record starts on (the header is line
    1), so a quoted cell spanning lines shifts no later row; a csv.Error names
    the line it was found on.
    """
    source = str(path)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc}", source=source) from None
    line = 1  # where the record being read starts
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first is None:
                raise ValidationError(f"missing header row (expected {','.join(header)})", source=source)
            if [cell.strip() for cell in first] != header:
                raise ValidationError(f"bad header {','.join(first)!r} (expected {','.join(header)})")
            line = reader.line_num + 1
            for row in reader:
                cells = [cell.strip() for cell in row]
                if any(cells):  # tolerate blank lines
                    if len(cells) != len(header):
                        raise ValidationError(f"expected {len(header)} fields, found {len(cells)}")
                    read_row(*cells)
                line = reader.line_num + 1
        except UnicodeDecodeError as exc:  # decoding runs ahead of the rows, so no row is named
            raise ValidationError(f"not UTF-8 text: {exc}", source=source) from None
        except csv.Error as exc:
            raise ValidationError(f"unreadable CSV: {exc}", source=source, row=reader.line_num) from None
        except ValidationError as exc:
            if exc.source is not None:
                raise
            raise ValidationError(str(exc), source=source, row=line) from None


def integer_cell(text: str) -> int | str:
    """`text` as an integer, or unchanged when it spells none, for add_score or check_level to name.

    Only ASCII digits spell one, as in a control id, and `_` does not
    separate them: int() alone would read "٤" as 4 and "0_5" as 5.
    """
    try:
        return int(text) if text.isascii() and "_" not in text else text
    except ValueError:
        return text


def _read_per_control(path: str | Path, header: list[str], what: str, parse: Callable[..., object]) -> dict:
    """Map each control to `parse(cid, *its other cells)`; its second row, once parsed, is a duplicate."""
    values: dict[ControlId, object] = {}

    def read_row(control_text: str, *rest: str) -> None:
        cid = parse_control_id(control_text)
        value = parse(cid, *rest)
        if cid in values:
            raise ValidationError(f"duplicate {what} for {cid}")
        values[cid] = value

    _read_csv(path, header, read_row)
    return values


def load_survey_csv(path: str | Path) -> dict[str, dict[ControlId, int]]:
    """The survey in `path` as {respondent: {control: score}} in file order, each row checked by add_score."""
    scores: dict[str, dict[ControlId, int]] = {}

    def read_row(respondent: str, control_text: str, score_text: str) -> None:
        # add_score checks the respondent first, so a row without one names no control id
        add_score(
            scores, respondent, parse_control_id(control_text) if respondent else None, integer_cell(score_text)
        )

    _read_csv(path, SURVEY_HEADER, read_row)
    return scores


def load_measurements_csv(path: str | Path) -> dict[ControlId, int]:
    """Read measured maturity levels, one row per control, each checked by minimums.check_level."""
    return _read_per_control(
        path, MEASUREMENTS_HEADER, "measurement", lambda cid, level_text: check_level(integer_cell(level_text))
    )


def load_ratings_csv(path: str | Path) -> dict[ControlId, tuple[RiskGrade, RiskGrade]]:
    """Read per-control risk ratings (probability and impact grades)."""
    return _read_per_control(
        path, RATINGS_HEADER, "rating",
        lambda cid, probability, impact: (parse_risk_grade(probability), parse_risk_grade(impact)),
    )


def _exclusion(cid: ControlId, applicable_text: str, justification: str) -> str | None:
    """None for an applicable control, else the justification of its exclusion."""
    word = applicable_text.lower()
    if word in _TRUE_WORDS:
        return None
    if word not in _FALSE_WORDS:
        raise ValidationError(f"applicable must be true or false, found {applicable_text!r}")
    return check_justification(cid, justification)


def load_applicability_csv(path: str | Path) -> ApplicabilityMap:
    """Read applicability decisions; not-applicable rows need a justification."""
    exclusions = _read_per_control(path, APPLICABILITY_HEADER, "applicability row", _exclusion)
    return ApplicabilityMap(not_applicable={cid: text for cid, text in exclusions.items() if text is not None})


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
