"""Security-control catalog: identifiers, control metadata, prerequisite graph.

The catalog is the closed universe that every other artifact (importance
database, stage plan, minimum-level database, measurement set) is validated
against. The bundled default covers the 114 ISO/IEC 27001 Annex A controls
in sections A.5 through A.18; any catalog document with the same shape is
accepted, so small synthetic catalogs work for testing and for organizations
tracking a reduced control set.

Prerequisite edges point from the prerequisite to the dependent control and
must form a directed acyclic graph. Loading rejects duplicate ids, unknown
edge endpoints, self-edges and cycles outright; validate_dependencies exposes
the same checks as a findings report for diagnostics.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ValidationError

# Annex A sections run A.5 through A.18; anything outside is a typo.
SECTION_MIN = 5
SECTION_MAX = 18


class ControlId(NamedTuple):
    """Identifier of one control, ordered by (section, objective, control)."""

    section: int
    objective: int
    control: int

    def __str__(self) -> str:
        return f"A.{self.section}.{self.objective}.{self.control}"


def parse_control_id(text: str) -> ControlId:
    """Parse "A.5.1.1" or the bare "5.1.1" spelling into a ControlId.

    Both spellings canonicalize to the "A."-prefixed form rendered by
    ControlId.__str__. Raises ValidationError naming the offending token for
    malformed input or for sections outside A.5 .. A.18.
    """
    raw = text.strip()
    if not raw:
        raise ValidationError("empty control id")
    body = raw[2:] if raw[:2] in ("A.", "a.") else raw
    parts = body.split(".")
    if len(parts) != 3:
        raise ValidationError(f"control id {raw!r} must have three numeric fields")
    numbers = []
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise ValidationError(f"control id {raw!r}: field {part!r} is not a number")
        numbers.append(int(part))
    section, objective, control = numbers
    if not SECTION_MIN <= section <= SECTION_MAX:
        raise ValidationError(
            f"control id {raw!r}: section {section} is outside A.{SECTION_MIN}..A.{SECTION_MAX}"
        )
    if objective < 1 or control < 1:
        raise ValidationError(f"control id {raw!r}: objective and control must be >= 1")
    return ControlId(section, objective, control)


class Control(NamedTuple):
    """One catalog entry. Texts are display-only; the id is the contract."""

    id: ControlId
    title: str
    section_name: str
    objective_text: str


class DependencyGraph(NamedTuple):
    """Prerequisite edges as (prerequisite, dependent) pairs, stored sorted."""

    edges: tuple[tuple[ControlId, ControlId], ...] = ()

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[ControlId, ControlId]]) -> "DependencyGraph":
        return cls(tuple(sorted(set(pairs))))


class ControlCatalog:
    """Immutable-after-load collection of controls plus their dependency graph."""

    __slots__ = ("controls", "dependencies", "_by_id")

    def __init__(
        self, controls: tuple[Control, ...], dependencies: DependencyGraph = DependencyGraph()
    ) -> None:
        self.controls = controls
        self.dependencies = dependencies
        self._by_id = {c.id: c for c in controls}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ControlCatalog):
            return NotImplemented
        return (self.controls, self.dependencies) == (other.controls, other.dependencies)

    def __contains__(self, cid: ControlId) -> bool:
        return cid in self._by_id

    def __len__(self) -> int:
        return len(self.controls)

    def get(self, cid: ControlId) -> Control:
        try:
            return self._by_id[cid]
        except KeyError:
            raise ValidationError(f"unknown control id {cid}") from None

    def control_ids(self) -> tuple[ControlId, ...]:
        return tuple(c.id for c in self.controls)


class Finding(NamedTuple):
    """One dependency-validation problem: kind is a stable machine tag."""

    kind: str
    message: str


def load_catalog(document: Mapping) -> ControlCatalog:
    """Build a catalog from a parsed catalog document.

    The document shape is the catalog file format: a "controls" list of
    {id, title, section_name, objective_text} records and a "dependencies"
    list of {prerequisite, dependent} records. Controls are reordered by id,
    so loading is insensitive to input order. Raises ValidationError on
    duplicate ids, malformed records, or any dependency finding (unknown
    endpoint, self-edge, cycle).
    """
    try:
        raw_controls = document["controls"]
    except (KeyError, TypeError):
        raise ValidationError("catalog document lacks a 'controls' list") from None
    controls: list[Control] = []
    seen: set[ControlId] = set()
    for record in raw_controls:
        try:
            cid = parse_control_id(record["id"])
            control = Control(
                id=cid,
                title=str(record["title"]),
                section_name=str(record["section_name"]),
                objective_text=str(record["objective_text"]),
            )
        except (KeyError, TypeError):
            raise ValidationError(f"malformed control record: {record!r}") from None
        if cid in seen:
            raise ValidationError(f"duplicate control id {cid}")
        seen.add(cid)
        controls.append(control)
    pairs = []
    for record in document.get("dependencies", []):
        try:
            pairs.append(
                (parse_control_id(record["prerequisite"]), parse_control_id(record["dependent"]))
            )
        except (KeyError, TypeError):
            raise ValidationError(f"malformed dependency record: {record!r}") from None
    catalog = ControlCatalog(
        controls=tuple(sorted(controls, key=lambda c: c.id)),
        dependencies=DependencyGraph.from_pairs(pairs),
    )
    findings = validate_dependencies(catalog)
    if findings:
        raise ValidationError("; ".join(f.message for f in findings))
    return catalog


def validate_dependencies(catalog: ControlCatalog) -> tuple[Finding, ...]:
    """Check the dependency graph, returning zero findings iff it is sound.

    Reported kinds: "unknown-endpoint" (edge references a control not in the
    catalog), "self-edge", and "cycle" (one finding per cycle, listing it).
    """
    findings: list[Finding] = []
    usable: list[tuple[ControlId, ControlId]] = []
    for prereq, dep in catalog.dependencies.edges:
        missing = [cid for cid in (prereq, dep) if cid not in catalog]
        if missing:
            names = ", ".join(str(cid) for cid in missing)
            findings.append(
                Finding("unknown-endpoint", f"dependency ({prereq} -> {dep}) references unknown control {names}")
            )
            continue
        if prereq == dep:
            findings.append(Finding("self-edge", f"self-edge ({prereq} -> {dep})"))
            continue
        usable.append((prereq, dep))
    findings.extend(_cycle_findings(usable))
    return tuple(findings)


def _cycle_findings(edges: Sequence[tuple[ControlId, ControlId]]) -> list[Finding]:
    # Iterative DFS with an explicit path stack; each node joins at most one
    # reported cycle, so disjoint cycles each get their own finding.
    successors: dict[ControlId, list[ControlId]] = {}
    for prereq, dep in edges:
        successors.setdefault(prereq, []).append(dep)
    for dependents in successors.values():
        dependents.sort()
    findings: list[Finding] = []
    done: set[ControlId] = set()
    for start in sorted(successors):
        if start in done:
            continue
        path: list[ControlId] = []
        on_path: set[ControlId] = set()
        stack: list[tuple[ControlId, int]] = [(start, 0)]
        while stack:
            node, next_child = stack[-1]
            if next_child == 0:
                path.append(node)
                on_path.add(node)
            children = successors.get(node, [])
            if next_child < len(children):
                stack[-1] = (node, next_child + 1)
                child = children[next_child]
                if child in on_path:
                    cycle = path[path.index(child):] + [child]
                    findings.append(
                        Finding("cycle", "dependency cycle: " + " -> ".join(str(c) for c in cycle))
                    )
                    done.update(cycle)
                elif child not in done:
                    stack.append((child, 0))
            else:
                stack.pop()
                path.pop()
                on_path.discard(node)
                done.add(node)
    return findings


def topological_order(catalog: ControlCatalog) -> tuple[ControlId, ...]:
    """Deterministic topological order over all controls.

    Prerequisites come before their dependents; among controls whose relative
    order the graph leaves free, ControlId ordering breaks the tie, so equal
    catalogs always produce the identical sequence.
    """
    indegree: dict[ControlId, int] = {cid: 0 for cid in catalog.control_ids()}
    successors: dict[ControlId, list[ControlId]] = {cid: [] for cid in indegree}
    for prereq, dep in catalog.dependencies.edges:
        if prereq not in indegree or dep not in indegree:
            raise ValidationError(f"dependency ({prereq} -> {dep}) references a control outside the catalog")
        successors[prereq].append(dep)
        indegree[dep] += 1
    ready = [cid for cid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[ControlId] = []
    while ready:
        cid = heapq.heappop(ready)
        order.append(cid)
        for dep in successors[cid]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                heapq.heappush(ready, dep)
    if len(order) != len(indegree):
        raise ValidationError("dependency graph contains a cycle")
    return tuple(order)
