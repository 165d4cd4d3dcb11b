"""Security-control catalog: identifiers, control metadata, prerequisite graph.

The catalog is the closed universe that every other artifact (importance
database, stage plan, minimum-level database, measurement set) is validated
against. The bundled default covers the 114 ISO/IEC 27001 Annex A controls
in sections A.5 through A.18; any catalog document with the same shape is
accepted, so small synthetic catalogs work for testing and for organizations
tracking a reduced control set.

Prerequisite edges point from the prerequisite to the dependent control and
must form a directed acyclic graph. Loading rejects duplicate ids, unknown
edge endpoints, self-edges and cycles, naming every problem at once; a cycle
is found among the controls that topological_order's walk leaves behind.
Every reader of control ids shares check_distinct (no control named twice)
and check_known; every record that must agree with another on its controls
shares check_same and check_covered.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import AbstractSet, Collection, Container, Iterable, Mapping, NamedTuple, Sized

from .errors import ConsistencyError, ValidationError, field, reading

# Annex A sections run A.5 through A.18; anything outside is a typo.
SECTION_MIN = 5
SECTION_MAX = 18

# Entries in each of the two id caches (text -> ControlId, ControlId -> text):
# above the 4,000 controls of the largest catalog measured, so every id of a
# run is parsed once and printed once per process.
ID_CACHE_SIZE = 8192


class ControlId(NamedTuple):
    """Identifier of one control, ordered by (section, objective, control)."""

    section: int
    objective: int
    control: int

    @lru_cache(maxsize=ID_CACHE_SIZE)
    def __str__(self) -> str:
        return "A.%d.%d.%d" % self


# ControlId(...) without the named tuple's Python-level __new__.
_new_control_id = tuple.__new__


def parse_control_id(text: str) -> ControlId:
    """Parse "A.5.1.1" or the bare "5.1.1" spelling into a ControlId.

    Both spellings canonicalize to the "A."-prefixed form rendered by
    ControlId.__str__. Raises ValidationError naming the offending token for
    malformed input or for sections outside A.5 .. A.18. Parsed ids are
    cached by their stripped text, so texts equal once stripped share one
    ControlId.
    """
    if not isinstance(text, str):
        raise ValidationError(f"control id {text!r} is not a string")
    return _parse_stripped(text.strip())


# Keyed by the stripped text, so surrounding whitespace can neither make a
# cached key long nor use up entries; a failure raises and is not cached.
@lru_cache(maxsize=ID_CACHE_SIZE)
def _parse_stripped(raw: str) -> ControlId:
    if not raw:
        raise ValidationError("empty control id")
    parts = (raw[2:] if raw[:2] in ("A.", "a.") else raw).split(".")
    if len(parts) != 3:
        raise ValidationError(f"control id {raw!r} must have three numeric fields")
    section, objective, control = parts
    if not (
        section.isascii() and section.isdigit()
        and objective.isascii() and objective.isdigit()
        and control.isascii() and control.isdigit()
    ):
        part = next(part for part in parts if not (part.isascii() and part.isdigit()))
        raise ValidationError(f"control id {raw!r}: field {part!r} is not a number")
    try:
        numbers = (int(section), int(objective), int(control))
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        name, part = max(zip(("section", "objective", "control"), parts), key=lambda pair: len(pair[1]))
        raise ValidationError(f"control id {raw!r}: {name} field of {len(part)} digits is too long") from None
    if not SECTION_MIN <= numbers[0] <= SECTION_MAX:
        raise ValidationError(
            f"control id {raw!r}: section {numbers[0]} is outside A.{SECTION_MIN}..A.{SECTION_MAX}"
        )
    if numbers[1] < 1 or numbers[2] < 1:
        raise ValidationError(f"control id {raw!r}: objective and control must be >= 1")
    return _new_control_id(ControlId, numbers)


def check_distinct(parsed: Sized, texts: Collection[str], what: str) -> None:
    """Reject the control id `texts` of `what` when two of them name one control.

    `parsed` is what the reader built from `texts`, keyed by control, so it is
    shorter exactly when a control repeats; only then are the texts parsed
    again to find it. Runs inside the calling reader's `reading`.
    """
    if len(parsed) != len(texts):
        seen = set()
        for text in texts:
            cid = parse_control_id(text)
            if cid in seen:
                raise ValidationError(f"{what} names control {cid} twice")
            seen.add(cid)


def check_known(ids: Iterable[ControlId], known: Container[ControlId], what: str, source: str | None = None) -> None:
    """Reject the `ids` of `what` that are not in `known`, naming them all, sorted, and `source` if given."""
    unknown = sorted({cid for cid in ids if cid not in known})
    if unknown:
        raise ValidationError(
            f"{what} for controls not in the catalog: " + ", ".join(map(str, unknown)), source=source
        )


def check_same(first: AbstractSet[ControlId], second: AbstractSet[ControlId], what: str) -> None:
    """Reject two records that cover different controls: "<what>: " and the controls in one only, sorted."""
    if first != second:
        raise ConsistencyError(f"{what}: " + ", ".join(map(str, sorted(set(first) ^ set(second)))))


def check_covered(ids: AbstractSet[ControlId], covered: AbstractSet[ControlId], what: str) -> None:
    """Reject applicable controls `ids` that `covered` lacks, naming them all, sorted."""
    if not ids <= covered:
        missing = sorted(cid for cid in ids if cid not in covered)
        raise ConsistencyError(f"applicable controls without {what}: " + ", ".join(map(str, missing)))


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

    def control_ids(self) -> tuple[ControlId, ...]:
        return tuple(c.id for c in self.controls)


def load_catalog(document: Mapping, *, source: str = "catalog document") -> ControlCatalog:
    """Build a catalog from a parsed catalog document.

    The document shape is the catalog file format: a "controls" list of
    {id, title, section_name, objective_text} records and a "dependencies"
    list of {prerequisite, dependent} records. Controls are reordered by id,
    so loading is insensitive to input order. Raises ValidationError naming
    `source` on a control named twice (check_distinct), malformed records, or
    any dependency problem (unknown endpoint, self-edge, cycle).
    """
    with reading(source, "catalog document"):
        records = field(document, "controls", list)
        controls: dict[ControlId, Control] = {}
        for record in records:
            cid = parse_control_id(record["id"])
            controls[cid] = Control(
                id=cid,
                title=field(record, "title", str),
                section_name=field(record, "section_name", str),
                objective_text=field(record, "objective_text", str),
            )
        check_distinct(controls, [record["id"] for record in records], "'controls'")
        pairs = [
            (parse_control_id(record["prerequisite"]), parse_control_id(record["dependent"]))
            for record in field(document, "dependencies", list)
        ]
        catalog = ControlCatalog(
            controls=tuple(controls[cid] for cid in sorted(controls)),
            dependencies=DependencyGraph.from_pairs(pairs),
        )
        problems = _dependency_problems(catalog)
        if problems:
            raise ValidationError("; ".join(problems))
    return catalog


def _dependency_problems(catalog: ControlCatalog) -> list[str]:
    """load_catalog's check of the dependency graph: one message per problem, none iff it is sound.

    An edge may not reference a control outside the catalog, nor be a
    self-edge; each cycle is listed from its smallest id. The cycles reported
    share no control, and every cycle of the graph passes through one of them.
    """
    problems: list[str] = []
    usable: list[tuple[ControlId, ControlId]] = []
    for prereq, dep in catalog.dependencies.edges:
        missing = [cid for cid in (prereq, dep) if cid not in catalog]
        if missing:
            names = ", ".join(str(cid) for cid in missing)
            problems.append(f"dependency ({prereq} -> {dep}) references unknown control {names}")
        elif prereq == dep:
            problems.append(f"self-edge ({prereq} -> {dep})")
        else:
            usable.append((prereq, dep))
    # A node the topological walk leaves behind has a predecessor it also left behind, so
    # following predecessors from one closes a cycle. Dropping that cycle's nodes and walking
    # again finds the next, until none is left.
    nodes = {cid for edge in usable for cid in edge}
    while left := _walk(nodes, usable)[1]:
        predecessor: dict[ControlId, ControlId] = {}
        for prereq, dep in usable:  # sorted, so each node follows its smallest predecessor
            if prereq in left:
                predecessor.setdefault(dep, prereq)
        node, position = min(left), {}
        while node not in position:
            position[node] = len(position)
            node = predecessor[node]
        cycle = list(position)[position[node]:][::-1]
        first = cycle.index(min(cycle))
        cycle = cycle[first:] + cycle[:first]
        problems.append("dependency cycle: " + " -> ".join(map(str, cycle + cycle[:1])))
        nodes.difference_update(cycle)
        usable = [(prereq, dep) for prereq, dep in usable if prereq in nodes and dep in nodes]
    return problems


def topological_order(
    nodes: Iterable[ControlId], edges: Iterable[tuple[ControlId, ControlId]]
) -> tuple[ControlId, ...]:
    """Deterministic topological order of `nodes` under prerequisite -> dependent `edges`.

    Kahn's algorithm with a heap: prerequisites come before their dependents,
    and among nodes whose relative order the edges leave free, ControlId
    ordering breaks the tie, so equal inputs always produce the identical
    sequence. Every edge endpoint must be one of `nodes`; a cycle raises
    ConsistencyError.
    """
    order, left = _walk(nodes, edges)
    if left:
        raise ConsistencyError("dependency graph contains a cycle")
    return tuple(order)


def _walk(
    nodes: Iterable[ControlId], edges: Iterable[tuple[ControlId, ControlId]]
) -> tuple[list[ControlId], set[ControlId]]:
    """Kahn's walk with a heap: the nodes in topological order, and the set it leaves behind on cycles."""
    indegree: dict[ControlId, int] = dict.fromkeys(nodes, 0)
    successors: dict[ControlId, list[ControlId]] = {cid: [] for cid in indegree}
    for prereq, dep in edges:
        if prereq not in indegree or dep not in indegree:
            raise ValidationError(f"dependency ({prereq} -> {dep}) references a control outside the graph")
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
    return order, {cid for cid, deg in indegree.items() if deg}
