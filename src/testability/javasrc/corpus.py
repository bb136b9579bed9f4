"""Cross-file index: class lookup, superclass resolution, reference graph.

The index is built from ``ClassSummary`` records, one per top-level
class, not from syntax trees: a summary is what a worker process sends
back for each class it parsed, so it holds only what the index and the
index-derived metrics read, plus the metrics that need no index.

Resolution is name-based: a superclass or referenced type name resolves to
a corpus class when its qualified name matches, else when its simple name
does (same package preferred, then lexicographically smallest qualified
name). Everything unresolved is external. The index is order-independent:
re-indexing a permuted corpus yields identical relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..metrics import MetricId

Signature = tuple[str, int]  # (method name, arity), or (called name, argument count)


@dataclass(frozen=True)
class ClassSummary:
    """One top-level class as the index and its metrics read it."""

    name: str
    package: str
    path: str  # the source file
    superclass: str | None  # the extends name of a class
    type_refs: frozenset[str]  # every referenced type name, its own names too
    inheritable: frozenset[Signature]  # own methods: not nested, constructors or private
    signatures: frozenset[Signature]  # declared methods
    internal_calls: frozenset[Signature]  # calls with no receiver, or on this or super
    methods: tuple[tuple[Signature, bool], ...]  # per declared method: calls super?
    code: dict[MetricId, float]  # the code metrics that need no index
    test_effort: dict[MetricId, float]  # the six test-effort metrics

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.name}" if self.package else self.name


class DuplicateClass(ValueError):
    pass


class CyclicHierarchy(ValueError):
    pass


@dataclass
class ClassEntry:
    summary: ClassSummary
    parent: str | None = None  # resolved qualified name
    external_parent: str | None = None  # unresolved extends text
    children: list[str] = field(default_factory=list)
    references: frozenset[str] = frozenset()  # resolved corpus classes referenced
    referenced_by: frozenset[str] = frozenset()


class CorpusIndex:
    def __init__(self, entries: dict[str, ClassEntry]):
        self.entries = entries
        self._by_simple: dict[str, list[str]] = {}
        for qname, entry in entries.items():
            self._by_simple.setdefault(entry.summary.name, []).append(qname)
        for names in self._by_simple.values():
            names.sort()

    def __contains__(self, qualified_name: str) -> bool:
        return qualified_name in self.entries

    def __getitem__(self, qualified_name: str) -> ClassEntry:
        return self.entries[qualified_name]

    def class_names(self) -> list[str]:
        return sorted(self.entries)

    def resolve(self, name: str, package: str = "") -> str | None:
        """Resolve a type name text to a corpus class, or None (external)."""
        if name in self.entries:
            return name
        if "." in name:
            simple = name.rsplit(".", 1)[-1]
        else:
            simple = name
        if package:
            same_package = f"{package}.{simple}"
            if same_package in self.entries:
                return same_package
        candidates = self._by_simple.get(simple)
        return candidates[0] if candidates else None

    def ancestors(self, qualified_name: str) -> list[ClassEntry]:
        """Resolved ancestor chain, nearest first."""
        out: list[ClassEntry] = []
        current = self.entries[qualified_name].parent
        while current is not None:
            entry = self.entries[current]
            out.append(entry)
            current = entry.parent
        return out


def index_classes(summaries: Iterable[ClassSummary]) -> CorpusIndex:
    """Index the classes in corpus order; DuplicateClass names both files
    of a class declared twice, CyclicHierarchy the classes of a cycle."""
    entries: dict[str, ClassEntry] = {}
    for summary in summaries:
        qname = summary.qualified_name
        if qname in entries:
            raise DuplicateClass(
                f"{qname} declared in both {entries[qname].summary.path} and {summary.path}"
            )
        entries[qname] = ClassEntry(summary=summary)
    index = CorpusIndex(entries)

    for qname in index.class_names():
        entry = entries[qname]
        extends = entry.summary.superclass
        if extends is not None:
            resolved = index.resolve(extends, entry.summary.package)
            if resolved is not None and resolved != qname:
                entry.parent = resolved
            else:
                entry.external_parent = extends

    _check_acyclic(index)

    for qname in index.class_names():
        parent = entries[qname].parent
        if parent is not None:
            entries[parent].children.append(qname)
    for entry in entries.values():
        entry.children.sort()

    for qname in index.class_names():
        entry = entries[qname]
        referenced: set[str] = set()
        for name in entry.summary.type_refs:
            resolved = index.resolve(name, entry.summary.package)
            if resolved is not None and resolved != qname:
                referenced.add(resolved)
        entry.references = frozenset(referenced)
    incoming: dict[str, set[str]] = {q: set() for q in entries}
    for qname, entry in entries.items():
        for target in entry.references:
            incoming[target].add(qname)
    for qname, sources in incoming.items():
        entries[qname].referenced_by = frozenset(sources)
    return index


def _check_acyclic(index: CorpusIndex) -> None:
    state: dict[str, int] = {}  # 1 in progress, 2 done
    for start in index.class_names():
        if state.get(start):
            continue
        path: list[str] = []
        current: str | None = start
        while current is not None and not state.get(current):
            state[current] = 1
            path.append(current)
            current = index[current].parent
        if current is not None and state[current] == 1:
            cycle = path[path.index(current):] + [current]
            raise CyclicHierarchy(" -> ".join(cycle))
        for name in path:
            state[name] = 2
