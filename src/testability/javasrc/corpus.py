"""Cross-file index: class lookup, superclass resolution, coupling counts.

The index is built from ``ClassSummary`` records, one per top-level
class, not from syntax trees: a summary is what a worker process sends
back for each class it parsed, so it holds only what the index and the
index-derived metrics read, plus the metrics that need no index.

A summary is kept small, because the parent holds one for every class of
the corpus and unpickles them all. It holds no dict and no set: its 26
metric values are one ``array('d')`` in ``SUMMARY_METRICS`` order, and
its name sets are de-duplicated tuples in first-seen order. Its names are
interned, and each distinct (name, arity) tuple of a class is one object
that its signature tuples and ``methods`` share, so pickle writes each
once. A reader builds a frozenset where it runs set algebra.

The index keeps, per class, only what the metrics read of the class graph:
its resolved parent, and three counts: its children (NOC), the classes it
references or is referenced by (CBO), and those that reference it (Ca).
The reference sets behind the counts live only while ``index_classes``
runs.

Resolution is name-based: a superclass or referenced type name resolves to
a corpus class when its qualified name matches, else when its simple name
does (same package preferred, then lexicographically smallest qualified
name). Everything unresolved is external. The index is order-independent:
re-indexing a permuted corpus yields identical relations.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

from ..metrics import TEST_EFFORT_METRICS, MetricId

Signature = tuple[str, int]  # (method name, arity), or (called name, argument count)

#: The code metrics of a class that need no index, in canonical column order.
OWN_CODE_METRICS: tuple[MetricId, ...] = (
    MetricId.LOC, MetricId.LOCCOM, MetricId.NPM, MetricId.NSTAM, MetricId.NOF,
    MetricId.NSTAF, MetricId.NMC, MetricId.NMCI, MetricId.NMCE,
    MetricId.WMC, MetricId.AMC, MetricId.RFC,
    MetricId.CE,
    MetricId.LCOM, MetricId.LCOM3, MetricId.CAM,
    MetricId.DAM, MetricId.NPRIF, MetricId.NPRIM, MetricId.NPROM,
)

#: The order of ``ClassSummary.values``: the own code metrics, then the six
#: test-effort metrics.
SUMMARY_METRICS: tuple[MetricId, ...] = OWN_CODE_METRICS + TEST_EFFORT_METRICS


@dataclass(frozen=True)
class ClassSummary:
    """One top-level class as the index and its metrics read it."""

    name: str
    package: str
    path: str  # the source file
    superclass: str | None  # the extends name of a class
    type_refs: tuple[str, ...]  # every referenced type name, its own names too
    inheritable: tuple[Signature, ...]  # own methods: not nested, constructors or private
    internal_calls: tuple[Signature, ...]  # calls with no receiver, or on this or super
    methods: tuple[tuple[Signature, bool], ...]  # per declared method: calls super?
    values: array  # array('d') of the SUMMARY_METRICS, in that order

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
    noc: int = 0  # classes whose resolved parent it is
    cbo: int = 0  # other corpus classes it references or is referenced by
    ca: int = 0  # other corpus classes that reference it


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

    coupled: dict[str, set[str]] = {qname: set() for qname in entries}
    for qname, entry in entries.items():
        if entry.parent is not None:
            entries[entry.parent].noc += 1
        package = entry.summary.package
        referenced = {index.resolve(name, package) for name in entry.summary.type_refs}
        for target in referenced - {None, qname}:
            entries[target].ca += 1
            coupled[qname].add(target)
            coupled[target].add(qname)
    for qname, entry in entries.items():
        entry.cbo = len(coupled[qname])
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
