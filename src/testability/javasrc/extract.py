"""The 28 code metrics and 6 test-effort metrics over parsed Java classes.

Conventions (all metrics are reconstructions from the canonical CK/QMOOD
definitions; the parser is name-based, so every rule below is purely
syntactic and deterministic):

  - "declared methods" excludes constructors; nested and anonymous class
    members fold into the enclosing top-level class.
  - a call is internal (NMCI) when its receiver is absent or ``this`` and
    its (simple name, arity) matches a declared method.
  - Ce counts distinct simple type names from field/parameter/return
    types, local declarations, object creations, and casts; primitives and
    the class's own (and folded nested) names never count.
  - inherited methods (MFA/IC/CBM) are counted over corpus-resolved
    ancestors only, skipping their private methods and constructors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..dataset import RawDataset
from ..metrics import INDEPENDENT_VARIABLES, MetricId
from .corpus import CorpusIndex, build_corpus_index
from .lexer import PRIMITIVE_TYPES, ParseError
from .parser import parse_source
from .tree import EventSink, MethodDecl, SyntaxTree, TypeDecl


def _declared_methods(decl: TypeDecl) -> list[MethodDecl]:
    return [m for m in decl.all_methods() if not m.is_constructor]


def _is_public(method: MethodDecl, owner_kind: str) -> bool:
    # interface and annotation members are implicitly public
    return "public" in method.modifiers or owner_kind in ("interface", "annotation")


def cyclomatic_complexity(method: MethodDecl) -> int:
    """1 + decision points in the body; bodiless methods have CC 1."""
    return 1 + len(method.events.decisions)


def _loc(decl: TypeDecl, tree: SyntaxTree) -> int:
    start, end = decl.line_span
    return sum(1 for line in tree.code_lines if start <= line <= end)


def _weighted_methods(methods: list[MethodDecl]) -> tuple[int, float]:
    """WMC and AMC: the summed and the mean cyclomatic complexity."""
    wmc = sum(cyclomatic_complexity(m) for m in methods)
    return wmc, wmc / len(methods) if methods else 0.0


def compute_size_metrics(decl: TypeDecl, tree: SyntaxTree) -> dict[MetricId, float]:
    start, end = decl.line_span
    loccom_lines: set[int] = set()
    for span in tree.comments:
        lo = max(span.start_line, start)
        hi = min(span.end_line, end)
        loccom_lines.update(range(lo, hi + 1))
    npm = nstam = nstaf = nof = 0
    for owner in decl._flatten():
        for m in owner.methods:
            if m.is_constructor:
                continue
            if _is_public(m, owner.kind):
                npm += 1
            if "static" in m.modifiers:
                nstam += 1
        nof += len(owner.fields)
        for f in owner.fields:
            if "static" in f.modifiers or owner.kind in ("interface", "annotation"):
                nstaf += 1
    events = decl.all_events()
    signatures = {m.signature for m in _declared_methods(decl)}
    nmci = sum(
        1
        for call in events.calls
        if call.receiver in (None, "this") and (call.name, call.argc) in signatures
    )
    nmc = len(events.calls)
    return {
        MetricId.LOC: _loc(decl, tree),
        MetricId.LOCCOM: len(loccom_lines),
        MetricId.NPM: npm,
        MetricId.NSTAM: nstam,
        MetricId.NOF: nof,
        MetricId.NSTAF: nstaf,
        MetricId.NMC: nmc,
        MetricId.NMCI: nmci,
        MetricId.NMCE: nmc - nmci,
    }


def compute_complexity_metrics(decl: TypeDecl) -> dict[MetricId, float]:
    methods = _declared_methods(decl)
    wmc, amc = _weighted_methods(methods)
    signatures = {m.signature for m in methods}
    invoked = {
        (c.name, c.argc)
        for c in decl.all_events().calls
        if (c.name, c.argc) not in signatures
    }
    rfc = len(methods) + len(invoked)
    return {MetricId.WMC: wmc, MetricId.AMC: amc, MetricId.RFC: rfc}


def _ancestor_signatures(index: CorpusIndex, qname: str) -> list[set[tuple[str, int]]]:
    """Per resolved ancestor: its own non-private, non-constructor signatures."""
    out = []
    for entry in index.ancestors(qname):
        out.append(
            {
                m.signature
                for m in entry.decl.methods
                if not m.is_constructor and "private" not in m.modifiers
            }
        )
    return out


def compute_inheritance_metrics(
    decl: TypeDecl, index: CorpusIndex
) -> dict[MetricId, float]:
    qname = decl.qualified_name
    entry = index[qname]
    depth = 0
    cursor = entry
    while cursor.parent is not None:
        depth += 1
        cursor = index[cursor.parent]
    external = cursor.external_parent
    if external is not None and external.rsplit(".", 1)[-1] != "Object":
        depth += 1
    noc = len(entry.children)
    methods = _declared_methods(decl)
    ancestors = _ancestor_signatures(index, qname)
    inherited: set[tuple[str, int]] = set().union(*ancestors)
    inherited -= {m.signature for m in methods}
    denom = len(inherited) + len(methods)
    mfa = len(inherited) / denom if denom and ancestors else 0.0
    return {MetricId.DIT: depth, MetricId.NOC: noc, MetricId.MFA: mfa}


def _referenced_type_names(decl: TypeDecl, events: EventSink) -> set[str]:
    own_names = {t.name for t in decl._flatten()}
    names = set(decl.declared_type_names()) | set(events.type_refs)
    return {
        n for n in names
        if n not in own_names and n not in PRIMITIVE_TYPES and n != "void"
    }


def compute_coupling_metrics(decl: TypeDecl, index: CorpusIndex) -> dict[MetricId, float]:
    qname = decl.qualified_name
    entry = index[qname]
    events = decl.all_events()
    ce = len(_referenced_type_names(decl, events))
    ca = len(entry.referenced_by)
    cbo = len(entry.references | entry.referenced_by)

    methods = _declared_methods(decl)
    own = {m.signature for m in methods}
    internal_style = {
        (c.name, c.argc) for c in events.calls if c.receiver in (None, "this", "super")
    }
    ancestors = _ancestor_signatures(index, qname)
    ic = 0
    for signatures in ancestors:
        overrides = bool(own & signatures)
        calls_inherited = any(
            sig in signatures and sig not in own for sig in internal_style
        )
        if overrides or calls_inherited:
            ic += 1
    ancestor_union: set[tuple[str, int]] = set().union(*ancestors)
    cbm = sum(
        1
        for m in methods
        if m.signature in ancestor_union
        or any(c.receiver == "super" for c in m.events.calls)
    )
    return {
        MetricId.CBO: cbo,
        MetricId.IC: ic,
        MetricId.CBM: cbm,
        MetricId.CA: ca,
        MetricId.CE: ce,
    }


def compute_cohesion_metrics(decl: TypeDecl) -> dict[MetricId, float]:
    methods = _declared_methods(decl)
    field_names = {f.name for f in decl.all_fields()}
    accessed = [
        {name for name in m.events.var_uses if name in field_names} for m in methods
    ]
    m_count = len(methods)
    p = q = 0
    for i in range(m_count):
        for j in range(i + 1, m_count):
            if accessed[i] & accessed[j]:
                q += 1
            else:
                p += 1
    lcom = max(0, p - q)

    a_count = len(field_names)
    if m_count < 2 or a_count == 0:
        lcom3 = 0.0
    else:
        mu_sum = sum(
            sum(1 for acc in accessed if fname in acc) for fname in field_names
        )
        lcom3 = (m_count - mu_sum / a_count) / (m_count - 1)

    param_sets = [set(m.param_types) for m in methods]
    union: set[str] = set().union(*param_sets) if param_sets else set()
    if m_count == 0 or not union:
        cam = 1.0
    else:
        cam = sum(len(s & union) for s in param_sets) / (m_count * len(union))
    return {MetricId.LCOM: lcom, MetricId.LCOM3: lcom3, MetricId.CAM: cam}


def compute_encapsulation_metrics(decl: TypeDecl) -> dict[MetricId, float]:
    fields = decl.all_fields()
    hidden = sum(
        1 for f in fields if "private" in f.modifiers or "protected" in f.modifiers
    )
    dam = hidden / len(fields) if fields else 1.0
    nprif = sum(1 for f in fields if "private" in f.modifiers)
    methods = _declared_methods(decl)
    nprim = sum(1 for m in methods if "private" in m.modifiers)
    nprom = sum(1 for m in methods if "protected" in m.modifiers)
    return {
        MetricId.DAM: dam,
        MetricId.NPRIF: nprif,
        MetricId.NPRIM: nprim,
        MetricId.NPROM: nprom,
    }


def compute_test_effort_metrics(decl: TypeDecl, tree: SyntaxTree) -> dict[MetricId, float]:
    methods = _declared_methods(decl)
    calls = decl.all_events().calls
    wmc, amc = _weighted_methods(methods)
    t_not = sum(
        1
        for m in methods
        if "Test" in m.annotations or m.name.startswith("test")
    )
    t_noa = sum(
        1
        for c in calls
        if c.name.startswith("assert") or c.name == "fail"
    )
    return {
        MetricId.T_LOC: _loc(decl, tree),
        MetricId.T_NOT: t_not,
        MetricId.T_NOA: t_noa,
        MetricId.T_NMC: len(calls),
        MetricId.T_WMC: wmc,
        MetricId.T_AMC: amc,
    }


def compute_code_metrics(
    decl: TypeDecl, tree: SyntaxTree, index: CorpusIndex
) -> dict[MetricId, float]:
    """All source-derived code metrics (everything in Table-order but NBI)."""
    metrics: dict[MetricId, float] = {}
    metrics.update(compute_size_metrics(decl, tree))
    metrics.update(compute_complexity_metrics(decl))
    metrics.update(compute_inheritance_metrics(decl, index))
    metrics.update(compute_coupling_metrics(decl, index))
    metrics.update(compute_cohesion_metrics(decl))
    metrics.update(compute_encapsulation_metrics(decl))
    return metrics


# ---- corpus extraction ------------------------------------------------------


@dataclass(frozen=True)
class ParsedCorpus:
    trees: list[SyntaxTree]
    index: CorpusIndex


class CorpusParseError(Exception):
    """Source files that could not be read or parsed, one message per file."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        super().__init__(f"{len(failures)} source file(s) failed to parse")


class PairingError(Exception):
    pass


def find_java_files(roots: list[str]) -> list[str]:
    files: list[str] = []
    for root in roots:
        if os.path.isfile(root) and root.endswith(".java"):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".java"):
                    files.append(os.path.join(dirpath, name))
    return files


def parse_corpus(roots: list[str]) -> ParsedCorpus:
    """Parse and index every Java file under ``roots``; CorpusParseError
    lists every file that cannot be read, decoded or parsed, by path."""
    trees = []
    failures = []
    for path in find_java_files(roots):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                trees.append(parse_source(handle.read(), path))
        except (OSError, ParseError) as exc:
            failures.append(str(exc))
        except (UnicodeDecodeError, RecursionError) as exc:  # bad encoding, deep nesting
            failures.append(f"{path}: cannot parse: {exc}")
    if failures:
        raise CorpusParseError(failures)
    return ParsedCorpus(trees=trees, index=build_corpus_index(trees))


def read_pairing_file(path: str) -> list[tuple[str, str]]:
    """One pair per line: production-class-id, test-class-id."""
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2 or not all(parts):
                raise PairingError(f"{path}:{line_no}: expected 'production,test'")
            pairs.append((parts[0], parts[1]))
    return pairs


def pair_classes(
    index: CorpusIndex, explicit: list[tuple[str, str]] | None = None
) -> list[tuple[str, str]]:
    """Pair production classes with test classes.

    With no explicit pairing file, the convention is <Name>Test or
    Test<Name>, same package preferred.
    """
    if explicit is not None:
        for prod, test in explicit:
            if prod not in index:
                raise PairingError(f"unknown production class {prod!r}")
            if test not in index:
                raise PairingError(f"unknown test class {test!r}")
        return list(explicit)
    pairs = []
    for qname in index.class_names():
        decl = index[qname].decl
        test = index.resolve(f"{decl.name}Test", decl.package)
        if test is None:
            test = index.resolve(f"Test{decl.name}", decl.package)
        if test is not None and test != qname:
            pairs.append((qname, test))
    return pairs


def extract_records(
    corpus: ParsedCorpus,
    pairs: list[tuple[str, str]],
    nbi_by_class: dict[str, int] | None = None,
) -> RawDataset:
    """One row per (production, test) pair, columns in INDEPENDENT_VARIABLES order.

    NBI joins in from compiled class files when supplied, and then every
    paired production class needs one; otherwise the NBI column is absent
    (source-only corpora must still work).
    """
    columns = [m for m in INDEPENDENT_VARIABLES
               if m is not MetricId.NBI or nbi_by_class is not None]
    if nbi_by_class is not None:
        missing = [name for name in dict.fromkeys(p for p, _ in pairs)
                   if name not in nbi_by_class]
        if missing:
            raise ValueError(f"no class file for: {', '.join(missing)}")
    rows = []
    for prod, test in pairs:
        prod_entry = corpus.index[prod]
        test_entry = corpus.index[test]
        metrics = compute_code_metrics(prod_entry.decl, prod_entry.unit, corpus.index)
        if nbi_by_class is not None:
            metrics[MetricId.NBI] = nbi_by_class[prod]
        metrics.update(compute_test_effort_metrics(test_entry.decl, test_entry.unit))
        rows.append([metrics[m] for m in columns])
    values = np.array(rows, dtype=np.float64).reshape(len(pairs), len(columns))
    return RawDataset([p for p, _ in pairs], [t for _, t in pairs], columns, values)
