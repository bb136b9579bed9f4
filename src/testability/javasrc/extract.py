"""The 28 code metrics and 6 test-effort metrics over parsed Java classes.

Conventions (all metrics are reconstructions from the canonical CK/QMOOD
definitions; the parser is name-based, so every rule below is purely
syntactic and deterministic):

  - one class is a top-level type. The members, events and names of its
    nested, local and anonymous classes and of its enum constant bodies
    fold into it, and so do the events of its enum constants' arguments.
    Interface and annotation members are implicitly public, and their
    fields static.
  - "declared methods" excludes constructors.
  - a call is internal (NMCI) when its receiver is absent or ``this`` and
    its (simple name, arity) matches a declared method.
  - Ce counts distinct simple type names from field/parameter/return
    types, local declarations, object creations, and casts; primitives and
    the names of the class and its named nested and local classes never
    count. A lambda's body adds no events, but a class declared inside
    one still adds its declared types.
  - inherited methods (MFA/IC/CBM) are counted over corpus-resolved
    ancestors only, skipping their private methods and constructors.

Extraction runs in two steps. Worker processes parse the files and turn
each class into a ``ClassSummary`` (``summarize``), which carries every
metric of the class alone as one float array in ``SUMMARY_METRICS``
order: size (all but NBI), complexity, cohesion, encapsulation, Ce and
the six test-effort metrics, of which T-LOC, T-NMC, T-WMC and T-AMC are
the class's LOC, NMC, WMC and AMC. Its name sets travel as tuples of
interned names. The parent indexes the summaries in file order; the
index counts each class's children and coupled classes once, so NOC, CBO
and Ca are read from it. ``compute_code_metrics`` adds those and the other
metrics that read other classes through the index, DIT, MFA, IC and CBM,
building frozensets of signatures only where it compares them. NBI comes
from the class files.
"""

from __future__ import annotations

import os
import sys
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset import RawDataset
from ..forkpool import fork_pool
from ..metrics import INDEPENDENT_VARIABLES, TEST_EFFORT_METRICS, MetricId
from .corpus import (
    OWN_CODE_METRICS,
    SUMMARY_METRICS,
    ClassEntry,
    ClassSummary,
    CorpusIndex,
    Signature,
    index_classes,
)
from .lexer import ParseError
from .parser import parse_source
from .tree import MethodDecl, SyntaxTree, TypeDecl


@dataclass(frozen=True)
class ClassFacts:
    """What several metric groups read of one class, built once per class."""

    decl: TypeDecl
    methods: list[MethodDecl]  # declared methods
    signatures: frozenset[Signature]  # of ``methods``


def class_facts(decl: TypeDecl) -> ClassFacts:
    methods = [m for m in decl.methods if not m.is_constructor]
    return ClassFacts(decl, methods, frozenset(m.signature for m in methods))


def cyclomatic_complexity(method: MethodDecl) -> int:
    """1 + decision points in the body; bodiless methods have CC 1."""
    return 1 + len(method.events.decisions)


def _size_metrics(facts: ClassFacts, tree: SyntaxTree) -> dict[MetricId, float]:
    decl = facts.decl
    start, end = decl.line_span
    loccom_lines: set[int] = set()
    for span in tree.comments:
        lo = max(span.start_line, start)
        hi = min(span.end_line, end)
        loccom_lines.update(range(lo, hi + 1))
    calls = decl.calls
    nmci = sum(
        1
        for call in calls
        if call.receiver in (None, "this") and (call.name, call.argc) in facts.signatures
    )
    nmc = len(calls)
    return {
        MetricId.LOC: sum(1 for line in tree.code_lines if start <= line <= end),
        MetricId.LOCCOM: len(loccom_lines),
        MetricId.NPM: sum(1 for m in facts.methods if "public" in m.modifiers),
        MetricId.NSTAM: sum(1 for m in facts.methods if "static" in m.modifiers),
        MetricId.NOF: len(decl.fields),
        MetricId.NSTAF: sum(1 for f in decl.fields if "static" in f.modifiers),
        MetricId.NMC: nmc,
        MetricId.NMCI: nmci,
        MetricId.NMCE: nmc - nmci,
    }


def _complexity_metrics(facts: ClassFacts) -> dict[MetricId, float]:
    methods = facts.methods
    wmc = sum(cyclomatic_complexity(m) for m in methods)
    amc = wmc / len(methods) if methods else 0.0
    invoked = {
        (c.name, c.argc)
        for c in facts.decl.calls
        if (c.name, c.argc) not in facts.signatures
    }
    rfc = len(methods) + len(invoked)
    return {MetricId.WMC: wmc, MetricId.AMC: amc, MetricId.RFC: rfc}


def _cohesion_metrics(facts: ClassFacts) -> dict[MetricId, float]:
    methods = facts.methods
    field_names = {f.name for f in facts.decl.fields}
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


def _encapsulation_metrics(facts: ClassFacts) -> dict[MetricId, float]:
    fields = facts.decl.fields
    hidden = sum(
        1 for f in fields if "private" in f.modifiers or "protected" in f.modifiers
    )
    dam = hidden / len(fields) if fields else 1.0
    nprif = sum(1 for f in fields if "private" in f.modifiers)
    nprim = sum(1 for m in facts.methods if "private" in m.modifiers)
    nprom = sum(1 for m in facts.methods if "protected" in m.modifiers)
    return {
        MetricId.DAM: dam,
        MetricId.NPRIF: nprif,
        MetricId.NPRIM: nprim,
        MetricId.NPROM: nprom,
    }


def _test_effort_metrics(
    facts: ClassFacts, code: dict[MetricId, float]
) -> dict[MetricId, float]:
    """T-LOC, T-NMC, T-WMC and T-AMC are the class's LOC, NMC, WMC and AMC,
    taken from its ``code`` metrics."""
    t_not = sum(
        1
        for m in facts.methods
        if "Test" in m.annotations or m.name.startswith("test")
    )
    t_noa = sum(
        1
        for c in facts.decl.calls
        if c.name.startswith("assert") or c.name == "fail"
    )
    return {
        MetricId.T_LOC: code[MetricId.LOC],
        MetricId.T_NOT: t_not,
        MetricId.T_NOA: t_noa,
        MetricId.T_NMC: code[MetricId.NMC],
        MetricId.T_WMC: code[MetricId.WMC],
        MetricId.T_AMC: code[MetricId.AMC],
    }


def _distinct(items) -> tuple:
    """The items once each, in first-seen order."""
    return tuple(dict.fromkeys(items))


def _summary(decl: TypeDecl, tree: SyntaxTree) -> ClassSummary:
    facts = class_facts(decl)
    metrics: dict[MetricId, float] = {}
    metrics.update(_size_metrics(facts, tree))
    metrics.update(_complexity_metrics(facts))
    metrics[MetricId.CE] = len(set(decl.type_refs) - decl.own_names)
    metrics.update(_cohesion_metrics(facts))
    metrics.update(_encapsulation_metrics(facts))
    metrics.update(_test_effort_metrics(facts, metrics))

    shared: dict[Signature, Signature] = {}  # one tuple per signature, its name interned

    def signature(name: str, arity: int) -> Signature:
        found = shared.get((name, arity))
        if found is None:
            found = shared[name, arity] = (sys.intern(name), arity)
        return found

    return ClassSummary(
        name=sys.intern(decl.name),
        package=sys.intern(decl.package),
        path=tree.path,
        superclass=decl.superclass and sys.intern(decl.superclass),
        type_refs=_distinct(map(sys.intern, decl.type_refs)),
        inheritable=_distinct(
            signature(m.name, m.arity)
            for m in decl.methods
            if not (m.nested or m.is_constructor or "private" in m.modifiers)
        ),
        internal_calls=_distinct(
            signature(c.name, c.argc)
            for c in decl.calls
            if c.receiver in (None, "this", "super")
        ),
        methods=tuple(
            (signature(m.name, m.arity), any(c.receiver == "super" for c in m.events.calls))
            for m in facts.methods
        ),
        values=array("d", [metrics[m] for m in SUMMARY_METRICS]),
    )


def summarize(tree: SyntaxTree) -> list[ClassSummary]:
    """The summary of each class of one parsed file, in declaration order."""
    return [_summary(decl, tree) for decl in tree.types]


# ---- metrics that read the index --------------------------------------------


def _inheritance_metrics(
    entry: ClassEntry,
    chain: list[ClassEntry],
    ancestors: list[frozenset[Signature]],
    own: frozenset[Signature],
) -> dict[MetricId, float]:
    depth = len(chain)
    external = (chain[-1] if chain else entry).external_parent
    if external is not None and external.rsplit(".", 1)[-1] != "Object":
        depth += 1
    inherited: set[Signature] = set().union(*ancestors)
    inherited -= own
    denom = len(inherited) + len(entry.summary.methods)
    mfa = len(inherited) / denom if denom and ancestors else 0.0
    return {MetricId.DIT: depth, MetricId.NOC: entry.noc, MetricId.MFA: mfa}


def _coupling_metrics(
    entry: ClassEntry, ancestors: list[frozenset[Signature]], own: frozenset[Signature]
) -> dict[MetricId, float]:
    ic = 0
    for signatures in ancestors:
        overrides = bool(own & signatures)
        calls_inherited = any(
            sig in signatures and sig not in own for sig in entry.summary.internal_calls
        )
        if overrides or calls_inherited:
            ic += 1
    ancestor_union: set[Signature] = set().union(*ancestors)
    cbm = sum(
        1
        for signature, calls_super in entry.summary.methods
        if signature in ancestor_union or calls_super
    )
    return {
        MetricId.CBO: entry.cbo,
        MetricId.IC: ic,
        MetricId.CBM: cbm,
        MetricId.CA: entry.ca,
    }


def compute_code_metrics(index: CorpusIndex, qualified_name: str) -> dict[MetricId, float]:
    """All source-derived code metrics (everything in Table-order but NBI):
    the class's own from its summary, and those that read the index."""
    entry = index[qualified_name]
    chain = index.ancestors(qualified_name)
    # per resolved ancestor: its own non-private, non-constructor signatures
    ancestors = [frozenset(a.summary.inheritable) for a in chain]
    own = frozenset(signature for signature, _ in entry.summary.methods)
    metrics = dict(zip(OWN_CODE_METRICS, entry.summary.values))
    metrics.update(_inheritance_metrics(entry, chain, ancestors, own))
    metrics.update(_coupling_metrics(entry, ancestors, own))
    return metrics


def build_corpus_index(trees: list[SyntaxTree]) -> CorpusIndex:
    """Index already parsed trees, by way of their summaries, in tree order."""
    return index_classes(summary for tree in trees for summary in summarize(tree))


# ---- corpus extraction ------------------------------------------------------


@dataclass(frozen=True)
class ParsedCorpus:
    """An indexed corpus. ``trees`` is for a caller that parsed the files
    itself; ``parse_corpus`` keeps only the summaries, in the index."""

    index: CorpusIndex
    trees: Sequence[SyntaxTree] = ()


class CorpusParseError(Exception):
    """Source roots that do not exist and source files that could not be
    read or parsed, one message per path."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        super().__init__(f"{len(failures)} source path(s) failed to parse")


class PairingError(ValueError):
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


def _bad_root(root: str) -> str | None:
    if not os.path.exists(root):
        return f"{root}: no such file or directory"
    if not (os.path.isdir(root) or root.endswith(".java")):
        return f"{root}: not a directory or .java file"
    return None


def summarize_files(paths: list[str]) -> list[list[ClassSummary] | str]:
    """Per file, in order: the summaries of its classes, or the message that
    says why it could not be read, decoded or parsed. Runs in a worker."""
    out: list[list[ClassSummary] | str] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                out.append(summarize(parse_source(handle.read(), path)))
        except (OSError, ParseError) as exc:
            out.append(str(exc))
        except (UnicodeDecodeError, RecursionError) as exc:  # bad encoding, deep nesting
            out.append(f"{path}: cannot parse: {exc}")
    return out


#: Java files in one worker job. Jobs are small enough to spread a corpus
#: evenly over the workers, and large enough that sending them costs little.
FILES_PER_JOB = 50


def parse_corpus(roots: list[str], pool=None) -> ParsedCorpus:
    """Parse every Java file under ``roots`` in worker processes (in
    ``pool``, else in a pool of its own) and index their classes.

    CorpusParseError lists every root that does not exist or is a file but
    not a .java file, and every file that cannot be read, decoded or
    parsed, by path and in file order."""
    failures = [message for message in map(_bad_root, roots) if message]
    files = find_java_files(roots)
    jobs = [files[i:i + FILES_PER_JOB] for i in range(0, len(files), FILES_PER_JOB)]
    summaries: list[ClassSummary] = []
    with nullcontext(pool) if pool is not None else fork_pool(len(jobs)) as pool:
        futures = [pool.submit(summarize_files, job) for job in jobs]
        for future in futures:
            for result in future.result():
                if isinstance(result, str):
                    failures.append(result)
                else:
                    summaries.extend(result)
    if failures:
        raise CorpusParseError(failures)
    return ParsedCorpus(index=index_classes(summaries))


def read_pairing_file(path: str) -> list[tuple[str, str]]:
    """One pair per line: production-class-id, test-class-id, each pair once.
    A UTF-8 byte-order mark before the first line is dropped."""
    first_line: dict[tuple[str, str], int] = {}  # pair -> the line that gives it
    with open(path, "r", encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2 or not all(parts):
                raise PairingError(f"{path}:{line_no}: expected 'production,test'")
            pair = (parts[0], parts[1])
            if pair in first_line:
                raise PairingError(
                    f"{path}:{line_no}: repeats line {first_line[pair]} ({pair[0]}, {pair[1]})")
            first_line[pair] = line_no
    return list(first_line)


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
        summary = index[qname].summary
        test = index.resolve(f"{summary.name}Test", summary.package)
        if test is None:
            test = index.resolve(f"Test{summary.name}", summary.package)
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
        metrics = compute_code_metrics(corpus.index, prod)
        if nbi_by_class is not None:
            metrics[MetricId.NBI] = nbi_by_class[prod]
        test_effort = corpus.index[test].summary.values[len(OWN_CODE_METRICS):]
        metrics.update(zip(TEST_EFFORT_METRICS, test_effort))
        rows.append([metrics[m] for m in columns])
    values = np.array(rows, dtype=np.float64).reshape(len(pairs), len(columns))
    return RawDataset([p for p, _ in pairs], [t for _, t in pairs], columns, values)
