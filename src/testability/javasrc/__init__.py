"""Java source parsing and static metric extraction.

``parse_corpus`` parses the files in worker processes. Each worker turns
each class into a ``ClassSummary`` that already holds the metrics of the
class alone (size, complexity, cohesion, encapsulation, Ce and the six
test-effort metrics). The parent indexes the summaries; ``extract_records``
adds the metrics that need the index (DIT, NOC, MFA, CBO, IC, CBM, Ca).
"""

from .corpus import (
    ClassEntry,
    ClassSummary,
    CorpusIndex,
    CyclicHierarchy,
    DuplicateClass,
)
from .extract import (
    CorpusParseError,
    PairingError,
    ParsedCorpus,
    build_corpus_index,
    compute_code_metrics,
    cyclomatic_complexity,
    extract_records,
    find_java_files,
    pair_classes,
    parse_corpus,
    read_pairing_file,
)
from .lexer import ParseError
from .parser import parse_source
from .tree import SyntaxTree, TypeDecl

__all__ = [
    "ClassEntry",
    "ClassSummary",
    "CorpusIndex",
    "CorpusParseError",
    "CyclicHierarchy",
    "DuplicateClass",
    "PairingError",
    "ParseError",
    "ParsedCorpus",
    "SyntaxTree",
    "TypeDecl",
    "build_corpus_index",
    "compute_code_metrics",
    "cyclomatic_complexity",
    "extract_records",
    "find_java_files",
    "pair_classes",
    "parse_corpus",
    "parse_source",
    "read_pairing_file",
]
