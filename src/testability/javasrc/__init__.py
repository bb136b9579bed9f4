"""Java source parsing and static metric extraction."""

from .corpus import (
    ClassEntry,
    CorpusIndex,
    CyclicHierarchy,
    DuplicateClass,
    build_corpus_index,
)
from .extract import (
    CorpusParseError,
    PairingError,
    ParsedCorpus,
    compute_code_metrics,
    compute_test_effort_metrics,
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
    "compute_test_effort_metrics",
    "cyclomatic_complexity",
    "extract_records",
    "find_java_files",
    "pair_classes",
    "parse_corpus",
    "parse_source",
    "read_pairing_file",
]
