import importlib
import os
import sys

import pytest

from testability.javasrc import build_corpus_index, parse_corpus

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CORPUS_DIR = os.path.join(FIXTURES, "corpus")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")


def import_bench(name):
    """A module of the benchmark in bench/, whose modules import each other by name."""
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)

#: environment variable pointing at the published dataset CSV, when available
DATASET_ENV = "TESTABILITY_DATASET"


@pytest.fixture(scope="session")
def corpus():
    return parse_corpus([CORPUS_DIR])


@pytest.fixture(scope="session")
def corpus_index(corpus):
    return corpus.index


def published_dataset_path():
    return os.environ.get(DATASET_ENV)


requires_published_dataset = pytest.mark.skipif(
    published_dataset_path() is None,
    reason=f"published dataset not supplied (set {DATASET_ENV})",
)
