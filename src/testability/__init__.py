"""Static OO metrics and mutation-score-based test effectiveness analysis.

The package has four layers:

  - extraction: a Java-subset parser computing 28 code metrics per class
    (``testability.javasrc``) and a JVM class file reader for bytecode
    instruction counts (``testability.classfile``);
  - dataset: CSV ingestion and quartile-based effectiveness labeling
    (``testability.dataset``);
  - analysis: tie-aware Spearman correlation (``testability.correlation``),
    three from-scratch classifiers with stratified cross-validation
    (``testability.learn``), and four feature-ranking algorithms
    (``testability.ranking``);
  - reporting: deterministic CSV/Markdown bundles and the ``testability``
    command-line interface (``testability.cli``).
"""

from .metrics import (
    ALL_METRICS,
    CODE_METRICS,
    INDEPENDENT_VARIABLES,
    TEST_EFFORT_METRICS,
    TEST_QUALITY_METRICS,
    DesignProperty,
    MetricId,
    metric_for_column,
)
from .dataset import FeatureMatrix, LabeledDataset, RawDataset

__version__ = "0.1.0"

__all__ = [
    "ALL_METRICS",
    "CODE_METRICS",
    "DesignProperty",
    "FeatureMatrix",
    "INDEPENDENT_VARIABLES",
    "LabeledDataset",
    "MetricId",
    "RawDataset",
    "TEST_EFFORT_METRICS",
    "TEST_QUALITY_METRICS",
    "__version__",
    "metric_for_column",
]
