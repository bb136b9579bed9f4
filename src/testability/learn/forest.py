"""Random forest: gain-ratio trees over bootstrap samples, majority vote.

Trees are grown one after another. Each derives its own RNG from the
master seed via spawned seed sequences, so tree i depends only on the
seed, i and the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..metrics import MetricId
from ..records import FeatureMatrix
from .base import ModelKind, check_row_width, check_two_classes
from .tree import TreeNode, grow_tree, tree_scores


@dataclass(frozen=True)
class ForestParams:
    trees: int = 100
    features_per_split: int | None = None  # default ceil(sqrt(d))
    min_leaf: int = 1
    bootstrap: bool = True  # test hook; disabling gives plain bagging-free trees

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError(f"trees must be at least 1, got {self.trees}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError(
                f"features_per_split must be at least 1 or auto, got {self.features_per_split}"
            )
        if self.min_leaf < 1:
            raise ValueError(f"forest_min_leaf must be at least 1, got {self.min_leaf}")

    def candidates_per_split(self, d: int) -> int:
        """Features sampled at each split out of d: the setting, or ceil(sqrt(d))."""
        fps = self.features_per_split or math.isqrt(d - 1) + 1
        if fps > d:
            raise ValueError(f"features_per_split must be at most the {d} features, got {fps}")
        return fps


@dataclass
class RandomForestModel:
    kind: ModelKind
    feature_ids: tuple[MetricId, ...]
    seed: int
    params: ForestParams
    roots: list[TreeNode]

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees voting Effective, per row."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        check_row_width(X, len(self.feature_ids))
        votes = np.zeros(X.shape[0], dtype=np.float64)
        for root in self.roots:
            votes += tree_scores(root, X) >= 0.5
        return votes / len(self.roots)


def train_random_forest(
    matrix: FeatureMatrix,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> RandomForestModel:
    check_two_classes(matrix.y)
    n, d = matrix.X.shape
    fps = params.candidates_per_split(d)
    roots: list[TreeNode] = []
    for seq in np.random.SeedSequence(seed).spawn(params.trees):
        rng = np.random.default_rng(seq)
        if params.bootstrap:
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        roots.append(
            grow_tree(
                matrix.X[idx],
                matrix.y[idx],
                min_leaf=params.min_leaf,
                max_depth=None,
                n_candidates=fps,
                rng=rng,
            )
        )
    return RandomForestModel(
        kind=ModelKind.RANDOM_FOREST,
        feature_ids=matrix.feature_ids,
        seed=seed,
        params=params,
        roots=roots,
    )
