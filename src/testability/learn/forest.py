"""Random forest: gain-ratio trees over bootstrap samples, majority vote.

Each tree derives its own RNG from the master seed via spawned seed
sequences, draws its bootstrap rows and then its split candidates from it,
so tree i depends only on the seed, i and the data. The candidates of a
split are ``np.sort(rng.choice(d, k, replace=False))``, replayed ahead of
time from the tree's 32-bit stream (``tree.CandidateDraws``), so the draws
cost no numpy call per node and stay bit-identical to that call. The trees
grow in lockstep on one engine (``tree.grow_trees``): each round scores the
next node of every tree together. A tree's bootstrap is a set of row
indices into the training matrix, not a copy of its rows.

The model keeps each tree as flat node arrays (``tree.Tree``: feature,
threshold, left and right child, class counts, root at index 0);
``roots`` gives read-only ``TreeNode`` views of them. Prediction routes
every row through every tree at once (``tree.tree_scores``); a row's votes
are a count of 0/1 outcomes, so they do not depend on the order of the
trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..dataset import FeatureMatrix
from ..metrics import MetricId
from .base import ModelKind, check_two_classes, model_rows
from .tree import Tree, TreeNode, grow_trees, tree_scores


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
    kind: ClassVar[ModelKind] = ModelKind.RANDOM_FOREST
    feature_ids: tuple[MetricId, ...]
    seed: int
    params: ForestParams
    trees: list[Tree]

    @property
    def roots(self) -> list[TreeNode]:
        return [TreeNode(tree) for tree in self.trees]

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees voting Effective, per row."""
        X = model_rows(X, len(self.feature_ids))
        votes = np.count_nonzero(tree_scores(self.trees, X) >= 0.5, axis=0)
        return votes / len(self.trees)


def train_random_forest(
    matrix: FeatureMatrix,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> RandomForestModel:
    check_two_classes(matrix.y)
    n, d = matrix.X.shape
    fps = params.candidates_per_split(d)
    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(params.trees)]
    rows = [rng.integers(0, n, size=n) if params.bootstrap else np.arange(n) for rng in rngs]
    trees = grow_trees(matrix.X, matrix.y, rows, params.min_leaf, n_candidates=fps, rngs=rngs)
    return RandomForestModel(
        feature_ids=matrix.feature_ids,
        seed=seed,
        params=params,
        trees=trees,
    )
