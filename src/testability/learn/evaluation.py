"""Stratified k-fold cross-validation and the five evaluation measures.

Out-of-fold discipline: every model (including the MLP's internal
standardization) is fit on the training split only; predictions for all
test folds are pooled before accuracy, class-weighted precision/recall/F,
and AUC are computed. Pooling rather than per-fold averaging is recorded
in the report so the choice stays auditable.

The k folds train in parallel worker processes, one per available CPU up
to k. Reports do not depend on the worker count or on which fold finishes
first: a fold's model depends only on the seed and the fold's rows, and
each fold's scores are written back to that fold's test rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset import FeatureMatrix
from ..forkpool import fork_pool
from .base import ModelKind, SingleClassInput
from .forest import ForestParams, RandomForestModel, train_random_forest
from .mlp import MLPModel, MLPParams, train_mlp
from .tree import DecisionTreeModel, TreeParams, train_decision_tree, value_counts

#: kind: (model class, params class, trainer)
LEARNERS = {
    ModelKind.DECISION_TREE: (DecisionTreeModel, TreeParams, train_decision_tree),
    ModelKind.RANDOM_FOREST: (RandomForestModel, ForestParams, train_random_forest),
    ModelKind.MULTILAYER_PERCEPTRON: (MLPModel, MLPParams, train_mlp),
}


class TooFewPerClass(ValueError):
    pass


class FoldTrainingError(RuntimeError):
    def __init__(self, fold: int, cause: Exception):
        # args stays (fold, cause) so that unpickling can call cls(*args)
        super().__init__(fold, cause)
        self.fold, self.cause = fold, cause

    def __str__(self) -> str:
        return f"training failed on fold {self.fold}: {self.cause}"


@dataclass(frozen=True)
class EvalReport:
    classifier: ModelKind
    accuracy: float
    precision: float
    recall: float
    f_measure: float
    auc: float
    folds: int
    seed: int
    tp: int
    fp: int
    tn: int
    fn: int
    averaging: str = "class-weighted"
    auc_pooling: str = "pooled out-of-fold scores"


def stratified_kfold(
    matrix: FeatureMatrix, k: int = 10, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified folds: per-class shuffle, then round-robin.

    Each class's indices are dealt across the k folds, so per-fold class
    counts differ from exact proportionality by at most one instance.
    """
    if k < 2:
        raise ValueError(f"k (cross-validation folds) must be at least 2, got {k}")
    y = matrix.y
    rng = np.random.default_rng(seed)
    fold_members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size < k:
            raise TooFewPerClass(f"class {cls} has {idx.size} rows, need >= {k}")
        rng.shuffle(idx)
        for f in range(k):
            fold_members[f].append(idx[f::k])
    folds = []
    all_rows = np.arange(y.size)
    for f in range(k):
        test = np.sort(np.concatenate(fold_members[f]))
        train = np.setdiff1d(all_rows, test, assume_unique=True)
        folds.append((train, test))
    return folds


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve by the trapezoidal rule.

    Sweeping thresholds over the unique scores and joining the resulting
    (FPR, TPR) points with trapezoids makes ties count half, so the result
    equals the probability-of-correct-ranking statistic.
    """
    _, counts = value_counts(scores, labels)
    n_neg, n_pos = counts.sum(axis=0).tolist()
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput("AUC needs both classes present")
    # one threshold per distinct score, from the highest down
    fp, tp = np.cumsum(counts[::-1], axis=0).T
    tpr = np.concatenate(([0.0], tp / n_pos))
    fpr = np.concatenate(([0.0], fp / n_neg))
    return float(np.trapezoid(tpr, fpr))


def train_model(matrix: FeatureMatrix, kind: ModelKind, params=None, seed: int = 0):
    """Train one classifier of ``kind``; ``params`` None means its defaults."""
    _, params_class, train = LEARNERS[kind]
    return train(matrix, params or params_class(), seed=seed)


def _fold_scores(matrix: FeatureMatrix, kind: ModelKind, params, seed: int,
                 train_idx: np.ndarray, test_idx: np.ndarray) -> np.ndarray:
    """Train on one fold's training rows and score its test rows (runs in a worker)."""
    sub = FeatureMatrix(
        feature_ids=matrix.feature_ids,
        X=matrix.X[train_idx],
        y=matrix.y[train_idx],
    )
    return train_model(sub, kind, params, seed=seed).predict_scores(matrix.X[test_idx])


def evaluate(
    matrix: FeatureMatrix,
    kind: ModelKind,
    params=None,
    k: int = 10,
    seed: int = 0,
) -> EvalReport:
    """k-fold CV: train on each fold's complement, pool out-of-fold scores.

    Raises FoldTrainingError for the first fold, in fold order, whose
    training failed or whose worker process died.
    """
    folds = stratified_kfold(matrix, k=k, seed=seed)
    if isinstance(params, ForestParams):  # a bad setting is not a fold's failure
        params.candidates_per_split(len(matrix.feature_ids))
    scores = np.empty(matrix.n_rows, dtype=np.float64)
    with fork_pool(k) as pool:
        futures = [
            pool.submit(_fold_scores, matrix, kind, params, seed, train_idx, test_idx)
            for train_idx, test_idx in folds
        ]
        for fold_no, ((_, test_idx), future) in enumerate(zip(folds, futures)):
            try:
                scores[test_idx] = future.result()
            except Exception as exc:  # includes BrokenProcessPool when a worker dies
                raise FoldTrainingError(fold_no, exc) from exc
    return pooled_report(kind, matrix.y, scores, k, seed)


def pooled_report(kind: ModelKind, labels: np.ndarray, scores: np.ndarray,
                  k: int, seed: int) -> EvalReport:
    """The five measures and the confusion counts of pooled out-of-fold scores."""
    y = labels.astype(np.int8)
    predicted = (scores >= 0.5).astype(np.int8)
    tp = int(((predicted == 1) & (y == 1)).sum())
    fp = int(((predicted == 1) & (y == 0)).sum())
    tn = int(((predicted == 0) & (y == 0)).sum())
    fn = int(((predicted == 0) & (y == 1)).sum())
    n = y.size
    accuracy = (tp + tn) / n

    def prf(tp_c: int, fp_c: int, support: int) -> tuple[float, float, float]:
        precision = tp_c / (tp_c + fp_c) if tp_c + fp_c else 0.0
        recall = tp_c / support if support else 0.0
        f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return precision, recall, f

    p_eff, r_eff, f_eff = prf(tp, fp, tp + fn)
    p_non, r_non, f_non = prf(tn, fn, tn + fp)
    w_eff = (tp + fn) / n
    w_non = (tn + fp) / n
    return EvalReport(
        classifier=kind,
        accuracy=accuracy,
        precision=w_eff * p_eff + w_non * p_non,
        recall=w_eff * r_eff + w_non * r_non,
        f_measure=w_eff * f_eff + w_non * f_non,
        auc=auc(scores, y),
        folds=k,
        seed=seed,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )
