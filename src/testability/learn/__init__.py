"""Classifiers for binary test-effectiveness prediction, plus CV evaluation."""

from __future__ import annotations

import numpy as np

from ..records import EffectivenessLabel
from .base import (
    DimensionMismatch,
    ModelKind,
    NonFiniteLoss,
    SingleClassInput,
    label_from_score,
)
from .evaluation import (
    EvalReport,
    FoldTrainingError,
    TooFewPerClass,
    auc,
    evaluate,
    stratified_kfold,
    train_model,
)
from .forest import ForestParams, RandomForestModel, train_random_forest
from .mlp import MLPModel, MLPParams, train_mlp
from .serialize import TrainedModel, dump_model, load_model
from .tree import DecisionTreeModel, TreeParams, train_decision_tree


def predict(model: TrainedModel, row) -> tuple[EffectivenessLabel, float]:
    """Label one feature row; Effective iff the model's score is >= 0.5."""
    scores = model.predict_scores(np.atleast_2d(np.asarray(row, dtype=np.float64)))
    score = float(scores[0])
    return label_from_score(score), score


__all__ = [
    "DecisionTreeModel",
    "DimensionMismatch",
    "EvalReport",
    "FoldTrainingError",
    "ForestParams",
    "MLPModel",
    "MLPParams",
    "ModelKind",
    "NonFiniteLoss",
    "RandomForestModel",
    "SingleClassInput",
    "TooFewPerClass",
    "TrainedModel",
    "TreeParams",
    "auc",
    "dump_model",
    "evaluate",
    "load_model",
    "predict",
    "stratified_kfold",
    "train_decision_tree",
    "train_mlp",
    "train_model",
    "train_random_forest",
]
