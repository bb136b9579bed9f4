"""Classifiers for binary test-effectiveness prediction, plus CV evaluation."""

from __future__ import annotations

from .base import (
    DimensionMismatch,
    ModelKind,
    NonFiniteLoss,
    NonFiniteScale,
    SingleClassInput,
)
from .evaluation import (
    EvalReport,
    FoldTrainingError,
    TooFewPerClass,
    auc,
    cross_validate,
    evaluate,
    stratified_kfold,
    train_model,
)
from .forest import ForestParams, RandomForestModel, train_random_forest
from .mlp import MLPModel, MLPParams, train_mlp
from .serialize import TrainedModel, dump_model, load_model
from .tree import DecisionTreeModel, TreeParams, train_decision_tree


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
    "NonFiniteScale",
    "RandomForestModel",
    "SingleClassInput",
    "TooFewPerClass",
    "TrainedModel",
    "TreeParams",
    "auc",
    "cross_validate",
    "dump_model",
    "evaluate",
    "load_model",
    "stratified_kfold",
    "train_decision_tree",
    "train_mlp",
    "train_model",
    "train_random_forest",
]
