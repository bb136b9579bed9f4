"""Shared learner types and errors."""

from __future__ import annotations

import enum

import numpy as np


class ModelKind(enum.Enum):
    DECISION_TREE = "DecisionTree"
    RANDOM_FOREST = "RandomForest"
    MULTILAYER_PERCEPTRON = "MultilayerPerceptron"


class SingleClassInput(ValueError):
    """Training data contains only one class."""


class DimensionMismatch(ValueError):
    pass


class NonFiniteLoss(RuntimeError):
    """Training diverged; carries the epoch where the loss left the reals."""

    def __init__(self, epoch: int):
        # args stays (epoch,): unpickling calls cls(*args), as when a
        # cross-validation worker sends this error back
        super().__init__(epoch)
        self.epoch = epoch

    def __str__(self) -> str:
        return f"non-finite loss at epoch {self.epoch}"


class NonFiniteScale(RuntimeError):
    """A feature's mean or standard deviation overflows float64, so the
    perceptron cannot standardize it."""


def check_two_classes(y: np.ndarray) -> None:
    if np.unique(y).size < 2:
        raise SingleClassInput("training data must contain both classes")


def model_rows(X, width: int) -> np.ndarray:
    """X as a 2-D float64 array of rows, each ``width`` features wide."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[-1] != width:
        raise DimensionMismatch(f"row has {X.shape[-1]} features, model expects {width}")
    return X
