"""One-hidden-layer perceptron trained by full-batch gradient descent.

Features are standardized internally with the training split's mean and
variance (stored in the model, so prediction applies the same shift); the
hidden layer is sigmoid, the two-unit output is a softmax read as the
probability of Effective, and the loss is mean cross-entropy. Momentum
gradient descent keeps the update rule simple and exactly differentiable,
which the finite-difference gradient check in the test suite relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..metrics import MetricId
from ..records import FeatureMatrix
from .base import ModelKind, NonFiniteLoss, check_row_width, check_two_classes


@dataclass(frozen=True)
class MLPParams:
    hidden: int | None = None  # default ceil((d + 2) / 2)
    learning_rate: float = 0.3
    momentum: float = 0.2
    epochs: int = 500

    def __post_init__(self):
        if self.hidden is not None and self.hidden < 1:
            raise ValueError(f"hidden must be at least 1 or auto, got {self.hidden}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be at least 0, got {self.epochs}")


@dataclass
class MLPModel:
    kind: ModelKind
    feature_ids: tuple[MetricId, ...]
    seed: int
    params: MLPParams
    mean: np.ndarray
    scale: np.ndarray
    w1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, 2)
    b2: np.ndarray  # (2,)

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        check_row_width(X, len(self.feature_ids))
        xs = (X - self.mean) / self.scale
        probs = _forward(xs, self.w1, self.b1, self.w2, self.b2)[1]
        return probs[:, 1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows: exp of a non-positive number
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _forward(xs, w1, b1, w2, b2):
    hidden = _sigmoid(xs @ w1 + b1)
    logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    probs = ez / ez.sum(axis=1, keepdims=True)
    return hidden, probs


def loss_and_gradients(xs, y, w1, b1, w2, b2):
    """Mean cross-entropy and its exact gradients w.r.t. all parameters."""
    n = xs.shape[0]
    hidden, probs = _forward(xs, w1, b1, w2, b2)
    eps = np.finfo(np.float64).tiny
    loss = -float(np.mean(np.log(probs[np.arange(n), y] + eps)))
    delta2 = probs.copy()
    delta2[np.arange(n), y] -= 1.0
    delta2 /= n
    gw2 = hidden.T @ delta2
    gb2 = delta2.sum(axis=0)
    delta1 = (delta2 @ w2.T) * hidden * (1.0 - hidden)
    gw1 = xs.T @ delta1
    gb1 = delta1.sum(axis=0)
    return loss, (gw1, gb1, gw2, gb2)


def train_mlp(
    matrix: FeatureMatrix,
    params: MLPParams = MLPParams(),
    seed: int = 0,
) -> MLPModel:
    check_two_classes(matrix.y)
    X = matrix.X
    y = matrix.y.astype(np.intp)
    d = X.shape[1]
    h = params.hidden if params.hidden is not None else math.ceil((d + 2) / 2)

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0  # constant feature stays at 0 after centering
    xs = (X - mean) / scale

    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, size=(d, h)) / math.sqrt(d)
    b1 = np.zeros(h)
    w2 = rng.uniform(-0.5, 0.5, size=(h, 2)) / math.sqrt(h)
    b2 = np.zeros(2)

    velocity = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    parameters = [w1, b1, w2, b2]
    for epoch in range(params.epochs):
        loss, grads = loss_and_gradients(xs, y, *parameters)
        if not math.isfinite(loss):
            raise NonFiniteLoss(epoch)
        for p, v, g in zip(parameters, velocity, grads):
            v *= params.momentum
            v -= params.learning_rate * g
            p += v

    return MLPModel(
        kind=ModelKind.MULTILAYER_PERCEPTRON,
        feature_ids=matrix.feature_ids,
        seed=seed,
        params=params,
        mean=mean,
        scale=scale,
        w1=w1,
        b1=b1,
        w2=w2,
        b2=b2,
    )
