"""One-hidden-layer perceptron trained by full-batch gradient descent.

Features are standardized internally with the training split's mean and
variance (stored in the model, so prediction applies the same shift); the
hidden layer is sigmoid, the two-unit output is a softmax read as the
probability of Effective, and the loss is mean cross-entropy. Momentum
gradient descent keeps the update rule simple and exactly differentiable,
which the finite-difference gradient check in the test suite relies on.

One ``_Pass`` runs the forward pass, and for a fit the loss and gradients,
for training and prediction alike. It standardizes the rows into one
array with a trailing ones column, centred and then scaled in place, so
the hidden layer is one product with (w1; b1), the weights with the
biases as a last row (copied into one matrix per pass), and the bias
gradient is the last row of that product's gradient. It allocates its
(n, h) and (n, 2) arrays and the weight gradients once, and each epoch
writes into them with ``matmul(..., out=)`` and in-place ufuncs. The
hidden sigmoid is 0.5 + 0.5 * tanh(z / 2): four in-place passes, no
branch, no overflow. The softmax of two units reads its two columns with
``maximum`` and ``add``, and each row's own class is a ``take`` over the
flat probabilities.

The two gradient products whose inner dimension is the row count, x.T @
delta1 and hidden.T @ delta2, are summed over row blocks, in row order,
each block small enough (m * n * k at most ``ONE_THREAD_CELLS`` for an
(m, n) result) that OpenBLAS runs it on one thread. OpenBLAS splits a
larger product of that shape across its threads, which changes how the
sum is grouped, so a fit would give other bits under another BLAS thread
count; blocked, a seed gives one model whatever the thread count. The
other products split only their output rows across threads, which leaves
each output's sum as it is.

A fit keeps w1, b1, w2 and b2 as views of one flat parameter vector, and
the gradients and the velocity as flat vectors of the same layout
(``_views``), so a momentum step is four ufunc calls over the whole
vector, with the same float operations per element as one step per array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..dataset import FeatureMatrix
from ..metrics import MetricId
from .base import ModelKind, NonFiniteLoss, NonFiniteScale, check_two_classes, model_rows


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
    kind: ClassVar[ModelKind] = ModelKind.MULTILAYER_PERCEPTRON
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
        rows = model_rows(X, len(self.feature_ids))
        probs = _Pass(rows, None, self.w1.shape[1], self.mean, self.scale).forward(
            self.w1, self.b1, self.w2, self.b2)
        return probs[:, 1]


#: Added to each row's own-class probability before its log, so the log is finite.
_TINY = np.finfo(np.float64).tiny

#: OpenBLAS runs a product of at most this many multiply-adds (m * n * k) on
#: one thread (its default GEMM_MULTITHREAD_THRESHOLD of 4 times 65,536).
ONE_THREAD_CELLS = 4 * 65536


def _views(flat: np.ndarray, d: int, h: int):
    """(w1, b1, w2, b2) of shapes (d, h), (h,), (h, 2) and (2,) as views of
    ``flat``, a vector of d * h + 3 * h + 2 values in that order, so its
    first (d + 1) * h values are (w1; b1) as one (d + 1, h) matrix."""
    w1, b1, w2, b2 = np.split(flat, np.cumsum([d * h, h, 2 * h]))
    return w1.reshape(d, h), b1, w2.reshape(h, 2), b2


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function of z, written over z: 0.5 + 0.5 * tanh(z / 2),
    which never overflows and is exact at 0 and at +-inf."""
    z *= 0.5
    np.tanh(z, out=z)
    z *= 0.5
    z += 0.5
    return z


def _blocked_product(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                     spare: np.ndarray) -> np.ndarray:
    """a.T @ b written into ``out``, summed over row blocks of a and b in
    row order; ``spare`` (out's shape) is scratch. Each block has at most
    ``ONE_THREAD_CELLS`` multiply-adds, so the sum is grouped the same way
    whatever the BLAS thread count."""
    step = max(1, ONE_THREAD_CELLS // out.size)
    np.matmul(a[:step].T, b[:step], out=out)
    for start in range(step, a.shape[0], step):
        np.matmul(a[start:start + step].T, b[start:start + step], out=spare)
        out += spare
    return out


class _Pass:
    """A forward pass, and for a fit its loss and gradients, over fixed rows.

    The rows are standardized, ``(rows - mean) / scale``, into an (n, d + 1)
    array whose last column is ones. Every (n, h) and (n, 2) array and,
    when there are labels ``y``, the flat gradient are allocated here,
    once; each call writes into them, so a fit allocates nothing per
    epoch. A call's results live in these buffers until the next call.
    """

    def __init__(self, rows: np.ndarray, y: np.ndarray | None, h: int,
                 mean: np.ndarray | float = 0.0, scale: np.ndarray | float = 1.0):
        n, d = rows.shape
        self.xa = np.empty((n, d + 1))
        np.subtract(rows, mean, out=self.xa[:, :d])
        self.xa[:, :d] /= scale
        self.xa[:, d] = 1.0
        self.w1b = np.empty((d + 1, h))  # (w1; b1)
        self.hidden = np.empty((n, h))
        self.probs = np.empty((n, 2))  # logits, then probs, then delta2
        self.row = np.empty(n)
        if y is None:
            return
        self.own = np.arange(n) * 2 + y  # flat index of each row's own class in probs
        self.delta1 = np.empty((n, h))
        self.log_own = np.empty(n)
        self.grad = np.empty(d * h + 3 * h + 2)
        _, _, self.gw2, self.gb2 = _views(self.grad, d, h)
        self.gw1b = self.grad[:(d + 1) * h].reshape(d + 1, h)  # (gw1; gb1)
        self.spare_w1b, self.spare_w2 = np.empty((d + 1, h)), np.empty((h, 2))

    def forward(self, w1, b1, w2, b2) -> np.ndarray:
        """The softmax probabilities, one row per input row."""
        hidden, probs, row = self.hidden, self.probs, self.row
        np.concatenate((w1, b1[None]), out=self.w1b)
        np.matmul(self.xa, self.w1b, out=hidden)
        _sigmoid(hidden)
        np.matmul(hidden, w2, out=probs)
        probs += b2
        np.maximum(probs[:, 0], probs[:, 1], out=row)  # each row's larger logit
        probs -= row[:, None]
        np.exp(probs, out=probs)
        np.add(probs[:, 0], probs[:, 1], out=row)
        probs /= row[:, None]
        return probs

    def loss_and_gradients(self, w1, b1, w2, b2):
        """Mean cross-entropy and its exact gradient w.r.t. all parameters,
        flat in the layout of ``_views``."""
        n = self.xa.shape[0]
        delta2 = self.forward(w1, b1, w2, b2)
        own, log_own, hidden = self.row, self.log_own, self.hidden
        delta2.take(self.own, out=own, mode="clip")
        np.add(own, _TINY, out=log_own)
        np.log(log_own, out=log_own)
        loss = -float(np.add.reduce(log_own) / n)
        own -= 1.0  # probs minus the one-hot labels, over n
        delta2.put(self.own, own)
        delta2 /= n
        _blocked_product(hidden, delta2, self.gw2, self.spare_w2)
        np.add.reduce(delta2, axis=0, out=self.gb2)
        delta1 = np.matmul(delta2, w2.T, out=self.delta1)
        delta1 *= hidden
        np.subtract(1.0, hidden, out=hidden)  # hidden is not read again in this pass
        delta1 *= hidden
        _blocked_product(self.xa, delta1, self.gw1b, self.spare_w1b)
        return loss, self.grad


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

    with np.errstate(over="ignore", invalid="ignore"):  # values near 1e300 overflow
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
    overflowed = ~(np.isfinite(mean) & np.isfinite(scale))
    if overflowed.any():
        name = matrix.feature_ids[int(np.argmax(overflowed))].column
        raise NonFiniteScale(f"feature {name} cannot be standardized: its mean or "
                             "standard deviation overflows")
    scale[scale == 0.0] = 1.0  # constant feature stays at 0 after centering

    rng = np.random.default_rng(seed)
    theta = np.zeros(d * h + 3 * h + 2)
    w1, b1, w2, b2 = _views(theta, d, h)
    w1[:] = rng.uniform(-0.5, 0.5, size=(d, h)) / math.sqrt(d)
    w2[:] = rng.uniform(-0.5, 0.5, size=(h, 2)) / math.sqrt(h)

    velocity = np.zeros_like(theta)
    epoch_pass = _Pass(X, y, h, mean, scale)
    for epoch in range(params.epochs):
        loss, grad = epoch_pass.loss_and_gradients(w1, b1, w2, b2)
        if not math.isfinite(loss):
            raise NonFiniteLoss(epoch)
        velocity *= params.momentum
        grad *= params.learning_rate
        velocity -= grad
        theta += velocity

    return MLPModel(
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
