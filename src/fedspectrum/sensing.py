"""Occupancy classifiers: logistic and small-MLP models, training, costs.

Both models map the three standardized window features to an occupancy
probability and are trained with mini-batch gradient descent on mean binary
cross-entropy.  Parameters live in a flat float64 vector so federation can
average them without knowing the architecture.  The model math is written
once over leading axes: ``predict_rows`` and ``gradient`` serve one ``(d,)``
model on its ``(m, 3)`` windows, the ``(n, d)`` array of all nodes' models and
a ``(k, n, d)`` stack of k copies of it, which ``train_rows`` trains in one
gradient step per mini-batch, in the epoch orders its caller draws.
``train_rows`` makes its buffers and every view a step reads or writes once
per call: the epoch buffers that ``np.take(..., out=)`` fills, each batch's
slice of them with its transpose and label column, and the slices of theta,
of the outputs and of the gradient (``_views``), so a step is its ufunc calls
only.  Each buffer has the shape and layout of the fresh array it stands
for, so the results are a fresh array's to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

MODEL_KINDS = ("logistic", "mlp")

N_FEATURES = 3
MLP_HIDDEN = 8

LOGISTIC_DIM = N_FEATURES + 1
MLP_DIM = N_FEATURES * MLP_HIDDEN + MLP_HIDDEN + MLP_HIDDEN + 1

# MLP theta packing offsets: hidden weights row-major, hidden biases,
# output weights, output bias.
_W1_END = N_FEATURES * MLP_HIDDEN
_B1_END = _W1_END + MLP_HIDDEN
_W2_END = _B1_END + MLP_HIDDEN


class EmptyDataError(ValueError):
    """Training was asked to run on an empty observation buffer."""


def model_dim(kind: str) -> int:
    return cost_constants(kind)[1]


def cost_constants(kind: str) -> tuple[int, int]:
    """(multiply-accumulates per inference, parameter count) for a kind."""
    if kind == "logistic":
        return N_FEATURES, LOGISTIC_DIM
    if kind == "mlp":
        return N_FEATURES * MLP_HIDDEN + MLP_HIDDEN, MLP_DIM
    raise ValueError(f"kind: unknown model kind {kind!r} (expected one of {MODEL_KINDS})")


@dataclass
class TrainingConfig:
    learning_rate: float = 0.2
    epochs_per_round: int = 4
    batch_size: int = 10
    init_scale: float = 0.5
    model_kind: str = "logistic"


@dataclass(frozen=True)
class CostReport:
    """One node's model costs; a run shares one report among all its nodes."""

    macs_per_inference: int
    param_count: int
    model_bytes: int
    train_macs_accumulated: int = 0


@dataclass
class ModelParams:
    """Flat parameter vector plus ``n_train_samples``, the windows trained
    since the model's last exchange (a closed form of the run's schedule)."""

    kind: str
    theta: np.ndarray
    n_train_samples: int = 0

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        expected = model_dim(self.kind)
        if theta.shape != (expected,):
            raise ValueError(
                f"theta: kind {self.kind!r} needs shape ({expected},), got {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta: entries must be finite")
        if self.n_train_samples < 0:
            raise ValueError(
                f"n_train_samples: must be >= 0 (got {self.n_train_samples})"
            )
        self.theta = theta

    def copy(self) -> "ModelParams":
        return ModelParams(self.kind, self.theta.copy(), self.n_train_samples)


def init_model(kind: str, tc: TrainingConfig, rng: np.random.Generator) -> np.ndarray:
    """Fresh ``(d,)`` theta: logistic starts at zero, MLP weights uniform, biases zero."""
    dim = model_dim(kind)
    theta = np.zeros(dim)
    if kind == "mlp":
        s = tc.init_scale
        theta[:_W1_END] = rng.uniform(-s, s, size=_W1_END)
        theta[_B1_END:_W2_END] = rng.uniform(-s, s, size=MLP_HIDDEN)
    return theta


def _work(kind: str, theta: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
    """Buffers of a ``gradient`` step of ``theta`` on ``x``: the output column
    ``(..., b, 1)``, the gradient ``(..., d)`` and, for MLP, two ``(..., b,
    8)``, each shaped and laid out as the fresh array it stands for."""
    lead = (*np.broadcast_shapes(theta.shape[:-1], x.shape[:-2]), x.shape[-2])
    hidden = [(*lead, MLP_HIDDEN)] * (2 if kind == "mlp" else 0)
    return [np.empty(shape) for shape in [(*lead, 1), (*lead[:-1], model_dim(kind)), *hidden]]


class _Views(NamedTuple):
    """The views of ``theta`` and of its ``_work`` buffers that a step reads or
    writes (``_views``), made once; MLP fields are None for the logistic model."""

    z: np.ndarray  # (..., b, 1) outputs, then residuals
    residual: np.ndarray  # (..., b)
    weights: np.ndarray  # (..., 3 or 8, 1) output weights of theta
    bias: np.ndarray  # (..., 1, 1) output bias of theta
    grad: np.ndarray  # (..., d)
    grad_weights: np.ndarray  # (..., 3 or 8, 1)
    grad_bias: np.ndarray  # (...)
    w1t: np.ndarray | None  # (..., 3, 8) hidden weights of theta
    b1: np.ndarray | None  # (..., 1, 8) hidden biases of theta
    w2: np.ndarray | None  # (..., 1, 8) output weights of theta
    h: np.ndarray | None  # (..., b, 8) activations, then tanh's slopes
    ht: np.ndarray | None  # (..., 8, b)
    dpre: np.ndarray | None  # (..., b, 8) pre-activation gradients
    dpret: np.ndarray | None  # (..., 8, b)
    grad_w1: np.ndarray | None  # (..., 8, 3)
    grad_b1: np.ndarray | None  # (..., 8)


def _views(kind: str, theta: np.ndarray, work: list[np.ndarray]) -> _Views:
    """Views of models ``theta (..., d)`` and of ``work`` (``_work``); they stay
    valid while both are changed in place only."""
    z, grad, *hidden = work
    if kind == "logistic":
        return _Views(z, z[..., 0], theta[..., :N_FEATURES, None], theta[..., -1, None, None],
                      grad, grad[..., :N_FEATURES, None], grad[..., -1], *[None] * 9)
    h, dpre = hidden
    w1 = theta[..., :_W1_END].reshape(*theta.shape[:-1], MLP_HIDDEN, N_FEATURES)
    return _Views(
        z, z[..., 0], theta[..., _B1_END:_W2_END, None], theta[..., -1, None, None],
        grad, grad[..., _B1_END:_W2_END, None], grad[..., -1],
        w1.swapaxes(-1, -2), theta[..., None, _W1_END:_B1_END], theta[..., None, _B1_END:_W2_END],
        h, h.swapaxes(-1, -2), dpre, dpre.swapaxes(-1, -2),
        grad[..., :_W1_END].reshape(*grad.shape[:-1], MLP_HIDDEN, N_FEATURES),
        grad[..., _W1_END:_B1_END],
    )


def _probabilities(kind: str, x: np.ndarray, views: _Views) -> np.ndarray:
    """Outputs ``1 / (1 + exp(-z))`` of the models of ``views`` on ``x (..., b,
    3)`` into ``views.z``, MLP activations into ``views.h``, saturating under
    the caller's ``np.errstate``; returns them as ``views.residual (..., b)``.
    Sums are ``@`` on per-row matrices, so one model and n rows sum alike."""
    z = views.z
    if kind == "mlp":
        h = views.h
        np.matmul(x, views.w1t, out=h)
        h += views.b1
        np.tanh(h, out=h)
        x = h
    np.matmul(x, views.weights, out=z)
    z += views.bias
    np.exp(np.negative(z, out=z), out=z)
    np.divide(1.0, np.add(z, 1.0, out=z), out=z)
    return views.residual


def _gradient(
    kind: str, x: np.ndarray, xt: np.ndarray, y: np.ndarray, views: _Views
) -> np.ndarray:
    """Mean-BCE gradients of the models of ``views`` on ``x (..., b, 3)``, its
    transpose ``xt`` and the label column ``y (..., b, 1)``, in ``views.grad``,
    by ufunc calls on those views only."""
    z = views.z
    _probabilities(kind, x, views)
    z -= y
    z /= x.shape[-2]
    np.add.reduce(views.residual, axis=-1, out=views.grad_bias)
    if kind == "logistic":
        np.matmul(xt, z, out=views.grad_weights)
        return views.grad
    h, dpre = views.h, views.dpre
    np.matmul(views.ht, z, out=views.grad_weights)
    np.subtract(1.0, np.multiply(h, h, out=h), out=h)  # tanh's slope
    np.multiply(z, views.w2, out=dpre)
    dpre *= h
    np.matmul(views.dpret, x, out=views.grad_w1)
    np.add.reduce(dpre, axis=-2, out=views.grad_b1)
    return views.grad


def gradient(kind: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean-BCE gradients ``(..., d)`` of ``theta`` on ``x``, ``y (..., b)``,
    in fresh buffers; the sigmoid saturates quietly."""
    views = _views(kind, theta, _work(kind, theta, x))
    with np.errstate(over="ignore", under="ignore"):
        return _gradient(kind, x, x.swapaxes(-1, -2), y[..., None], views)


def predict_rows(kind: str, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Probabilities ``(n, m)`` of models ``theta (n, d)``, row i on windows
    ``x[i]`` of ``x (n, m, 3)``; one model and its ``(m, 3)`` windows give ``(m,)``."""
    views = _views(kind, theta, _work(kind, theta, x))
    with np.errstate(over="ignore", under="ignore"):
        return _probabilities(kind, x, views)


def train_rows(
    kind: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray, tc: TrainingConfig,
    order: np.ndarray,
) -> None:
    """``epochs_per_round`` epochs of mini-batch descent on every row of
    ``theta (..., n, d)`` at once, in place: row i of each leading copy on its
    ``(m, 3)`` buffer ``x[i]`` and the shared ``(m,)`` 0/1 labels ``y``, epoch
    e in the order ``order[i, e]`` of ``order (n, epochs_per_round, m)``, each
    row a permutation of ``range(m)`` (unchecked: the takes clip); an epoch's
    last batch may be short.  Each epoch's windows and labels are taken into
    two buffers, and each step is one ``_gradient`` on views of them, of
    theta and of work buffers (one set per batch length), all made once per
    call, under one ``np.errstate`` per call.  Callers such as
    ``engine.train_topologies`` check that the rows stay finite."""
    n, m, batch, epochs = theta.shape[-2], x.shape[1], tc.batch_size, tc.epochs_per_round
    if not len(order) == len(x) == n:
        raise ValueError(f"order: {len(order)}, x: {len(x)} and theta: {n} rows must agree")
    if len(y) != m:
        raise ValueError(f"y: {len(y)} labels for buffers of {m} windows")
    if m == 0:
        raise EmptyDataError("x: training buffer is empty")
    if order.shape[1:] != (epochs, m):
        raise ValueError(f"order: rows {order.shape[1:]}, not (epochs_per_round, m) {(epochs, m)}")
    # an epoch's windows: one take from the flat buffers, faster than x[rows, order]
    flat_x, offsets = x.reshape(n * m, 3), np.arange(0, n * m, m)[:, None]
    y = np.asarray(y, dtype=np.float64)
    at, epoch_x, epoch_y = np.empty((n, m), np.intp), np.empty((n, m, 3)), np.empty((n, m))
    views = {b: _views(kind, theta, _work(kind, theta, x[:, :b]))
             for b in {min(batch, m), m % batch or batch}}
    steps = []  # per batch: its windows, their transpose, its label column, its views
    for start in range(0, m, batch):
        bx, by = epoch_x[:, start : start + batch], epoch_y[:, start : start + batch, None]
        steps.append((bx, bx.swapaxes(-1, -2), by, views[bx.shape[1]]))
    with np.errstate(over="ignore", under="ignore"):
        for epoch in range(epochs):
            np.add(order[:, epoch], offsets, out=at)
            np.take(flat_x, at, axis=0, out=epoch_x, mode="clip")
            np.take(y, order[:, epoch], out=epoch_y, mode="clip")
            for step in steps:
                grad = _gradient(kind, *step)
                grad *= tc.learning_rate
                theta -= grad


def energy_baseline_decide(features: Sequence[float], threshold_std: float) -> bool:
    """Classical energy detector on the standardized mean-power feature."""
    return bool(features[0] > threshold_std)
