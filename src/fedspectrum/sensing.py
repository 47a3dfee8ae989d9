"""Occupancy classifiers: logistic and small-MLP models, training, costs.

Both models map the three standardized window features to an occupancy
probability and are trained with mini-batch gradient descent on mean binary
cross-entropy.  Parameters live in a flat float64 vector so federation can
average them without knowing the architecture.  The model math is written
once over leading axes: ``predict_rows`` and ``gradient`` serve one ``(d,)``
model on its ``(m, 3)`` windows, the ``(n, d)`` array of all nodes' models and
a ``(k, n, d)`` stack of k copies of it, which ``train_rows`` trains in one
``gradient`` step per mini-batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def expit(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-z))``, elementwise; saturates to 0 and
    1 without warnings."""
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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


def init_model(kind: str, tc: TrainingConfig, rng: np.random.Generator) -> ModelParams:
    """Fresh model: logistic starts at zero, MLP weights uniform, biases zero."""
    dim = model_dim(kind)
    theta = np.zeros(dim)
    if kind == "mlp":
        s = tc.init_scale
        theta[:_W1_END] = rng.uniform(-s, s, size=_W1_END)
        theta[_B1_END:_W2_END] = rng.uniform(-s, s, size=MLP_HIDDEN)
    return ModelParams(kind, theta, 0)


def _logits(kind: str, theta: np.ndarray, x: np.ndarray):
    """Pre-sigmoid outputs ``(..., b)`` of models ``theta (..., d)`` on batches
    ``x (..., b, 3)``; MLP also returns its activations ``(..., b, 8)``.  Sums
    are ``@`` on per-row matrices, so one model and n rows sum alike."""
    if kind == "logistic":
        return (x @ theta[..., :N_FEATURES, None])[..., 0] + theta[..., N_FEATURES, None], None
    w1 = theta[..., :_W1_END].reshape(*theta.shape[:-1], MLP_HIDDEN, N_FEATURES)
    h = np.tanh(x @ np.swapaxes(w1, -1, -2) + theta[..., None, _W1_END:_B1_END])
    return (h @ theta[..., _B1_END:_W2_END, None])[..., 0] + theta[..., _W2_END, None], h


def gradient(kind: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean-BCE gradients ``(..., d)`` of ``theta`` on ``x``, ``y (..., b)``."""
    z, h = _logits(kind, theta, x)
    r = (expit(z) - y) / x.shape[-2]
    column = r[..., None]
    grad = np.empty_like(theta)
    grad[..., -1] = r.sum(axis=-1)
    if kind == "logistic":
        grad[..., :N_FEATURES] = (np.swapaxes(x, -1, -2) @ column)[..., 0]
        return grad
    dpre = column * theta[..., None, _B1_END:_W2_END] * (1.0 - h * h)
    grad[..., :_W1_END] = (np.swapaxes(dpre, -1, -2) @ x).reshape(*theta.shape[:-1], _W1_END)
    grad[..., _W1_END:_B1_END] = dpre.sum(axis=-2)
    grad[..., _B1_END:_W2_END] = (np.swapaxes(h, -1, -2) @ column)[..., 0]
    return grad


def predict_rows(kind: str, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Probabilities ``(n, m)`` of models ``theta (n, d)``, row i on windows
    ``x[i]`` of ``x (n, m, 3)``; one model and its ``(m, 3)`` windows give ``(m,)``."""
    return expit(_logits(kind, theta, x)[0])


def train_rows(
    kind: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray, tc: TrainingConfig,
    rngs: Sequence[np.random.Generator],
) -> None:
    """``epochs_per_round`` epochs of mini-batch descent on every row of
    ``theta (..., n, d)`` at once, in place: row i of each leading copy on its
    ``(m, 3)`` buffer ``x[i]`` and the shared ``(m,)`` 0/1 labels ``y``, all
    copies reshuffled each epoch, every epoch's order drawn by one ``rngs[i]``
    call; an epoch's last batch may be short.  Callers such as
    ``engine.train_topologies`` check that the rows stay finite."""
    n, m = theta.shape[-2], x.shape[1]
    if not len(rngs) == len(x) == n:
        raise ValueError(f"rngs: {len(rngs)}, x: {len(x)} and theta: {n} rows must agree")
    if len(y) != m:
        raise ValueError(f"y: {len(y)} labels for buffers of {m} windows")
    if m == 0:
        raise EmptyDataError("x: training buffer is empty")
    y, epochs = np.asarray(y, dtype=np.float64), tc.epochs_per_round
    # one permuted call per node draws what epochs_per_round shuffles of a
    # fresh arange draw, each what rng.permutation(m) draws
    order = np.empty((n, epochs, m), dtype=np.intp)
    ordered = np.broadcast_to(np.arange(m), (epochs, m))
    for rng, node in zip(rngs, order):
        rng.permuted(ordered, axis=1, out=node)
    xs, ys = x[np.arange(n)[:, None, None], order], y[order]
    for epoch_x, epoch_y in zip(xs.swapaxes(0, 1), ys.swapaxes(0, 1)):
        for start in range(0, m, tc.batch_size):
            batch = slice(start, start + tc.batch_size)
            theta -= tc.learning_rate * gradient(kind, theta, epoch_x[:, batch], epoch_y[:, batch])


def energy_baseline_decide(features: Sequence[float], threshold_std: float) -> bool:
    """Classical energy detector on the standardized mean-power feature."""
    return bool(features[0] > threshold_std)
