"""Occupancy classifiers: logistic and small-MLP models, training, costs.

Both models map the three standardized window features to an occupancy
probability and are trained with mini-batch gradient descent on mean binary
cross-entropy.  Parameters live in a flat float64 vector so federation can
average them without knowing the architecture.  The model math is written
once over leading axes: the same code serves one model (``predict_batch``,
``bce_loss``, ``bce_gradient``), the ``(n, d)`` array of all nodes' models
(``predict_rows``) and a ``(k, n, d)`` stack of k copies of it, which
``train_rows`` trains in one step per mini-batch.
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
    """Flat parameter vector plus the sample count backing it."""

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


def _gradient(kind: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
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


def predict_batch(model: ModelParams, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64).reshape(-1, N_FEATURES)
    return predict_rows(model.kind, model.theta, x)


def predict_rows(kind: str, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Probabilities ``(n, m)`` of models ``theta (n, d)``, row i on windows
    ``x[i]`` of ``x (n, m, 3)``; one model and its ``(m, 3)`` windows give ``(m,)``."""
    return expit(_logits(kind, theta, x)[0])


def bce_loss(model: ModelParams, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, evaluated from logits so it never overflows."""
    x = np.asarray(features, dtype=np.float64).reshape(-1, N_FEATURES)
    y = np.asarray(labels, dtype=np.float64)
    z, _ = _logits(model.kind, model.theta, x)
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def bce_gradient(model: ModelParams, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean binary cross-entropy w.r.t. the flat theta vector."""
    x = np.asarray(features, dtype=np.float64).reshape(-1, N_FEATURES)
    y = np.asarray(labels, dtype=np.float64)
    return _gradient(model.kind, model.theta, x, y)


def train_rows(
    kind: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray, tc: TrainingConfig,
    rngs: Sequence[np.random.Generator],
) -> None:
    """``epochs_per_round`` epochs of mini-batch descent on every row of
    ``theta (..., n, d)`` at once, in place: row i of each leading copy on its
    ``(m, 3)`` buffer ``x[i]`` and the shared ``(m,)`` 0/1 labels ``y``, all
    copies reshuffled each epoch by one ``rngs[i]`` draw; an epoch's last batch
    may be short.  Callers such as ``engine.train_topologies`` check that the
    rows stay finite."""
    n, m = theta.shape[-2], x.shape[1]
    if not len(rngs) == len(x) == n:
        raise ValueError(f"rngs: {len(rngs)}, x: {len(x)} and theta: {n} rows must agree")
    if len(y) != m:
        raise ValueError(f"y: {len(y)} labels for buffers of {m} windows")
    if m == 0:
        raise EmptyDataError("x: training buffer is empty")
    y, rows = np.asarray(y, dtype=np.float64), np.arange(n)[:, None]
    # shuffling a fresh arange draws what rng.permutation(m) draws
    ordered, order = np.arange(m), np.empty((n, m), dtype=np.intp)
    for _ in range(tc.epochs_per_round):
        order[:] = ordered
        for rng, row in zip(rngs, order):
            rng.shuffle(row)
        for start in range(0, m, tc.batch_size):
            idx = order[:, start : start + tc.batch_size]
            theta -= tc.learning_rate * _gradient(kind, theta, x[rows, idx], y[idx])


def energy_baseline_decide(features: Sequence[float], threshold_std: float) -> bool:
    """Classical energy detector on the standardized mean-power feature."""
    return bool(features[0] > threshold_std)


def model_snapshot_json(model: ModelParams) -> str:
    """One-line JSON snapshot with 17-significant-digit coefficients."""
    theta = ", ".join(format(float(v), ".17g") for v in model.theta)
    return (
        f'{{"kind": "{model.kind}", "theta": [{theta}], '
        f'"n_train_samples": {model.n_train_samples}}}'
    )


def model_from_snapshot(text: str) -> ModelParams:
    import json

    raw = json.loads(text)
    return ModelParams(raw["kind"], np.array(raw["theta"]), raw["n_train_samples"])
