"""Occupancy classifiers: logistic and small-MLP models, training, costs.

Both models map the three standardized window features to an occupancy
probability and are trained with mini-batch gradient descent on mean binary
cross-entropy.  Parameters live in a flat float64 vector so federation can
average them without knowing the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

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
    if kind == "logistic":
        return LOGISTIC_DIM
    if kind == "mlp":
        return MLP_DIM
    raise ValueError(f"kind: unknown model kind {kind!r} (expected one of {MODEL_KINDS})")


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


@dataclass
class CostReport:
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


def _unpack_mlp(theta: np.ndarray):
    w1 = theta[:_W1_END].reshape(MLP_HIDDEN, N_FEATURES)
    b1 = theta[_W1_END:_B1_END]
    w2 = theta[_B1_END:_W2_END]
    b2 = theta[_W2_END]
    return w1, b1, w2, b2


def _logits(kind: str, theta: np.ndarray, x: np.ndarray):
    """Pre-sigmoid outputs for a (n, 3) batch; MLP also returns activations."""
    if kind == "logistic":
        return x @ theta[:N_FEATURES] + theta[N_FEATURES], None
    w1, b1, w2, b2 = _unpack_mlp(theta)
    h = np.tanh(x @ w1.T + b1)
    return h @ w2 + b2, h


def predict(model: ModelParams, features: Sequence[float]) -> float:
    """Occupancy probability in [0, 1] for one feature vector."""
    x = np.asarray(features, dtype=np.float64).reshape(1, N_FEATURES)
    z, _ = _logits(model.kind, model.theta, x)
    return float(expit(z[0]))


def predict_batch(model: ModelParams, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64).reshape(-1, N_FEATURES)
    z, _ = _logits(model.kind, model.theta, x)
    return expit(z)


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
    n = x.shape[0]
    z, h = _logits(model.kind, model.theta, x)
    r = (expit(z) - y) / n
    grad = np.empty_like(model.theta)
    if model.kind == "logistic":
        grad[:N_FEATURES] = x.T @ r
        grad[N_FEATURES] = r.sum()
        return grad
    w1, b1, w2, b2 = _unpack_mlp(model.theta)
    dh = np.outer(r, w2)
    dpre = dh * (1.0 - h * h)
    grad[:_W1_END] = (dpre.T @ x).reshape(-1)
    grad[_W1_END:_B1_END] = dpre.sum(axis=0)
    grad[_B1_END:_W2_END] = h.T @ r
    grad[_W2_END] = r.sum()
    return grad


def train_local(
    model: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    tc: TrainingConfig,
    rng: np.random.Generator,
) -> tuple[ModelParams, CostReport]:
    """Run ``epochs_per_round`` epochs of mini-batch gradient descent.

    ``x`` is the (n, 3) feature buffer and ``y`` its (n,) 0/1 labels.  The
    buffer is reshuffled once per epoch through ``rng``; the last batch of
    an epoch may be short.  Compute cost is booked as
    ``epochs * n * macs_per_inference * 3`` (forward, backward, update).
    The returned model is not checked for divergence: callers such as
    ``run_simulation`` check its coefficients are finite.

    Returns:
        (updated model, CostReport delta for this call)
    """
    n = len(x)
    if n == 0:
        raise EmptyDataError("x: training buffer is empty")
    updated = ModelParams(model.kind, model.theta.copy(), model.n_train_samples + n)
    theta = updated.theta
    for _ in range(tc.epochs_per_round):
        order = rng.permutation(n)
        for start in range(0, n, tc.batch_size):
            idx = order[start : start + tc.batch_size]
            grad = bce_gradient(updated, x[idx], y[idx])
            theta -= tc.learning_rate * grad
    macs, params = cost_constants(model.kind)
    delta = CostReport(
        macs_per_inference=macs,
        param_count=params,
        model_bytes=8 * params,
        train_macs_accumulated=tc.epochs_per_round * n * macs * 3,
    )
    return updated, delta


def energy_baseline_decide(features: Sequence[float], threshold_std: float) -> bool:
    """Classical energy detector on the standardized mean-power feature."""
    return bool(features[0] > threshold_std)


def model_cost(model: ModelParams) -> CostReport:
    macs, params = cost_constants(model.kind)
    return CostReport(macs, params, 8 * params, 0)


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
