"""Occupancy classifiers: logistic and small-MLP models, training, costs.

Both models map the three standardized window features to an occupancy
probability and are trained with mini-batch gradient descent on mean binary
cross-entropy.  Parameters live in a flat float64 vector so federation can
average them without knowing the architecture.  The model math is written
once over leading axes: ``predict_rows`` and ``_gradient`` serve one ``(d,)``
model on its ``(m, 3)`` windows, the ``(n, d)`` array of all nodes' models and
a ``(k, n, d)`` stack of k copies of it, which ``train_rows`` trains in one
gradient step per mini-batch, in the epoch orders its caller draws.
``train_rows`` makes its buffers and views once per call: the epoch buffers
that ``np.take(..., out=)`` fills, each batch's slice of them, and the layer
views (``_layers``) of theta and of one gradient buffer, which a step writes
with ``out=``.  A step's outputs, activations and pre-activation gradients
are the fresh arrays ``@`` and the ufuncs return, changed in place after;
each makes the BLAS and ufunc calls, on operands of the same layouts, as the
2-D per-model oracle, so the results are the same to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def model_dim(kind: str) -> int:
    return cost_constants(kind)[1]


def cost_constants(kind: str) -> tuple[int, int]:
    """(multiply-accumulates per inference, parameter count) for a kind, one
    of ``MODEL_KINDS`` (a Scenario's ``training.model_kind``, checked there)."""
    if kind == "logistic":
        return N_FEATURES, LOGISTIC_DIM
    return N_FEATURES * MLP_HIDDEN + MLP_HIDDEN, MLP_DIM


@dataclass(frozen=True)
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
    """Snapshot of one node's final model: its kind and flat parameter
    vector.  ``engine.run_simulation`` fills it from the trained ``(k, n,
    d)`` stack, whose finiteness training checks."""

    kind: str
    theta: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(self.kind, self.theta.copy())


def init_model(kind: str, tc: TrainingConfig, rng: np.random.Generator) -> np.ndarray:
    """Fresh ``(d,)`` theta: logistic starts at zero, MLP weights uniform, biases zero."""
    dim = model_dim(kind)
    theta = np.zeros(dim)
    if kind == "mlp":
        s = tc.init_scale
        theta[:_W1_END] = rng.uniform(-s, s, size=_W1_END)
        theta[_B1_END:_W2_END] = rng.uniform(-s, s, size=MLP_HIDDEN)
    return theta


def _layers(kind: str, a: np.ndarray) -> tuple:
    """Views of the layers of models ``a (..., d)``, for theta and for a
    gradient buffer: the output weights as a column ``(..., 3 or 8, 1)``, the
    output bias ``(..., 1, 1)``, then for MLP the hidden weights ``(..., 8,
    3)``, their transpose, the hidden biases ``(..., 1, 8)`` and the output
    weights as a row ``(..., 1, 8)`` (None for the logistic model)."""
    bias = a[..., -1, None, None]
    if kind == "logistic":
        return a[..., :N_FEATURES, None], bias, None, None, None, None
    w = a[..., _B1_END:_W2_END, None]
    w1 = a[..., :_W1_END].reshape(*a.shape[:-1], MLP_HIDDEN, N_FEATURES)
    return w, bias, w1, w1.swapaxes(-1, -2), a[..., None, _W1_END:_B1_END], w.swapaxes(-1, -2)


def _probabilities(kind: str, x: np.ndarray, model: tuple) -> tuple:
    """Outputs ``1 / (1 + exp(-z))`` ``(..., b, 1)`` of the models whose
    ``_layers`` are ``model`` on ``x (..., b, 3)``, and for MLP the tanh
    activations ``(..., b, 8)`` (else None): the arrays ``@`` returns, then
    changed in place, saturating under the caller's ``np.errstate``.  Sums
    are ``@`` on per-row matrices, so one model and n rows sum alike."""
    w, bias, _, w1t, b1, _ = model
    h = None
    if kind == "mlp":
        h = x @ w1t
        h += b1
        x = np.tanh(h, out=h)
    z = x @ w
    z += bias
    np.exp(np.negative(z, out=z), out=z)
    np.divide(1.0, np.add(z, 1.0, out=z), out=z)
    return z, h


def _gradient(
    kind: str, x: np.ndarray, xt: np.ndarray, y: np.ndarray, model: tuple, grad: tuple
) -> None:
    """Mean-BCE gradients of the models whose ``_layers`` are ``model`` on
    ``x (..., b, 3)``, its transpose ``xt`` and the label column ``y (..., b,
    1)``, written into ``grad``, the ``_layers`` of a ``(..., d)`` buffer."""
    z, h = _probabilities(kind, x, model)
    z -= y
    z /= x.shape[-2]
    grad_w, grad_bias, grad_w1, _, grad_b1, _ = grad
    np.add.reduce(z, axis=-2, out=grad_bias, keepdims=True)
    if kind == "logistic":
        np.matmul(xt, z, out=grad_w)
        return
    np.matmul(h.swapaxes(-1, -2), z, out=grad_w)
    np.subtract(1.0, np.multiply(h, h, out=h), out=h)  # tanh's slope
    dpre = z * model[-1]  # pre-activation gradients, by the output weights' row
    dpre *= h
    np.matmul(dpre.swapaxes(-1, -2), x, out=grad_w1)
    np.add.reduce(dpre, axis=-2, out=grad_b1, keepdims=True)


def predict_rows(kind: str, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Probabilities ``(n, m)`` of models ``theta (n, d)``, row i on windows
    ``x[i]`` of ``x (n, m, 3)``; one model and its ``(m, 3)`` windows give ``(m,)``."""
    with np.errstate(over="ignore", under="ignore"):
        z, _ = _probabilities(kind, x, _layers(kind, theta))
    return z[..., 0]


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
    two buffers, and each step is one ``_gradient`` on slices of them, made
    once per call with the ``_layers`` of theta and of one gradient buffer,
    under one ``np.errstate`` per call; its outputs are the fresh arrays
    ``@`` and the ufuncs return.  Callers such as ``engine.train_topologies``
    check that the rows stay finite."""
    n, m, batch, epochs = theta.shape[-2], x.shape[1], tc.batch_size, tc.epochs_per_round
    if not len(order) == len(x) == n:
        raise ValueError(f"order: {len(order)}, x: {len(x)} and theta: {n} rows must agree")
    if len(y) != m:
        raise ValueError(f"y: {len(y)} labels for buffers of {m} windows")
    if order.shape[1:] != (epochs, m):
        raise ValueError(f"order: rows {order.shape[1:]}, not (epochs_per_round, m) {(epochs, m)}")
    # an epoch's windows: one take from the flat buffers, faster than x[rows, order]
    flat_x, offsets = x.reshape(n * m, 3), np.arange(0, n * m, m)[:, None]
    y = np.asarray(y, dtype=np.float64)
    at, epoch_x, epoch_y = np.empty((n, m), np.intp), np.empty((n, m, 3)), np.empty((n, m))
    grad = np.empty(theta.shape)
    model, grads = _layers(kind, theta), _layers(kind, grad)
    steps = []  # per batch: its windows, their transpose and its label column
    for start in range(0, m, batch):
        bx = epoch_x[:, start : start + batch]
        steps.append((bx, bx.swapaxes(-1, -2), epoch_y[:, start : start + batch, None]))
    with np.errstate(over="ignore", under="ignore"):
        for epoch in range(epochs):
            np.add(order[:, epoch], offsets, out=at)
            np.take(flat_x, at, axis=0, out=epoch_x, mode="clip")
            np.take(y, order[:, epoch], out=epoch_y, mode="clip")
            for bx, bxt, by in steps:
                _gradient(kind, bx, bxt, by, model, grads)
                grad *= tc.learning_rate
                theta -= grad
