import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit as scipy_expit

from fedspectrum.cli import model_snapshot_json
from fedspectrum.rng import substream
from fedspectrum.sensing import (
    LOGISTIC_DIM,
    MLP_DIM,
    ModelParams,
    TrainingConfig,
    cost_constants,
    init_model,
    model_dim,
    predict_rows,
    train_rows,
)
from oracles import bce_loss, predict, shuffles, step_gradient, train_local
from oracles import gradient as reference_gradient


def test_dims_and_cost_constants():
    assert model_dim("logistic") == LOGISTIC_DIM == 4
    assert model_dim("mlp") == MLP_DIM == 41
    assert cost_constants("logistic") == (3, 4)
    assert cost_constants("mlp") == (32, 41)


def test_model_cost_bytes():
    tc = TrainingConfig()
    for kind, cost in (("logistic", (3, 4, 32)), ("mlp", (32, 41, 328))):
        macs, params = cost_constants(kind)
        assert (macs, params, 8 * params) == cost
        # a model's bytes are its float64 coefficients
        assert init_model(kind, tc, substream(1, "init")).nbytes == 8 * params


def test_sigmoid_saturates_quietly_and_tracks_scipy():
    # numpy's exp is not libm's, so the sigmoid may differ from scipy's in the
    # last bits; it must stay within a few ulps and saturate without warnings.
    # The model [1, 0, 0, 0] has logit z on the window (z, 0, 0).
    z = np.linspace(-800.0, 800.0, 16_001)
    theta, x = np.array([1.0, 0.0, 0.0, 0.0]), np.stack([z, 0 * z, 0 * z], axis=1)
    with np.errstate(all="raise"):
        got = predict_rows("logistic", theta, x)
        grad = step_gradient("logistic", theta, x, np.ones_like(z))
    assert (got[0], got[8_000], got[-1]) == (0.0, 0.5, 1.0)
    np.testing.assert_allclose(got, scipy_expit(z), rtol=1e-15, atol=1e-300)
    assert np.isfinite(grad).all()


def test_init_logistic_is_zero():
    theta = init_model("logistic", TrainingConfig(), substream(2, "init"))
    np.testing.assert_array_equal(theta, np.zeros(4))
    assert theta.dtype == np.float64


def test_init_mlp_weights_bounded_biases_zero():
    tc = TrainingConfig(init_scale=0.25)
    theta = init_model("mlp", tc, substream(2, "init"))
    w1, b1, w2, b2 = theta[:24], theta[24:32], theta[32:40], theta[40]
    assert np.all(np.abs(w1) <= 0.25) and np.all(np.abs(w2) <= 0.25)
    assert np.any(w1 != 0.0) and np.any(w2 != 0.0)
    np.testing.assert_array_equal(b1, np.zeros(8))
    assert b2 == 0.0
    again = init_model("mlp", tc, substream(2, "init"))
    np.testing.assert_array_equal(theta, again)


def test_copy_is_independent():
    m = ModelParams("logistic", np.zeros(4))
    c = m.copy()
    c.theta[0] = 9.0
    assert m.theta[0] == 0.0
    assert c.kind == "logistic"


def test_predict_zero_model_is_half():
    m = ModelParams("logistic", np.zeros(4))
    assert predict(m, [1.0, -2.0, 3.0]) == 0.5


def test_predict_matches_sigmoid_of_linear_score():
    m = ModelParams("logistic", np.array([1.0, -1.0, 0.5, 0.25]))
    x = np.array([0.2, 0.4, 0.6])
    z = 0.2 - 0.4 + 0.3 + 0.25
    assert predict(m, x) == pytest.approx(1.0 / (1.0 + np.exp(-z)), rel=1e-12)


@given(
    arrays(np.float64, (5, 3), elements=st.floats(-5, 5)),
    arrays(np.float64, (41,), elements=st.floats(-3, 3)),
)
@settings(max_examples=50, deadline=None)
def test_predict_rows_probabilities_in_unit_interval(x, theta):
    m = ModelParams("mlp", theta)
    p = predict_rows("mlp", theta, x)
    assert p.shape == (5,)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    for i in range(5):
        assert p[i] == pytest.approx(predict(m, x[i]), rel=1e-12, abs=1e-15)


def test_bce_loss_zero_model_is_log_two():
    x = np.array([[0.1, 0.2, 0.3], [1.0, 1.0, 1.0]])
    loss = bce_loss("logistic", np.zeros(4), x, np.array([0.0, 1.0]))
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)


def test_bce_loss_extreme_logits_no_overflow():
    theta = np.array([1000.0, 0.0, 0.0, 0.0])
    x = np.array([[1.0, 0.0, 0.0]])
    with np.errstate(over="raise"):
        assert bce_loss("logistic", theta, x, np.array([1.0])) == pytest.approx(0.0, abs=1e-12)
        assert bce_loss("logistic", theta, x, np.array([0.0])) == pytest.approx(1000.0, rel=1e-12)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_gradient_matches_central_differences(kind):
    # Oracle: central differences on the scalar loss, h=1e-6; roundoff noise
    # on unit-scale losses is ~1e-10/coordinate, far under the 1e-5 gate.
    rng = substream(41, f"train:{kind}")
    for _ in range(10):
        theta = rng.normal(0.0, 1.0, size=model_dim(kind))
        x = rng.normal(0.0, 1.0, size=(7, 3))
        y = rng.integers(0, 2, size=7).astype(float)
        grad = step_gradient(kind, theta, x, y)
        fd = np.empty_like(grad)
        h = 1e-6
        for j in range(theta.size):
            tp, tm_ = theta.copy(), theta.copy()
            tp[j] += h
            tm_[j] -= h
            up = bce_loss(kind, tp, x, y)
            dn = bce_loss(kind, tm_, x, y)
            fd[j] = (up - dn) / (2.0 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


def test_gradient_zero_at_perfect_fit_direction():
    # residual (p - y) is 0 when the model is confident and right, so the
    # gradient collapses toward 0
    theta = np.array([50.0, 0.0, 0.0, 0.0])
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    y = np.array([1.0, 0.0])
    assert np.linalg.norm(step_gradient("logistic", theta, x, y)) < 1e-12


def stacked_buffers(kind, n, m, seed):
    """(theta (n, d), x (n, m, 3), bool y (m,)) drawn from one stream."""
    rng = substream(seed, "obs:0")
    theta = rng.normal(0.0, 1.0, size=(n, model_dim(kind)))
    return theta, rng.normal(0.0, 1.0, size=(n, m, 3)), rng.integers(0, 2, size=m) == 1


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_gradient_matches_the_2d_oracle_bytewise(kind):
    theta, x, y = stacked_buffers(kind, 3, 57, 40)
    for i in range(3):
        got = step_gradient(kind, theta[i], x[i], y)
        assert got.tobytes() == reference_gradient(kind, theta[i], x[i], y).tobytes()


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
@pytest.mark.parametrize("n, m", [(1, 1), (3, 57), (400, 40)])
@pytest.mark.parametrize("shared", [False, True], ids=["own-windows", "shared-windows"])
def test_predict_rows_stacked_matches_one_model_bytewise(kind, n, m, shared):
    theta, x, _ = stacked_buffers(kind, n, m + 5, 70 + n + m)
    # the engine's eval slice: the tail of each row, one row broadcast when shared
    x = (np.broadcast_to(x[:1], x.shape) if shared else x)[:, 5:]
    got = predict_rows(kind, theta, x)
    assert got.shape == (n, m)
    for i in range(n):
        assert got[i].tobytes() == predict_rows(kind, theta[i], x[i]).tobytes()


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
@pytest.mark.parametrize(
    "n, m, batch",
    [(1, 1, 10), (3, 23, 10), (5, 7, 7), (4, 5, 64), (14, 50, 1), (6, 333, 64)],
    ids=["single-window", "short-last-batch", "batch-is-buffer", "batch-past-buffer",
         "batch-1", "long-buffer"],
)
@pytest.mark.parametrize("shared", [False, True], ids=["own-streams", "shared-streams"])
@pytest.mark.parametrize("k", [None, 3], ids=["no-copies", "three-copies"])
def test_train_rows_matches_the_per_model_oracle_bytewise(kind, n, m, batch, shared, k):
    # theta (n, d), or k leading copies (k, n, d), each from a different start,
    # as train_topologies trains them: a step whose work buffers mix up the
    # copies, or a full batch and a short last one, shows up byte-wise
    _, x, y = stacked_buffers(kind, n, m, 60 + n + m)
    lead = (n,) if k is None else (k, n)
    theta = substream(60 + n + m, "init").normal(0.0, 1.0, size=(*lead, model_dim(kind)))
    tc = TrainingConfig(learning_rate=0.3, epochs_per_round=3, batch_size=batch)
    # oracles.identical_nodes: n generators in one state, each drawing the same shuffles
    labels = ["train:shared"] * n if shared else [f"train:{i}" for i in range(n)]
    want = [train_local(kind, row, x[i % n], y, tc, substream(9, labels[i % n]))
            for i, row in enumerate(theta.reshape(-1, theta.shape[-1]))]
    train_rows(kind, theta, x, y, tc, shuffles([substream(9, label) for label in labels], 3, m))
    assert theta.tobytes() == np.stack(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    m=st.sampled_from([1, 2, 3, 5, 20, 50, 64, 65, 200, 1000]),
    periods=st.integers(0, 5),
    epochs=st.integers(0, 6),
)
def test_one_permuted_call_draws_what_a_shuffle_per_epoch_draws(seed, m, periods, epochs):
    # train_topologies draws a node's epoch orders for every period of a run
    # in one permuted call into int32 rows; that is the per-epoch shuffles of
    # the oracle only while numpy's permuted shuffles each row, in row order,
    # as permutation does, leaving the stream in the same state
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.empty((periods * epochs, m), dtype=np.int32)
    rng.permuted(np.broadcast_to(np.arange(m, dtype=np.int32), got.shape), axis=1, out=got)
    want = [reference.permutation(m).tolist() for _ in range(periods * epochs)]
    assert got.tolist() == want
    assert rng.bit_generator.state == reference.bit_generator.state


def test_train_rows_overflowing_row_leaves_the_others_bytewise():
    theta, x, y = stacked_buffers("logistic", 4, 30, 61)
    x[2] *= 1e300
    tc = TrainingConfig(learning_rate=1e10, epochs_per_round=2, batch_size=7)
    want = [train_local("logistic", theta[i], x[i], y, tc, substream(9, f"train:{i}"))
            for i in (0, 1, 3)]
    order = shuffles([substream(9, f"train:{i}") for i in range(4)], 2, 30)
    with np.errstate(over="ignore", invalid="ignore"):
        train_rows("logistic", theta, x, y, tc, order)
    assert not np.isfinite(theta[2]).all()
    assert theta[[0, 1, 3]].tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize(
    "rows, buffers, orders, labels, shape, match",
    [
        (3, 3, 1, 10, (4, 10), "order: 1, x: 3 and theta: 3 rows must agree"),
        (3, 2, 3, 10, (4, 10), "order: 3, x: 2 and theta: 3 rows must agree"),
        (2, 3, 3, 10, (4, 10), "order: 3, x: 3 and theta: 2 rows must agree"),
        (3, 3, 3, 9, (4, 10), "y: 9 labels for buffers of 10 windows"),
        (3, 3, 3, 10, (3, 10), r"order: rows \(3, 10\), not .* \(4, 10\)"),
        (3, 3, 3, 10, (4, 9), r"order: rows \(4, 9\), not .* \(4, 10\)"),
    ],
)
def test_train_rows_rejects_mismatched_inputs_by_name(rows, buffers, orders, labels, shape, match):
    theta = np.zeros((rows, 4))
    x, y = np.ones((buffers, 10, 3)), np.ones(labels)
    order = np.zeros((orders, *shape), dtype=np.int32)
    with pytest.raises(ValueError, match=match):
        train_rows("logistic", theta, x, y, TrainingConfig(), order)
    np.testing.assert_array_equal(theta, np.zeros((rows, 4)))


def test_train_rows_updates_theta_in_place_and_nothing_else():
    x = np.array([[1.0, 0.5, 1.5], [-1.0, -0.5, -1.5]] * 5)
    y = np.array([1.0, 0.0] * 5)
    theta = np.zeros((2, 4))
    buffers = np.stack([x, -x])
    tc = TrainingConfig(learning_rate=0.2, epochs_per_round=4, batch_size=10)
    order = shuffles([substream(1, "train:0"), substream(1, "train:1")], 4, 10)
    orders = order.copy()
    assert train_rows("logistic", theta, buffers, y, tc, order) is None
    np.testing.assert_array_equal(buffers, np.stack([x, -x]))  # inputs untouched
    np.testing.assert_array_equal(y, [1.0, 0.0] * 5)
    np.testing.assert_array_equal(order, orders)
    # each row moved, and toward its own buffer: row 1's features are flipped
    assert np.all(theta[0, :3] > 0.0) and np.all(theta[1, :3] < 0.0)


def test_train_rows_reduces_loss_both_kinds():
    rng = substream(43, "obs:0")
    x = np.empty((60, 3))
    y = np.empty(60)
    for i in range(60):
        y[i] = rng.integers(0, 2)
        x[i] = rng.normal(2.0 if y[i] else -2.0, 0.5, size=3)
    for kind in ("logistic", "mlp"):
        tc = TrainingConfig(model_kind=kind, learning_rate=0.1, epochs_per_round=5)
        start = init_model(kind, tc, substream(43, "init"))
        before = bce_loss(kind, start, x, y)
        theta = start[None].copy()
        train_rows(kind, theta, x[None], y, tc, shuffles([substream(43, "train:0")], 5, 60))
        assert bce_loss(kind, theta[0], x, y) < before


def test_train_rows_shuffle_uses_rng():
    x = np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [-1.0, 0.0, 0.0], [-0.9, -0.1, 0.0]])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    theta = np.zeros((3, 4))
    tc = TrainingConfig(batch_size=2, epochs_per_round=1, learning_rate=0.5)
    rngs = [substream(1, "train:0"), substream(1, "train:0"), substream(2, "train:0")]
    train_rows("logistic", theta, np.stack([x] * 3), y, tc, shuffles(rngs, 1, 4))
    np.testing.assert_array_equal(theta[0], theta[1])
    assert not np.array_equal(theta[0], theta[2])


def test_separable_data_reaches_high_accuracy():
    rng = substream(47, "obs:0")
    x = np.concatenate([rng.normal(2.5, 0.4, size=(300, 3)), rng.normal(-0.5, 0.4, size=(300, 3))])
    y = np.concatenate([np.ones(300), np.zeros(300)])
    tc = TrainingConfig(learning_rate=0.5, epochs_per_round=30, batch_size=32)
    theta = init_model("logistic", tc, substream(47, "init"))[None]
    train_rows("logistic", theta, x[None], y, tc, shuffles([substream(47, "train:0")], 30, 600))
    acc = np.mean((predict_rows("logistic", theta[0], x) >= 0.5) == y.astype(bool))
    assert acc >= 0.99


def test_snapshot_round_trip_bitwise():
    rng = substream(53, "init")
    for kind in ("logistic", "mlp"):
        m = ModelParams(kind, rng.normal(0.0, 2.0, size=model_dim(kind)))
        back = json.loads(model_snapshot_json(m))
        assert list(back) == ["kind", "theta"]
        assert back["kind"] == kind
        np.testing.assert_array_equal(np.array(back["theta"]), m.theta)
