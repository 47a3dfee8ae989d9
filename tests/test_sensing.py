import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedspectrum.rng import substream
from fedspectrum.sensing import (
    LOGISTIC_DIM,
    MLP_DIM,
    EmptyDataError,
    ModelParams,
    TrainingConfig,
    bce_gradient,
    bce_loss,
    cost_constants,
    energy_baseline_decide,
    init_model,
    model_cost,
    model_dim,
    model_from_snapshot,
    model_snapshot_json,
    predict,
    predict_batch,
    train_local,
)


def random_model(kind, rng):
    return ModelParams(kind, rng.normal(0.0, 1.0, size=model_dim(kind)))


def test_dims_and_cost_constants():
    assert model_dim("logistic") == LOGISTIC_DIM == 4
    assert model_dim("mlp") == MLP_DIM == 41
    assert cost_constants("logistic") == (3, 4)
    assert cost_constants("mlp") == (32, 41)
    with pytest.raises(ValueError, match="unknown model kind"):
        model_dim("cnn")


def test_model_cost_bytes():
    tc = TrainingConfig()
    logistic = model_cost(init_model("logistic", tc, substream(1, "init")))
    mlp = model_cost(init_model("mlp", tc, substream(1, "init")))
    assert (logistic.macs_per_inference, logistic.param_count, logistic.model_bytes) == (3, 4, 32)
    assert (mlp.macs_per_inference, mlp.param_count, mlp.model_bytes) == (32, 41, 328)


def test_init_logistic_is_zero():
    m = init_model("logistic", TrainingConfig(), substream(2, "init"))
    np.testing.assert_array_equal(m.theta, np.zeros(4))
    assert m.n_train_samples == 0


def test_init_mlp_weights_bounded_biases_zero():
    tc = TrainingConfig(init_scale=0.25)
    m = init_model("mlp", tc, substream(2, "init"))
    w1, b1, w2, b2 = m.theta[:24], m.theta[24:32], m.theta[32:40], m.theta[40]
    assert np.all(np.abs(w1) <= 0.25) and np.all(np.abs(w2) <= 0.25)
    assert np.any(w1 != 0.0) and np.any(w2 != 0.0)
    np.testing.assert_array_equal(b1, np.zeros(8))
    assert b2 == 0.0
    again = init_model("mlp", tc, substream(2, "init"))
    np.testing.assert_array_equal(m.theta, again.theta)


def test_model_params_validation():
    with pytest.raises(ValueError, match="shape"):
        ModelParams("logistic", np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        ModelParams("logistic", np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="n_train_samples"):
        ModelParams("logistic", np.zeros(4), -1)


def test_copy_is_independent():
    m = ModelParams("logistic", np.zeros(4), 5)
    c = m.copy()
    c.theta[0] = 9.0
    assert m.theta[0] == 0.0
    assert c.n_train_samples == 5


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
def test_predict_batch_probabilities_in_unit_interval(x, theta):
    m = ModelParams("mlp", theta)
    p = predict_batch(m, x)
    assert p.shape == (5,)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    for i in range(5):
        assert p[i] == pytest.approx(predict(m, x[i]), rel=1e-12, abs=1e-15)


def test_bce_loss_zero_model_is_log_two():
    m = ModelParams("logistic", np.zeros(4))
    x = np.array([[0.1, 0.2, 0.3], [1.0, 1.0, 1.0]])
    assert bce_loss(m, x, np.array([0.0, 1.0])) == pytest.approx(np.log(2.0), rel=1e-12)


def test_bce_loss_extreme_logits_no_overflow():
    m = ModelParams("logistic", np.array([1000.0, 0.0, 0.0, 0.0]))
    x = np.array([[1.0, 0.0, 0.0]])
    with np.errstate(over="raise"):
        assert bce_loss(m, x, np.array([1.0])) == pytest.approx(0.0, abs=1e-12)
        assert bce_loss(m, x, np.array([0.0])) == pytest.approx(1000.0, rel=1e-12)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_gradient_matches_central_differences(kind):
    # Oracle: central differences on the scalar loss, h=1e-6; roundoff noise
    # on unit-scale losses is ~1e-10/coordinate, far under the 1e-5 gate.
    rng = substream(41, f"train:{kind}")
    for _ in range(10):
        m = random_model(kind, rng)
        x = rng.normal(0.0, 1.0, size=(7, 3))
        y = rng.integers(0, 2, size=7).astype(float)
        grad = bce_gradient(m, x, y)
        fd = np.empty_like(grad)
        h = 1e-6
        for j in range(m.theta.size):
            tp, tm_ = m.theta.copy(), m.theta.copy()
            tp[j] += h
            tm_[j] -= h
            up = bce_loss(ModelParams(kind, tp), x, y)
            dn = bce_loss(ModelParams(kind, tm_), x, y)
            fd[j] = (up - dn) / (2.0 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


def test_gradient_zero_at_perfect_fit_direction():
    # residual (p - y) is 0 when the model is confident and right, so the
    # gradient collapses toward 0
    m = ModelParams("logistic", np.array([50.0, 0.0, 0.0, 0.0]))
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    y = np.array([1.0, 0.0])
    assert np.linalg.norm(bce_gradient(m, x, y)) < 1e-12


def test_train_local_empty_buffer_raises():
    m = ModelParams("logistic", np.zeros(4))
    with pytest.raises(EmptyDataError):
        train_local(m, np.empty((0, 3)), np.empty(0), TrainingConfig(), substream(1, "train:0"))


def test_train_local_returns_new_model_and_counts():
    x = np.array([[1.0, 0.5, 1.5], [-1.0, -0.5, -1.5]] * 5)
    y = np.array([1.0, 0.0] * 5)
    m = ModelParams("logistic", np.zeros(4), 3)
    tc = TrainingConfig(learning_rate=0.2, epochs_per_round=4, batch_size=10)
    updated, delta = train_local(m, x, y, tc, substream(1, "train:0"))
    np.testing.assert_array_equal(m.theta, np.zeros(4))  # input untouched
    assert m.n_train_samples == 3
    assert updated.n_train_samples == 13
    assert delta.train_macs_accumulated == 4 * 10 * 3 * 3
    assert delta.param_count == 4 and delta.model_bytes == 32


def test_train_local_reduces_loss_both_kinds():
    rng = substream(43, "obs:0")
    x = np.empty((60, 3))
    y = np.empty(60)
    for i in range(60):
        y[i] = rng.integers(0, 2)
        x[i] = rng.normal(2.0 if y[i] else -2.0, 0.5, size=3)
    for kind in ("logistic", "mlp"):
        tc = TrainingConfig(model_kind=kind, learning_rate=0.1, epochs_per_round=5)
        m = init_model(kind, tc, substream(43, "init"))
        before = bce_loss(m, x, y)
        trained, _ = train_local(m, x, y, tc, substream(43, "train:0"))
        assert bce_loss(trained, x, y) < before


def test_train_local_shuffle_uses_rng():
    x = np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [-1.0, 0.0, 0.0], [-0.9, -0.1, 0.0]])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    m = ModelParams("logistic", np.zeros(4))
    tc = TrainingConfig(batch_size=2, epochs_per_round=1, learning_rate=0.5)
    a, _ = train_local(m, x, y, tc, substream(1, "train:0"))
    b, _ = train_local(m, x, y, tc, substream(1, "train:0"))
    c, _ = train_local(m, x, y, tc, substream(2, "train:0"))
    np.testing.assert_array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)


def test_separable_data_reaches_high_accuracy():
    rng = substream(47, "obs:0")
    x = np.concatenate([rng.normal(2.5, 0.4, size=(300, 3)), rng.normal(-0.5, 0.4, size=(300, 3))])
    y = np.concatenate([np.ones(300), np.zeros(300)])
    tc = TrainingConfig(learning_rate=0.5, epochs_per_round=30, batch_size=32)
    m = init_model("logistic", tc, substream(47, "init"))
    trained, _ = train_local(m, x, y, tc, substream(47, "train:0"))
    acc = np.mean((predict_batch(trained, x) >= 0.5) == y.astype(bool))
    assert acc >= 0.99


def test_energy_baseline_strict_threshold():
    assert energy_baseline_decide([0.5, 0.0, 0.0], 0.4) is True
    assert energy_baseline_decide([0.4, 9.0, 9.0], 0.4) is False
    assert energy_baseline_decide([0.4 + 1e-9, 0.0, 0.0], 0.4) is True


def test_snapshot_round_trip_bitwise():
    rng = substream(53, "init")
    for kind in ("logistic", "mlp"):
        m = ModelParams(kind, rng.normal(0.0, 2.0, size=model_dim(kind)), 17)
        back = model_from_snapshot(model_snapshot_json(m))
        assert back.kind == kind
        assert back.n_train_samples == 17
        np.testing.assert_array_equal(back.theta, m.theta)
