import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspectrum.radio import (
    ChannelModel,
    PuTrafficModel,
    UnknownSensorError,
    dbm_to_mw,
    generate_dataset,
    mw_to_dbm,
    path_loss_db,
    pu_activity_step,
    received_power_dbm,
    sense_slot,
    window_features,
)
from fedspectrum.rng import substream
from fedspectrum.scenario import Placement, Scenario, SlotSchedule


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_mw_round_trip(dbm):
    assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, rel=1e-9, abs=1e-9)


def test_mw_to_dbm_floors_tiny_powers():
    assert mw_to_dbm(0.0) == mw_to_dbm(1e-40) == -300.0


def test_path_loss_reference_point_and_clamp():
    ch = ChannelModel(pl0_db=40.0, d0_m=1.0, n_exp=3.0)
    assert path_loss_db(ch, 1.0) == 40.0
    assert path_loss_db(ch, 0.25) == 40.0
    assert path_loss_db(ch, 10.0) == pytest.approx(70.0)
    assert path_loss_db(ch, 100.0) == pytest.approx(100.0)


@given(
    st.floats(min_value=0.0, max_value=5000.0),
    st.floats(min_value=0.0, max_value=5000.0),
)
def test_path_loss_monotone_in_distance(d1, d2):
    ch = ChannelModel(n_exp=2.5)
    lo, hi = sorted((d1, d2))
    assert path_loss_db(ch, lo) <= path_loss_db(ch, hi) + 1e-12


def test_received_power_no_shadowing_is_deterministic():
    ch = ChannelModel(shadowing_sigma_db=0.0)
    rng = substream(5, "obs:0")
    before = rng.bit_generator.state
    p = received_power_dbm(ch, 20.0, 10.0, rng)
    assert p == pytest.approx(20.0 - 70.0)
    # sigma=0 must not consume entropy
    assert rng.bit_generator.state == before


def test_shadowing_moments_monte_carlo():
    # Oracle: received = deterministic + N(0, sigma); check first two moments
    # of the residual over 1e5 draws.  std of the mean is 6/sqrt(1e5) ~ 0.019.
    ch = ChannelModel(shadowing_sigma_db=6.0)
    rng = substream(7, "obs:0")
    base = 20.0 - path_loss_db(ch, 50.0)
    residuals = np.array(
        [received_power_dbm(ch, 20.0, 50.0, rng) - base for _ in range(100_000)]
    )
    assert abs(residuals.mean()) < 0.1
    assert residuals.std() == pytest.approx(6.0, abs=0.1)


def test_activity_step_consumes_one_uniform():
    # One uniform per chain, drawn in chain order, each applied with the
    # scalar rule; no chains draw nothing.
    tm = PuTrafficModel(mean_burst_slots=20.0, mean_gap_slots=40.0)
    rng_a = substream(11, "traffic")
    rng_b = substream(11, "traffic")
    before = np.array([False, True, False, True])
    after = pu_activity_step(before, tm, rng_a)
    u = [rng_b.random() for _ in before]
    expected = [not (ui < 1.0 / 20.0) if was else ui < 1.0 / 40.0 for ui, was in zip(u, before)]
    assert after.dtype == bool and after.tolist() == expected
    assert rng_a.random() == rng_b.random()
    state = rng_a.bit_generator.state
    assert pu_activity_step(np.zeros(0, dtype=bool), tm, rng_a).shape == (0,)
    assert rng_a.bit_generator.state == state


def test_activity_stationary_occupancy_and_run_length():
    # Two-state chain with leave probability 1/mean: stationary ON fraction
    # is burst/(burst+gap) and ON sojourns are geometric with the burst mean.
    # With burst=10, gap=5 over 3e5 slots the occupancy estimator has
    # std ~ 0.002 (autocorrelation included) and the run-length mean ~ 0.07.
    tm = PuTrafficModel(mean_burst_slots=10.0, mean_gap_slots=5.0)
    rng = substream(13, "traffic")
    state = np.zeros(1, dtype=bool)
    on = np.empty(300_000, dtype=bool)
    for i in range(on.size):
        state = pu_activity_step(state, tm, rng)
        on[i] = state[0]
    assert on.mean() == pytest.approx(10.0 / 15.0, abs=0.01)
    padded = np.concatenate(([False], on, [False])).astype(int)
    starts = np.flatnonzero(np.diff(padded) == 1)
    ends = np.flatnonzero(np.diff(padded) == -1)
    assert (ends - starts).mean() == pytest.approx(10.0, abs=0.25)


def _noise_only_features(n_windows, window_samples, seed):
    ch = ChannelModel(shadowing_sigma_db=0.0)
    tm = PuTrafficModel()
    sensor = Placement(0, "sensor", 0.0, 0.0)
    rng = substream(seed, "obs:0")
    return np.array(
        [window_features(sensor, [], ch, tm, window_samples, rng) for _ in range(n_windows)]
    )


def test_noise_only_mean_feature_sits_at_floor():
    # Window mean of 64 exponential noise samples is Gamma(64); the log-domain
    # bias is psi(64)-ln(64) ~ -0.008 nats ~ -0.003 in feature units, so the
    # mean feature must be 0 to well under 0.05.
    feats = _noise_only_features(10_000, 64, 17)
    assert abs(feats[:, 0].mean()) < 0.05
    # max of 64 exponentials >> mean: the max feature sits above the mean one
    assert feats[:, 2].mean() > feats[:, 0].mean() + 0.05


def test_strong_pu_lifts_mean_feature_30db():
    # One PU with rx exactly 30 dB above the noise floor (sigma=0): window
    # mean ~ 1001x noise, so f1 -> log10(1001) ~ 3.0004.  Per-window std is
    # ~0.054, so the mean over 2000 windows is tight to ~0.0012.
    ch = ChannelModel(
        pl0_db=40.0, d0_m=1.0, n_exp=3.0, shadowing_sigma_db=0.0,
        noise_floor_dbm=-100.0,
    )
    tm = PuTrafficModel(tx_power_dbm=-30.0)
    sensor = Placement(0, "sensor", 0.0, 0.0)
    pu = Placement(1, "primary_user", 1.0, 0.0)
    rng = substream(19, "obs:0")
    f1 = np.array([window_features(sensor, [pu], ch, tm, 64, rng)[0] for _ in range(2000)])
    assert f1.mean() == pytest.approx(3.0, abs=0.1)


def _sensing_scenario(burst, gap, window_samples=32):
    return Scenario(
        seed=23,
        channel=ChannelModel(shadowing_sigma_db=6.0),
        pu_traffic=PuTrafficModel(tx_power_dbm=30.0, mean_burst_slots=burst, mean_gap_slots=gap),
        schedule=SlotSchedule(window_samples=window_samples),
    )


def test_off_pu_contributes_nothing():
    # A gap mean of 1e300 keeps the chain off, so the slot is free and the
    # window is the one drawn with no primary user at all.
    scenario = _sensing_scenario(burst=20.0, gap=1e300)
    sensor = Placement(0, "sensor", 0.0, 0.0)
    pu = Placement(1, "primary_user", 5.0, 0.0)
    on, with_off = sense_slot(
        scenario, [sensor], [pu], np.array([False]), substream(23, "traffic"),
        [substream(23, "obs:0")],
    )
    none_on, empty = sense_slot(
        scenario, [sensor], [], np.zeros(0, dtype=bool), substream(23, "traffic"),
        [substream(23, "obs:0")],
    )
    assert not on.any() and not none_on.any()
    np.testing.assert_array_equal(with_off, empty)


def test_sense_slot_steps_chains_then_draws_each_sensor_window():
    # Replay: one uniform per chain from the traffic stream, then sensor i's
    # window from its own stream, given the primary users left on.  A burst
    # mean of 1e300 keeps an on chain on, so the slot is occupied.
    scenario = _sensing_scenario(burst=1e300, gap=40.0)
    sensors = [Placement(0, "sensor", 0.0, 0.0), Placement(1, "sensor", 300.0, 0.0)]
    pus = [Placement(2, "primary_user", 30.0, 40.0), Placement(3, "primary_user", 60.0, 80.0)]
    on = np.array([True, False])
    traffic = substream(37, "traffic")
    obs_rngs = [substream(37, "obs:0"), substream(37, "obs:1")]
    after, features = sense_slot(scenario, sensors, pus, on, traffic, obs_rngs)

    replay = substream(37, "traffic")
    expected_on = pu_activity_step(on, scenario.pu_traffic, replay)
    assert after.tolist() == expected_on.tolist() and after[0]
    assert traffic.random() == replay.random()
    active = [pu for pu, is_on in zip(pus, after) if is_on]
    assert features.shape == (2, 3)
    for i, sensor in enumerate(sensors):
        window = window_features(
            sensor, active, scenario.channel, scenario.pu_traffic, 32, substream(37, f"obs:{i}")
        )
        np.testing.assert_array_equal(features[i], window)


def test_window_draw_order_one_shadowing_draw_per_active_pu():
    # Documented draw order: window noise vector, then per active PU one
    # shadowing normal followed by a window of exponentials.  Replaying that
    # sequence by hand must reproduce the features bitwise.
    ch = ChannelModel(shadowing_sigma_db=4.0)
    tm = PuTrafficModel(tx_power_dbm=10.0)
    sensor = Placement(0, "sensor", 0.0, 0.0)
    pus = [
        Placement(1, "primary_user", 30.0, 40.0),
        Placement(2, "primary_user", 60.0, 80.0),
    ]
    rng = substream(29, "obs:3")
    features = window_features(sensor, pus, ch, tm, 16, rng)

    replay = substream(29, "obs:3")
    samples = replay.exponential(dbm_to_mw(ch.noise_floor_dbm), size=16)
    for pu in pus:
        d = math.hypot(pu.x_m, pu.y_m)
        rx = 10.0 - path_loss_db(ch, d) + replay.normal(0.0, 4.0)
        samples = samples + replay.exponential(dbm_to_mw(rx), size=16)
    expected = (
        np.array(
            [
                mw_to_dbm(float(samples.mean())),
                mw_to_dbm(float(samples.std())),
                mw_to_dbm(float(samples.max())),
            ]
        )
        - ch.noise_floor_dbm
    ) / 10.0
    np.testing.assert_array_equal(features, expected)
    assert rng.random() == replay.random()


def test_generate_dataset_file_shape_and_determinism(tmp_path):
    scenario = Scenario(seed=31, n_sensors=4, n_primary_users=2, area_size_m=400.0)
    rng = substream(31, "dataset")
    out = tmp_path / "a.csv"
    summary = generate_dataset(scenario, 2, 200, rng, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "slot,f1,f2,f3,label"
    assert len(lines) == 201
    assert summary.rows_written == 200
    assert 0.0 < summary.positive_fraction < 1.0
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] in ("0", "1")
    float(first[1]), float(first[2]), float(first[3])

    out_b = tmp_path / "b.csv"
    generate_dataset(scenario, 2, 200, substream(31, "dataset"), out_b)
    assert out.read_bytes() == out_b.read_bytes()


def test_generate_dataset_unknown_sensor(tmp_path):
    scenario = Scenario(seed=31, n_sensors=4, n_primary_users=2)
    with pytest.raises(UnknownSensorError, match="valid ids 0..3"):
        generate_dataset(scenario, 9, 10, substream(31, "dataset"), tmp_path / "x.csv")


def test_generate_dataset_zero_slots(tmp_path):
    scenario = Scenario(seed=31, n_sensors=4, n_primary_users=2)
    out = tmp_path / "empty.csv"
    summary = generate_dataset(scenario, 0, 0, substream(31, "dataset"), out)
    assert summary.rows_written == 0
    assert summary.positive_fraction == 0.0
    assert out.read_text(encoding="utf-8") == "slot,f1,f2,f3,label\n"
