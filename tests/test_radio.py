import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fedspectrum import engine, radio
from fedspectrum.engine import UnknownSensorError, generate_dataset, sense_run
from fedspectrum.radio import (
    ChannelModel,
    PuTrafficModel,
    SensorStreams,
    dbm_to_mw,
    draw_windows,
    pu_chain,
    sense_windows,
)
from fedspectrum.rng import substream
from fedspectrum.scenario import Placement, Scenario, SlotSchedule, load_scenario, place_nodes
from oracles import (
    path_loss_db,
    pu_activity_step,
    received_power_dbm,
    sense_slot,
    sense_slots,
    sensor_streams,
    window_features,
)


@given(st.lists(st.floats(min_value=-120.0, max_value=60.0), max_size=20))
def test_dbm_mw_round_trip(dbm):
    back = 10.0 * np.log10(dbm_to_mw(dbm))
    assert back.shape == (len(dbm),)
    assert back == pytest.approx(dbm, rel=1e-9, abs=1e-9)


def test_dbm_to_mw_reads_too_small_a_power_as_zero():
    # a power too small for float64 reads 0, without a warning
    assert dbm_to_mw([-4000.0, 0.0]).tolist() == [0.0, 1.0]


class _ZeroStream:
    """Stands in for a sensor stream: every draw fills zeros."""

    def standard_exponential(self, out):
        out[...] = 0.0
        return out

    standard_normal = standard_exponential


@pytest.mark.parametrize("noise_floor_dbm", [-100.0, -90.0])
def test_draw_windows_floors_silent_windows(noise_floor_dbm):
    # all-zero noise and fade rows: every statistic is floored at -300 dBm
    # before the log, so each feature is finite, with no divide warning
    ch = ChannelModel(shadowing_sigma_db=6.0, noise_floor_dbm=noise_floor_dbm)
    sensors = [Placement(i, "sensor", 10.0 * i, 0.0) for i in range(2)]
    pu = Placement(2, "primary_user", 0.0, 50.0)
    states = np.array([[False], [True], [True], [False]])
    streams = [SensorStreams(*[_ZeroStream()] * 3) for _ in sensors]
    windows = draw_windows(sensors, [pu], states, ch, PuTrafficModel(), 4, streams)
    assert windows.shape == (2, 4, 3)
    assert (windows == (-300.0 - noise_floor_dbm) / 10.0).all()


def table_loss_db(ch, distances):
    """Path loss at each distance from a sensor, as ``_mean_power_dbm``'s table has it."""
    pus = [Placement(1 + i, "primary_user", d, 0.0) for i, d in enumerate(distances)]
    sensor, tm = Placement(0, "sensor", 0.0, 0.0), PuTrafficModel(tx_power_dbm=0.0)
    return -radio._mean_power_dbm([sensor], pus, ch, tm)[0]


def test_path_loss_reference_point_and_clamp():
    loss = table_loss_db(ChannelModel(pl0_db=40.0, d0_m=1.0, n_exp=3.0), [1.0, 0.25, 10.0, 100.0])
    assert loss[:2].tolist() == [40.0, 40.0]
    assert loss[2:].tolist() == pytest.approx([70.0, 100.0])


@given(
    st.floats(min_value=0.0, max_value=5000.0),
    st.floats(min_value=0.0, max_value=5000.0),
)
def test_path_loss_monotone_in_distance(d1, d2):
    lo, hi = table_loss_db(ChannelModel(n_exp=2.5), sorted((d1, d2)))
    assert lo <= hi + 1e-12


COORDS = st.tuples(st.floats(0.0, 1e300), st.floats(0.0, 1e300))


@settings(max_examples=100, deadline=None)
@given(
    sensors=st.lists(COORDS, min_size=1, max_size=5),
    pus=st.lists(COORDS, max_size=4),
    d0=st.floats(5e-324, 1e6),
    n_exp=st.floats(0.0, 1e308),
    pl0=st.floats(-300.0, 300.0),
)
# inside the reference distance, on the dense-gossip preset's scale
@example(sensors=[(0.0, 0.0), (25.0, 75.0)], pus=[(0.5, 0.0), (900.0, 40.0)], d0=1.0,
         n_exp=3.0, pl0=40.0)
# a distance over a subnormal reference overflows to inf
@example(sensors=[(0.0, 0.0)], pus=[(1000.0, 0.0)], d0=5e-324, n_exp=3.0, pl0=40.0)
# 10 * n_exp overflows, and times log10(1) is NaN
@example(sensors=[(1.0, 1.0)], pus=[(1.0, 1.0), (2.0, 1.0)], d0=1.0, n_exp=1e308, pl0=40.0)
def test_mean_power_table_is_path_loss_of_each_pair(sensors, pus, d0, n_exp, pl0):
    ch, tm = ChannelModel(pl0_db=pl0, d0_m=d0, n_exp=n_exp), PuTrafficModel(tx_power_dbm=20.0)
    sensors = [Placement(i, "sensor", x, y) for i, (x, y) in enumerate(sensors)]
    pus = [Placement(len(sensors) + i, "primary_user", x, y) for i, (x, y) in enumerate(pus)]
    want = np.array([
        [tm.tx_power_dbm - path_loss_db(ch, math.hypot(s.x_m - u.x_m, s.y_m - u.y_m)) for u in pus]
        for s in sensors
    ]).reshape(len(sensors), len(pus))
    got = radio._mean_power_dbm(sensors, pus, ch, tm)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_received_power_no_shadowing_is_deterministic():
    ch = ChannelModel(shadowing_sigma_db=0.0)
    streams = sensor_streams(5, 0)
    before = streams.shadow.bit_generator.state
    p = received_power_dbm(ch, 20.0, 10.0, streams.shadow)
    assert p == pytest.approx(20.0 - 70.0)
    # sigma=0 must not consume entropy
    assert streams.shadow.bit_generator.state == before
    # nor in the block path: an occupied window draws a noise row and a fade row only
    sensor, pu = Placement(0, "sensor", 0.0, 0.0), Placement(1, "primary_user", 10.0, 0.0)
    busy = np.ones((1, 1), bool)
    features = draw_windows([sensor], [pu], busy, ch, PuTrafficModel(), 16, [streams])[0]
    replay = sensor_streams(5, 0)
    replay.obs.standard_exponential(16)
    replay.fade.standard_exponential(16)
    for got, expected in zip(streams, replay):
        assert got.bit_generator.state == expected.bit_generator.state
    np.testing.assert_array_equal(features[0], window_features(
        sensor, [pu], ch, PuTrafficModel(), 16, sensor_streams(5, 0)))


def test_shadowing_moments_monte_carlo():
    # Oracle: received = deterministic + N(0, sigma); check first two moments
    # of the residual over 1e5 draws.  std of the mean is 6/sqrt(1e5) ~ 0.019.
    ch = ChannelModel(shadowing_sigma_db=6.0)
    rng = substream(7, "shadow:0")
    base = 20.0 - path_loss_db(ch, 50.0)
    residuals = np.array(
        [received_power_dbm(ch, 20.0, 50.0, rng) - base for _ in range(100_000)]
    )
    assert abs(residuals.mean()) < 0.1
    assert residuals.std() == pytest.approx(6.0, abs=0.1)


def test_activity_step_consumes_one_uniform():
    # One uniform per chain per slot, drawn in chain order within a slot's
    # row, each applied with the scalar rule; no chains draw nothing.  Slot
    # 0 leaves idle half the time, so slot 1 applies both rules.
    tm = PuTrafficModel(mean_burst_slots=4.0, mean_gap_slots=2.0)
    rng_a = substream(11, "traffic")
    rng_b = substream(11, "traffic")
    block = pu_chain(rng_a.random((2, 8)), tm)
    expected, was = [], [False] * 8
    for _ in range(2):
        u = [rng_b.random() for _ in was]
        was = [not (ui < 1.0 / 4.0) if on else ui < 1.0 / 2.0 for ui, on in zip(u, was)]
        expected.append(was)
    assert block.dtype == bool and block.tolist() == expected
    assert 0 < sum(expected[0]) < 8
    assert rng_a.random() == rng_b.random()
    state = rng_a.bit_generator.state
    assert pu_chain(rng_a.random((5, 0)), tm).shape == (5, 0)
    assert rng_a.bit_generator.state == state
    # a block of slots steps like the one-slot rule applied row by row
    states = pu_chain(substream(12, "traffic").random((500, 3)), tm)
    replay, on = substream(12, "traffic"), np.zeros(3, dtype=bool)
    for row in states:
        on = pu_activity_step(on, tm, replay)
        assert row.tolist() == on.tolist()


def test_activity_stationary_occupancy_and_run_length():
    # Two-state chain with leave probability 1/mean: stationary ON fraction
    # is burst/(burst+gap) and ON sojourns are geometric with the burst mean.
    # With burst=10, gap=5 over 3e5 slots the occupancy estimator has
    # std ~ 0.002 (autocorrelation included) and the run-length mean ~ 0.07.
    tm = PuTrafficModel(mean_burst_slots=10.0, mean_gap_slots=5.0)
    on = pu_chain(substream(13, "traffic").random((300_000, 1)), tm)[:, 0]
    assert on.mean() == pytest.approx(10.0 / 15.0, abs=0.01)
    padded = np.concatenate(([False], on, [False])).astype(int)
    starts = np.flatnonzero(np.diff(padded) == 1)
    ends = np.flatnonzero(np.diff(padded) == -1)
    assert (ends - starts).mean() == pytest.approx(10.0, abs=0.25)


def _noise_only_features(n_windows, window_samples, seed):
    ch = ChannelModel(shadowing_sigma_db=0.0)
    tm = PuTrafficModel()
    sensor = Placement(0, "sensor", 0.0, 0.0)
    idle = np.zeros((n_windows, 0), dtype=bool)
    return draw_windows([sensor], [], idle, ch, tm, window_samples, [sensor_streams(seed, 0)])[0]


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
    busy = np.ones((2000, 1), dtype=bool)
    f1 = draw_windows([sensor], [pu], busy, ch, tm, 64, [sensor_streams(19, 0)])[0][:, 0]
    assert f1.mean() == pytest.approx(3.0, abs=0.1)


# Distribution checks: each states a law of the block draws from the
# channel model alone, with no code shared with the per-slot oracle.


@pytest.mark.parametrize("window_samples", [16, 64])
def test_noise_only_mean_feature_follows_the_gamma_law(window_samples):
    # With no primary user a window mean over the noise floor is the mean of
    # W standard exponentials, Gamma(W, 1) / W (criterion 7's law): 10**f1
    # must pass a Kolmogorov-Smirnov test against it.  Over 20,000 windows a
    # noise scale off by 0.1 dB (2.3%) moves the statistic ~3x past p = 1e-3.
    f1 = _noise_only_features(20_000, window_samples, 61)[:, 0]
    law = stats.gamma(window_samples, scale=1.0 / window_samples)
    assert stats.kstest(10.0**f1, law.cdf).pvalue > 1e-3


@pytest.mark.parametrize("sigma", [0.0, 6.0])
@pytest.mark.parametrize("distance_m", [10.0, 46.4, 100.0])
def test_mean_power_feature_follows_path_loss(sigma, distance_m):
    # 10**f1 is a window's mean power over the noise floor.  With the primary
    # user always on, its expectation is 1 (the noise) plus the mean received
    # power over the floor: 10**((tx - path loss - floor) / 10), times the
    # log-normal mean exp((sigma ln 10 / 10)**2 / 2) of dB-domain shadowing.
    # Held to 4 standard errors of the 20,000-window mean.
    ch = ChannelModel(shadowing_sigma_db=sigma)
    tm = PuTrafficModel(tx_power_dbm=0.0)
    sensor, pu = Placement(0, "sensor", 0.0, 0.0), Placement(1, "primary_user", distance_m, 0.0)
    busy = np.ones((20_000, 1), dtype=bool)
    streams = [sensor_streams(67, 0)]
    power = 10.0 ** draw_windows([sensor], [pu], busy, ch, tm, 64, streams)[0][:, 0]
    snr = 10.0 ** ((tm.tx_power_dbm - path_loss_db(ch, distance_m) - ch.noise_floor_dbm) / 10.0)
    expected = 1.0 + snr * math.exp((sigma * math.log(10.0) / 10.0) ** 2 / 2.0)
    assert abs(power.mean() - expected) < 4.0 * power.std() / math.sqrt(len(power))


def test_per_pair_shadowing_moments():
    # Two primary users always on; the first 90 dB stronger than the second
    # and 50 dB over the noise, with W = 1024 so the window mean sits within
    # ~0.14 dB of its faded mean.  The mean feature in dBm, less the first
    # user's path-loss power, is then its shadowing: mean 0 and std sigma (to
    # ~3.5 standard errors over 4,000 slots), and it is the shadow stream's
    # normals times sigma in slot-major pair order: every other normal, from
    # the first, and none of the second user's.
    ch = ChannelModel(shadowing_sigma_db=6.0)
    tm = PuTrafficModel(tx_power_dbm=20.0)
    sensor = Placement(0, "sensor", 0.0, 0.0)
    pus = [Placement(1, "primary_user", 10.0, 0.0), Placement(2, "primary_user", 10_000.0, 0.0)]
    busy = np.ones((4_000, 2), dtype=bool)
    f1 = draw_windows([sensor], pus, busy, ch, tm, 1024, [sensor_streams(71, 0)])[0][:, 0]
    residual = 10.0 * f1 + ch.noise_floor_dbm - (tm.tx_power_dbm - path_loss_db(ch, 10.0))
    assert abs(residual.mean()) < 0.35
    assert residual.std() == pytest.approx(6.0, abs=0.25)
    normals = sensor_streams(71, 0).shadow.standard_normal(2 * len(f1))
    assert np.corrcoef(residual, normals[0::2])[0, 1] > 0.999
    assert abs(np.corrcoef(residual, normals[1::2])[0, 1]) < 0.1


def block_runs():
    """(scenario, block sizes in samples) of a long run (3 sensors, 600 slots
    of 64 samples) and a short one (7 sensors, 40 slots of 16 samples), each
    with three primary users and 6 dB shadowing, three users and none, no
    primary user, and five users and 6 dB shadowing, whose blocks hold two
    thirds of the samples given."""
    traffic = PuTrafficModel(tx_power_dbm=0.0, mean_burst_slots=5.0, mean_gap_slots=5.0)
    runs = []
    for n_pus, sigma in ((3, 6.0), (3, 0.0), (0, 6.0), (5, 6.0)):
        long_run = Scenario(
            seed=43, area_size_m=300.0, n_sensors=3, n_primary_users=n_pus, pu_traffic=traffic,
            channel=ChannelModel(shadowing_sigma_db=sigma),
            schedule=SlotSchedule(400, 200, 10, 10, 64),
        )
        short_run = replace(long_run, n_sensors=7, schedule=SlotSchedule(30, 10, 10, 10, 16))
        runs += [
            (long_run, [64, 3 * 64, 7 * 64, 10_000 * 64]),
            (short_run, [16, 3 * 16] + [group * 40 * 16 for group in (1, 2, 3, 7, 10)]),
        ]
    return runs


def test_block_size_does_not_change_the_tensor(monkeypatch):
    # Each stream's draws are sequential and each sensor's rows of a block
    # are its own, so no block shape changes the tensor, with three primary
    # users, with or without shadowing, or none.  The long run (600 slots of
    # 64 samples, default blocks of one sensor over 384 slots, one batch of
    # two ranges) takes slot ranges of one window, of 3 and of 7 windows
    # (batches of 8 ranges; with 7, the last batch has 6, the last of them
    # a remainder of 5 slots) and of more than the run.  The short run (7
    # sensors, 40 slots of 16 samples, by default all 7 over every slot)
    # takes groups of 1, 2 and 3 sensors (the last group a remainder), of
    # all 7 and of more than 7 over every slot, and blocks of one and of 3
    # slots (batches of 2 ranges); one-slot blocks with every chain off
    # draw no (slot, primary user) pair.  With five users every block holds
    # two thirds as many samples: the long run takes slot ranges of 1, 2
    # and 4 windows and of the whole run (default: 256 slots), the short
    # run one sensor over 1, 2 and 26 slots (the last range a remainder of
    # 14) and over all 40, and groups of 2, 4 and 6 sensors.
    runs = block_runs()
    defaults = [sense_run(scenario, 43) for scenario, _ in runs]
    for default in defaults:
        assert_same_bytes(default, per_slot_reference(default.scenario, 43))
    assert defaults[1].truths.any() and not defaults[1].truths.all()
    for (scenario, block_samples), default in zip(runs, defaults):
        for samples in block_samples:
            monkeypatch.setattr(radio, "_BLOCK_SAMPLES", samples)
            assert sense_run(scenario, 43).windows.tobytes() == default.windows.tobytes()


def test_worker_count_does_not_change_the_tensor(monkeypatch):
    # Each sensor's streams are drawn by one worker, in slot order, into its
    # own rows, so neither the split nor thread scheduling (a short switch
    # interval) changes the tensor.  1, 2 and 3 workers and more than there
    # are groups: the long runs have 3 groups of one sensor, in one batch by
    # default and in 11 batches of 7-slot ranges (with five primary users,
    # 17 batches of 4-slot ranges), and the short runs, in blocks of 2
    # sensors, 4 groups, the last a remainder (with five users, 7 groups of
    # one sensor).
    if hasattr(os, "sched_getaffinity"):
        assert radio._worker_count() == len(os.sched_getaffinity(0))
    default_blocks = radio._BLOCK_SAMPLES
    runs = []
    for scenario, _ in block_runs():
        blocks = [default_blocks, 7 * 64] if scenario.n_sensors == 3 else [2 * 40 * 16]
        runs += [(scenario, block_samples) for block_samples in blocks]
    runs += [
        (load_scenario(path), default_blocks)
        for path in ("scenarios/default.json", "scenarios/data_scarce.json")
    ]
    interval = sys.getswitchinterval()
    for scenario, block_samples in runs:
        monkeypatch.setattr(radio, "_BLOCK_SAMPLES", block_samples)
        monkeypatch.setattr(radio, "_worker_count", lambda: 1)
        want = sense_run(scenario, 43).windows.tobytes()
        for workers in (2, 3, 1000):
            monkeypatch.setattr(radio, "_worker_count", lambda: workers)
            try:
                sys.setswitchinterval(1e-5)
                got = sense_run(scenario, 43)
            finally:
                sys.setswitchinterval(interval)
            assert got.windows.tobytes() == want


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", ["scenarios/default.json", "bench/scenarios/dense_gossip.json"])
def test_sensing_memory_is_a_fixed_budget(monkeypatch, path, workers):
    # tracemalloc sees numpy's allocations.  Beyond the windows and truth
    # labels it returns, sense_run holds the run's set-up (placements, each
    # sensor's three streams, the chain states, a byte per slot and primary
    # user) and, per worker, a block's noise samples, its fade rows, its
    # primary users' planes and a batch's pair data.  Less the chain states,
    # that stays under 1.5 MiB plus five blocks of noise samples a worker,
    # and 8 times as many training slots add less than 384 KiB (the busiest
    # slot range has more pairs in a longer run).
    monkeypatch.setattr(radio, "_worker_count", lambda: workers)
    scenario, excess = load_scenario(path), []
    for scale in (1, 8):
        schedule = replace(scenario.schedule,
                           n_training_slots=scale * scenario.schedule.n_training_slots)
        tracemalloc.start()
        try:
            sensing = sense_run(replace(scenario, schedule=schedule), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_slot = sensing.windows.nbytes + len(sensing.truths) * (1 + scenario.n_primary_users)
        excess.append(peak - per_slot)
    assert max(excess) < 1.5 * 2**20 + workers * 5 * 8 * radio._BLOCK_SAMPLES
    assert excess[1] < excess[0] + 384 * 2**10


@pytest.mark.parametrize("workers", [1, 2])
def test_sensing_memory_grows_with_primary_users_as_their_fade_rows(monkeypatch, workers):
    # A block holds a plane of its noise samples' shape per primary user, and
    # with more than three users it shrinks so that its noise and planes fit
    # in four blocks of _BLOCK_SAMPLES: 9 more users on default.json add only
    # their fade rows and pair data (~0.12 MiB a worker), less than one block
    # of noise samples (0.19 MiB); a plane per user in full blocks would add
    # ~1.7 MiB a worker.  The 12 users' blocks take 118 slots, and the
    # threaded run equals the per-slot reference.
    monkeypatch.setattr(radio, "_worker_count", lambda: workers)
    default, excess = load_scenario("scenarios/default.json"), []
    for n_pus in (3, 12):
        scenario = replace(default, n_primary_users=n_pus)
        tracemalloc.start()
        try:
            sensing = sense_run(scenario, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess.append(peak - sensing.windows.nbytes - len(sensing.truths) * (1 + n_pus))
    assert excess[1] - excess[0] < workers * 8 * radio._BLOCK_SAMPLES
    if workers == 2:
        assert_same_bytes(sensing, per_slot_reference(scenario, 5))


def test_window_stats_equal_numpy_bytewise():
    # Every W from 2 to 300 crosses the pairwise sum's regimes (under 8, up
    # to 128 and past it).  Rows of exact zeros, of subnormals, of 1e60-scale
    # powers and of all three mixed: the int64-view maximum equals np.max on
    # non-negative doubles, and the mean and std np.mean's and np.std's.
    for w in range(2, 301):
        rng = np.random.default_rng(w)
        powers = rng.standard_exponential((2, 6, w))
        powers[0, 0] = 0.0
        powers[0, 1] *= 5e-324 * 2**20  # subnormal
        powers[0, 2] *= 1e60
        powers[0, 3] = rng.choice([0.0, 5e-324, 1e-310, 1.0, 1e60], size=w)
        powers[1] *= 10.0 ** rng.uniform(-300.0, 60.0, size=(6, 1))
        out = np.empty((2, 6, 3))
        radio._window_stats(powers.copy(), out)
        for k, stat in enumerate((np.mean, np.std, np.max)):
            assert out[..., k].tobytes() == stat(powers, axis=-1).tobytes(), (w, stat.__name__)


class RaisingStream:
    """A stream whose draws raise ``error``, noting the thread that drew."""

    def __init__(self, error):
        self.error, self.threads = error, []

    def standard_exponential(self, out):
        self.threads.append(threading.current_thread())
        raise self.error


@pytest.mark.parametrize(
    "sensor, error",
    [(-1, RuntimeError("draw failed")), (0, RuntimeError("draw failed")), (0, KeyboardInterrupt())],
    ids=["in-a-worker-thread", "in-the-calling-thread", "interrupt-in-the-calling-thread"],
)
def test_a_failing_draw_propagates_and_no_worker_outlives_the_call(monkeypatch, sensor, error):
    # Two workers over the long run's 3 sensors: the caller draws sensor 0,
    # a thread sensors 1 and 2.  Either side's error, raised where that
    # sensor is drawn, comes out of sense_run with no thread left running.
    scenario = block_runs()[0][0]
    stream, real = RaisingStream(error), engine.streams

    def streams(seed, kind, rows):
        drawn = real(seed, kind, rows)
        if kind == "obs":
            drawn[sensor] = stream
        return drawn

    monkeypatch.setattr(engine, "streams", streams)
    monkeypatch.setattr(radio, "_worker_count", lambda: 2)
    before = threading.active_count()
    with pytest.raises(type(error)) as raised:
        sense_run(scenario, 43)
    assert raised.value is error
    assert threading.active_count() == before
    on_caller = [thread is threading.current_thread() for thread in stream.threads]
    assert on_caller == [sensor == 0]


def test_grouped_windows_without_shadowing_draw_no_normals():
    # sigma = 0 on one block of three sensors: every sensor's shadow stream
    # is left untouched, and each window is the per-slot oracle's, drawn
    # from that sensor's own obs and fade streams.
    ch, tm = ChannelModel(shadowing_sigma_db=0.0), PuTrafficModel(tx_power_dbm=0.0)
    sensors = [Placement(i, "sensor", 40.0 * i, 0.0) for i in range(3)]
    pus = [Placement(3, "primary_user", 50.0, 30.0), Placement(4, "primary_user", 0.0, 60.0)]
    states = np.array([[True, False], [True, True], [False, False], [False, True]])
    streams = [sensor_streams(5, i) for i in range(3)]
    shadow_before = [rngs.shadow.bit_generator.state for rngs in streams]
    features = draw_windows(sensors, pus, states, ch, tm, 16, streams)

    replay = [sensor_streams(5, i) for i in range(3)]
    assert features.shape == (3, 4, 3)
    for t, on in enumerate(states):
        active = [pu for pu, is_on in zip(pus, on) if is_on]
        for i, sensor in enumerate(sensors):
            np.testing.assert_array_equal(
                features[i, t], window_features(sensor, active, ch, tm, 16, replay[i])
            )
    for rngs, rngs_replay, before in zip(streams, replay, shadow_before):
        assert rngs.shadow.bit_generator.state == before
        for rng, rng_replay in zip(rngs, rngs_replay):
            assert rng.bit_generator.state == rng_replay.bit_generator.state


def _sensing_scenario(burst, gap, window_samples=32):
    return Scenario(
        seed=23,
        channel=ChannelModel(shadowing_sigma_db=6.0),
        pu_traffic=PuTrafficModel(tx_power_dbm=30.0, mean_burst_slots=burst, mean_gap_slots=gap),
        schedule=SlotSchedule(window_samples=window_samples),
    )


def test_off_pu_contributes_nothing():
    # A gap mean of 1e300 keeps the chain off, so every slot is free and the
    # windows are the ones drawn with no primary user at all.
    scenario = _sensing_scenario(burst=20.0, gap=1e300)
    sensor = Placement(0, "sensor", 0.0, 0.0)
    pu = Placement(1, "primary_user", 5.0, 0.0)
    with_off, on = sense_windows(
        scenario, [sensor], [pu], substream(23, "traffic"), [sensor_streams(23, 0)], 50
    )
    empty, none_on = sense_windows(
        scenario, [sensor], [], substream(23, "traffic"), [sensor_streams(23, 0)], 50
    )
    assert not on.any() and not none_on.any()
    np.testing.assert_array_equal(with_off, empty)


def test_sense_slot_steps_chains_then_draws_each_sensor_window():
    # Replay slot by slot: one uniform per chain from the traffic stream, then
    # sensor i's window from its own streams, given the primary users left on;
    # the truth label is whether any is on.  Short means make the chains flip.
    scenario = _sensing_scenario(burst=3.0, gap=4.0)
    sensors = [Placement(0, "sensor", 0.0, 0.0), Placement(1, "sensor", 300.0, 0.0)]
    pus = [Placement(2, "primary_user", 30.0, 40.0), Placement(3, "primary_user", 60.0, 80.0)]
    traffic = substream(37, "traffic")
    streams = [sensor_streams(37, 0), sensor_streams(37, 1)]
    features, truths = sense_windows(scenario, sensors, pus, traffic, streams, 40)

    replay = substream(37, "traffic")
    streams_replay = [sensor_streams(37, 0), sensor_streams(37, 1)]
    on = np.zeros(2, dtype=bool)
    seen = set()
    assert features.shape == (2, 40, 3)
    for t in range(40):
        on, expected = sense_slot(scenario, sensors, pus, on, replay, streams_replay)
        seen.add(tuple(on))
        assert truths[t] == on.any()
        np.testing.assert_array_equal(features[:, t], expected)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert traffic.random() == replay.random()
    for sensor_rngs, sensor_replay in zip(streams, streams_replay):
        for rng, rng_replay in zip(sensor_rngs, sensor_replay):
            assert rng.random() == rng_replay.random()


def per_slot_reference(scenario, seed):
    """The run's windows, truths and chain states from one ``sense_slot`` per
    slot, on the streams ``sense_run`` uses."""
    placements = place_nodes(scenario, substream(seed, "placement"))
    sensors = [p for p in placements if p.kind == "sensor"]
    pus = [p for p in placements if p.kind == "primary_user"]
    streams = [sensor_streams(seed, p.node_id) for p in sensors]
    n_slots = scenario.schedule.n_training_slots + scenario.schedule.n_eval_slots
    return sense_slots(scenario, sensors, pus, substream(seed, "traffic"), streams, n_slots)


def assert_same_bytes(sensing, reference):
    windows, truths, _ = reference
    assert sensing.windows.dtype == windows.dtype and sensing.windows.shape == windows.shape
    assert sensing.windows.tobytes() == windows.tobytes()
    assert sensing.truths.dtype == truths.dtype and sensing.truths.tobytes() == truths.tobytes()


@pytest.mark.parametrize(
    "path",
    ["scenarios/default.json", "scenarios/data_scarce.json", "bench/scenarios/dense_gossip.json"],
)
def test_sensed_tensor_equals_per_slot_reference_on_presets(path):
    scenario = load_scenario(path)
    if path == "scenarios/default.json":  # 600 slots still cross the 256-slot blocks
        scenario = replace(scenario, schedule=replace(scenario.schedule, n_training_slots=400,
                                                      n_eval_slots=200))
    assert_same_bytes(sense_run(scenario, 7), per_slot_reference(scenario, 7))


@pytest.mark.parametrize("n_pus", [4, 7, 12])
def test_sensed_tensor_equals_per_slot_reference_with_many_primary_users(n_pus):
    # With more than three primary users the default block shrinks to
    # 4 * _BLOCK_SAMPLES // (1 + users) samples, so the long run (600 slots of
    # 64 samples) takes slot ranges of 307, 192 and 118 slots, the last a
    # remainder (293, 24 and 10 slots), each user on its own plane.
    scenario, _ = block_runs()[0]
    scenario = replace(scenario, n_primary_users=n_pus)
    assert_same_bytes(sense_run(scenario, 11), per_slot_reference(scenario, 11))


@settings(max_examples=40, deadline=None)
@given(
    n_sensors=st.integers(1, 4),
    n_pus=st.integers(0, 3),
    sigma=st.sampled_from([0.0, 6.0]),
    # numpy's pairwise sum unrolls by 8 and splits blocks above 128 samples
    window_samples=st.one_of(st.integers(2, 7), st.integers(8, 128), st.integers(129, 300)),
    n_training=st.integers(0, 150),
    n_eval=st.integers(1, 150),
    burst=st.floats(1.0, 30.0),
    gap=st.floats(1.0, 30.0),
    seed=st.integers(0, 2**64 - 1),
)
@example(3, 0, 6.0, 64, 20, 20, 20.0, 40.0, 1)  # no primary users
@example(3, 3, 0.0, 16, 20, 20, 5.0, 5.0, 2)  # no shadowing draws
@example(3, 2, 6.0, 16, 20, 20, 5.0, 5.0, 3)  # shadowing and fading from two users
@example(2, 2, 6.0, 5, 20, 20, 5.0, 5.0, 4)  # below 8 samples
@example(2, 2, 6.0, 100, 20, 20, 5.0, 5.0, 5)  # 8 to 128 samples
@example(2, 2, 6.0, 300, 150, 150, 5.0, 5.0, 6)  # above 128, blocks of 54 slots
def test_sensed_tensor_equals_per_slot_reference(
    n_sensors, n_pus, sigma, window_samples, n_training, n_eval, burst, gap, seed
):
    scenario = Scenario(
        seed=seed,
        area_size_m=300.0,
        n_sensors=n_sensors,
        n_primary_users=n_pus,
        channel=ChannelModel(shadowing_sigma_db=sigma),
        pu_traffic=PuTrafficModel(tx_power_dbm=0.0, mean_burst_slots=burst, mean_gap_slots=gap),
        schedule=SlotSchedule(n_training, n_eval, 10, 10, window_samples),
    )
    sensing = sense_run(scenario, seed)
    assert len(sensing.windows) == n_sensors
    assert_same_bytes(sensing, per_slot_reference(scenario, seed))


def test_window_draw_order_one_shadowing_draw_per_active_pu():
    # Documented draw order: a noise row from obs, then per active PU in
    # index order one normal from shadow and one fade row from fade.
    # Replaying that sequence by hand must reproduce the features bitwise.
    ch = ChannelModel(shadowing_sigma_db=4.0)
    tm = PuTrafficModel(tx_power_dbm=10.0)
    sensor = Placement(0, "sensor", 0.0, 0.0)
    pus = [
        Placement(1, "primary_user", 30.0, 40.0),
        Placement(2, "primary_user", 60.0, 80.0),
    ]
    streams = sensor_streams(29, 3)
    busy = np.ones((1, 2), dtype=bool)
    features = draw_windows([sensor], pus, busy, ch, tm, 16, [streams])[0][0]

    replay = sensor_streams(29, 3)
    samples = replay.obs.standard_exponential(16) * np.power(10.0, ch.noise_floor_dbm / 10.0)
    for pu in pus:
        d = math.hypot(pu.x_m, pu.y_m)
        rx = 10.0 - path_loss_db(ch, d) + 4.0 * replay.shadow.standard_normal()
        samples = samples + replay.fade.standard_exponential(16) * np.power(10.0, rx / 10.0)
    stats_mw = np.array([samples.mean(), samples.std(), samples.max()])
    expected = (10.0 * np.log10(stats_mw) - ch.noise_floor_dbm) / 10.0
    np.testing.assert_array_equal(features, expected)
    for rng, rng_replay in zip(streams, replay):
        assert rng.random() == rng_replay.random()


@pytest.mark.parametrize("placement", ["grid", "uniform_random"])
@pytest.mark.parametrize("sensor_id", range(4))
def test_generate_dataset_is_the_sensor_row_of_the_run(sensor_id, placement):
    # the rows ``dataset.csv`` holds: the sensor's windows and the truth
    # labels of the run at the scenario's seed, the same on every call, for
    # the first, middle and last rows
    scenario = Scenario(seed=31, n_sensors=4, n_primary_users=2, area_size_m=400.0,
                        sensor_placement=placement)
    windows, truths = generate_dataset(scenario, sensor_id, 200)
    assert windows.shape == (200, 3) and truths.shape == (200,)
    assert 0 < np.count_nonzero(truths) < 200
    run = sense_run(scenario, 31)
    assert windows.tobytes() == run.windows[sensor_id, :200].tobytes()
    assert truths.tobytes() == run.truths[:200].tobytes()
    again, _ = generate_dataset(scenario, sensor_id, 200)
    assert again.tobytes() == windows.tobytes()


@pytest.mark.parametrize("sensor_id", [9, 4, -1])
def test_generate_dataset_unknown_sensor(sensor_id):
    scenario = Scenario(seed=31, n_sensors=4, n_primary_users=2)
    with pytest.raises(UnknownSensorError, match="valid ids 0..3"):
        generate_dataset(scenario, sensor_id, 10)


def test_generate_dataset_zero_slots():
    scenario = Scenario(seed=31, n_sensors=4, n_primary_users=2)
    windows, truths = generate_dataset(scenario, 0, 0)
    assert windows.shape == (0, 3)
    assert truths.shape == (0,)
