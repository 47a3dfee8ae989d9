"""Independent references the module tests share."""

import math

import numpy as np

from fedspectrum.radio import dbm_to_mw, mw_to_dbm, path_loss_db


def radio_range(xy, radius_m):
    """(adjacent, distances) ``(n, n)`` matrices of the radio-range graph over
    the points ``xy``, from one numpy distance matrix: an oracle for
    ``build_neighbor_graph``, which tests each pair with ``math.hypot``."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    dist = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    return (dist <= radius_m) & ~np.eye(len(xy), dtype=bool), dist


# The per-slot sensing path the block tensor (``radio.sense_windows``) replaced:
# one chain step and one ``np.mean``/``np.std``/``np.max`` window per sensor per
# slot.  The tensor must equal it byte for byte.


def received_power_dbm(ch, tx_power_dbm, distance_m, rng):
    """Received power with one shadowing draw; sigma=0 consumes no draws."""
    power = tx_power_dbm - path_loss_db(ch, distance_m)
    if ch.shadowing_sigma_db > 0.0:
        power += rng.normal(0.0, ch.shadowing_sigma_db)
    return power


def pu_activity_step(on, tm, rng):
    """Advance every chain one slot with one uniform per chain, in chain order."""
    leave = rng.random(on.size) < np.where(
        on, 1.0 / tm.mean_burst_slots, 1.0 / tm.mean_gap_slots
    )
    return on ^ leave


def window_features(sensor, active_pus, ch, tm, window_samples, rng):
    """One window: noise samples, then per active primary user one shadowing
    normal and a window of exponentials; (mean, std, max) in dBm over the
    noise floor, / 10."""
    samples_mw = rng.exponential(dbm_to_mw(ch.noise_floor_dbm), size=window_samples)
    for pu in active_pus:
        d = math.hypot(sensor.x_m - pu.x_m, sensor.y_m - pu.y_m)
        rx_dbm = received_power_dbm(ch, tm.tx_power_dbm, d, rng)
        samples_mw += rng.exponential(dbm_to_mw(rx_dbm), size=window_samples)
    stats_dbm = np.array(
        [
            mw_to_dbm(float(samples_mw.mean())),
            mw_to_dbm(float(samples_mw.std())),
            mw_to_dbm(float(samples_mw.max())),
        ]
    )
    return (stats_dbm - ch.noise_floor_dbm) / 10.0


def sense_slot(scenario, sensors, pus, on, traffic_rng, obs_rngs):
    """One slot: step the chains, then draw sensor i's window from ``obs_rngs[i]``.

    Returns (chain state after the step, (len(sensors), 3) features)."""
    on = pu_activity_step(on, scenario.pu_traffic, traffic_rng)
    active = [pu for pu, is_on in zip(pus, on) if is_on]
    features = np.empty((len(sensors), 3))
    for i, sensor in enumerate(sensors):
        features[i] = window_features(
            sensor, active, scenario.channel, scenario.pu_traffic,
            scenario.schedule.window_samples, obs_rngs[i],
        )
    return on, features


def sense_slots(scenario, sensors, pus, traffic_rng, obs_rngs, n_slots):
    """``n_slots`` calls of ``sense_slot`` from idle chains: ((len(sensors),
    n_slots, 3) windows, (n_slots,) truth labels, (n_slots, P) chain states)."""
    on = np.zeros(len(pus), dtype=bool)
    windows = np.empty((len(sensors), n_slots, 3))
    truths = np.empty(n_slots, dtype=bool)
    states = np.empty((n_slots, len(pus)), dtype=bool)
    for t in range(n_slots):
        on, windows[:, t] = sense_slot(scenario, sensors, pus, on, traffic_rng, obs_rngs)
        states[t] = on
        truths[t] = on.any()
    return windows, truths, states
