"""Radio environment: propagation, primary-user activity, synthetic sensing.

Powers are handled in dBm at the interface and in linear milliwatts inside
the window synthesis.  A sensing window is ``window_samples`` draws of
instantaneous power: exponential receiver noise plus one exponential
component per active primary user (Rayleigh-faded carriers observed through
an energy detector).

A run is sensed before anything else (``sense_windows``): the primary-user
chains step over one block of uniforms (``pu_chain``), then each sensor
draws its windows in slot order from its own stream (``sensor_windows``).
This is the only sensing driver: ``engine`` calls it, with the ``traffic``
and ``obs:<id>`` streams it derives, both for a run's whole tensor and for
the one sensor row ``generate`` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scenario import Placement, Scenario

# keeps the log-domain features finite if a window statistic underflows
_POWER_FLOOR_MW = 1e-30
# power samples held at once per sensor: 256 windows of 64 samples (128 KiB)
_BLOCK_SAMPLES = 256 * 64


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    return 10.0 * math.log10(max(mw, _POWER_FLOOR_MW))


@dataclass
class ChannelModel:
    """Log-distance path loss with optional log-normal shadowing."""

    pl0_db: float = 40.0
    d0_m: float = 1.0
    n_exp: float = 3.0
    shadowing_sigma_db: float = 6.0
    noise_floor_dbm: float = -100.0


@dataclass
class PuTrafficModel:
    """Two-state Markov on/off transmitter.

    Mean burst and gap lengths are in slots; the chain leaves a state with
    probability 1/mean per slot, so sojourn times are geometric with the
    requested means.
    """

    tx_power_dbm: float = 20.0
    mean_burst_slots: float = 20.0
    mean_gap_slots: float = 40.0


def path_loss_db(ch: ChannelModel, distance_m: float) -> float:
    """Deterministic log-distance loss, clamped below the reference distance."""
    d = max(distance_m, ch.d0_m)
    return ch.pl0_db + 10.0 * ch.n_exp * math.log10(d / ch.d0_m)


def pu_chain(uniforms: np.ndarray, tm: PuTrafficModel) -> np.ndarray:
    """Primary-user chain states after each slot of a uniform block.

    ``uniforms`` is a (slots, P) block, row t holding slot t's draw for each
    chain; every chain starts idle.  A chain leaves its state when its
    uniform is below 1/mean of that state.

    Returns:
        (slots, P) bool states; row t is the state after slot t.
    """
    leave = (1.0 / tm.mean_gap_slots, 1.0 / tm.mean_burst_slots)
    states = np.empty(uniforms.shape, dtype=bool)
    for p, column in enumerate(uniforms.T.tolist()):
        state = False
        trajectory = []
        for u in column:
            state ^= u < leave[state]
            trajectory.append(state)
        states[:, p] = trajectory
    return states


def sensor_windows(
    sensor: "Placement", pus: Sequence["Placement"], states: np.ndarray, ch: ChannelModel,
    tm: PuTrafficModel, window_samples: int, rng: np.random.Generator,
) -> np.ndarray:
    """One sensor's windows over the slots of ``states``, drawn in slot order.

    A window is ``window_samples`` exponential noise powers plus, for each
    primary user on in that slot, one shadowing normal (none when sigma is
    0) and ``window_samples`` exponential powers around the shadowed mean.
    Path loss is computed once per primary user.  The windows are reduced
    in blocks of slots (``_window_stats``).

    Returns:
        (slots, 3) features, row t from slot t's window.
    """
    noise_mw = dbm_to_mw(ch.noise_floor_dbm)
    sigma = ch.shadowing_sigma_db
    mean_dbm = [
        tm.tx_power_dbm - path_loss_db(ch, math.hypot(sensor.x_m - pu.x_m, sensor.y_m - pu.y_m))
        for pu in pus
    ]
    features = np.empty((len(states), 3))
    block = max(1, _BLOCK_SAMPLES // window_samples)
    for start in range(0, len(states), block):
        rows = states[start : start + block].tolist()
        samples = np.empty((len(rows), window_samples))
        for window, row in zip(samples, rows):
            window[:] = rng.exponential(noise_mw, size=window_samples)
            for power, is_on in zip(mean_dbm, row):
                if is_on:
                    if sigma > 0.0:
                        power += rng.normal(0.0, sigma)
                    window += rng.exponential(dbm_to_mw(power), size=window_samples)
        features[start : start + len(rows)] = _window_stats(samples, ch.noise_floor_dbm)
    return features


def _window_stats(samples: np.ndarray, noise_floor_dbm: float) -> np.ndarray:
    """(mean, std, max) of each row of linear powers, in dBm over the noise
    floor, / 10: ``[(stat_dbm - noise floor) / 10]`` per row, shape (rows, 3)."""
    stats = np.stack([samples.mean(axis=1), samples.std(axis=1), samples.max(axis=1)], axis=1)
    dbm = np.array([mw_to_dbm(v) for v in stats.ravel().tolist()]).reshape(stats.shape)
    return (dbm - noise_floor_dbm) / 10.0


def sense_windows(
    scenario: "Scenario", sensors: Sequence["Placement"], pus: Sequence["Placement"],
    traffic_rng: np.random.Generator, obs_rngs: Sequence[np.random.Generator], n_slots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A run's sensing: every chain over ``n_slots``, then every sensor's windows.

    The chains start idle and step over one ``traffic_rng.random((n_slots,
    P))`` block; sensor ``i`` then draws all its windows from
    ``obs_rngs[i]``.  A slot's truth label is the global channel state (any
    primary user on), not what a sensor could locally resolve.

    Returns:
        ((len(sensors), n_slots, 3) windows, (n_slots,) bool truth labels)
    """
    tm, w = scenario.pu_traffic, scenario.schedule.window_samples
    states = pu_chain(traffic_rng.random((n_slots, len(pus))), tm)
    windows = np.empty((len(sensors), n_slots, 3))
    for i, (sensor, rng) in enumerate(zip(sensors, obs_rngs)):
        windows[i] = sensor_windows(sensor, pus, states, scenario.channel, tm, w, rng)
    return windows, states.any(axis=1)
