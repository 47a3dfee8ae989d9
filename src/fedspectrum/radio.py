"""Radio environment: propagation, primary-user activity, synthetic sensing.

Powers are handled in dBm at the interface and in linear milliwatts inside
the window synthesis; ``dbm_to_mw`` and ``mw_to_dbm`` convert whole arrays.
A sensing window is ``window_samples`` draws of instantaneous power:
exponential receiver noise plus one exponential component per active
primary user (Rayleigh-faded carriers observed through an energy detector),
whose mean carries path loss and a log-normal shadowing draw.

A run is sensed before anything else (``sense_windows``): the primary-user
chains step over one block of uniforms (``pu_chain``), then every sensor's
windows are drawn (``draw_windows``) in blocks of (sensor group x slot
range) of at most ``_BLOCK_SAMPLES`` noise samples: a long run takes one
sensor over many slots, a short one several sensors over all its slots.
Each sensor draws from its own three streams (``SensorStreams``), each
consumed in slot order:

- ``obs``: ``window_samples`` standard exponentials per slot, the noise;
- ``shadow``: one standard normal per active (slot, primary user) pair, in
  slot-major ``np.nonzero(states)`` order (none when sigma is 0);
- ``fade``: ``window_samples`` standard exponentials per such pair.

Draws are sequential and no stream is shared between sensors, so the
windows depend on neither the block shape nor the sensors' grouping, and a
shorter run senses a prefix of a longer one.  This is the only sensing
path: ``engine`` calls it, with the ``traffic`` and per-sensor streams it
derives, both for a run's whole tensor and for the one sensor row
``generate`` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scenario import Placement, Scenario

# keeps the log-domain features finite if a window statistic underflows
_POWER_FLOOR_MW = 1e-30
# noise samples held at once per block: 256 windows of 64 samples (128 KiB)
_BLOCK_SAMPLES = 256 * 64


def dbm_to_mw(dbm) -> np.ndarray:
    """Linear milliwatts of dBm powers, elementwise; too small a power reads 0."""
    with np.errstate(under="ignore"):
        return np.power(10.0, np.asarray(dbm, dtype=np.float64) / 10.0)


def mw_to_dbm(mw) -> np.ndarray:
    """dBm of linear powers, elementwise, floored at -300 dBm (1e-30 mW)."""
    return 10.0 * np.log10(np.maximum(mw, _POWER_FLOOR_MW))


class SensorStreams(NamedTuple):
    """One sensor's draw streams (module docstring), each read in slot order."""

    obs: np.random.Generator
    shadow: np.random.Generator
    fade: np.random.Generator


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


def draw_windows(
    sensors: Sequence["Placement"], pus: Sequence["Placement"], states: np.ndarray,
    ch: ChannelModel, tm: PuTrafficModel, window_samples: int,
    streams: Sequence[SensorStreams],
) -> np.ndarray:
    """Every sensor's windows over the slots of ``states``, sensor ``i``'s
    drawn from ``streams[i]`` (module docstring), one block of (sensor group
    x slot range) at a time.

    A window is its noise row plus, for each primary user on in that slot,
    in index order, a fade row scaled to the path-loss mean shadowed by
    ``sigma`` times the pair's normal, in dB.  Path loss is computed once
    per (sensor, primary user) and the active pairs once per slot range;
    each sensor then draws its rows of the block, and the block's arithmetic
    runs once for the whole group.

    Returns:
        (len(sensors), slots, 3) features, [i, t] from sensor i's window of slot t.
    """
    n, n_slots, w = len(sensors), len(states), window_samples
    sigma = ch.shadowing_sigma_db
    noise_mw = dbm_to_mw(ch.noise_floor_dbm)
    mean_dbm = np.array([
        [tm.tx_power_dbm - path_loss_db(ch, math.hypot(s.x_m - pu.x_m, s.y_m - pu.y_m))
         for pu in pus]
        for s in sensors
    ])
    # (mean, std, max) in mW, converted to features in place at the end
    stats = np.empty((n, n_slots, 3))
    # a block holds at most _BLOCK_SAMPLES noise samples: long runs take one
    # sensor over many slots, short runs several sensors over every slot
    block_slots = max(1, min(n_slots, _BLOCK_SAMPLES // w))
    group = max(1, _BLOCK_SAMPLES // (block_slots * w))
    for start in range(0, n_slots, block_slots):
        chunk = states[start : start + block_slots]
        slots, pu = np.nonzero(chunk)
        by_pu = [(slots[mine], mine) for mine in (pu == p for p in range(len(pus)))]
        for first in range(0, n, group):
            rows = range(first, min(first + group, n))
            samples = np.empty((len(rows), len(chunk), w))
            normals = np.empty((len(rows), len(pu)))
            fades = np.empty((len(rows), len(pu), w))
            for j, i in enumerate(rows):
                obs, shadow, fade = streams[i]
                obs.standard_exponential(out=samples[j])
                if sigma > 0.0:
                    shadow.standard_normal(out=normals[j])
                fade.standard_exponential(out=fades[j])
            samples *= noise_mw
            power_dbm = mean_dbm[first : rows.stop, pu]
            if sigma > 0.0:
                power_dbm = power_dbm + sigma * normals
            fades *= dbm_to_mw(power_dbm)[..., None]
            for on_slots, mine in by_pu:
                samples[:, on_slots] += fades[:, mine]
            _window_stats(samples, stats[first : rows.stop, start : start + len(chunk)])
    # features (mw_to_dbm(stats) - noise floor) / 10, in place: no
    # temporaries the size of the run's tensor
    np.maximum(stats, _POWER_FLOOR_MW, out=stats)
    np.log10(stats, out=stats)
    stats *= 10.0
    stats -= ch.noise_floor_dbm
    stats /= 10.0
    return stats


def _window_stats(samples: np.ndarray, out: np.ndarray) -> None:
    """(mean, std, max) of each window of ``samples (..., W)`` into ``out
    (..., 3)``, overwriting ``samples``.  The std reuses the one mean and
    follows ``np.std``'s ufuncs (sum, / W, subtract, square, sum, / W,
    sqrt), so both equal ``samples.mean(-1)`` and ``samples.std(-1)`` bit
    for bit."""
    w = samples.shape[-1]
    mean = np.add.reduce(samples, axis=-1, keepdims=True)
    mean /= w
    out[..., 0] = mean[..., 0]
    np.maximum.reduce(samples, axis=-1, out=out[..., 2])
    samples -= mean
    samples *= samples
    var = np.add.reduce(samples, axis=-1)
    var /= w
    np.sqrt(var, out=out[..., 1])


def sensor_windows(
    sensor: "Placement", pus: Sequence["Placement"], states: np.ndarray, ch: ChannelModel,
    tm: PuTrafficModel, window_samples: int, streams: SensorStreams,
) -> np.ndarray:
    """One sensor's windows over the slots of ``states``: ``draw_windows``
    with a group of one, shape (slots, 3)."""
    return draw_windows([sensor], pus, states, ch, tm, window_samples, [streams])[0]


def sense_windows(
    scenario: "Scenario", sensors: Sequence["Placement"], pus: Sequence["Placement"],
    traffic_rng: np.random.Generator, sensor_streams: Sequence[SensorStreams], n_slots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A run's sensing: every chain over ``n_slots``, then every sensor's windows.

    The chains start idle and step over one ``traffic_rng.random((n_slots,
    P))`` block; sensor ``i`` then draws all its windows from
    ``sensor_streams[i]``.  A slot's truth label is the global channel state
    (any primary user on), not what a sensor could locally resolve.

    Returns:
        ((len(sensors), n_slots, 3) windows, (n_slots,) bool truth labels)
    """
    tm, w = scenario.pu_traffic, scenario.schedule.window_samples
    states = pu_chain(traffic_rng.random((n_slots, len(pus))), tm)
    windows = draw_windows(sensors, pus, states, scenario.channel, tm, w, sensor_streams)
    return windows, states.any(axis=1)
