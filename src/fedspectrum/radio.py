"""Radio environment: propagation, primary-user activity, synthetic sensing.

Powers are handled in dBm at the interface and in linear milliwatts inside
the window synthesis; ``dbm_to_mw`` converts whole arrays, and
``draw_windows`` takes its features back to dB in place, floored at -300 dBm.
A sensing window is ``window_samples`` draws of instantaneous power:
exponential receiver noise plus one exponential component per active
primary user (Rayleigh-faded carriers observed through an energy detector),
whose mean carries path loss and a log-normal shadowing draw.

A run is sensed before anything else (``sense_windows``): the primary-user
chains step over one block of uniforms (``pu_chain``), then every sensor's
windows are drawn (``draw_windows``) in blocks of (sensor group x slot
range) of at most ``_BLOCK_SAMPLES`` noise samples: a long run takes one
sensor over many slots, a short one several sensors over all its slots,
and a group's shadowed mean powers take one pass per batch of slot ranges.
Each sensor draws from its own three streams (``SensorStreams``), each
consumed in slot order:

- ``obs``: ``window_samples`` standard exponentials per slot, the noise;
- ``shadow``: one standard normal per active (slot, primary user) pair, in
  slot-major ``np.nonzero(states)`` order (none when sigma is 0);
- ``fade``: ``window_samples`` standard exponentials per such pair.

A block's noise and fade rows are scaled to their mean powers in place.
One flat-index write puts each fade row in its primary user's plane, a
zeroed array of the noise rows' shape; the planes are added to the noise
in user order, each with one contiguous add, and zeroed again through the
same index.  Every term is a non-negative finite power, so an idle user's
+ 0.0 changes no bit and each window sums its rows as one add per (slot,
primary user) in user order would.  At most ``_MAX_PLANES`` planes are held
at once: more primary users are added that many at a time, so memory grows
with them only as their fade rows do.  The window maximum is reduced over
the samples' ``int64`` view, since non-negative doubles order as their bit
patterns do; the mean and std keep ``np.mean``'s and ``np.std``'s ufuncs.

The sensor groups are split across worker threads, one contiguous row
range each; numpy's draws and large ufuncs release the GIL, so the ranges
overlap.  Draws are sequential, no stream is shared between sensors and a
sensor's streams are drawn by one thread, so the windows depend on neither
the block shape, the sensors' grouping nor the split, and a shorter run
senses a prefix of a longer one.  This is the only sensing path:
``engine`` calls it, with the ``traffic`` and per-sensor streams it derives,
both for a run's whole tensor and for the one sensor row ``generate``
writes.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scenario import Placement, Scenario

# keeps the log-domain features finite if a window statistic underflows
_POWER_FLOOR_MW = 1e-30
# noise samples of one block, 384 windows of 64 (192 KiB); a block also holds
# its fade rows, one row of as many samples per active (slot, primary user) pair
_BLOCK_SAMPLES = 384 * 64
# per-user planes a block holds at most (module docstring), each of its
# noise samples' shape: both presets' three primary users take one pass
_MAX_PLANES = 3


def dbm_to_mw(dbm) -> np.ndarray:
    """Linear milliwatts of dBm powers, elementwise; too small a power reads 0."""
    with np.errstate(under="ignore"):
        return np.power(10.0, np.asarray(dbm, dtype=np.float64) / 10.0)


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
    per (sensor, primary user); each worker finds the active pairs once per
    batch of slot ranges, where each sensor group draws its normals and
    converts its pairs' powers to mW in one pass, and per block each sensor
    draws its noise and fade rows and the arithmetic runs once for the
    group.  The groups are split into contiguous row ranges, one per worker
    (``_worker_count``, at most one per group): the calling thread draws
    the first, a thread each the others.  A worker that fails, or an
    interrupt of the caller, stops the others at their next block; all are
    joined before this returns or raises the first error.

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
    # sensor over many slots, short runs several sensors over every slot; a
    # batch of slot ranges at most an eighth of that many group windows
    block_slots = max(1, min(n_slots, _BLOCK_SAMPLES // w))
    group = max(1, _BLOCK_SAMPLES // (block_slots * w))
    batch_slots = block_slots * max(1, _BLOCK_SAMPLES // 8 // (block_slots * group))
    # the most active (slot, primary user) pairs in one slot range
    max_pairs = max((np.count_nonzero(states[start : start + block_slots])
                     for start in range(0, n_slots, block_slots)), default=0)
    # planes held at once; more primary users are added that many at a time
    n_planes = max(1, min(len(pus), _MAX_PLANES))
    stop, errors = threading.Event(), []

    def draw(lo: int, hi: int) -> None:
        """Rows ``lo..hi`` of ``stats``, batch by batch: per sensor group, its
        mean powers over the batch's active pairs, then its blocks in slot
        order; returns early once ``stop`` is set."""
        samples_buf = np.empty(group * block_slots * w)
        fades_buf = np.empty(group * max_pairs * w)
        # the planes' rows and a spare row, zero between blocks
        planes_buf = np.zeros(group * (n_planes * block_slots + 1) * w)
        for batch in range(0, n_slots, batch_slots):
            # per range: first slot, active pairs' users, each pair's row in
            # the flat (n_planes x slots) planes, and per chunk of n_planes
            # users with a pair in the range, its number and active planes
            ranges = []
            for start in range(batch, min(batch + batch_slots, n_slots), block_slots):
                on = states[start : start + block_slots]
                slots, pu = np.nonzero(on)
                chunks = []
                for chunk in range(0, len(pus), n_planes):
                    active = np.flatnonzero(on[:, chunk : chunk + n_planes].any(axis=0)).tolist()
                    if active:
                        chunks.append((chunk // n_planes, active))
                ranges.append((start, pu, pu % n_planes * len(on) + slots, chunks))
            # the batch's active pairs' users, slot-major like the ranges'
            users = np.nonzero(states[batch : batch + batch_slots])[1]
            for first in range(lo, hi, group):
                rows = range(first, min(first + group, hi))
                power_dbm = mean_dbm[first : rows.stop, users]
                if sigma > 0.0:
                    normals = np.empty(power_dbm.shape)
                    for j, i in enumerate(rows):
                        streams[i].shadow.standard_normal(out=normals[j])
                    power_dbm += sigma * normals
                powers, done = dbm_to_mw(power_dbm), 0
                for start, pu, row, chunks in ranges:
                    if stop.is_set():
                        return
                    size, length, pairs = len(rows), min(block_slots, n_slots - start), len(pu)
                    samples = samples_buf[: size * length * w].reshape(size, length, w)
                    fades = fades_buf[: size * pairs * w].reshape(size, pairs, w)
                    flat = planes_buf[: size * (n_planes * length + 1) * w].reshape(
                        size, n_planes * length + 1, w)
                    planes = flat[:, :-1].reshape(size, n_planes, length, w)
                    for j, i in enumerate(rows):
                        streams[i].obs.standard_exponential(out=samples[j])
                        streams[i].fade.standard_exponential(out=fades[j])
                    samples *= noise_mw
                    fades *= powers[:, done : done + pairs, None]
                    done += pairs
                    # a user's fade rows in its plane, zero elsewhere: adding
                    # the planes in user order adds each slot's rows in that
                    # order, and + 0.0 leaves a non-negative sample as it is.
                    # With more users than planes, the rows of other chunks'
                    # users go to a spare row past the planes
                    for chunk, active in chunks:
                        at = row if len(pus) <= n_planes else np.where(
                            pu // n_planes == chunk, row, n_planes * length)
                        flat[:, at] = fades
                        for plane in active:
                            samples += planes[:, plane]
                        flat[:, at] = 0.0
                    _window_stats(samples, stats[first : rows.stop, start : start + length])

    def work(lo: int, hi: int) -> None:
        try:
            draw(lo, hi)
        except BaseException as exc:  # re-raised by the caller after the joins
            errors.append(exc)
            stop.set()

    n_groups = -(-n // group)
    workers = max(1, min(_worker_count(), n_groups))
    bounds = [min(n, group * (n_groups * k // workers)) for k in range(workers + 1)]
    threads = [threading.Thread(target=work, args=r) for r in zip(bounds[1:-1], bounds[2:])]
    try:
        for thread in threads:
            thread.start()
        work(bounds[0], bounds[1])
    except BaseException:  # a thread that would not start, or an interrupt
        stop.set()
        raise
    finally:
        for thread in threads:
            while thread.is_alive():
                try:
                    thread.join()
                except BaseException as exc:  # interrupted while waiting
                    errors.append(exc)
                    stop.set()
    if errors:
        raise errors[0]
    # features (dBm of stats floored at 1e-30 mW - noise floor) / 10, in
    # place: no temporaries the size of the run's tensor
    np.maximum(stats, _POWER_FLOOR_MW, out=stats)
    np.log10(stats, out=stats)
    stats *= 10.0
    stats -= ch.noise_floor_dbm
    stats /= 10.0
    return stats


def _worker_count() -> int:
    """The CPUs this process may run on: ``draw_windows`` starts at most
    this many workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _window_stats(samples: np.ndarray, out: np.ndarray) -> None:
    """(mean, std, max) of each window of ``samples (..., W)`` into ``out
    (..., 3)``, overwriting ``samples``.  The std reuses the one mean and
    follows ``np.std``'s ufuncs (sum, / W, subtract, square, sum, / W,
    sqrt), so both equal ``samples.mean(-1)`` and ``samples.std(-1)`` bit
    for bit.  The max is reduced over the ``int64`` view, which equals
    ``samples.max(-1)`` for non-negative, non-NaN samples (every power is)."""
    w = samples.shape[-1]
    mean = np.add.reduce(samples, axis=-1, keepdims=True)
    mean /= w
    out[..., 0] = mean[..., 0]
    # non-negative doubles order as their bit patterns, which reduce faster
    np.maximum.reduce(samples.view(np.int64), axis=-1, out=out[..., 2].view(np.int64))
    samples -= mean
    samples *= samples
    var = np.add.reduce(samples, axis=-1)
    var /= w
    np.sqrt(var, out=out[..., 1])


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
