"""Radio environment: propagation, primary-user activity, synthetic sensing.

Powers are handled in dBm at the interface and in linear milliwatts inside
the window synthesis.  A sensing window is ``window_samples`` draws of
instantaneous power: exponential receiver noise plus one exponential
component per active primary user (Rayleigh-faded carriers observed through
an energy detector).

``sense_slot`` is the one sensing path: it steps every primary-user chain
and draws one window per sensor through ``window_features``.  Both the
simulation engine and ``generate_dataset`` call it once per slot.
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


class UnknownSensorError(ValueError):
    """Requested sensor id does not exist in the scenario."""


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


@dataclass
class DatasetSummary:
    rows_written: int
    positive_fraction: float


def path_loss_db(ch: ChannelModel, distance_m: float) -> float:
    """Deterministic log-distance loss, clamped below the reference distance."""
    d = max(distance_m, ch.d0_m)
    return ch.pl0_db + 10.0 * ch.n_exp * math.log10(d / ch.d0_m)


def received_power_dbm(
    ch: ChannelModel, tx_power_dbm: float, distance_m: float, rng: np.random.Generator
) -> float:
    """Received power with one shadowing draw; sigma=0 consumes no draws."""
    power = tx_power_dbm - path_loss_db(ch, distance_m)
    if ch.shadowing_sigma_db > 0.0:
        power += rng.normal(0.0, ch.shadowing_sigma_db)
    return power


def pu_activity_step(
    on: np.ndarray, tm: PuTrafficModel, rng: np.random.Generator
) -> np.ndarray:
    """Advance every chain one slot with one uniform per chain, in chain order."""
    leave = rng.random(on.size) < np.where(
        on, 1.0 / tm.mean_burst_slots, 1.0 / tm.mean_gap_slots
    )
    return on ^ leave


def window_features(
    sensor: "Placement",
    active_pus: Sequence["Placement"],
    ch: ChannelModel,
    tm: PuTrafficModel,
    window_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one sensing window and reduce it to standardized features.

    Per active primary user the mean received power is drawn once per window
    (shadowing), then ``window_samples`` exponential power samples are added
    to the noise samples.  Statistics are taken on the linear powers and only
    then converted to dBm, so the mean feature sits at the noise floor when
    the channel is free.

    Returns:
        ``[(mean, std, max) power in dBm - noise floor] / 10``, shape (3,).
    """
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


def sense_slot(
    scenario: "Scenario",
    sensors: Sequence["Placement"],
    pus: Sequence["Placement"],
    on: np.ndarray,
    traffic_rng: np.random.Generator,
    obs_rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """One slot: step the primary-user chains, then draw every sensor's window.

    ``on`` is the (P,) bool chain state before the slot.  Sensor ``i`` draws
    from ``obs_rngs[i]``.  The slot's truth label is the global channel
    state ``on.any()`` of the returned state, not what a sensor could
    locally resolve.

    Returns:
        (chain state after the step, (len(sensors), 3) feature array)
    """
    on = pu_activity_step(on, scenario.pu_traffic, traffic_rng)
    active = [pu for pu, is_on in zip(pus, on) if is_on]
    features = np.empty((len(sensors), 3))
    for i, sensor in enumerate(sensors):
        features[i] = window_features(
            sensor,
            active,
            scenario.channel,
            scenario.pu_traffic,
            scenario.schedule.window_samples,
            obs_rngs[i],
        )
    return on, features


def generate_dataset(
    scenario: "Scenario",
    sensor_id: int,
    n_slots: int,
    rng: np.random.Generator,
    path,
) -> DatasetSummary:
    """Write a labeled feature CSV for one sensor.

    The primary-user chains start idle; each slot steps them and draws the
    window through ``sense_slot``, both from ``rng``.  Node placement comes
    from the scenario seed's "placement" sub-stream, so the file only
    depends on (scenario, rng state).

    Returns:
        DatasetSummary with the row count and the fraction of occupied slots.
    """
    from .rng import substream
    from .scenario import place_nodes

    if n_slots < 0:
        raise ValueError(f"n_slots: must be >= 0 (got {n_slots})")
    placements = place_nodes(scenario, substream(scenario.seed, "placement"))
    sensors = {p.node_id: p for p in placements if p.kind == "sensor"}
    if sensor_id not in sensors:
        raise UnknownSensorError(
            f"sensor_id: no sensor with id {sensor_id} "
            f"(valid ids 0..{scenario.n_sensors - 1})"
        )
    pus = [p for p in placements if p.kind == "primary_user"]
    on = np.zeros(len(pus), dtype=bool)
    sensor = sensors[sensor_id]
    positives = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("slot,f1,f2,f3,label\n")
        for slot in range(n_slots):
            on, features = sense_slot(scenario, [sensor], pus, on, rng, [rng])
            label = int(on.any())
            positives += label
            f1, f2, f3 = (float(v) for v in features[0])
            fh.write(f"{slot},{f1!r},{f2!r},{f3!r},{label}\n")
    fraction = positives / n_slots if n_slots else 0.0
    return DatasetSummary(n_slots, fraction)
