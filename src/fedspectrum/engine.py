"""Slot-synchronous simulation engine and topology comparison.

A run senses, trains, then evaluates on slices of what it sensed.  One
``_sense`` call places the nodes and draws, in one ``radio.sense_windows``
call, the windows of the sensor rows it is given and the truth labels
(whether any primary user transmits in a slot): for ``sense_run`` every row
of the run's ``(n, n_training_slots + n_eval_slots, 3)`` tensor, for
``generate_dataset`` one sensor's row.  These and the training shuffles
depend on (scenario, seed) only, never on the topology, so ``compare``
senses once per seed, ``train_topologies`` trains isolated, gossip and
central as one ``(3, n, d)`` model array, and ``run_simulation`` evaluates each.
Training slots: every ``local_train_period_slots`` one ``train_rows`` step
trains row ``i`` of every ``(n, d)`` slice on its row of the period's
windows, in epoch orders drawn in chunks of periods, one ``permuted`` call
per node's ``train`` stream a chunk; every ``federation_period_slots`` each
topology's ``Exchange`` with a ``mix`` (gossip or central FedAvg) mixes its
slice, training first on a shared slot; ``_exchange`` builds the records up
front and alone reads a topology's name.  Eval slots: models are frozen and
one ``predict_rows`` call decides every node's windows.  Sensor ``i`` is
row ``i`` of every array: models, neighbor table, windows, per-node
results.  The engine opens no file and reads no clock: results are data
(arrays, ``RunResult``) and ``cli`` owns every file, output format, summary
across seeds and wall-clock reading.  A Scenario is valid and frozen once
built (``scenario``), so no function here checks it again, and a run's
placements are a tuple of ``Placement`` named tuples.

Costs are closed forms of the schedule, not tallies: every node trains on
``period * (n_training_slots // period)`` windows, ``epochs_per_round``
times each at ``3 * macs_per_inference`` (forward, backward, update); a
run with a ``mix`` has ``n_training_slots // federation_period_slots`` rounds,
and traffic and aggregation MACs follow from the rounds and its record's
``degree``, ``merges`` and ``coordinator`` counts.

Random streams are named by kind and row (``rng.streams``) so modules
cannot disturb each other, and are derived here only: ``placement``,
``traffic`` and ``init`` of one row each, and row ``i`` of ``obs``,
``shadow`` and ``fade`` (sensor ``i``'s ``radio.SensorStreams``) and of
``train``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .federation import (
    TOPOLOGIES,
    FederationConfig,
    TrafficStats,
    build_neighbor_graph,
    exchange_traffic,
    fedavg_mix,
    gossip_mix,
    gossip_mixer,
    payload_bytes,
)
from .radio import SensorStreams, sense_windows
from .rng import streams, substream
from .scenario import MAX_WINDOWS, Placement, Scenario, place_nodes, scenario_digest
from .sensing import (
    CostReport,
    ModelParams,
    cost_constants,
    init_model,
    model_dim,
    predict_rows,
    train_rows,
)


# epoch orders held at once, in bytes: both presets draw a run's in one chunk
_ORDER_BYTES = 1 << 20


class DivergenceError(ValueError):
    """A node's model left the finite numbers during a run."""


class UnknownSensorError(ValueError):
    """Requested sensor id does not exist in the scenario."""


@dataclass(frozen=True)
class DetectionMetrics:
    """Confusion counts with derived rates; rates without support are None."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def pd(self) -> float | None:
        positives = self.tp + self.fn
        return self.tp / positives if positives else None

    @property
    def pfa(self) -> float | None:
        negatives = self.fp + self.tn
        return self.fp / negatives if negatives else None

    @property
    def accuracy(self) -> float | None:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else None


def _confusion(decided: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """(tp, fp, tn, fn) ``(..., 4)`` of bool decisions ``(..., m)`` against ``(m,)`` truths."""
    tp = np.count_nonzero(decided & truths, axis=-1)
    fp = np.count_nonzero(decided, axis=-1) - tp
    fn = np.count_nonzero(truths) - tp
    return np.stack([tp, fp, truths.size - tp - fp - fn, fn], axis=-1)


@dataclass(eq=False)
class RunResult:
    """Everything one simulation produced; row ``i`` of each per-node array
    (read-only) is sensor ``i``, ``confusion``'s its (tp, fp, tn, fn)."""

    scenario_digest: str
    topology: str
    seed: int
    confusion: np.ndarray
    global_metrics: DetectionMetrics
    traffic: TrafficStats
    per_node_cost: list[CostReport]
    node_aggregation_macs: np.ndarray
    central_aggregation_macs: int
    federation_rounds: int
    final_models: list[ModelParams]

    def busiest_node_bytes(self) -> int:
        """Bytes the busiest sensor sent and received."""
        return 2 * int(self.traffic.tx_bytes.max())


@dataclass(frozen=True, eq=False)
class RunSensing:
    """What a run draws before training: placement, windows, truth labels.

    ``windows`` (read-only) is ``(n_sensors, slots, 3)``, row ``i`` drawn from
    sensor ``i``'s own streams; ``truths`` (read-only) is ``(slots,)``.
    """

    scenario: Scenario
    seed: int
    placements: tuple[Placement, ...]
    windows: np.ndarray
    truths: np.ndarray


def _sense(scenario: Scenario, seed: int, rows: range, n_slots: int):
    """Place the nodes (sensors ``0..n_sensors-1``, then primary users) and draw
    ``n_slots`` windows of the sensors ``rows``, each from its row of ``obs``,
    ``shadow`` and ``fade``: the placements, ``(len(rows), n_slots, 3)``
    windows and ``(n_slots,)`` truths that ``sense_run`` and ``generate_dataset`` share."""
    placements = place_nodes(scenario, substream(seed, "placement"))
    kinds = [streams(seed, kind, rows) for kind in SensorStreams._fields]
    return placements, *sense_windows(
        scenario, placements[rows.start : rows.stop], placements[scenario.n_sensors :],
        substream(seed, "traffic"), [SensorStreams(*rngs) for rngs in zip(*kinds)], n_slots)


def sense_run(scenario: Scenario, seed: int) -> RunSensing:
    """Place the nodes and draw every window, training and eval slots, of one
    (scenario, seed) run: ``_sense`` over every sensor's row."""
    n_slots = scenario.schedule.n_training_slots + scenario.schedule.n_eval_slots
    placements, windows, truths = _sense(scenario, seed, range(scenario.n_sensors), n_slots)
    windows.flags.writeable = truths.flags.writeable = False
    return RunSensing(scenario, seed, placements, windows, truths)


def check_dataset(scenario: Scenario, sensor_id: int, n_slots: int) -> None:
    """Raise, naming the argument, unless ``generate_dataset`` can draw
    ``n_slots`` rows of sensor ``sensor_id`` of ``scenario``."""
    # the row's windows and the chain block's steps are each at most MAX_WINDOWS
    limit = MAX_WINDOWS // max(1, scenario.n_primary_users)
    if not 0 <= n_slots <= limit:
        raise ValueError(
            f"n_slots: must be in 0..{limit} (got {n_slots}); the limit is "
            f"{MAX_WINDOWS} / max(1, n_primary_users)"
        )
    if not 0 <= sensor_id < scenario.n_sensors:  # sensor i is node i
        raise UnknownSensorError(
            f"sensor_id: no sensor with id {sensor_id} "
            f"(valid ids 0..{scenario.n_sensors - 1})"
        )


def generate_dataset(scenario: Scenario, sensor_id: int, n_slots: int) -> tuple[np.ndarray, ...]:
    """Sensor ``sensor_id``'s ``(n_slots, 3)`` windows and the ``(n_slots,)``
    truth labels: ``_sense`` over its one row, so its row of ``sense_run(scenario,
    scenario.seed)`` (of a longer run, past its slots).  Bad arguments fail
    (``check_dataset``) before any placement is drawn."""
    check_dataset(scenario, sensor_id, n_slots)
    _, windows, truths = _sense(scenario, scenario.seed, range(sensor_id, sensor_id + 1), n_slots)
    return windows[0], truths


class Exchange(NamedTuple):
    """A topology's federation round: ``mix`` maps ``(n, d)`` models to mixed
    ones (None: no round); sensor ``i`` sends (and receives) ``degree[i]`` models
    and merges ``merges[i]`` (both read-only); the coordinator serves ``coordinator``."""

    mix: Callable[[np.ndarray], np.ndarray] | None
    degree: np.ndarray
    merges: np.ndarray
    coordinator: int


def _exchange(topology: str, sensors: Sequence[Placement], cfg: FederationConfig, d: int):
    """``topology``'s ``Exchange`` over ``sensors`` for ``(n, d)`` models, the
    one reading of a topology's name: gossip builds its graph and mixer once."""
    zeros = np.zeros(len(sensors), np.int64)
    ex = Exchange(None, zeros, zeros, 0)
    if topology == "gossip":
        table = build_neighbor_graph(sensors, cfg.neighbor_radius_m)
        mixer, degree = gossip_mixer(table, cfg, d), table.valid.sum(axis=1)
        ex = Exchange(lambda theta: gossip_mix(theta, mixer), degree, degree, 0)
    if topology == "central":
        ex = Exchange(fedavg_mix, zeros + 1, zeros, len(sensors))
    ex.degree.flags.writeable = ex.merges.flags.writeable = False
    return ex


@dataclass(frozen=True, eq=False)
class TrainedRuns:
    """Topologies trained on one ``RunSensing``: row ``j`` of ``theta (k, n, d)``
    (read-only) is ``topologies[j]``'s models at the end of the training
    phase, and ``exchanges[j]`` its ``Exchange``."""

    sensing: RunSensing
    topologies: tuple[str, ...]
    theta: np.ndarray
    exchanges: tuple[Exchange, ...]


def train_topologies(sensing: RunSensing, topologies: Sequence[str]) -> TrainedRuns:
    """Train ``topologies`` on ``sensing`` in one schedule loop, their models
    one ``(k, n, d)`` array in ``TOPOLOGIES`` order.  Every run's ``train``
    streams start fresh and the training slots do not depend on the topology,
    so the k copies of node i's model share one shuffle per epoch.  A diverging
    copy trains on without touching the others; after the loop the first
    divergence in ``TOPOLOGIES`` order is raised, as its run alone raises it."""
    if not 0 < len(topologies) == len(set(topologies) & set(TOPOLOGIES)):
        raise ValueError(f"topology: must be one of {TOPOLOGIES}, one or more, none twice "
                         f"(got {list(topologies)})")
    topologies = tuple(t for t in TOPOLOGIES if t in topologies)
    scenario, seed, tc = sensing.scenario, sensing.seed, sensing.scenario.training
    k, n, cfg, kind = len(topologies), scenario.n_sensors, scenario.federation, tc.model_kind
    sensors = sensing.placements[:n]  # sensor i is node i
    exchanges = tuple(_exchange(t, sensors, cfg, model_dim(kind)) for t in topologies)
    mixes = [(j, ex.mix) for j, ex in enumerate(exchanges) if ex.mix is not None]
    # theta[j, i] is sensor i's model in topology j
    theta = np.tile(init_model(kind, tc, substream(seed, "init")), (k, n, 1))
    train_rngs = streams(seed, "train", range(n))

    schedule = scenario.schedule
    period, federation = schedule.local_train_period_slots, schedule.federation_period_slots
    windows, truths, epochs = sensing.windows, sensing.truths, tc.epochs_per_round
    # orders[i, p % chunk, e]: period p's e-th rng.permutation(period) of node
    # i, drawn a chunk of periods at a time in one permuted call per node
    # (fastest on intp rows) and kept as int32, at most _ORDER_BYTES a chunk
    periods = schedule.n_training_slots // period
    chunk = min(periods, max(1, _ORDER_BYTES // (4 * n * epochs * period)))
    orders = np.empty((n, chunk, epochs, period), np.int32)
    drawn = np.empty((chunk * epochs, period), np.intp)
    ordered = np.broadcast_to(np.arange(period), drawn.shape)
    failures: dict[int, str] = {}  # topology index: its first divergence

    def check(when: str) -> None:
        if np.isfinite(theta).all():
            return
        finite = np.isfinite(theta).all(axis=-1)
        for j in np.flatnonzero(~finite.all(axis=1)).tolist():
            node = int(np.argmin(finite[j]))  # row i is sensor node i
            failures.setdefault(
                j, f"{topologies[j]} node {node}: theta has non-finite entries {when}")

    # a diverging model is reported once, by node, in check; a period longer
    # than the training phase never trains
    with np.errstate(over="ignore", invalid="ignore"):
        for slot in range(1, schedule.n_training_slots + 1):
            if slot % period == 0:
                p = slot // period - 1
                if p % chunk == 0:  # the next chunk's orders, maybe a shorter last one
                    draws = min(chunk, periods - p) * epochs
                    source, out = ordered[:draws], drawn[:draws]
                    for rng, rows in zip(train_rngs, orders.reshape(n, -1, period)):
                        rows[:draws] = rng.permuted(source, axis=1, out=out)
                x, y = windows[:, slot - period : slot], truths[slot - period : slot]
                train_rows(kind, theta, x, y, tc, orders[:, p % chunk])
                check(f"after local training round {slot // period} (slot {slot})")
            if slot % federation == 0 and mixes:
                for j, mix in mixes:
                    theta[j] = mix(theta[j])
                check(f"after federation round {slot // federation} (slot {slot})")
    if failures:
        raise DivergenceError(failures[min(failures)])
    theta.flags.writeable = False
    return TrainedRuns(sensing, topologies, theta, exchanges)


def run_simulation(
    scenario: Scenario, topology: str, seed: int, *, trained: TrainedRuns | None = None
) -> RunResult:
    """Simulate one (scenario, topology, seed) combination.

    Args:
        scenario: experiment description (valid, as every Scenario is).
        topology: "isolated", "gossip", or "central"; overrides the
            scenario's federation topology for this run.
        seed: master seed for every random stream, in ``0..2**64-1``.
        trained: ``train_topologies`` of ``sense_run(scenario, seed)`` over
            this topology and maybe others; trained here when omitted.

    Returns:
        RunResult with per-node and global metrics, traffic, and costs.
        A model that goes non-finite raises DivergenceError naming its
        topology and node.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"topology: must be one of {TOPOLOGIES} (got {topology!r})")
    if trained is None:
        trained = train_topologies(sense_run(scenario, seed), [topology])
    sensing = trained.sensing
    if (sensing.scenario, sensing.seed) != (scenario, seed):
        raise ValueError("trained: for another scenario or seed")
    if topology not in trained.topologies:
        raise ValueError(f"trained: has no {topology!r} run (trained {trained.topologies})")
    j = trained.topologies.index(topology)
    ex, schedule = trained.exchanges[j], scenario.schedule
    rounds = 0 if ex.mix is None else schedule.n_training_slots // schedule.federation_period_slots
    n = trained.theta.shape[1]
    kind = scenario.training.model_kind
    theta = trained.theta[j].copy()
    decided = predict_rows(kind, theta, sensing.windows[:, schedule.n_training_slots :]) >= 0.5
    confusion = _confusion(decided, sensing.truths[schedule.n_training_slots :])
    global_metrics = DetectionMetrics(*confusion.sum(axis=0).tolist())
    # closed forms (module docstring): every node trains on each full period
    macs_per_inference, param_count = cost_constants(kind)
    period = schedule.local_train_period_slots
    windows = period * (schedule.n_training_slots // period)
    node_macs = rounds * param_count * ex.merges
    confusion.flags.writeable = node_macs.flags.writeable = False
    train_macs = 3 * scenario.training.epochs_per_round * windows * macs_per_inference
    cost = CostReport(macs_per_inference, param_count, 8 * param_count, train_macs)
    return RunResult(
        scenario_digest=scenario_digest(scenario),
        topology=topology,
        seed=seed,
        confusion=confusion,
        global_metrics=global_metrics,
        traffic=exchange_traffic(ex.degree, ex.coordinator, payload_bytes(param_count), rounds),
        per_node_cost=[cost] * n,
        node_aggregation_macs=node_macs,
        central_aggregation_macs=rounds * param_count * ex.coordinator,
        federation_rounds=rounds,
        final_models=[ModelParams(kind, row) for row in theta],
    )
