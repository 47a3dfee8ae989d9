"""Independent references the module tests share."""

import hashlib
import math
import operator
from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from fedspectrum import engine
from fedspectrum.cli import METRICS_HEADER
from fedspectrum.federation import (
    TOPOLOGIES,
    WEIGHTINGS,
    FederationConfig,
    NeighborTable,
    build_neighbor_graph,
    fedavg_mix,
    gossip_mix,
    gossip_mixer,
)
from fedspectrum.radio import SensorStreams
from fedspectrum.scenario import _RULES, MAX_COUNT, MAX_WINDOWS, Placement
from fedspectrum.sensing import MLP_HIDDEN, N_FEATURES, init_model, train_rows
from fedspectrum.sensing import _gradient, _layers


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def stream_key(kind):
    """The first 8 bytes of the kind's UTF-8 SHA-256, little-endian."""
    return int.from_bytes(hashlib.sha256(kind.encode("utf-8")).digest()[:8], "little")


def pcg64_generator(words):
    """A generator on the ``PCG64`` seeded by four uint64 words, its seeding
    spelled out in 128-bit integers as ``pcg64_set_seed`` does: words 0-1 are
    the initial state and words 2-3 the stream, high word first."""
    mask = (1 << 128) - 1
    initstate = int(words[0]) << 64 | int(words[1])
    inc = ((int(words[2]) << 64 | int(words[3])) << 1 | 1) & mask
    # one LCG step from state 0, add the initial state, one more step
    state = ((inc + initstate) * PCG64_MULTIPLIER + inc) & mask
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def substream(seed, kind, row):
    """Row ``row`` of stream kind ``kind`` under ``seed``: the ``PCG64`` seeded
    by words ``4 * row`` to ``4 * row + 3`` of ``SeedSequence([seed,
    stream_key(kind)])``'s uint64 state."""
    seq = np.random.SeedSequence([seed, stream_key(kind)])
    return pcg64_generator(seq.generate_state(4 * (row + 1), np.uint64)[4 * row :])


def confusion(decided, truths):
    """(tp, fp, tn, fn) of bool decisions against their truth labels, counted
    pair by pair: the reference for ``engine._confusion``."""
    pairs = list(zip(map(bool, decided), map(bool, truths)))
    return tuple(pairs.count(pair) for pair in [(1, 1), (1, 0), (0, 0), (0, 1)])


def expit(z):
    """Logistic sigmoid written out: the reference for the one in
    ``sensing._probabilities``, which ``predict_rows`` reaches."""
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def neighbor_graph(placements, radius_m):
    """``NeighborTable`` of the radio-range graph from one ``math.hypot`` per
    pair of nodes, filled row by row: the pairwise loop
    ``build_neighbor_graph`` replaced, which it must equal byte for byte."""
    nodes = sorted(placements, key=lambda p: p.node_id)
    n = len(nodes)
    ids = [[] for _ in range(n)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes[i + 1 :], i + 1):
            if math.hypot(a.x_m - b.x_m, a.y_m - b.y_m) <= radius_m:
                ids[i].append(j)
                ids[j].append(i)
    width = max(map(len, ids), default=0)
    table = NeighborTable(np.zeros((n, width), np.intp), np.zeros((n, width), bool))
    for i, row in enumerate(ids):
        table.ids[i, : len(row)] = row
        table.valid[i, : len(row)] = True
    return table


def place_nodes(s, rng):
    """The per-node placement loop ``scenario.place_nodes`` replaced, which it
    must equal float for float: one scalar ``uniform`` per coordinate, x then
    y, sensors (unless on the grid) before primary users."""
    placements = []
    if s.sensor_placement == "grid":
        k = math.ceil(math.sqrt(s.n_sensors))
        cell = s.area_size_m / k
        for i in range(s.n_sensors):
            row, col = divmod(i, k)
            placements.append(Placement(i, "sensor", (col + 0.5) * cell, (row + 0.5) * cell))
    else:
        for i in range(s.n_sensors):
            x = rng.uniform(0.0, s.area_size_m)
            y = rng.uniform(0.0, s.area_size_m)
            placements.append(Placement(i, "sensor", x, y))
    for j in range(s.n_primary_users):
        x = rng.uniform(0.0, s.area_size_m)
        y = rng.uniform(0.0, s.area_size_m)
        placements.append(Placement(s.n_sensors + j, "primary_user", x, y))
    return placements


def radio_range(xy, radius_m):
    """The ``(n, n)`` adjacency matrix of the radio-range graph over the points
    ``xy``, from one numpy distance matrix: an oracle for
    ``build_neighbor_graph``, which tests each pair with ``math.hypot``."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    dist = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    return (dist <= radius_m) & ~np.eye(len(xy), dtype=bool)


def sensor_streams(seed, row):
    """Sensor ``row``'s streams: row ``row`` of the kinds ``obs`` and ``shadow``."""
    return SensorStreams(*(substream(seed, kind, row) for kind in ("obs", "shadow")))


def identical_nodes(sensing, monkeypatch):
    """The degenerate run where every node is the same node: ``sensing`` (a
    ``RunSensing``) with sensor 0's windows at every row, and, for the rest of
    the test, ``engine.streams`` giving every ``train`` row its own generator
    in row 0's state, so every node draws the same shuffles.
    ``engine.train_topologies`` and ``engine.run_simulation(...,
    trained=...)`` then train and evaluate it on the engine's own path."""
    derive = engine.streams

    def streams(seed, kind, rows):
        if kind != "train":
            return derive(seed, kind, rows)
        return [derive(seed, kind, range(1))[0] for _ in rows]

    monkeypatch.setattr(engine, "streams", streams)
    windows = sensing.windows
    return replace(sensing, windows=np.broadcast_to(windows[:1], windows.shape))


# The per-slot sensing path the block draws (``radio.sense_windows``) must
# equal byte for byte: one chain step per slot, then per sensor the slot's
# superposed power, the noise power plus, per active primary user in index
# order, its power shadowed by one normal from ``shadow``, times one row from
# ``obs``.  dB conversions are the numpy ufuncs ``np.power`` and
# ``np.log10``, elementwise like the block's.


def path_loss_db(ch, distance_m):
    """Log-distance loss at one distance, clamped below the reference
    distance, in Python's floats: the reference ``radio._mean_power_dbm``'s
    table must equal bit for bit."""
    d = max(distance_m, ch.d0_m)
    return ch.pl0_db + 10.0 * ch.n_exp * math.log10(d / ch.d0_m)


def received_power_dbm(ch, tx_power_dbm, distance_m, shadow_rng):
    """Received power with one shadowing normal; sigma=0 consumes no draws."""
    power = tx_power_dbm - path_loss_db(ch, distance_m)
    if ch.shadowing_sigma_db > 0.0:
        power += ch.shadowing_sigma_db * shadow_rng.standard_normal()
    return power


def pu_activity_step(on, tm, rng):
    """Advance every chain one slot with one uniform per chain, in chain order."""
    leave = rng.random(on.size) < np.where(
        on, 1.0 / tm.mean_burst_slots, 1.0 / tm.mean_gap_slots
    )
    return on ^ leave


def window_features(sensor, active_pus, ch, tm, window_samples, streams):
    """One window: the noise power plus, per active primary user, its power
    with one shadowing normal, then one ``obs`` row times that sum; (mean,
    std, max) in dBm over the noise floor, / 10."""
    mu_mw = np.power(10.0, ch.noise_floor_dbm / 10.0)
    for pu in active_pus:
        d = math.hypot(sensor.x_m - pu.x_m, sensor.y_m - pu.y_m)
        mu_mw += np.power(10.0, received_power_dbm(ch, tm.tx_power_dbm, d, streams.shadow) / 10.0)
    samples_mw = streams.obs.standard_exponential(window_samples) * mu_mw
    stats_mw = np.array([samples_mw.mean(), samples_mw.std(), samples_mw.max()])
    stats_dbm = 10.0 * np.log10(np.maximum(stats_mw, 1e-30))
    return (stats_dbm - ch.noise_floor_dbm) / 10.0


def sense_slot(scenario, sensors, pus, on, traffic_rng, streams):
    """One slot: step the chains, then draw sensor i's window from ``streams[i]``.

    Returns (chain state after the step, (len(sensors), 3) features)."""
    on = pu_activity_step(on, scenario.pu_traffic, traffic_rng)
    active = [pu for pu, is_on in zip(pus, on) if is_on]
    features = np.empty((len(sensors), 3))
    for i, sensor in enumerate(sensors):
        features[i] = window_features(
            sensor, active, scenario.channel, scenario.pu_traffic,
            scenario.schedule.window_samples, streams[i],
        )
    return on, features


def sense_slots(scenario, sensors, pus, traffic_rng, streams, n_slots):
    """``n_slots`` calls of ``sense_slot`` from idle chains: ((len(sensors),
    n_slots, 3) windows, (n_slots,) truth labels, (n_slots, P) chain states)."""
    on = np.zeros(len(pus), dtype=bool)
    windows = np.empty((len(sensors), n_slots, 3))
    truths = np.empty(n_slots, dtype=bool)
    states = np.empty((n_slots, len(pus)), dtype=bool)
    for t in range(n_slots):
        on, windows[:, t] = sense_slot(scenario, sensors, pus, on, traffic_rng, streams)
        states[t] = on
        truths[t] = on.any()
    return windows, truths, states


# Per-model references for the stacked federation steps: ``gossip_mix`` and
# ``fedavg_mix`` must equal them bit for bit.


class KindMismatchError(ValueError):
    """Models of different kinds cannot be averaged."""


class EmptyUpdatesError(ValueError):
    """FedAvg was called with no updates."""


class CountedModel(NamedTuple):
    """A model and ``n_train_samples``, the windows behind it: the record the
    count-weighted references merge (a run's snapshots carry no count)."""

    kind: str
    theta: np.ndarray
    n_train_samples: int = 0


def _check_kinds(kinds: Sequence[str]) -> str:
    first = kinds[0]
    for k in kinds[1:]:
        if k != first:
            raise KindMismatchError(
                f"kind: cannot merge {k!r} into {first!r} models"
            )
    return first


def merge_models(
    own: CountedModel,
    received: Sequence[CountedModel],
    cfg: FederationConfig,
) -> CountedModel:
    """Convex combination of the own model and the received ones.

    Weights before normalization: ``uniform`` gives 1 to every contributor,
    ``samples`` gives ``max(n_train_samples, 1)``.  With
    ``include_self_weight`` false the own model gets weight 0 (its sample
    count still participates in the resulting counter).  An empty ``received``
    returns ``own`` unchanged.
    """
    if not received:
        return own
    _check_kinds([own.kind] + [m.kind for m in received])
    if cfg.weighting == "uniform":
        own_w = 1.0
        recv_w = [1.0] * len(received)
    elif cfg.weighting == "samples":
        own_w = float(max(own.n_train_samples, 1))
        recv_w = [float(max(m.n_train_samples, 1)) for m in received]
    else:
        raise ValueError(
            f"weighting: unknown mode {cfg.weighting!r} (expected one of {WEIGHTINGS})"
        )
    if not cfg.include_self_weight:
        own_w = 0.0
    total = own_w + sum(recv_w)
    theta = own.theta * (own_w / total)
    for m, w in zip(received, recv_w):
        theta = theta + m.theta * (w / total)
    n_max = max([own.n_train_samples] + [m.n_train_samples for m in received])
    return CountedModel(own.kind, theta, n_max)


def fedavg_aggregate(updates: Sequence[CountedModel]) -> CountedModel:
    """Sample-count-weighted average; empty counters weigh as one sample."""
    if len(updates) == 0:
        raise EmptyUpdatesError("updates: nothing to aggregate")
    kind = _check_kinds([m.kind for m in updates])
    counts = [max(m.n_train_samples, 1) for m in updates]
    n = sum(counts)
    theta = np.zeros_like(updates[0].theta)
    for m, c in zip(updates, counts):
        theta += m.theta * (c / n)
    return CountedModel(kind, theta, n)


def predict(model, features):
    """Occupancy probability of one feature vector, the layers written out:
    the reference for ``sensing.predict_rows``."""
    x = np.asarray(features, dtype=np.float64).reshape(N_FEATURES)
    theta = model.theta
    if model.kind == "logistic":
        return float(expit(x @ theta[:N_FEATURES] + theta[N_FEATURES]))
    w1_end, b1_end = N_FEATURES * MLP_HIDDEN, N_FEATURES * MLP_HIDDEN + MLP_HIDDEN
    w1 = theta[:w1_end].reshape(MLP_HIDDEN, N_FEATURES)
    hidden = np.tanh(w1 @ x + theta[w1_end:b1_end])
    return float(expit(hidden @ theta[b1_end : b1_end + MLP_HIDDEN] + theta[-1]))


def bce_loss(kind, theta, x, y):
    """Mean binary cross-entropy of one model on ``(b, 3)`` windows, from its
    logits written out in 2-D products, so it never overflows: the loss the
    central-difference checks of ``step_gradient`` differentiate."""
    w1_end, b1_end = N_FEATURES * MLP_HIDDEN, N_FEATURES * MLP_HIDDEN + MLP_HIDDEN
    if kind == "logistic":
        z = x @ theta[:N_FEATURES] + theta[N_FEATURES]
    else:
        w1 = theta[:w1_end].reshape(MLP_HIDDEN, N_FEATURES)
        h = np.tanh(x @ w1.T + theta[w1_end:b1_end])
        z = h @ theta[b1_end : b1_end + MLP_HIDDEN] + theta[-1]
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


# The per-model training loop ``sensing.train_rows`` replaced: one 2-D
# gradient per node per mini-batch.  ``train_rows`` must equal it byte for byte.


def gradient(kind, theta, x, y):
    """Mean-BCE gradient of one model on a ``(b, 3)`` batch, the layers written
    out in 2-D products: the reference for ``step_gradient``."""
    w1_end, b1_end = N_FEATURES * MLP_HIDDEN, N_FEATURES * MLP_HIDDEN + MLP_HIDDEN
    if kind == "logistic":
        r = (expit(x @ theta[:N_FEATURES] + theta[N_FEATURES]) - y) / len(x)
        return np.concatenate([x.T @ r, [r.sum()]])
    w1 = theta[:w1_end].reshape(MLP_HIDDEN, N_FEATURES)
    w2 = theta[b1_end : b1_end + MLP_HIDDEN]
    h = np.tanh(x @ w1.T + theta[w1_end:b1_end])
    r = (expit(h @ w2 + theta[-1]) - y) / len(x)
    dpre = np.outer(r, w2) * (1.0 - h * h)
    return np.concatenate([(dpre.T @ x).reshape(-1), dpre.sum(axis=0), h.T @ r, [r.sum()]])


def step_gradient(kind, theta, x, y):
    """Not a reference: the gradient a ``train_rows`` step takes, from
    ``sensing._gradient`` of ``theta`` on ``x``, ``y (..., b)`` in a fresh
    buffer, under the step's ``np.errstate``."""
    grad = np.empty((*np.broadcast_shapes(theta.shape[:-1], x.shape[:-2]), theta.shape[-1]))
    with np.errstate(over="ignore", under="ignore"):
        _gradient(kind, x, x.swapaxes(-1, -2), y[..., None], _layers(kind, theta), _layers(kind, grad))
    return grad


def shuffles(rngs, epochs, m):
    """``(n, epochs, m)`` epoch orders for ``sensing.train_rows``: one
    ``rng.permutation(m)`` per epoch from each node's generator, as
    ``train_local`` draws them."""
    return np.array([[rng.permutation(m) for _ in range(epochs)] for rng in rngs])


def train_local(kind, theta, x, y, tc, rng):
    """``theta`` after ``epochs_per_round`` epochs of mini-batch descent on the
    ``(m, 3)`` buffer ``x``, reshuffled once per epoch through ``rng``."""
    theta = theta.copy()
    for _ in range(tc.epochs_per_round):
        order = rng.permutation(len(x))
        for start in range(0, len(x), tc.batch_size):
            idx = order[start : start + tc.batch_size]
            theta -= tc.learning_rate * gradient(kind, theta, x[idx], y[idx])
    return theta


# The per-topology schedule loop ``engine.train_topologies`` replaced: one
# loop, with fresh ``train`` streams, for each topology of a seed, over
# the ``(n, d)`` model array.  The stage must equal it byte for byte.


def train_topology(sensing, topology):
    """(theta ``(n, d)``, federation rounds) of ``topology`` trained alone
    on ``sensing``, a ``RunSensing``."""
    scenario, seed = sensing.scenario, sensing.seed
    tc, cfg, schedule = scenario.training, scenario.federation, scenario.schedule
    sensors = [p for p in sensing.placements if p.kind == "sensor"]
    table = build_neighbor_graph(sensors, cfg.neighbor_radius_m)
    theta = np.tile(init_model(tc.model_kind, tc, substream(seed, "init", 0)), (len(sensors), 1))
    rngs = [substream(seed, "train", i) for i in range(len(sensors))]
    windows = sensing.windows
    period, rounds = schedule.local_train_period_slots, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for slot in range(1, schedule.n_training_slots + 1):
            if slot % period == 0:
                x, y = windows[:, slot - period : slot], sensing.truths[slot - period : slot]
                order = shuffles(rngs, tc.epochs_per_round, period)
                train_rows(tc.model_kind, theta, x, y, tc, order)
            if topology != "isolated" and slot % schedule.federation_period_slots == 0:
                rounds += 1
                if topology == "gossip":
                    # a fresh mixer every round: the engine reuses one per run
                    mixer = gossip_mixer(table, cfg, theta.shape[1])
                    theta = gossip_mix(theta, mixer)
                else:
                    theta = fedavg_mix(theta)
    return theta, rounds


def _mean_defined(values):
    """Mean of the values that are not None (None if none is), and how many are."""
    defined = [v for v in values if v is not None]
    mean = sum(defined) / len(defined) if defined else None
    return mean, len(values) - len(defined)


def summarize_runs(runs):
    """``comparison.json``'s dict regrouped from a list of runs: the reference
    ``cli.comparison_summary`` must equal.  Its seeds are the first
    topology's, in run order, and every topology must have run that list;
    byte and MAC fields are ``np.mean``s, each rate the mean of the runs that
    define it, in run order."""
    by_topology = {t: [] for t in TOPOLOGIES}
    for run in runs:
        by_topology[run.topology].append(run)
    seeds = [r.seed for r in by_topology[TOPOLOGIES[0]]]
    summaries = {}
    for topology, group in by_topology.items():
        assert group and [r.seed for r in group] == seeds, f"{topology} ran another seed list"
        metrics = [r.global_metrics for r in group]
        mean_pd, pd_skipped = _mean_defined([m.pd for m in metrics])
        mean_pfa, pfa_skipped = _mean_defined([m.pfa for m in metrics])
        summaries[topology] = {
            "busiest_node_bytes": float(np.mean([r.busiest_node_bytes() for r in group])),
            "total_bytes": float(np.mean([r.traffic.total_bytes for r in group])),
            "central_bytes": float(np.mean([r.traffic.central_bytes for r in group])),
            "aggregation_macs_central": float(
                np.mean([r.central_aggregation_macs for r in group])
            ),
            "max_node_aggregation_macs": float(
                np.mean([r.node_aggregation_macs.max() for r in group])
            ),
            "mean_accuracy": _mean_defined([m.accuracy for m in metrics])[0],
            "mean_pd": mean_pd,
            "mean_pfa": mean_pfa,
            "pd_undefined_runs": pd_skipped,
            "pfa_undefined_runs": pfa_skipped,
        }
    return {"scenario_digest": runs[0].scenario_digest, "seeds": seeds, "topologies": summaries}


def neighbor_communication(runs):
    """``comparison.txt``'s "neighbor communication" cells in ``TOPOLOGIES``
    order: ``required`` where some run's sensors merged their peers' models,
    which they must have been sent, else ``none``."""
    merged = {t: False for t in TOPOLOGIES}
    for run in runs:
        merged[run.topology] |= bool(run.node_aggregation_macs.any())
    return ["required" if merged[t] else "none" for t in TOPOLOGIES]


def metrics_csv_lines(runs):
    """``metrics.csv``'s lines with each node's rates from a
    ``DetectionMetrics`` of its confusion row, formatted one rate at a time:
    the per-node loop ``cli.metrics_csv_lines`` replaced, which it must
    equal byte for byte."""

    def rates(m):
        return ",".join("" if r is None else repr(float(r)) for r in (m.pd, m.pfa, m.accuracy))

    lines = [METRICS_HEADER]
    for run in runs:
        prefix, costs = f"{run.topology}-s{run.seed},{run.topology},{run.seed}", run.per_node_cost
        for i, (m, tx, c) in enumerate(
            zip(run.confusion.tolist(), run.traffic.tx_bytes.tolist(), costs)
        ):
            lines.append(
                f"{prefix},{i},{rates(engine.DetectionMetrics(*m))},{tx},{tx},"
                f"{c.train_macs_accumulated},{c.model_bytes}"
            )
        total = run.traffic.total_bytes
        lines.append(
            f"{prefix},global,{rates(run.global_metrics)},{total},{total},"
            f"{sum(c.train_macs_accumulated for c in costs)},{sum(c.model_bytes for c in costs)}"
        )
    return lines


def scenario_leaves(d, prefix=""):
    """(dotted name, value) of every non-dict value in a nested dict, tuples
    as lists: a scenario's fields as ``asdict`` nests them, in field order."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from scenario_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", list(value) if isinstance(value, tuple) else value


def scenario_violations(raw):
    """The messages, in order, that a Scenario whose typed fields are the
    complete nested dict ``raw`` (an ``asdict``) raises, [] for none.

    Leaf by leaf from ``scenario_leaves``, at most one message each: a
    non-finite number, a count other than the seed above ``MAX_COUNT``, or a
    broken ``_RULES`` entry.  Then the cross-field checks, each only when no
    leaf it reads was reported: the reference for the checks
    ``scenario._typed`` makes as it types and for ``scenario._violations``.
    """
    ops = {">": operator.gt, ">=": operator.ge, "<=": operator.le}
    leaves, bad = dict(scenario_leaves(raw)), {}
    for name, value in leaves.items():
        numbers = value if isinstance(value, list) else [value]
        rule = _RULES.get(name)
        if any(isinstance(x, float) and not math.isfinite(x) for x in numbers):
            bad[name] = f"{name}: must be finite (got {value})"
        elif name != "seed" and isinstance(value, int) and value > MAX_COUNT:
            bad[name] = f"{name}: must be <= {MAX_COUNT} (got {value})"
        elif isinstance(rule, tuple) and value not in rule:
            bad[name] = f"{name}: must be one of {rule} (got {value!r})"
        elif isinstance(rule, str):
            bounds = (bound.split() for bound in rule.split(", "))
            if not all(ops[op](value, float(limit)) for op, limit in bounds):
                bad[name] = f"{name}: must be {rule} (got {value})"
    messages = list(bad.values())

    def reported(*names):
        return any(name in bad for name in names)

    slot_names = ("schedule.n_training_slots", "schedule.n_eval_slots")
    slots = sum(leaves[name] for name in slot_names)
    for name, what in (("n_sensors", "windows"), ("n_primary_users", "chain steps")):
        count = leaves[name]
        if not reported(name, *slot_names) and count * slots > MAX_WINDOWS:
            messages.append(
                f"{name}: {count} x {slots} slots is {count * slots} {what}, "
                f"above the limit of {MAX_WINDOWS}"
            )
    low, high = leaves["carrier_band_mhz"]
    if not reported("carrier_band_mhz") and not low < high:
        messages.append(f"carrier_band_mhz: low edge must be below high edge (got {[low, high]})")
    if not 0 <= leaves["seed"] < 2**64:
        messages.append(f"seed: must fit in 64 unsigned bits (got {leaves['seed']})")
    central, area = leaves["central_xy_m"], leaves["area_size_m"]
    if central is not None and not reported("central_xy_m", "area_size_m"):
        if not all(0 <= c <= area for c in central):
            messages.append(f"central_xy_m: must lie inside the area (got {central})")
    return messages
