"""Slot-synchronous simulation engine and topology comparison.

A run has two phases, and every slot of both is one ``radio.sense_slot``
call: it steps the primary-user chains and draws one feature window per
sensor; the slot's truth label is whether any primary user transmits.
Training slots fill an ``(n, local_train_period_slots, 3)`` buffer; every
``local_train_period_slots`` each node trains on its row of it; every
``federation_period_slots`` the selected exchange (gossip round or central
FedAvg round) fires, training first when both land on the same slot.
Eval slots: models are frozen, the windows fill an ``(n, n_eval_slots, 3)``
array, and each node decides all of its windows with one batch prediction.

Random sub-streams are labeled so modules cannot disturb each other:
``placement``, ``traffic``, ``init``, ``obs:<node_id>``, ``train:<node_id>``
(``obs:shared``/``train:shared`` when ``shared_streams`` is set, which draws
one window at sensor 0, gives it to every node, and gives every node the
same shuffle stream, for degeneracy tests).
"""

from __future__ import annotations

import time
from dataclasses import asdict, astuple, dataclass
from typing import Sequence

import numpy as np

from .federation import (
    TOPOLOGIES,
    TrafficStats,
    build_neighbor_graph,
    exchange_traffic,
    fedavg_mix,
    gossip_mix,
    neighbor_table,
    payload_bytes,
)
from .radio import sense_slot
from .rng import substream
from .scenario import (
    Scenario,
    ScenarioValidationError,
    place_nodes,
    scenario_digest,
    validate_scenario,
)
from .sensing import (
    CostReport,
    ModelParams,
    cost_constants,
    init_model,
    predict_batch,
    train_local,
)


class EmptyInputError(ValueError):
    """Metrics were requested for no truth labels or no runs."""


class DivergenceError(ValueError):
    """A node's model left the finite numbers during a run."""


def _check_finite(theta: np.ndarray, when: str) -> None:
    finite = np.isfinite(theta).all(axis=1)
    if not finite.all():
        node = int(np.argmin(finite))  # row i is sensor node i
        raise DivergenceError(f"node {node}: theta has non-finite entries {when}")


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


def evaluate_detection(decided: np.ndarray, truths: np.ndarray) -> DetectionMetrics:
    """Confusion counts of bool decisions against their bool truth labels."""
    decided = np.asarray(decided, dtype=bool)
    truths = np.asarray(truths, dtype=bool)
    if truths.size == 0:
        raise EmptyInputError("truths: nothing to evaluate")
    if decided.shape != truths.shape:
        raise ValueError(f"decided: {decided.size} decisions for {truths.size} truth labels")
    tp = int(np.count_nonzero(decided & truths))
    fp = int(np.count_nonzero(decided)) - tp
    fn = int(np.count_nonzero(truths)) - tp
    return DetectionMetrics(tp, fp, truths.size - tp - fp - fn, fn)


@dataclass
class RunResult:
    """Everything one simulation produced.

    ``wall_seconds`` is informational only and excluded from all serialized
    outputs so reruns stay byte-identical.
    """

    scenario_digest: str
    topology: str
    seed: int
    per_node_metrics: list[DetectionMetrics]
    global_metrics: DetectionMetrics
    traffic: TrafficStats
    per_node_cost: list[CostReport]
    node_aggregation_macs: list[int]
    central_aggregation_macs: int
    federation_rounds: int
    final_models: list[ModelParams]
    wall_seconds: float

    def busiest_node_bytes(self) -> int:
        n = len(self.per_node_metrics)
        return max(self.traffic.node_bytes(i) for i in range(n))


def run_simulation(
    scenario: Scenario,
    topology: str,
    seed: int,
    *,
    shared_streams: bool = False,
) -> RunResult:
    """Simulate one (scenario, topology, seed) combination.

    Args:
        scenario: validated experiment description.
        topology: "isolated", "gossip", or "central"; overrides the
            scenario's federation topology for this run.
        seed: master seed for every labeled sub-stream, in ``0..2**64-1``.
        shared_streams: test hook; all nodes receive one identical
            window stream (drawn at sensor 0) and identical training
            shuffles.

    Returns:
        RunResult with per-node and global metrics, traffic, and costs.
        A model that goes non-finite raises DivergenceError naming its node.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError("; ".join(violations))
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"topology: must be one of {TOPOLOGIES} (got {topology!r})"
        )
    started = time.perf_counter()

    placements = place_nodes(scenario, substream(seed, "placement"))
    sensors = [p for p in placements if p.kind == "sensor"]
    pus = [p for p in placements if p.kind == "primary_user"]
    central_id = next(p.node_id for p in placements if p.kind == "central")
    n = len(sensors)

    cfg = scenario.federation
    # Per round: models each node sends and receives, and models merged.
    if topology == "gossip":
        graph = build_neighbor_graph(sensors, cfg.neighbor_radius_m)
        table = neighbor_table(graph)
        degrees = {i: graph.degree(i) for i in range(n)}
        node_merges, central_merges = list(degrees.values()), 0
    elif topology == "central":
        degrees = {**dict.fromkeys(range(n), 1), central_id: n}
        node_merges, central_merges = [0] * n, n
    else:
        degrees, node_merges, central_merges = {}, [0] * n, 0

    tc = scenario.training
    kind = tc.model_kind
    base_model = init_model(kind, tc, substream(seed, "init"))
    # Row i is sensor i's model, trained on samples[i] since its last exchange.
    theta = np.tile(base_model.theta, (n, 1))
    samples = np.full(n, base_model.n_train_samples, dtype=np.int64)
    macs_per_inference, param_count = cost_constants(kind)

    if shared_streams:
        obs_sensors = sensors[:1]
        obs_rngs = [substream(seed, "obs:shared")]
        train_rngs = [substream(seed, "train:shared") for _ in range(n)]
    else:
        obs_sensors = sensors
        obs_rngs = [substream(seed, f"obs:{p.node_id}") for p in sensors]
        train_rngs = [substream(seed, f"train:{p.node_id}") for p in sensors]
    traffic_rng = substream(seed, "traffic")

    on = np.zeros(len(pus), dtype=bool)
    schedule = scenario.schedule
    period = schedule.local_train_period_slots
    # Window k of the current training period (a period longer than the
    # phase never trains); a shared (1, 3) window broadcasts to every row.
    x = np.empty((n, min(period, schedule.n_training_slots), 3))
    y = np.empty(x.shape[1])
    train_macs = [0] * n
    rounds = 0

    for slot in range(1, schedule.n_training_slots + 1):
        k = (slot - 1) % period
        on, x[:, k] = sense_slot(scenario, obs_sensors, pus, on, traffic_rng, obs_rngs)
        y[k] = on.any()
        if slot % period == 0:
            # a diverging model is reported once, by node, in _check_finite
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(n):
                    model = ModelParams(kind, theta[i], int(samples[i]))
                    trained, delta = train_local(model, x[i], y, tc, train_rngs[i])
                    theta[i] = trained.theta
                    samples[i] = trained.n_train_samples
                    train_macs[i] += delta.train_macs_accumulated
            _check_finite(theta, f"after local training round {slot // period} (slot {slot})")
        if topology != "isolated" and slot % schedule.federation_period_slots == 0:
            rounds += 1
            with np.errstate(over="ignore", invalid="ignore"):
                if topology == "gossip":
                    theta, samples = gossip_mix(theta, samples, table, cfg)
                else:
                    theta, samples = fedavg_mix(theta, samples)
            _check_finite(theta, f"after federation round {rounds} (slot {slot})")

    models = [ModelParams(kind, row, int(c)) for row, c in zip(theta.copy(), samples)]

    x_eval = np.empty((n, schedule.n_eval_slots, 3))
    truths = np.empty(schedule.n_eval_slots, dtype=bool)
    for t in range(schedule.n_eval_slots):
        on, x_eval[:, t] = sense_slot(scenario, obs_sensors, pus, on, traffic_rng, obs_rngs)
        truths[t] = on.any()
    per_node = [
        evaluate_detection(predict_batch(m, xe) >= 0.5, truths) for m, xe in zip(models, x_eval)
    ]
    global_metrics = DetectionMetrics(*np.sum([astuple(m) for m in per_node], axis=0).tolist())
    costs = [
        CostReport(macs_per_inference, param_count, 8 * param_count, train_macs[i])
        for i in range(n)
    ]
    return RunResult(
        scenario_digest=scenario_digest(scenario),
        topology=topology,
        seed=seed,
        per_node_metrics=per_node,
        global_metrics=global_metrics,
        traffic=exchange_traffic(degrees, payload_bytes(param_count), rounds, central_id),
        per_node_cost=costs,
        node_aggregation_macs=[rounds * param_count * m for m in node_merges],
        central_aggregation_macs=rounds * param_count * central_merges,
        federation_rounds=rounds,
        final_models=models,
        wall_seconds=time.perf_counter() - started,
    )


def roc_sweep(
    model: ModelParams, features: np.ndarray, truths: Sequence[bool], n_points: int
) -> list[tuple[float, float | None, float | None]]:
    """(threshold, pd, pfa) at ``n_points`` thresholds evenly spanning [0, 1].

    ``features`` is an (m, 3) window array and ``truths`` its m labels.
    Decisions use ``probability >= threshold``, so both rates are
    nonincreasing in the threshold.
    """
    if n_points < 2:
        raise ValueError(f"n_points: must be >= 2 (got {n_points})")
    truths = np.asarray(truths, dtype=bool)
    if truths.size == 0:
        raise EmptyInputError("truths: nothing to sweep")
    probs = predict_batch(model, features)
    if probs.shape != truths.shape:
        raise ValueError(
            f"features: {probs.size} windows for {truths.size} truth labels"
        )
    points = []
    for threshold in np.linspace(0.0, 1.0, n_points):
        m = evaluate_detection(probs >= threshold, truths)
        points.append((float(threshold), m.pd, m.pfa))
    return points


@dataclass
class TopologySummary:
    """Per-topology aggregation across seeds (byte/MAC fields are means)."""

    topology: str
    needs_neighbor_comm: bool
    busiest_node_bytes: float
    total_bytes: float
    central_bytes: float
    aggregation_macs_central: float
    max_node_aggregation_macs: float
    mean_accuracy: float | None
    mean_pd: float | None
    mean_pfa: float | None
    pd_undefined_runs: int
    pfa_undefined_runs: int


@dataclass
class ComparisonReport:
    scenario_digest: str
    seeds: list[int]
    topologies: dict[str, TopologySummary]


def _mean_defined(values: list[float | None]) -> tuple[float | None, int]:
    defined = [v for v in values if v is not None]
    skipped = len(values) - len(defined)
    if not defined:
        return None, skipped
    return sum(defined) / len(defined), skipped


def summarize_runs(runs: Sequence[RunResult], seeds: Sequence[int]) -> ComparisonReport:
    """Aggregate per-topology means from an already-computed run matrix."""
    by_topology: dict[str, list[RunResult]] = {t: [] for t in TOPOLOGIES}
    for run in runs:
        by_topology[run.topology].append(run)
    summaries: dict[str, TopologySummary] = {}
    for topology in TOPOLOGIES:
        group = by_topology[topology]
        if not group:
            raise EmptyInputError(f"runs: no runs for topology {topology!r}")
        mean_pd, pd_skipped = _mean_defined([r.global_metrics.pd for r in group])
        mean_pfa, pfa_skipped = _mean_defined([r.global_metrics.pfa for r in group])
        mean_acc, _ = _mean_defined([r.global_metrics.accuracy for r in group])
        summaries[topology] = TopologySummary(
            topology=topology,
            needs_neighbor_comm=topology == "gossip",
            busiest_node_bytes=float(
                np.mean([r.busiest_node_bytes() for r in group])
            ),
            total_bytes=float(np.mean([r.traffic.total_bytes for r in group])),
            central_bytes=float(np.mean([r.traffic.central_bytes for r in group])),
            aggregation_macs_central=float(
                np.mean([r.central_aggregation_macs for r in group])
            ),
            max_node_aggregation_macs=float(
                np.mean([max(r.node_aggregation_macs) for r in group])
            ),
            mean_accuracy=mean_acc,
            mean_pd=mean_pd,
            mean_pfa=mean_pfa,
            pd_undefined_runs=pd_skipped,
            pfa_undefined_runs=pfa_skipped,
        )
    digest = runs[0].scenario_digest
    return ComparisonReport(digest, list(seeds), summaries)


# ---------------------------------------------------------------------------
# serialization helpers shared by the CLI

METRICS_HEADER = (
    "run_id,topology,seed,node_id,pd,pfa,accuracy,"
    "tx_bytes,rx_bytes,train_macs,param_bytes"
)


def _fmt_rate(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def metrics_csv_lines(runs: Sequence[RunResult]) -> list[str]:
    """CSV rows: one per sensor per run plus a totals row per run."""
    lines = [METRICS_HEADER]
    for run in runs:
        run_id = f"{run.topology}-s{run.seed}"
        for i, metrics in enumerate(run.per_node_metrics):
            cost = run.per_node_cost[i]
            lines.append(
                ",".join(
                    [
                        run_id,
                        run.topology,
                        str(run.seed),
                        str(i),
                        _fmt_rate(metrics.pd),
                        _fmt_rate(metrics.pfa),
                        _fmt_rate(metrics.accuracy),
                        str(run.traffic.tx_bytes.get(i, 0)),
                        str(run.traffic.rx_bytes.get(i, 0)),
                        str(cost.train_macs_accumulated),
                        str(cost.model_bytes),
                    ]
                )
            )
        g = run.global_metrics
        lines.append(
            ",".join(
                [
                    run_id,
                    run.topology,
                    str(run.seed),
                    "global",
                    _fmt_rate(g.pd),
                    _fmt_rate(g.pfa),
                    _fmt_rate(g.accuracy),
                    str(sum(run.traffic.tx_bytes.values())),
                    str(sum(run.traffic.rx_bytes.values())),
                    str(sum(c.train_macs_accumulated for c in run.per_node_cost)),
                    str(sum(c.model_bytes for c in run.per_node_cost)),
                ]
            )
        )
    return lines


def comparison_to_dict(report: ComparisonReport) -> dict:
    """The report as plain data, topologies in name order; each summary
    drops its ``topology`` field, which repeats its key."""
    out = asdict(report)
    out["topologies"] = {
        name: {k: v for k, v in summary.items() if k != "topology"}
        for name, summary in sorted(out["topologies"].items())
    }
    return out


def _fmt_mean(value: float | None, digits: int = 4) -> str:
    return "undefined" if value is None else f"{value:.{digits}f}"


def comparison_table(report: ComparisonReport) -> str:
    """Aligned text table: one row per compared aspect, one column per topology."""
    order = [t for t in TOPOLOGIES if t in report.topologies]
    rows: list[tuple[str, dict[str, str]]] = []
    comm = {"isolated": "none", "gossip": "required", "central": "optional"}
    rows.append(("neighbor communication", {t: comm[t] for t in order}))
    flexibility = {
        "isolated": "n/a (no exchange)",
        "gossip": "high (any layout in radio range)",
        "central": "limited (coordinator placement)",
    }
    rows.append(("topology flexibility", {t: flexibility[t] for t in order}))
    rows.append(
        (
            "traffic volume (bytes)",
            {
                t: (
                    f"total {report.topologies[t].total_bytes:.0f}; "
                    f"central {report.topologies[t].central_bytes:.0f}; "
                    f"busiest node {report.topologies[t].busiest_node_bytes:.0f}"
                )
                for t in order
            },
        )
    )
    rows.append(
        (
            "aggregation compute (MACs)",
            {
                t: (
                    f"central {report.topologies[t].aggregation_macs_central:.0f}; "
                    f"busiest node {report.topologies[t].max_node_aggregation_macs:.0f}"
                )
                for t in order
            },
        )
    )
    rows.append(
        (
            "detection quality",
            {
                t: (
                    f"acc {_fmt_mean(report.topologies[t].mean_accuracy)}; "
                    f"pd {_fmt_mean(report.topologies[t].mean_pd)}; "
                    f"pfa {_fmt_mean(report.topologies[t].mean_pfa)}"
                )
                for t in order
            },
        )
    )
    label_width = max(len(label) for label, _ in rows)
    col_widths = {
        t: max(len(t), max(len(values[t]) for _, values in rows)) for t in order
    }
    header = "aspect".ljust(label_width) + " | " + " | ".join(
        t.ljust(col_widths[t]) for t in order
    )
    divider = "-" * label_width + "-+-" + "-+-".join("-" * col_widths[t] for t in order)
    lines = [header, divider]
    for label, values in rows:
        lines.append(
            label.ljust(label_width)
            + " | "
            + " | ".join(values[t].ljust(col_widths[t]) for t in order)
        )
    return "\n".join(lines) + "\n"
