"""Exact closed-form checks on one simulation run.

Each check compares a ``RunResult`` with a number worked out from the
scenario alone, so a change that silently alters what a run computes shows
up as a failed run in the benchmark.
"""

from __future__ import annotations

import numpy as np

from fedspectrum.rng import substream
from fedspectrum.scenario import Scenario, place_nodes
from fedspectrum.sensing import cost_constants

# Wire format of one transferred model: sender id, round index and sample
# count (16 bytes), then float64 coefficients.
HEADER_BYTES = 16


def gossip_sum_degrees(scenario: Scenario, seed: int) -> int:
    """Twice the edge count of the radio-range graph, rebuilt from placement."""
    placements = place_nodes(scenario, substream(seed, "placement"))
    xy = np.array([(p.x_m, p.y_m) for p in placements if p.kind == "sensor"])
    dist = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    within = dist <= scenario.federation.neighbor_radius_m
    return int(within.sum() - len(xy))


def check_run(result, scenario: Scenario, topology: str, seed: int) -> list[str]:
    """Every way ``result`` departs from the closed forms; empty when it is right."""
    problems: list[str] = []
    sched = scenario.schedule
    n = scenario.n_sensors

    if (result.topology, result.seed) != (topology, seed):
        problems.append(
            f"run identity: expected {topology}/{seed}, got {result.topology}/{result.seed}"
        )
    g = result.global_metrics
    if g.tp + g.fp + g.tn + g.fn != n * sched.n_eval_slots:
        problems.append(
            f"confusion total {g.tp + g.fp + g.tn + g.fn} != "
            f"n_sensors*n_eval_slots {n * sched.n_eval_slots}"
        )

    rounds = (
        0 if topology == "isolated" else sched.n_training_slots // sched.federation_period_slots
    )
    if result.federation_rounds != rounds:
        problems.append(f"federation_rounds {result.federation_rounds} != {rounds}")

    macs, params = cost_constants(scenario.training.model_kind)
    payload = HEADER_BYTES + 8 * params
    if topology == "central":
        expected_bytes = 2 * n * payload * rounds
        expected_central = expected_bytes
    elif topology == "gossip":
        expected_bytes = payload * gossip_sum_degrees(scenario, seed) * rounds
        expected_central = 0
    else:
        expected_bytes = expected_central = 0
    if result.traffic.total_bytes != expected_bytes:
        problems.append(f"total bytes {result.traffic.total_bytes} != {expected_bytes}")
    if result.traffic.central_bytes != expected_central:
        problems.append(
            f"central bytes {result.traffic.central_bytes} != {expected_central}"
        )

    period = sched.local_train_period_slots
    samples = period * (sched.n_training_slots // period)
    node_macs = scenario.training.epochs_per_round * samples * macs * 3
    got = [c.train_macs_accumulated for c in result.per_node_cost]
    if got != [node_macs] * n:
        problems.append(f"train MACs {got[:3]}... != {node_macs} per node for {n} nodes")

    bad = [i for i, m in enumerate(result.final_models) if not np.all(np.isfinite(m.theta))]
    if bad or len(result.final_models) != n:
        problems.append(
            f"final models: {len(result.final_models)} for {n} nodes, non-finite at {bad}"
        )
    return problems
