"""Self-test of the benchmark: shrunken smoke runs and corrupted results.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import check_run  # noqa: E402
from speed import NOMINAL_PROBE_S, PERIOD_S, SpeedProbe  # noqa: E402
from fedspectrum import engine  # noqa: E402
from fedspectrum.engine import run_simulation  # noqa: E402
from fedspectrum.scenario import load_scenario  # noqa: E402

SMOKE_SLOTS = (20, 2)
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def test_manifest_matches_checked_in_file():
    checked_in = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert checked_in == run.manifest()
    names = [m["name"] for m in checked_in["end_to_end"] + checked_in["per_layer"]]
    names += [w["name"] for w in checked_in["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 and set(n) <= NAME_CHARS for n in names)
    assert all(len(w["why"]) <= 200 for w in checked_in["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in checked_in["end_to_end"])
    setup = next(m for m in checked_in["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in checked_in["end_to_end"])


@pytest.mark.parametrize(
    "workload,trace",
    [("default-compare", False), ("default-compare", True), ("dense-gossip", False), ("dense-gossip", True)],
)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    info, verdict = run.run_workload(
        run.WORKLOADS[workload], seed=3, seconds=0.01, trace=trace, slots=SMOKE_SLOTS, probes=1
    )
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] and verdict["failed"] == 0, info["problems"]
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert list(verdict["metrics"]) == [m[0] for m in wanted]
    for name, unit, *_ in wanted:
        assert verdict["metrics"][name]["unit"] == unit
        assert isinstance(verdict["metrics"][name]["value"], (int, float))
    assert len(info["sim_digest"]) == 64
    assert engine.run_simulation is run_simulation  # patches undone


def test_traced_layers_cover_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    slots = (100, 2)
    _, verdict = run.run_workload(
        run.WORKLOADS["default-compare"], seed=3, seconds=0.01, trace=True, slots=slots
    )
    m = {k: v["value"] for k, v in verdict["metrics"].items()}
    for layer in ("radio", "federation", "scenario", "rng"):
        assert m[f"{layer}.busy_s"] > 0
    assert m["sensing.train_s"] > 0 and m["sensing.eval_s"] > 0
    assert m["sensing.predictions"] == 14 * slots[1] * 3
    assert m["federation.rounds"] == 2 * (slots[0] // 50)


@pytest.fixture(scope="module")
def small_runs():
    """Short data-scarce runs with an MLP, so the MLP cost closed forms are checked too."""
    scenario = load_scenario(run.ROOT / "scenarios" / "data_scarce.json")
    scenario = dataclasses.replace(
        scenario,
        training=dataclasses.replace(scenario.training, model_kind="mlp"),
        schedule=dataclasses.replace(scenario.schedule, n_training_slots=60, n_eval_slots=5),
    )
    return scenario, {t: run_simulation(scenario, t, 4) for t in run.TOPOLOGIES}


def _bump_tp(r):
    g = dataclasses.replace(r.global_metrics, tp=r.global_metrics.tp + 1)
    return dataclasses.replace(r, global_metrics=g)


def _add_byte(r):
    traffic = dataclasses.replace(r.traffic, total_bytes=r.traffic.total_bytes + 1)
    return dataclasses.replace(r, traffic=traffic)


def _extra_round(r):
    return dataclasses.replace(r, federation_rounds=r.federation_rounds + 1)


def _drop_macs(r):
    cost = list(r.per_node_cost)
    cost[1] = dataclasses.replace(cost[1], train_macs_accumulated=0)
    return dataclasses.replace(r, per_node_cost=cost)


def _nan_theta(r):
    models = [m.copy() for m in r.final_models]
    models[2].theta[0] = np.nan
    return dataclasses.replace(r, final_models=models)


@pytest.mark.parametrize("topology", run.TOPOLOGIES)
@pytest.mark.parametrize("corrupt", [_bump_tp, _add_byte, _extra_round, _drop_macs, _nan_theta])
def test_corrupted_result_fails_the_checks(small_runs, topology, corrupt):
    scenario, runs = small_runs
    good = runs[topology]
    assert check_run(good, scenario, topology, 4) == []
    assert check_run(corrupt(good), scenario, topology, 4) != []


def test_a_corrupted_run_counts_as_failed(small_runs):
    scenario, runs = small_runs
    w = run.WORKLOADS["default-compare"]
    results = [runs[t] for t in run.TOPOLOGIES]
    assert run.judge(0, results, w, scenario, 4)[0] == 0
    # A missing run fails the whole call.
    assert run.judge(0, results[:2], w, scenario, 4)[0] == 3
    results[1] = _bump_tp(results[1])
    assert run.judge(0, results, w, scenario, 4)[0] == 1
    assert run.judge(1, results, w, scenario, 4)[0] == 3


def test_speed_probe_samples_during_a_block_and_restores_the_timer():
    probe = SpeedProbe()
    handler = signal.getsignal(signal.SIGALRM)
    with probe.during():
        end = time.perf_counter() + 3 * PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3 and probe.interrupt_s > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Probe time comes off the block; a host twice as slow halves the rest.
    probe.samples, probe.interrupt_s = [2 * NOMINAL_PROBE_S], 0.5
    assert probe.normalise(2.5) == 1.0
