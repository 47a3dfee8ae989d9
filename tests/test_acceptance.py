"""End-to-end acceptance gate.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every criterion states its tolerance inline; thresholds are
asserted, never tuned to the observed value.
"""

import json
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import wilcoxon

from fedspectrum.cli import main, metrics_csv_lines
from fedspectrum.engine import DetectionMetrics, run_simulation, sense_run, train_topologies
from fedspectrum.federation import (
    TOPOLOGIES,
    FederationConfig,
    build_neighbor_graph,
    gossip_mix,
    gossip_mixer,
)
from fedspectrum.radio import ChannelModel, PuTrafficModel, draw_windows
from fedspectrum.rng import substream
from fedspectrum.scenario import Placement, SlotSchedule, load_scenario, place_nodes
from fedspectrum.sensing import (
    TrainingConfig,
    init_model,
    model_dim,
    predict_rows,
    train_rows,
)
from oracles import bce_loss, confusion, identical_nodes, sensor_streams, shuffles, step_gradient

DEFAULT_SCENARIO = "scenarios/default.json"
DATA_SCARCE_SCENARIO = "scenarios/data_scarce.json"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


@pytest.fixture(scope="module")
def compare_dirs(tmp_path_factory):
    """Two byte-for-byte comparable CLI compare invocations on the default
    scenario, shared by criteria 1 and 5."""
    dirs = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp(name)
        code = main(
            [
                "compare",
                "--scenario", DEFAULT_SCENARIO,
                "--out-dir", str(out),
                "--seeds", "7",
            ]
        )
        assert code == 0
        dirs.append(out)
    return dirs


def test_criterion_1_determinism(compare_dirs):
    with criterion(1, "compare --seeds 7 twice is byte-identical"):
        first, second = compare_dirs
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
        assert (
            first / "comparison.json"
        ).read_bytes() == (second / "comparison.json").read_bytes()


def test_criterion_2_fedavg_symmetry_oracle(monkeypatch):
    with criterion(2, "central with identical streams tracks the single-pool oracle to 1e-9"):
        # 10 federation rounds, light windows; N stays at 14
        scenario = replace(load_scenario(DEFAULT_SCENARIO), schedule=SlotSchedule(
            n_training_slots=300,
            n_eval_slots=1,
            local_train_period_slots=30,
            federation_period_slots=30,
            window_samples=16,
        ))
        # every node senses sensor 0's windows and draws train row 0's shuffles
        sensing = identical_nodes(sense_run(scenario, 5), monkeypatch)
        trained = train_topologies(sensing, ["isolated", "central"])
        oracle = run_simulation(scenario, "isolated", 5, trained=trained)
        central = run_simulation(scenario, "central", 5, trained=trained)
        assert central.federation_rounds == 10
        reference = oracle.final_models[0].theta
        # the substitution took: every isolated node trained one single-pool model
        for m in oracle.final_models[1:]:
            assert m.theta.tobytes() == reference.tobytes()
        for m in central.final_models:
            assert np.max(np.abs(m.theta - reference)) <= 1e-9
        # and the broadcast really is one model
        for m in central.final_models[1:]:
            np.testing.assert_array_equal(m.theta, central.final_models[0].theta)


def test_criterion_3_gradient_checks():
    with criterion(3, "100 finite-difference gradient checks per model kind within 1e-4"):
        h = 1e-6
        for kind in ("logistic", "mlp"):
            rng = substream(101, f"train:{kind}")
            for _ in range(100):
                theta = rng.normal(0.0, 1.0, size=model_dim(kind))
                x = rng.normal(0.0, 1.5, size=(8, 3))
                y = rng.integers(0, 2, size=8).astype(float)
                grad = step_gradient(kind, theta, x, y)
                fd = np.empty_like(grad)
                for j in range(theta.size):
                    up, dn = theta.copy(), theta.copy()
                    up[j] += h
                    dn[j] -= h
                    fd[j] = (bce_loss(kind, up, x, y) - bce_loss(kind, dn, x, y)) / (2.0 * h)
                assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)


def test_criterion_4_traffic_closed_form():
    with criterion(4, "central round is exactly 1344 B and gossip exactly 48*sum(degrees)"):
        # 3 federation rounds, one eval slot; N stays at 14
        scenario = replace(load_scenario(DEFAULT_SCENARIO), schedule=SlotSchedule(
            n_training_slots=150,
            n_eval_slots=1,
            local_train_period_slots=50,
            federation_period_slots=50,
            window_samples=16,
        ))
        central = run_simulation(scenario, "central", scenario.seed)
        assert central.federation_rounds == 3
        assert central.traffic.central_bytes == 3 * 1344
        assert central.traffic.total_bytes == 3 * 28 * 48

        placements = place_nodes(scenario, substream(scenario.seed, "placement"))
        sensors = [p for p in placements if p.kind == "sensor"]
        valid = build_neighbor_graph(sensors, scenario.federation.neighbor_radius_m).valid
        gossip = run_simulation(scenario, "gossip", scenario.seed)
        assert gossip.traffic.total_bytes == 3 * 48 * valid.sum()
        assert gossip.traffic.messages == 3 * valid.sum()
        # each node sends as many bytes as it receives
        assert gossip.traffic.tx_bytes.tolist() == (3 * 48 * valid.sum(axis=1)).tolist()


def test_criterion_5_traffic_concentration(compare_dirs):
    with criterion(5, "mean central bytes >= 3x busiest gossip node (closed form 3.5)"):
        payload = json.loads(
            (compare_dirs[0] / "comparison.json").read_text(encoding="utf-8")
        )
        central_bytes = payload["topologies"]["central"]["central_bytes"]
        busiest_gossip = payload["topologies"]["gossip"]["busiest_node_bytes"]
        assert central_bytes >= 3.0 * busiest_gossip
        assert central_bytes / busiest_gossip == pytest.approx(3.5, rel=1e-12)


def test_criterion_6_federation_benefit():
    with criterion(6, "central and gossip beat isolated on the data-scarce preset (p < 0.05)"):
        scenario = load_scenario(DATA_SCARCE_SCENARIO)
        seeds = range(1, 21)
        accuracy = {"isolated": [], "gossip": [], "central": []}
        for seed in seeds:
            # the three designs see one draw of the environment per seed and
            # train in one loop
            trained = train_topologies(sense_run(scenario, seed), TOPOLOGIES)
            for topology in accuracy:
                run = run_simulation(scenario, topology, seed, trained=trained)
                accuracy[topology].append(run.global_metrics.accuracy)
        iso = np.array(accuracy["isolated"])
        for topology in ("central", "gossip"):
            coop = np.array(accuracy[topology])
            assert coop.mean() > iso.mean()
            result = wilcoxon(coop, iso, alternative="greater")
            assert result.pvalue < 0.05


def test_criterion_7_energy_baseline_calibration():
    with criterion(7, "0.99 noise quantile threshold gives pfa in [0.005, 0.015]"):
        ch = ChannelModel(shadowing_sigma_db=0.0)
        tm = PuTrafficModel()
        sensor = Placement(0, "sensor", 0.0, 0.0)

        def noise_f1(count, streams):
            idle = np.zeros((count, 0), dtype=bool)
            return draw_windows([sensor], [], idle, ch, tm, 64, [streams])[0][:, 0]

        threshold = float(np.quantile(noise_f1(10_000, sensor_streams(71, 0)), 0.99))
        fresh = noise_f1(20_000, sensor_streams(72, 0))
        # the energy detector decides busy above the threshold
        pfa = float(np.mean(fresh > threshold))
        assert 0.005 <= pfa <= 0.015


def test_criterion_8_roc_monotonicity():
    with criterion(8, "pd and pfa nonincreasing across 101 thresholds for 10 trained models"):
        for index in range(10):
            kind = "logistic" if index < 5 else "mlp"
            rng = substream(81 + index, "dataset")
            x = np.empty((200, 3))
            y = np.empty(200)
            for i in range(200):
                y[i] = rng.integers(0, 2)
                center = rng.uniform(0.5, 2.0) if y[i] else rng.uniform(-1.0, 0.2)
                x[i] = rng.normal(center, 0.8, size=3)
            tc = TrainingConfig(model_kind=kind, learning_rate=0.3, epochs_per_round=5)
            theta = np.zeros((1, model_dim(kind)))
            if kind == "mlp":
                theta[0] = init_model(kind, tc, substream(81 + index, "init"))
            order = shuffles([substream(81 + index, "train:0")], 5, 200)
            train_rows(kind, theta, x[None], y, tc, order)
            probs = predict_rows(kind, theta[0], x)
            points = [DetectionMetrics(*confusion(probs >= t, y == 1.0))
                      for t in np.linspace(0, 1, 101)]
            pds = [p.pd for p in points]
            pfas = [p.pfa for p in points]
            # threshold 0 accepts everything
            assert pds[0] == 1.0 and pfas[0] == 1.0
            assert all(a >= b for a, b in zip(pds, pds[1:]))
            assert all(a >= b for a, b in zip(pfas, pfas[1:]))


def test_criterion_9_consensus_contraction():
    with criterion(9, "uniform gossip on a 5-node line contracts the parameter spread"):
        placements = [Placement(i, "sensor", 100.0 * i, 0.0) for i in range(5)]
        table = build_neighbor_graph(placements, 150.0)
        cfg = FederationConfig(topology="gossip", weighting="uniform")
        rng = substream(91, "init")
        theta = np.stack([rng.normal(0.0, 1.0, size=4) for _ in range(5)])
        mixer = gossip_mixer(table, cfg, theta.shape[1])

        def spread(thetas):
            return thetas.max(axis=0) - thetas.min(axis=0)

        initial = spread(theta)
        previous = initial
        for round_index in range(1, 101):
            theta = gossip_mix(theta, mixer)
            current = spread(theta)
            if round_index <= 50:
                assert np.all(current < previous)
            previous = current
        # slowest mode decays as (5/6)^k: below 1e-6 of the start by round 100
        assert np.all(previous < 1e-6 * initial)


def test_criterion_10_cost_contrast():
    with criterion(10, "MLP costs (32 MACs, 328 B) exceed logistic (3 MACs, 32 B) in the CSV"):
        from fedspectrum.scenario import Scenario

        def tiny(kind):
            return Scenario(
                seed=5,
                area_size_m=300.0,
                n_sensors=3,
                n_primary_users=1,
                training=TrainingConfig(model_kind=kind),
                schedule=SlotSchedule(
                    n_training_slots=40,
                    n_eval_slots=10,
                    local_train_period_slots=20,
                    federation_period_slots=20,
                    window_samples=8,
                ),
            )

        runs = [
            run_simulation(tiny("logistic"), "central", 5),
            run_simulation(tiny("mlp"), "central", 5),
        ]
        logistic_cost = runs[0].per_node_cost[0]
        mlp_cost = runs[1].per_node_cost[0]
        assert mlp_cost.macs_per_inference == 32 > logistic_cost.macs_per_inference == 3
        assert mlp_cost.model_bytes == 328 > logistic_cost.model_bytes == 32

        lines = metrics_csv_lines(runs)
        header = lines[0].split(",")
        bytes_col = header.index("param_bytes")
        macs_col = header.index("train_macs")
        per_node = [l.split(",") for l in lines[1:] if ",global," not in l]
        assert {r[bytes_col] for r in per_node[:3]} == {"32"}
        assert {r[bytes_col] for r in per_node[3:]} == {"328"}
        assert all(int(r[macs_col]) > 0 for r in per_node)
