import json
import warnings
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspectrum import engine
from fedspectrum.cli import main
from fedspectrum.engine import (
    DetectionMetrics,
    DivergenceError,
    EmptyInputError,
    METRICS_HEADER,
    RunResult,
    comparison_table,
    comparison_to_dict,
    evaluate_detection,
    metrics_csv_lines,
    roc_sweep,
    run_simulation,
    summarize_runs,
)
from fedspectrum.federation import TOPOLOGIES, FederationConfig, TrafficStats
from fedspectrum.radio import pu_activity_step
from fedspectrum.rng import substream
from fedspectrum.scenario import Scenario, ScenarioValidationError, SlotSchedule, load_scenario
from fedspectrum.sensing import CostReport, ModelParams, TrainingConfig


def small_scenario(seed=1, **kwargs):
    defaults = dict(
        seed=seed,
        area_size_m=300.0,
        n_sensors=3,
        n_primary_users=1,
        schedule=SlotSchedule(
            n_training_slots=60,
            n_eval_slots=40,
            local_train_period_slots=20,
            federation_period_slots=20,
            window_samples=8,
        ),
        federation=FederationConfig(neighbor_radius_m=400.0),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def test_evaluate_detection_balanced_example():
    decided = np.array([True, False, True, False])
    truths = np.array([True, True, False, False])
    m = evaluate_detection(decided, truths)
    assert (m.tp, m.fn, m.fp, m.tn) == (1, 1, 1, 1)
    assert m.pd == 0.5 and m.pfa == 0.5 and m.accuracy == 0.5
    assert all(type(count) is int for count in astuple(m))  # JSON-ready


def test_evaluate_detection_empty_raises():
    with pytest.raises(EmptyInputError):
        evaluate_detection(np.array([], dtype=bool), np.array([], dtype=bool))
    with pytest.raises(ValueError, match="2 decisions for 1 truth labels"):
        evaluate_detection(np.array([True, False]), np.array([True]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=30))
def test_evaluate_detection_matches_pairwise_count(pairs):
    decided, truths = np.array(pairs).T
    expected = (
        sum(d and t for d, t in pairs),
        sum(d and not t for d, t in pairs),
        sum(not d and not t for d, t in pairs),
        sum(not d and t for d, t in pairs),
    )
    assert astuple(evaluate_detection(decided, truths)) == expected


def test_metrics_undefined_without_support():
    no_positives = DetectionMetrics(tp=0, fp=2, tn=8, fn=0)
    assert no_positives.pd is None
    assert no_positives.pfa == 0.2
    no_negatives = DetectionMetrics(tp=3, fp=0, tn=0, fn=1)
    assert no_negatives.pfa is None
    assert no_negatives.pd == 0.75
    assert DetectionMetrics(0, 0, 0, 0).accuracy is None


def test_roc_sweep_endpoints_and_monotonicity():
    model = ModelParams("logistic", np.array([2.0, 0.0, 0.0, -1.0]))
    rng = np.random.default_rng(3)
    features = np.zeros((200, 3))
    features[:, 0] = rng.normal(0.5, 1.0, size=200)
    points = roc_sweep(model, features, features[:, 0] > 0.5, 101)
    assert len(points) == 101
    assert points[0][0] == 0.0 and points[-1][0] == 1.0
    # threshold 0 accepts everything
    assert points[0][1] == 1.0 and points[0][2] == 1.0
    pds = [p[1] for p in points]
    pfas = [p[2] for p in points]
    assert all(a >= b for a, b in zip(pds, pds[1:]))
    assert all(a >= b for a, b in zip(pfas, pfas[1:]))


def test_roc_sweep_validation():
    model = ModelParams("logistic", np.zeros(4))
    with pytest.raises(ValueError, match="n_points"):
        roc_sweep(model, np.zeros((1, 3)), [True], 1)
    with pytest.raises(EmptyInputError):
        roc_sweep(model, np.empty((0, 3)), [], 5)
    with pytest.raises(ValueError, match="2 windows for 1 truth labels"):
        roc_sweep(model, np.zeros((2, 3)), [True], 5)


def test_run_simulation_shapes_and_counts():
    result = run_simulation(small_scenario(), "isolated", 4)
    assert result.topology == "isolated"
    assert result.seed == 4
    assert len(result.per_node_metrics) == 3
    assert len(result.final_models) == 3
    assert len(result.per_node_cost) == 3
    for m in result.per_node_metrics:
        assert m.tp + m.fp + m.tn + m.fn == 40
    g = result.global_metrics
    assert g.tp + g.fp + g.tn + g.fn == 120
    assert result.federation_rounds == 0
    assert result.traffic.total_bytes == 0
    assert result.traffic.messages == 0
    assert all(c.train_macs_accumulated > 0 for c in result.per_node_cost)
    assert all(c.model_bytes == 32 for c in result.per_node_cost)
    assert result.central_aggregation_macs == 0
    assert result.node_aggregation_macs == [0, 0, 0]
    assert result.wall_seconds > 0.0


def test_run_simulation_rejects_bad_inputs():
    with pytest.raises(ValueError, match="topology"):
        run_simulation(small_scenario(), "ring", 1)
    bad = small_scenario()
    bad.schedule.window_samples = 1
    with pytest.raises(ScenarioValidationError):
        run_simulation(bad, "isolated", 1)
    # 64-bit seeds only: -1 and 2**64 must not wrap onto 2**64 - 1 and 0
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            run_simulation(small_scenario(), "isolated", seed)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
@pytest.mark.parametrize("topology", ["isolated", "gossip", "central"])
def test_divergent_training_names_node_and_slot(kind, topology):
    scenario = load_scenario("scenarios/default.json")
    scenario.training.learning_rate = 1.7e308
    scenario.training.model_kind = kind
    scenario.schedule.n_training_slots = 200
    scenario.schedule.n_eval_slots = 10
    named = r"^node \d+: .* after local training round \d+ \(slot \d+\)$"
    # the named error is the only report: numpy's overflow warnings stay quiet
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match=named):
            run_simulation(scenario, topology, 1)


def test_mixing_overflow_names_node_and_round():
    # Two sensors 5e-309 m apart: the inverse-distance weight 1/d overflows
    # in the mixing step, which reports the node, not a numpy warning.
    scenario = small_scenario(
        area_size_m=1e-308,
        n_sensors=2,
        federation=FederationConfig(neighbor_radius_m=1.0, weighting="inverse_distance"),
    )
    named = r"^node 0: .* after federation round 1 \(slot 20\)$"
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match=named):
            run_simulation(scenario, "gossip", 1)


def test_divergent_mixing_names_node_and_round(monkeypatch):
    def poisoned(theta, samples):
        theta = theta.copy()
        theta[1, 0] = np.inf
        return theta, samples

    monkeypatch.setattr(engine, "fedavg_mix", poisoned)
    named = r"^node 1: .* after federation round 1 \(slot 20\)$"
    with pytest.raises(DivergenceError, match=named):
        run_simulation(small_scenario(), "central", 1)


@settings(max_examples=40, deadline=None)
@given(
    n_sensors=st.integers(1, 5),
    n_pus=st.integers(0, 3),
    placement=st.sampled_from(["grid", "uniform_random"]),
    kind=st.sampled_from(["logistic", "mlp"]),
    topology=st.sampled_from(TOPOLOGIES),
    shared=st.booleans(),
    n_training=st.integers(0, 30),
    n_eval=st.integers(1, 15),
    period=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
)
def test_every_window_is_counted_once_against_one_truth_per_slot(
    n_sensors, n_pus, placement, kind, topology, shared, n_training, n_eval, period, seed
):
    schedule = SlotSchedule(
        n_training_slots=n_training,
        n_eval_slots=n_eval,
        local_train_period_slots=period,
        federation_period_slots=period,
        window_samples=4,
    )
    scenario = small_scenario(
        seed=seed,
        n_sensors=n_sensors,
        n_primary_users=n_pus,
        sensor_placement=placement,
        training=TrainingConfig(model_kind=kind),
        schedule=schedule,
    )
    result = run_simulation(scenario, topology, seed, shared_streams=shared)
    per_node = [astuple(m) for m in result.per_node_metrics]
    assert len(per_node) == n_sensors
    assert sum(map(sum, per_node)) == sum(astuple(result.global_metrics)) == n_sensors * n_eval
    # The truth label is one value per slot: the traffic stream's chains
    # replayed through both phases give every node the same positives.
    rng = substream(seed, "traffic")
    on = np.zeros(n_pus, dtype=bool)
    occupied = 0
    for slot in range(n_training + n_eval):
        on = pu_activity_step(on, scenario.pu_traffic, rng)
        occupied += slot >= n_training and bool(on.any())
    assert {m.tp + m.fn for m in result.per_node_metrics} == {occupied}


def test_run_simulation_deterministic_rerun():
    a = run_simulation(small_scenario(), "gossip", 7)
    b = run_simulation(small_scenario(), "gossip", 7)
    assert a.scenario_digest == b.scenario_digest
    assert a.per_node_metrics == b.per_node_metrics
    assert a.traffic.total_bytes == b.traffic.total_bytes
    for ma, mb in zip(a.final_models, b.final_models):
        np.testing.assert_array_equal(ma.theta, mb.theta)


def test_gossip_zero_radius_degenerates_to_isolated():
    scenario_a = small_scenario()
    scenario_b = small_scenario(federation=FederationConfig(neighbor_radius_m=0.0))
    iso = run_simulation(scenario_a, "isolated", 9)
    gos = run_simulation(scenario_b, "gossip", 9)
    assert gos.traffic.messages == 0
    assert gos.per_node_metrics == iso.per_node_metrics
    for ma, mb in zip(iso.final_models, gos.final_models):
        np.testing.assert_array_equal(ma.theta, mb.theta)


def test_shared_streams_central_matches_single_pool():
    # with identical data and shuffles at every node, FedAvg of identical
    # updates is the update itself, so central must track isolated bitwise-
    # close (only float summation order differs)
    iso = run_simulation(small_scenario(), "isolated", 11, shared_streams=True)
    cen = run_simulation(small_scenario(), "central", 11, shared_streams=True)
    for ma, mb in zip(iso.final_models, cen.final_models):
        assert np.max(np.abs(ma.theta - mb.theta)) < 1e-9
    first = cen.final_models[0].theta
    for m in cen.final_models[1:]:
        np.testing.assert_array_equal(m.theta, first)


def test_eval_phase_does_not_touch_models():
    # a longer frozen phase cannot change the models the training phase built
    with_eval = run_simulation(small_scenario(), "gossip", 13)
    schedule = SlotSchedule(
        n_training_slots=60,
        n_eval_slots=1,
        local_train_period_slots=20,
        federation_period_slots=20,
        window_samples=8,
    )
    short_eval = run_simulation(small_scenario(schedule=schedule), "gossip", 13)
    for ma, mb in zip(with_eval.final_models, short_eval.final_models):
        np.testing.assert_array_equal(ma.theta, mb.theta)


def test_traffic_equals_rounds_times_closed_form():
    result = run_simulation(small_scenario(), "gossip", 15)
    assert result.federation_rounds == 3
    from fedspectrum.federation import build_neighbor_graph
    from fedspectrum.rng import substream
    from fedspectrum.scenario import place_nodes

    placements = place_nodes(small_scenario(), substream(15, "placement"))
    sensors = [p for p in placements if p.kind == "sensor"]
    graph = build_neighbor_graph(sensors, 400.0)
    assert result.traffic.total_bytes == 3 * 48 * graph.sum_degrees()
    assert result.traffic.central_bytes == 0
    assert result.node_aggregation_macs == [3 * graph.degree(i) * 4 for i in range(3)]

    central = run_simulation(small_scenario(), "central", 15)
    assert central.traffic.total_bytes == 3 * 2 * 3 * 48
    assert central.traffic.central_bytes == central.traffic.total_bytes
    assert central.central_aggregation_macs == 3 * 3 * 4


def test_compare_run_order_and_summary(tmp_path, capsys):
    scenario = small_scenario()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(asdict(scenario)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(path), "--out-dir", str(out), "--seeds", "1,2"]) == 0
    # the CLI runs every seed of one topology before the next topology
    order = [(t, s) for t in ["isolated", "gossip", "central"] for s in (1, 2)]
    progress = [l for l in capsys.readouterr().out.splitlines() if "running" in l]
    assert progress == [f"fedspectrum: running topology={t} seed={s}" for t, s in order]
    rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    run_ids = list(dict.fromkeys(r.split(",")[0] for r in rows))
    assert run_ids == [f"{t}-s{s}" for t, s in order]

    runs = [run_simulation(scenario, t, s) for t, s in order]
    report = summarize_runs(runs, [1, 2])
    payload = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert payload == comparison_to_dict(report)
    assert set(report.topologies) == {"isolated", "gossip", "central"}
    assert report.topologies["isolated"].total_bytes == 0.0
    assert report.topologies["gossip"].needs_neighbor_comm is True
    assert report.topologies["central"].needs_neighbor_comm is False
    expected = np.mean([runs[4].traffic.central_bytes, runs[5].traffic.central_bytes])
    assert report.topologies["central"].central_bytes == expected
    with pytest.raises(EmptyInputError):
        summarize_runs([], [])
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", str(path), "--out-dir", str(out), "--seeds", ","])
    assert exc.value.code == 2
    assert "need at least one seed" in capsys.readouterr().err


def test_metrics_csv_shape_and_global_row():
    runs = [run_simulation(small_scenario(), t, 1) for t in TOPOLOGIES]
    lines = metrics_csv_lines(runs)
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + 3 * (3 + 1)
    first = lines[1].split(",")
    assert first[0] == "isolated-s1" and first[1] == "isolated"
    assert first[2] == "1" and first[3] == "0"
    gossip_global = next(
        l.split(",") for l in lines if l.startswith("gossip-s1,") and ",global," in l
    )
    per_node = [
        l.split(",") for l in lines if l.startswith("gossip-s1,") and ",global," not in l
    ]
    assert int(gossip_global[7]) == sum(int(r[7]) for r in per_node)
    assert int(gossip_global[8]) == sum(int(r[8]) for r in per_node)
    assert int(gossip_global[9]) == sum(int(r[9]) for r in per_node)
    assert int(gossip_global[10]) == sum(int(r[10]) for r in per_node)


def test_metrics_csv_blank_cell_for_undefined_rate():
    run = RunResult(
        scenario_digest="x" * 16,
        topology="isolated",
        seed=1,
        per_node_metrics=[DetectionMetrics(0, 1, 9, 0)],
        global_metrics=DetectionMetrics(0, 1, 9, 0),
        traffic=TrafficStats(),
        per_node_cost=[CostReport(3, 4, 32, 0)],
        node_aggregation_macs=[0],
        central_aggregation_macs=0,
        federation_rounds=0,
        final_models=[ModelParams("logistic", np.zeros(4))],
        wall_seconds=0.1,
    )
    lines = metrics_csv_lines([run])
    cells = lines[1].split(",")
    assert cells[4] == ""  # pd has no positive support
    assert cells[5] == repr(0.1)


def test_comparison_serialization_and_table():
    report = summarize_runs([run_simulation(small_scenario(), t, 1) for t in TOPOLOGIES], [1])
    payload = comparison_to_dict(report)
    assert list(payload["topologies"]) == ["central", "gossip", "isolated"]
    assert payload["seeds"] == [1]
    assert len(payload["scenario_digest"]) == 16

    table = comparison_table(report)
    lines = table.splitlines()
    assert lines[0].startswith("aspect")
    assert all(t in lines[0] for t in ("isolated", "gossip", "central"))
    assert len(lines) == 2 + 5
    labels = [l.split("|")[0].strip() for l in lines[2:]]
    assert labels == [
        "neighbor communication",
        "topology flexibility",
        "traffic volume (bytes)",
        "aggregation compute (MACs)",
        "detection quality",
    ]
