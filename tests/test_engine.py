import importlib.util
import itertools
import json
import tracemalloc
import warnings
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedspectrum
from fedspectrum import engine
from fedspectrum.cli import (
    METRICS_HEADER,
    comparison_summary,
    comparison_table,
    main,
    metrics_csv_lines,
)
from fedspectrum.engine import (
    DetectionMetrics,
    DivergenceError,
    RunResult,
    run_simulation,
    sense_run,
    train_topologies,
)
from fedspectrum.federation import (
    TOPOLOGIES,
    WEIGHTINGS,
    FederationConfig,
    TrafficStats,
    build_neighbor_graph,
)
from fedspectrum.radio import pu_chain
from fedspectrum.rng import substream
from fedspectrum.scenario import (
    Scenario,
    ScenarioValidationError,
    SlotSchedule,
    load_scenario,
    place_nodes,
)
from fedspectrum.sensing import (
    CostReport,
    ModelParams,
    TrainingConfig,
    cost_constants,
    init_model,
    model_dim,
    predict_rows,
)
from oracles import metrics_csv_lines as oracle_metrics_csv_lines
from oracles import substream as oracle_substream
from oracles import (
    CountedModel,
    confusion,
    fedavg_aggregate,
    identical_nodes,
    merge_models,
    neighbor_communication,
    pu_activity_step,
    radio_range,
    summarize_runs,
    train_local,
    train_topology,
)


PU_TRAFFIC = Scenario(seed=1).pu_traffic


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


def test_confusion_balanced_example():
    decided = np.array([True, False, True, False])
    truths = np.array([True, True, False, False])
    m = DetectionMetrics(*engine._confusion(decided, truths).tolist())
    assert (m.tp, m.fn, m.fp, m.tn) == (1, 1, 1, 1)
    assert m.pd == 0.5 and m.pfa == 0.5 and m.accuracy == 0.5
    assert all(type(count) is int for count in astuple(m))  # JSON-ready


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=30))
def test_confusion_matches_pairwise_count(pairs):
    decided, truths = np.array(pairs).T
    # one row, and the (..., m) stack of it and its negation
    assert engine._confusion(decided, truths).tolist() == list(confusion(decided, truths))
    stacked = engine._confusion(np.stack([decided, ~decided]), truths).tolist()
    assert stacked == [list(confusion(decided, truths)), list(confusion(~decided, truths))]


def test_metrics_undefined_without_support():
    no_positives = DetectionMetrics(tp=0, fp=2, tn=8, fn=0)
    assert no_positives.pd is None
    assert no_positives.pfa == 0.2
    no_negatives = DetectionMetrics(tp=3, fp=0, tn=0, fn=1)
    assert no_negatives.pfa is None
    assert no_negatives.pd == 0.75
    assert DetectionMetrics(0, 0, 0, 0).accuracy is None


def test_roc_sweep_endpoints_and_monotonicity():
    theta = np.array([2.0, 0.0, 0.0, -1.0])
    rng = np.random.default_rng(3)
    features = np.zeros((200, 3))
    features[:, 0] = rng.normal(0.5, 1.0, size=200)
    probs, truths = predict_rows("logistic", theta, features), features[:, 0] > 0.5
    thresholds = np.linspace(0.0, 1.0, 101)
    counts = engine._confusion(probs >= thresholds[:, None], truths)  # one row per threshold
    points = [DetectionMetrics(*c) for c in counts]
    assert len(points) == 101
    assert thresholds[0] == 0.0 and thresholds[-1] == 1.0
    # threshold 0 accepts everything
    assert points[0].pd == 1.0 and points[0].pfa == 1.0
    pds = [p.pd for p in points]
    pfas = [p.pfa for p in points]
    assert all(a >= b for a, b in zip(pds, pds[1:]))
    assert all(a >= b for a, b in zip(pfas, pfas[1:]))


def test_run_simulation_shapes_and_counts():
    result = run_simulation(small_scenario(), "isolated", 4)
    assert result.topology == "isolated"
    assert result.seed == 4
    assert result.confusion.shape == (3, 4)
    assert len(result.final_models) == 3
    assert len(result.per_node_cost) == 3
    assert result.confusion.sum(axis=1).tolist() == [40] * 3
    g = result.global_metrics
    assert g.tp + g.fp + g.tn + g.fn == 120
    assert result.federation_rounds == 0
    assert result.traffic.total_bytes == 0
    assert result.traffic.messages == 0
    # 4 epochs over 60 windows at 3 MACs per pass (forward, backward, update)
    # of 3 MACs each; 4 float64 coefficients
    assert result.per_node_cost == [CostReport(3, 4, 32, 4 * 60 * 3 * 3)] * 3
    assert result.central_aggregation_macs == 0
    assert result.node_aggregation_macs.tolist() == [0, 0, 0]


def test_run_simulation_rejects_bad_inputs():
    with pytest.raises(ValueError, match="topology"):
        run_simulation(small_scenario(), "ring", 1)
    # an invalid scenario cannot be built, so no run is handed one
    good = small_scenario()
    with pytest.raises(ScenarioValidationError, match="^schedule.window_samples: must be >= 2"):
        replace(good, schedule=replace(good.schedule, window_samples=1))
    # 64-bit seeds only: -1 and 2**64 must not wrap onto 2**64 - 1 and 0
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            run_simulation(small_scenario(), "isolated", seed)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
@pytest.mark.parametrize("topology", ["isolated", "gossip", "central"])
def test_divergent_training_names_node_and_slot(kind, topology):
    scenario = load_scenario("scenarios/default.json")
    scenario = replace(
        scenario,
        training=replace(scenario.training, learning_rate=1.7e308, model_kind=kind),
        schedule=replace(scenario.schedule, n_training_slots=200, n_eval_slots=10),
    )
    named = r"^{} node \d+: .* after local training round \d+ \(slot \d+\)$"
    sensing = sense_run(scenario, 1)
    # the named error is the only report: numpy's overflow warnings stay quiet
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match=named.format(topology)) as alone:
            run_simulation(scenario, topology, 1)
        # the first topology in TOPOLOGIES diverges too, and its error is raised
        with pytest.raises(DivergenceError, match=named.format(TOPOLOGIES[0])):
            train_topologies(sensing, TOPOLOGIES)
        # stacked with the topologies after it, its own run's error is raised
        with pytest.raises(DivergenceError) as stacked:
            train_topologies(sensing, TOPOLOGIES[TOPOLOGIES.index(topology) :])
    assert str(stacked.value) == str(alone.value)


def test_mixing_overflow_names_node_and_round(monkeypatch):
    # A 4 x 4 grid at a radius of 2.1 cells: node 5 is the first with degree
    # 10.  With every row at the largest float, its 11 uniform terms of
    # max * (1/11) add up to inf in the mixing step, which reports the node,
    # not a numpy warning; the 6 and 8 terms of nodes 0 to 4 stay finite.
    def train_rows(kind, theta, *args):
        theta[...] = np.finfo(float).max

    monkeypatch.setattr(engine, "train_rows", train_rows)
    scenario = small_scenario(
        n_sensors=16,
        sensor_placement="grid",
        federation=FederationConfig(neighbor_radius_m=2.1 * 300.0 / 4),
    )
    sensors = [p for p in place_nodes(scenario, substream(1, "placement")) if p.kind == "sensor"]
    degree = build_neighbor_graph(sensors, scenario.federation.neighbor_radius_m).valid.sum(axis=1)
    assert degree[:6].tolist() == [5, 7, 7, 5, 7, 10]
    named = r"^gossip node 5: .* after federation round 1 \(slot 20\)$"
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match=named):
            run_simulation(scenario, "gossip", 1)


def test_divergent_mixing_names_node_and_round(monkeypatch):
    def poisoned(theta):
        theta = theta.copy()
        theta[1, 0] = np.inf
        return theta

    monkeypatch.setattr(engine, "fedavg_mix", poisoned)
    named = r"^central node 1: .* after federation round 1 \(slot 20\)$"
    with pytest.raises(DivergenceError, match=named):
        run_simulation(small_scenario(), "central", 1)


@pytest.mark.parametrize(
    "schedule,rounds",
    [(SlotSchedule(15, 10, 5, 20, 8), 0), (SlotSchedule(60, 40, 20, 20, 8), 3)],
    ids=["no-round", "three-rounds"],
)
def test_a_gossip_run_builds_one_mixer_before_its_first_slot(monkeypatch, schedule, rounds):
    # the mixer is built with the graph, once, also when training ends before
    # the first federation slot; every round applies that one mixer
    events, mixers = [], []

    def recorded(name, fn):
        def call(*args):
            events.append(name)
            out = fn(*args)
            if name == "mixer":
                mixers.append(out)
            elif name == "mix":
                assert args[1] is mixers[0]
            return out

        return call

    for name, attr in (("mixer", "gossip_mixer"), ("mix", "gossip_mix"), ("train", "train_rows")):
        monkeypatch.setattr(engine, attr, recorded(name, getattr(engine, attr)))
    result = run_simulation(small_scenario(schedule=schedule), "gossip", 1)
    assert events[0] == "mixer" and events.count("mixer") == 1
    assert events.count("mix") == result.federation_rounds == rounds
    assert "train" in events
    if rounds == 0:
        assert result.traffic.messages == 0 and result.traffic.total_bytes == 0
        assert result.traffic.tx_bytes.tolist() == [0, 0, 0]


def bench_layers():
    """``bench/layers.py``, loaded from its file: the benchmark's tracer."""
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("topology,mix", [("gossip", "gossip_mix"), ("central", "fedavg_mix")])
def test_a_traced_run_times_every_round_in_the_federation_layer(tmp_path, topology, mix):
    # the benchmark's tracer wraps the functions engine imports, so each
    # round of a topology's Exchange is one federation span of its own name
    layers = bench_layers()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(asdict(small_scenario())), encoding="utf-8")
    results, tracer = [], layers.Tracer()
    with layers.instrument(results.append, tracer):
        args = ["run", "--scenario", str(path), "--topology", topology]
        assert main([*args, "--out-dir", str(tmp_path / "out")]) == 0
    [result] = results
    assert result.federation_rounds == 3
    spans = [dict(zip(layers.SPAN_FIELDS, span)) for span in tracer.spans]
    rounds = [(s["layer"], s["name"]) for s in spans if s["name"] in ("gossip_mix", "fedavg_mix")]
    assert rounds == [("federation", mix)] * result.federation_rounds


def poisoned_at(mix, round_):
    """``mix`` with node 1's model made non-finite in its ``round_``-th call."""
    calls = itertools.count(1)

    def poisoned(theta, *args):
        theta = mix(theta, *args)
        if next(calls) == round_:
            theta = theta.copy()
            theta[1, 0] = np.inf
        return theta

    return poisoned


def test_stacked_divergence_names_the_diverging_topology(monkeypatch):
    # the other topologies train on; the gossip run's own error is raised
    sensing = sense_run(small_scenario(), 1)
    monkeypatch.setattr(engine, "gossip_mix", poisoned_at(engine.gossip_mix, 1))
    named = r"^gossip node 1: .* after federation round 1 \(slot 20\)$"
    with pytest.raises(DivergenceError, match=named):
        train_topologies(sensing, TOPOLOGIES)


def test_stacked_divergence_is_raised_in_topology_order(monkeypatch):
    # central diverges a round before gossip, but gossip comes first in
    # TOPOLOGIES: compare's sequential runs raised gossip's error
    sensing = sense_run(small_scenario(), 1)
    gossip_mix, fedavg_mix = engine.gossip_mix, engine.fedavg_mix
    monkeypatch.setattr(engine, "fedavg_mix", poisoned_at(fedavg_mix, 1))
    with pytest.raises(DivergenceError, match=r"after federation round 1 \(slot 20\)$"):
        train_topologies(sensing, ["central"])
    monkeypatch.setattr(engine, "gossip_mix", poisoned_at(gossip_mix, 2))
    monkeypatch.setattr(engine, "fedavg_mix", poisoned_at(fedavg_mix, 1))
    named = r"^gossip node 1: .* after federation round 2 \(slot 40\)$"
    with pytest.raises(DivergenceError, match=named):
        train_topologies(sensing, TOPOLOGIES)


@settings(max_examples=40, deadline=None)
@given(
    n_sensors=st.integers(1, 5),
    n_pus=st.integers(0, 3),
    placement=st.sampled_from(["grid", "uniform_random"]),
    kind=st.sampled_from(["logistic", "mlp"]),
    topology=st.sampled_from(TOPOLOGIES),
    n_training=st.integers(0, 30),
    n_eval=st.integers(1, 15),
    period=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
)
def test_every_window_is_counted_once_against_one_truth_per_slot(
    n_sensors, n_pus, placement, kind, topology, n_training, n_eval, period, seed
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
    result = run_simulation(scenario, topology, seed)
    assert result.confusion.shape == (n_sensors, 4)
    assert result.confusion.sum(axis=0).tolist() == list(astuple(result.global_metrics))
    assert result.confusion.sum() == n_sensors * n_eval
    # The truth label is one value per slot: the traffic stream's chains
    # replayed through both phases give every node the same positives.
    rng = substream(seed, "traffic")
    on = np.zeros(n_pus, dtype=bool)
    occupied = 0
    for slot in range(n_training + n_eval):
        on = pu_activity_step(on, scenario.pu_traffic, rng)
        occupied += slot >= n_training and bool(on.any())
    tp, _, _, fn = result.confusion.T
    assert set((tp + fn).tolist()) == {occupied}


@settings(max_examples=40, deadline=None)
@given(
    n_sensors=st.integers(1, 6),
    placement=st.sampled_from(["grid", "uniform_random"]),
    kind=st.sampled_from(["logistic", "mlp"]),
    topology=st.sampled_from(TOPOLOGIES),
    n_training=st.integers(0, 30),
    period=st.integers(1, 40),
    federation_period=st.integers(1, 40),
    epochs=st.integers(1, 3),
    radius=st.floats(0.0, 500.0),
    seed=st.integers(0, 2**64 - 1),
)
# a training period longer than the phase: nothing is trained
@example(3, "grid", "mlp", "gossip", 25, 30, 10, 2, 250.0, 5)
def test_costs_and_traffic_are_closed_forms(
    n_sensors, placement, kind, topology, n_training, period, federation_period, epochs,
    radius, seed,
):
    scenario = small_scenario(
        seed=seed,
        n_sensors=n_sensors,
        sensor_placement=placement,
        training=TrainingConfig(model_kind=kind, epochs_per_round=epochs),
        schedule=SlotSchedule(n_training, 1, period, federation_period, 4),
        federation=FederationConfig(neighbor_radius_m=radius),
    )
    result = run_simulation(scenario, topology, seed)
    macs, params = cost_constants(kind)
    windows = period * (n_training // period)
    cost = CostReport(macs, params, 8 * params, 3 * epochs * windows * macs)
    assert result.per_node_cost == [cost] * n_sensors

    # links per round: each sensor's neighbors (gossip) or the coordinator (central)
    rounds = 0 if topology == "isolated" else n_training // federation_period
    degree, central = np.zeros(n_sensors, np.int64), 0
    if topology == "gossip":
        placements = place_nodes(scenario, substream(seed, "placement"))
        xy = [(p.x_m, p.y_m) for p in placements if p.kind == "sensor"]
        degree = radio_range(xy, radius).sum(axis=1)
    elif topology == "central":
        degree, central = degree + 1, n_sensors
    payload = 16 + 8 * params
    traffic = result.traffic
    assert result.federation_rounds == rounds
    assert traffic.messages == rounds * (degree.sum() + central)
    assert traffic.total_bytes == rounds * (degree.sum() + central) * payload
    assert traffic.central_bytes == 2 * rounds * central * payload
    assert traffic.tx_bytes.tolist() == (rounds * payload * degree).tolist()
    assert result.busiest_node_bytes() == 2 * rounds * payload * degree.max()
    merges = degree if topology == "gossip" else 0 * degree
    assert result.node_aggregation_macs.tolist() == (rounds * params * merges).tolist()
    assert result.central_aggregation_macs == rounds * params * central


@settings(max_examples=40, deadline=None)
@given(
    n_sensors=st.integers(1, 6),
    placement=st.sampled_from(["grid", "uniform_random"]),
    kind=st.sampled_from(["logistic", "mlp"]),
    weighting=st.sampled_from(WEIGHTINGS),
    self_weight=st.booleans(),
    radius=st.floats(0.0, 500.0),
    seed=st.integers(0, 2**64 - 1),
)
# one sensor; four sensors and no edge
@example(1, "grid", "logistic", "samples", True, 400.0, 1)
@example(4, "grid", "mlp", "uniform", False, 0.0, 2)
def test_each_topology_exchange_is_its_oracle(
    n_sensors, placement, kind, weighting, self_weight, radius, seed
):
    # a record's mix is the oracles' per-model merge, bit for bit, and its
    # counts are the closed forms of test_costs_and_traffic_are_closed_forms
    scenario = small_scenario(
        seed=seed,
        n_sensors=n_sensors,
        sensor_placement=placement,
        training=TrainingConfig(model_kind=kind),
        schedule=SlotSchedule(0, 1, 10, 10, 4),
        federation=FederationConfig(
            neighbor_radius_m=radius, weighting=weighting, include_self_weight=self_weight
        ),
    )
    sensing = sense_run(scenario, seed)
    isolated, gossip, central = train_topologies(sensing, TOPOLOGIES).exchanges
    theta = np.random.default_rng(seed).normal(size=(n_sensors, model_dim(kind)))
    models = [CountedModel(kind, row) for row in theta]
    zeros = [0] * n_sensors

    assert isolated.mix is None
    assert (isolated.degree.tolist(), isolated.merges.tolist(), isolated.coordinator) == (
        zeros, zeros, 0)

    links = radio_range([(p.x_m, p.y_m) for p in sensing.placements[:n_sensors]], radius)
    merged = [merge_models(own, [models[j] for j in np.flatnonzero(row)], scenario.federation)
              for own, row in zip(models, links)]
    assert gossip.mix(theta).tobytes() == np.stack([m.theta for m in merged]).tobytes()
    degree = links.sum(axis=1).tolist()
    assert (gossip.degree.tolist(), gossip.merges.tolist(), gossip.coordinator) == (
        degree, degree, 0)
    if not any(degree):  # no edge: every row as it was
        assert gossip.mix(theta).tobytes() == theta.tobytes()

    mean = fedavg_aggregate(models).theta
    assert central.mix(theta).tobytes() == np.tile(mean, (n_sensors, 1)).tobytes()
    assert (central.degree.tolist(), central.merges.tolist(), central.coordinator) == (
        [1] * n_sensors, zeros, n_sensors)


def same(x, y):
    """Equal values; arrays by dtype, shape and bytes."""
    if isinstance(x, np.ndarray):
        return (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    return x == y


def assert_same_run(a, b):
    """Every RunResult field equal: models and arrays as bytes, traffic field
    by field."""
    for f in fields(RunResult):
        if f.name == "final_models":
            for ma, mb in zip(a.final_models, b.final_models, strict=True):
                assert ma.kind == mb.kind
                assert ma.theta.tobytes() == mb.theta.tobytes()
        elif f.name == "traffic":
            for g in fields(TrafficStats):
                assert same(getattr(a.traffic, g.name), getattr(b.traffic, g.name)), g.name
        else:
            assert same(getattr(a, f.name), getattr(b, f.name)), f.name


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_shared_sensing_gives_the_run_a_fresh_draw_gives(kind):
    # one tensor, trained once for every topology, changes no run
    scenario = small_scenario(training=TrainingConfig(model_kind=kind))
    sensing = sense_run(scenario, 21)
    before = sensing.windows.tobytes(), sensing.truths.tobytes()
    trained = train_topologies(sensing, TOPOLOGIES)
    for topology in TOPOLOGIES:
        reused = run_simulation(scenario, topology, 21, trained=trained)
        fresh = run_simulation(scenario, topology, 21)
        assert_same_run(reused, fresh)
    assert (sensing.windows.tobytes(), sensing.truths.tobytes()) == before
    assert not sensing.windows.flags.writeable and not sensing.truths.flags.writeable
    assert not trained.theta.flags.writeable


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_a_trained_exchange_is_read_only(topology):
    # zeroing a record's degree in place used to change the bytes every later
    # run of the trained models booked (15,360 -> 0 for gossip here)
    scenario = load_scenario("scenarios/data_scarce.json")
    trained = train_topologies(sense_run(scenario, 1), [topology])
    before = run_simulation(scenario, topology, 1, trained=trained)
    exchange = trained.exchanges[0]
    for counts in (exchange.degree, exchange.merges):
        with pytest.raises(ValueError, match="read-only"):
            counts[:] = 0
    assert_same_run(run_simulation(scenario, topology, 1, trained=trained), before)


def test_sensing_for_another_run_is_rejected():
    scenario = small_scenario()
    trained = train_topologies(sense_run(scenario, 3), TOPOLOGIES)
    other = replace(scenario, schedule=replace(scenario.schedule, n_eval_slots=39))
    for args in [(scenario, "gossip", 4), (other, "gossip", 3)]:
        with pytest.raises(ValueError, match="^trained: for another scenario or seed$"):
            run_simulation(*args, trained=trained)
    isolated = train_topologies(sense_run(scenario, 3), ["isolated"])
    with pytest.raises(ValueError, match="trained: has no 'gossip' run"):
        run_simulation(scenario, "gossip", 3, trained=isolated)
    with pytest.raises(ValueError, match="topology: must be one of"):
        train_topologies(sense_run(scenario, 3), ["isolated", "ring"])


@pytest.mark.parametrize(
    "topologies",
    [[], ["gossip", "gossip"], ("central", "isolated", "central")],
    ids=["none", "gossip-twice", "central-twice"],
)
def test_a_topology_list_that_is_empty_or_repeats_a_name_is_rejected(monkeypatch, topologies):
    # by name, before any stream is drawn: [] would train a (0, n, d) array,
    # and a repeated name would train one row for both
    sensing = sense_run(small_scenario(), 1)

    def drawn(*args):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(engine, "streams", drawn)
    monkeypatch.setattr(engine, "substream", drawn)
    with pytest.raises(ValueError, match=r"^topology: must be one of .*, none twice") as error:
        fedspectrum.train_topologies(sensing, topologies)
    assert str(error.value).endswith(f"(got {list(topologies)})")


SUBSETS = [TOPOLOGIES, ("isolated",), ("gossip",), ("central",), ("gossip", "central")]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "mlp"]),
    weighting=st.sampled_from(WEIGHTINGS),
    self_weight=st.booleans(),
    n_training=st.integers(0, 45),
    period=st.integers(1, 50),
    federation_period=st.integers(1, 50),
    topologies=st.sampled_from(SUBSETS),
    seed=st.integers(0, 2**64 - 1),
)
@example("logistic", "samples", True, 0, 10, 10, TOPOLOGIES, 1)
@example("mlp", "samples", True, 30, 40, 10, TOPOLOGIES, 2)
@example("mlp", "uniform", False, 45, 7, 5, TOPOLOGIES, 3)
@example("logistic", "uniform", False, 40, 5, 8, ("gossip", "central"), 4)
# no federation slot within the training slots
@example("logistic", "samples", True, 30, 7, 45, TOPOLOGIES, 5)
# a federation slot (4) before the first training slot (9)
@example("mlp", "uniform", True, 45, 9, 4, TOPOLOGIES, 6)
# gossip degrees [2, 0, 1, 1]; 5 windows trained after the last exchange
@example("logistic", "samples", False, 45, 5, 20, TOPOLOGIES, 145)
def test_stacked_training_is_the_per_topology_loop(
    kind, weighting, self_weight, n_training, period, federation_period, topologies, seed
):
    # one (k, n, d) loop with shared shuffles trains each topology as its
    # own loop with fresh streams does, byte for byte
    scenario = small_scenario(
        seed=seed,
        n_sensors=4,
        sensor_placement="uniform_random",
        schedule=SlotSchedule(n_training, 5, period, federation_period, 8),
        training=TrainingConfig(model_kind=kind, batch_size=7),
        federation=FederationConfig(
            neighbor_radius_m=250.0, weighting=weighting, include_self_weight=self_weight
        ),
    )
    sensing = sense_run(scenario, seed)
    trained = train_topologies(sensing, topologies)
    assert trained.topologies == topologies and trained.sensing is sensing
    for j, topology in enumerate(topologies):
        theta, rounds = train_topology(sensing, topology)
        assert trained.theta[j].tobytes() == theta.tobytes()
        run = run_simulation(scenario, topology, seed, trained=trained)
        assert run.federation_rounds == rounds
        # the snapshots are the trained rows, which training checked are finite
        assert {m.kind for m in run.final_models} == {kind}
        assert np.stack([m.theta for m in run.final_models]).tobytes() == theta.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n_pus=st.integers(0, 3),
    placement=st.sampled_from(["grid", "uniform_random"]),
    slots=st.lists(st.integers(0, 120), min_size=2, max_size=2),
    n_eval=st.lists(st.integers(1, 60), min_size=2, max_size=2),
    seed=st.integers(0, 2**64 - 1),
)
def test_shorter_run_senses_a_prefix_of_a_longer_one(n_pus, placement, slots, n_eval, seed):
    # Placement and the primary-user trajectory depend on the seed only; a
    # run with fewer slots sees the first slots of a longer run.
    runs = []
    for n_training, eval_slots in zip(slots, n_eval):
        schedule = SlotSchedule(n_training, eval_slots, 10, 10, 4)
        scenario = small_scenario(
            seed=seed, n_primary_users=n_pus, sensor_placement=placement, schedule=schedule
        )
        runs.append(sense_run(scenario, seed))
    short, long = sorted(runs, key=lambda r: len(r.truths))
    k = len(short.truths)
    assert short.placements == long.placements
    assert short.truths.tobytes() == long.truths[:k].tobytes()
    assert short.windows.tobytes() == long.windows[:, :k].tobytes()
    chain = pu_chain(substream(seed, "traffic").random((len(long.truths), n_pus)), PU_TRAFFIC)
    shorter = pu_chain(substream(seed, "traffic").random((k, n_pus)), PU_TRAFFIC)
    assert shorter.tobytes() == chain[:k].tobytes()
    assert long.truths.tolist() == chain.any(axis=1).tolist()


def test_run_simulation_deterministic_rerun():
    a = run_simulation(small_scenario(), "gossip", 7)
    b = run_simulation(small_scenario(), "gossip", 7)
    assert a.scenario_digest == b.scenario_digest
    assert same(a.confusion, b.confusion)
    assert a.traffic.total_bytes == b.traffic.total_bytes
    for ma, mb in zip(a.final_models, b.final_models):
        np.testing.assert_array_equal(ma.theta, mb.theta)


def test_gossip_zero_radius_degenerates_to_isolated():
    scenario_a = small_scenario()
    scenario_b = small_scenario(federation=FederationConfig(neighbor_radius_m=0.0))
    iso = run_simulation(scenario_a, "isolated", 9)
    gos = run_simulation(scenario_b, "gossip", 9)
    assert gos.traffic.messages == 0
    assert same(gos.confusion, iso.confusion)
    for ma, mb in zip(iso.final_models, gos.final_models):
        np.testing.assert_array_equal(ma.theta, mb.theta)


@pytest.mark.parametrize("self_weight", [True, False])
def test_samples_weighting_trains_as_uniform(self_weight):
    # every node trains on the same windows at the same slots and a gossip
    # round resets the counters of every node it mixes, so each merge weighs
    # equal counts; training twice per exchange keeps the counters above one
    # period, and the graph has an isolated node and degrees 1 and 2
    scenarios = {
        weighting: small_scenario(
            seed=2,
            area_size_m=600.0,
            n_sensors=6,
            sensor_placement="uniform_random",
            schedule=SlotSchedule(60, 40, 10, 20, 8),
            federation=FederationConfig(
                neighbor_radius_m=250.0, weighting=weighting, include_self_weight=self_weight
            ),
        )
        for weighting in ("uniform", "samples")
    }
    trained = {w: train_topologies(sense_run(s, 2), ["isolated", "gossip"])
               for w, s in scenarios.items()}
    uniform, samples = trained["uniform"], trained["samples"]
    assert uniform.exchanges[1].degree.tolist() == [2, 1, 2, 2, 0, 1]
    assert uniform.theta[0].tobytes() != uniform.theta[1].tobytes()
    assert samples.theta.tobytes() == uniform.theta.tobytes()
    # and so are the runs: every metrics.csv row
    runs = {
        w: [run_simulation(s, t, 2, trained=trained[w]) for t in ("isolated", "gossip")]
        for w, s in scenarios.items()
    }
    assert [run.federation_rounds for run in runs["uniform"]] == [0, 3]
    assert metrics_csv_lines(runs["samples"]) == metrics_csv_lines(runs["uniform"])


def _trained_with_streams(sensing, topologies, monkeypatch):
    """``train_topologies(sensing, topologies)`` and the ``train`` generators
    it drew the epoch orders from."""
    derive, drawn = engine.streams, []

    def streams(seed, kind, rows):
        rngs = derive(seed, kind, rows)
        if kind == "train":
            drawn.extend(rngs)
        return rngs

    monkeypatch.setattr(engine, "streams", streams)
    trained = train_topologies(sensing, topologies)
    monkeypatch.setattr(engine, "streams", derive)
    return trained, [rng.bit_generator.state for rng in drawn]


@pytest.mark.parametrize("chunk", [1, 3, 6])
def test_epoch_orders_drawn_in_chunks_train_the_one_chunk_models(chunk, monkeypatch):
    # 7 training periods, their orders drawn `chunk` periods at a time (3:
    # two full chunks and a last one of one period; 6: one full, one of one
    # period) train every topology's models to the bit of the one-chunk draw,
    # and leave every train stream in the same state
    schedule = SlotSchedule(70, 10, 10, 20, 8)
    tc = TrainingConfig(model_kind="mlp", epochs_per_round=3, batch_size=4)
    scenario = small_scenario(n_sensors=4, schedule=schedule, training=tc)
    sensing = sense_run(scenario, 19)
    assert 4 * 4 * 3 * 10 * 7 <= engine._ORDER_BYTES  # one chunk by default
    whole, whole_states = _trained_with_streams(sensing, TOPOLOGIES, monkeypatch)
    monkeypatch.setattr(engine, "_ORDER_BYTES", chunk * 4 * 4 * 3 * 10 + 3)
    chunked, chunked_states = _trained_with_streams(sensing, TOPOLOGIES, monkeypatch)
    assert chunked.theta.tobytes() == whole.theta.tobytes()
    assert len(chunked_states) == 4 and chunked_states == whole_states


@pytest.mark.parametrize(
    "path",
    ["scenarios/default.json", "scenarios/data_scarce.json", "bench/scenarios/dense_gossip.json"],
)
def test_presets_draw_their_epoch_orders_in_one_chunk(path):
    scenario = load_scenario(path)
    schedule, n = scenario.schedule, scenario.n_sensors
    period = schedule.local_train_period_slots
    periods = schedule.n_training_slots // period
    assert 4 * n * scenario.training.epochs_per_round * period * periods <= engine._ORDER_BYTES


def test_epoch_orders_of_a_long_run_stay_within_a_chunk():
    # default.json at 400 sensors and 16 epochs a period: the whole run's int32
    # orders would be 4 * 400 * 40 * 16 * 50 bytes (51.2 MB); drawn a chunk
    # at a time (here one period, 1.28 MB) and gathered an epoch at a time
    # (0.48 MB of windows, not the period's 7.7 MB), training peaks near
    # 3.4 MB.  tracemalloc sees numpy's allocations.  The windows are a
    # broadcast zero row, so the peak is training's alone.
    scenario = load_scenario("scenarios/default.json")
    scenario = replace(scenario, n_sensors=400,
                       training=replace(scenario.training, epochs_per_round=16))
    placements = place_nodes(scenario, substream(1, "placement"))
    slots = scenario.schedule.n_training_slots + scenario.schedule.n_eval_slots
    truths = np.arange(slots) % 3 == 0
    windows = np.broadcast_to(np.zeros(3), (400, slots, 3))
    sensing = engine.RunSensing(scenario, 1, placements, windows, truths)
    tracemalloc.start()
    try:
        train_topologies(sensing, ["isolated"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_identical_nodes_central_matches_single_pool(monkeypatch):
    # with identical data and shuffles at every node, FedAvg of identical
    # updates is the update itself, so central must track isolated bitwise-
    # close (only float summation order differs)
    scenario = small_scenario()
    sensing = identical_nodes(sense_run(scenario, 11), monkeypatch)
    trained = train_topologies(sensing, ["isolated", "central"])
    iso = run_simulation(scenario, "isolated", 11, trained=trained)
    cen = run_simulation(scenario, "central", 11, trained=trained)
    for ma, mb in zip(iso.final_models, cen.final_models):
        assert np.max(np.abs(ma.theta - mb.theta)) < 1e-9
    first = cen.final_models[0].theta
    for m in cen.final_models[1:]:
        np.testing.assert_array_equal(m.theta, first)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
@pytest.mark.parametrize("identical", [False, True], ids=["own-streams", "identical-nodes"])
def test_isolated_training_is_the_per_node_oracle_loop(kind, identical, monkeypatch):
    # the one stacked training step per period equals training node by node
    scenario = small_scenario(training=TrainingConfig(model_kind=kind, batch_size=7))
    sensing, trained = sense_run(scenario, 17), None
    if identical:
        sensing = identical_nodes(sensing, monkeypatch)
        trained = train_topologies(sensing, ["isolated"])
    result = run_simulation(scenario, "isolated", 17, trained=trained)
    start = init_model(kind, scenario.training, substream(17, "init"))
    for i, model in enumerate(result.final_models):
        rng = oracle_substream(17, "train", 0 if identical else i)
        row, theta = sensing.windows[i], start
        for end in (20, 40, 60):
            x, y = row[end - 20 : end], sensing.truths[end - 20 : end]
            theta = train_local(kind, theta, x, y, scenario.training, rng)
        assert model.theta.tobytes() == theta.tobytes()


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


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_the_placement_substream_places_the_run(seed):
    # bench/checks.py rebuilds a run's radio graph from place_nodes(scenario,
    # rng.substream(seed, "placement")); uniform_random sensors draw from that
    # stream, so any split from the run's own placement shows here
    scenario = small_scenario(n_sensors=6, n_primary_users=2, sensor_placement="uniform_random")
    placements = place_nodes(scenario, substream(seed, "placement"))
    assert placements == sense_run(scenario, seed).placements
    assert len({(p.x_m, p.y_m) for p in placements}) == 8


def test_traffic_equals_rounds_times_closed_form():
    result = run_simulation(small_scenario(), "gossip", 15)
    assert result.federation_rounds == 3
    placements = place_nodes(small_scenario(), substream(15, "placement"))
    sensors = [p for p in placements if p.kind == "sensor"]
    valid = build_neighbor_graph(sensors, 400.0).valid
    assert result.traffic.total_bytes == 3 * 48 * valid.sum()
    assert result.traffic.central_bytes == 0
    assert result.node_aggregation_macs.tolist() == [3 * valid[i].sum() * 4 for i in range(3)]

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
    # the CLI senses each seed once and runs every topology on it, seed by
    # seed, then writes the runs topology by topology
    order = [(t, s) for t in ["isolated", "gossip", "central"] for s in (1, 2)]
    progress = [l for l in capsys.readouterr().out.splitlines() if "running" in l]
    assert progress == [
        f"fedspectrum: running topology={t} seed={s}"
        for s in (1, 2)
        for t in ["isolated", "gossip", "central"]
    ]
    rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    run_ids = list(dict.fromkeys(r.split(",")[0] for r in rows))
    assert run_ids == [f"{t}-s{s}" for t, s in order]

    runs = [run_simulation(scenario, t, s) for t, s in order]
    payload = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert payload == summarize_runs(runs)
    assert set(payload["topologies"]) == {"isolated", "gossip", "central"}
    assert payload["topologies"]["isolated"]["total_bytes"] == 0.0
    table = (out / "comparison.txt").read_text(encoding="utf-8").splitlines()
    assert [cell.strip() for cell in table[2].split("|")[1:]] == ["none", "required", "none"]
    assert neighbor_communication(runs) == ["none", "required", "none"]
    expected = np.mean([runs[4].traffic.central_bytes, runs[5].traffic.central_bytes])
    assert payload["topologies"]["central"]["central_bytes"] == expected
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", str(path), "--out-dir", str(out), "--seeds", ","])
    assert exc.value.code == 2
    assert "need at least one seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes",
    [
        # a federation period past the training phase: no round
        {"schedule": SlotSchedule(60, 40, 20, 100_000, 8)},
        # three sensors 150 m apart and a radius of 0: no edge
        {"federation": FederationConfig(neighbor_radius_m=0.0)},
    ],
    ids=["no-rounds", "no-edges"],
)
def test_gossip_that_sends_nothing_needs_no_neighbor_comm(tmp_path, changes):
    scenario = small_scenario(**changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(asdict(scenario)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(path), "--out-dir", str(out), "--seeds", "1,2"]) == 0
    payload = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    runs = [run_simulation(scenario, t, s) for t in TOPOLOGIES for s in (1, 2)]
    assert payload == summarize_runs(runs)
    assert payload["topologies"]["gossip"]["total_bytes"] == 0.0
    table = (out / "comparison.txt").read_text(encoding="utf-8").splitlines()
    assert [cell.strip() for cell in table[2].split("|")[1:]] == ["none"] * 3
    assert neighbor_communication(runs) == ["none"] * 3


def test_compare_summary_matches_the_regrouping_oracle(tmp_path):
    # one eval slot per run: a run with the primary user off leaves pd
    # undefined, one with it on leaves pfa undefined
    scenario = small_scenario(schedule=replace(small_scenario().schedule, n_eval_slots=1))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(asdict(scenario)), encoding="utf-8")
    seeds = list(range(1, 13))
    argv = ["compare", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--seeds", ",".join(map(str, seeds))]) == 0
    text = (tmp_path / "out" / "comparison.json").read_text(encoding="utf-8")
    runs = [run_simulation(scenario, t, s) for t in TOPOLOGIES for s in seeds]
    expected = summarize_runs(runs)
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    for summary in expected["topologies"].values():
        assert 0 < summary["pd_undefined_runs"] < len(seeds)
        assert 0 < summary["pfa_undefined_runs"] < len(seeds)


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


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_metrics_csv_bytes_are_the_runs_traffic(topology):
    # node rows carry tx_bytes; the totals row carries total_bytes, which for
    # central also counts the coordinator's sends beyond the node rows' sum
    run = run_simulation(small_scenario(), topology, 1)
    *nodes, totals = [line.split(",") for line in metrics_csv_lines([run])[1:]]
    assert [(int(r[7]), int(r[8])) for r in nodes] == [(b, b) for b in run.traffic.tx_bytes]
    assert totals[3] == "global"
    assert int(totals[7]) == int(totals[8]) == run.traffic.total_bytes
    coordinator = run.traffic.central_bytes // 2
    assert run.traffic.total_bytes == sum(int(r[7]) for r in nodes) + coordinator
    assert (coordinator > 0) == (topology == "central")


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_per_node_results_are_read_only_int_arrays(topology):
    # row i is sensor i: its confusion counts against its own decisions
    scenario = small_scenario(n_sensors=5)
    sensing = sense_run(scenario, 6)
    result = run_simulation(scenario, topology, 6)
    for a, shape in [
        (result.confusion, (5, 4)),
        (result.traffic.tx_bytes, (5,)),
        (result.node_aggregation_macs, (5,)),
    ]:
        assert a.shape == shape and a.dtype.kind == "i" and not a.flags.writeable
    theta = np.stack([m.theta for m in result.final_models])
    cut = scenario.schedule.n_training_slots
    decided = predict_rows("logistic", theta, sensing.windows[:, cut:]) >= 0.5
    for counts, row in zip(result.confusion.tolist(), decided):
        assert tuple(counts) == confusion(row, sensing.truths[cut:])
    assert result.global_metrics == DetectionMetrics(*result.confusion.sum(axis=0).tolist())


def test_metrics_csv_blank_cell_for_undefined_rate():
    run = RunResult(
        scenario_digest="x" * 16,
        topology="isolated",
        seed=1,
        confusion=np.array([[0, 1, 9, 0]]),
        global_metrics=DetectionMetrics(0, 1, 9, 0),
        traffic=TrafficStats(np.zeros(1, np.int64)),
        per_node_cost=[CostReport(3, 4, 32, 0)],
        node_aggregation_macs=np.zeros(1, np.int64),
        central_aggregation_macs=0,
        federation_rounds=0,
        final_models=[ModelParams("logistic", np.zeros(4))],
    )
    lines = metrics_csv_lines([run])
    cells = lines[1].split(",")
    assert cells[4] == ""  # pd has no positive support
    assert cells[5] == repr(0.1)


def test_metrics_csv_rates_match_the_per_node_oracle():
    # the dense-gossip run's 400 node rows; nodes without positives, without
    # negatives or without windows (blank cells), and counts near 2**42;
    # and a run whose totals row has no support at all
    def run_of(counts):
        n = len(counts)
        return RunResult(
            scenario_digest="x" * 16,
            topology="gossip",
            seed=2,
            confusion=np.array(counts),
            global_metrics=DetectionMetrics(*np.sum(counts, axis=0).tolist()),
            traffic=TrafficStats(np.arange(n) * 48, total_bytes=48 * n),
            per_node_cost=[CostReport(3, 4, 32, i) for i in range(n)],
            node_aggregation_macs=np.zeros(n, np.int64),
            central_aggregation_macs=0,
            federation_rounds=1,
            final_models=[ModelParams("logistic", np.zeros(4))] * n,
        )

    scenario = load_scenario("bench/scenarios/dense_gossip.json")
    dense = run_simulation(scenario, "gossip", scenario.seed)
    sparse = run_of([[0, 1, 9, 0], [3, 0, 0, 1], [0, 0, 0, 0], [0, 0, 7, 0], [2, 0, 0, 0],
                     [2**42 + 1, 3, 2**42 - 7, 5], [1, 2, 3, 4]])
    runs = [dense, sparse, run_of([[0, 0, 0, 0]])]
    lines = metrics_csv_lines(runs)
    assert lines == oracle_metrics_csv_lines(runs)
    rates = [line.split(",")[4:7] for line in lines[-10:]]
    assert [r.count("") for r in rates] == [1, 1, 3, 1, 1, 0, 0, 0, 3, 3]


def test_comparison_serialization_and_table():
    summary = comparison_summary({t: [run_simulation(small_scenario(), t, 1)] for t in TOPOLOGIES})
    payload = json.loads(json.dumps(summary, sort_keys=True))
    assert list(payload["topologies"]) == ["central", "gossip", "isolated"]
    assert all("topology" not in s for s in payload["topologies"].values())
    assert payload["seeds"] == [1]
    assert len(payload["scenario_digest"]) == 16

    table = comparison_table(summary)
    lines = table.splitlines()
    assert lines[0].startswith("aspect")
    assert all(t in lines[0] for t in ("isolated", "gossip", "central"))
    assert len(lines) == 2 + 4
    labels = [l.split("|")[0].strip() for l in lines[2:]]
    assert labels == [
        "neighbor communication",
        "traffic volume (bytes)",
        "aggregation compute (MACs)",
        "detection quality",
    ]


def test_every_table_cell_is_read_from_its_topology_summary():
    summary = comparison_summary({t: [run_simulation(small_scenario(), t, 1)] for t in TOPOLOGIES})

    def cells(summary):
        lines = comparison_table(summary).splitlines()
        assert not [line for line in lines if line.endswith(" ")]
        return [[cell.strip() for cell in line.split("|")] for line in lines[2:]]

    before, moved = cells(summary), set()
    for col, topology in enumerate(TOPOLOGIES, start=1):
        entry = summary["topologies"][topology]
        for key, value in entry.items():
            for figure in (0.25,) if value is None else (value + 1, 0):
                entries = {**summary["topologies"], topology: {**entry, key: figure}}
                after = cells({**summary, "topologies": entries})
                changed = {
                    (row, c) for row, (old, new) in enumerate(zip(before, after))
                    for c, (a, b) in enumerate(zip(old, new)) if a != b
                }
                # a topology's figure moves only cells of its own column
                assert {c for _, c in changed} <= {col}
                moved |= changed
    # every cell below the rule moves with some figure of its topology
    assert moved == {(row, c) for row in range(len(before)) for c in range(1, 1 + len(TOPOLOGIES))}
