import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspectrum import federation
from fedspectrum.federation import (
    WEIGHTINGS,
    FederationConfig,
    NeighborTable,
    build_neighbor_graph,
    exchange_traffic,
    fedavg_mix,
    gossip_mix,
    gossip_mixer,
    payload_bytes,
)
from fedspectrum.rng import substream
from fedspectrum.scenario import Placement, load_scenario, place_nodes
from fedspectrum.sensing import model_dim
from oracles import (
    CountedModel,
    EmptyUpdatesError,
    KindMismatchError,
    fedavg_aggregate,
    merge_models,
    neighbor_graph,
    radio_range,
)

DENSE_GOSSIP = "bench/scenarios/dense_gossip.json"


def logistic(value, n=0):
    return CountedModel("logistic", np.full(4, float(value)), n)


def line_placements(spacing=100.0, n=3):
    return [Placement(i, "sensor", i * spacing, 0.0) for i in range(n)]


def test_payload_bytes():
    assert payload_bytes(4) == 48
    assert payload_bytes(41) == 344


def neighbors(table):
    """Row i's neighbor ids, padding dropped."""
    return [ids[valid].tolist() for ids, valid in zip(table.ids, table.valid)]


def test_neighbor_graph_radius_and_symmetry():
    table = build_neighbor_graph(line_placements(100.0, 4), 150.0)
    assert neighbors(table) == [[1], [0, 2], [1, 3], [2]]
    # padded slots: invalid, id 0
    assert table.valid[0].tolist() == [True, False]
    assert table.ids[0].tolist() == [1, 0]
    assert table.valid.sum() // 2 == 3  # edges
    assert table.valid[1].sum() == 2
    assert table.valid.sum() == 6


def test_neighbor_graph_boundary_inclusive():
    table = build_neighbor_graph(line_placements(100.0, 2), 100.0)
    assert neighbors(table) == [[1], [0]]
    table = build_neighbor_graph(line_placements(100.0, 2), 99.999)
    assert neighbors(table) == [[], []]
    assert table.valid.shape == (2, 0) and table.valid.sum() == 0


def points(xy, order=None):
    """Sensor placements at ``xy``, listed in ``order`` (default: by id)."""
    placements = [Placement(i, "sensor", float(x), float(y)) for i, (x, y) in enumerate(xy)]
    return placements if order is None else [placements[i] for i in order]


def dense_gossip_sensors():
    """The 400-sensor grid of the dense-gossip bench scenario, and its radius."""
    scenario = load_scenario(DENSE_GOSSIP)
    placements = place_nodes(scenario, substream(scenario.seed, "placement"))
    return [p for p in placements if p.kind == "sensor"], scenario.federation.neighbor_radius_m


def assert_same_table(table, expected):
    for got, want in zip(table, expected, strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@st.composite
def layouts(draw):
    """(placements, radius): scattered or grid points, some of them coincident,
    in shuffled list order, under a radius that is 0, a drawn value, or the
    exact distance of some pair (a tie at ``d == radius``)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        spacing = draw(st.sampled_from([0.1, 1.0, 50.0, 1000.0 / 3.0]))
        cols = draw(st.integers(1, 8))
        xy = np.stack([np.arange(n) % cols, np.arange(n) // cols], axis=1) * spacing
    else:
        xy = rng.uniform(0.0, 500.0, size=(n, 2)).round(draw(st.integers(0, 6)))
    copies = rng.integers(0, n, size=draw(st.integers(0, n // 2))) if n else []
    for i, j in zip(copies, rng.permutation(n)):
        xy[j] = xy[i]  # coincident sensors
    radius = draw(st.sampled_from(["zero", "drawn", "tie"]))
    if radius == "zero" or n < 2:
        radius = 0.0
    elif radius == "drawn":
        radius = draw(st.floats(0.0, 800.0))
    else:
        i, j = rng.choice(n, size=2, replace=False)
        radius = math.hypot(*(xy[i] - xy[j]).tolist())
    return points(xy, rng.permutation(n)), radius


@given(layouts())
@settings(max_examples=300, deadline=None)
def test_neighbor_graph_matches_the_pairwise_oracle_bytewise(layout):
    placements, radius = layout
    assert_same_table(build_neighbor_graph(placements, radius), neighbor_graph(placements, radius))


@pytest.mark.parametrize(
    "dx, dy, radius, edge",
    [
        # np.hypot rounds up past math.hypot: a numpy decision drops the edge
        (40.974, 16.528, 44.181935901451844, True),
        # np.hypot rounds down below math.hypot: a numpy decision adds one
        (983.335, 837.047, 1291.3540964561191, False),
    ],
)
def test_neighbor_graph_decides_with_math_hypot_at_the_radius(dx, dy, radius, edge):
    assert (math.hypot(dx, dy) <= radius) is edge
    assert (float(np.hypot(dx, dy)) <= radius) is not edge  # the pair tells them apart
    placements = points([(0.0, 0.0), (dx, dy)])
    table = build_neighbor_graph(placements, radius)
    assert neighbors(table) == ([[1], [0]] if edge else [[], []])
    assert_same_table(table, neighbor_graph(placements, radius))


@pytest.mark.parametrize("unit", [0.25, 1.0, 1e3, 2.5e7])
@pytest.mark.parametrize("seed", range(4))
def test_neighbor_graph_screen_keeps_every_edge_at_extreme_scales(unit, seed):
    # Units of the Scenario's area bounds (0.25 spans the 1 m area, 2.5e7
    # the 1e8 m one); ties at d == radius are where a screen that loses its
    # slack would drop an edge.  Radii: ties of drawn pairs, 0, a subnormal
    # one, and ones whose squares overflow.
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 4.0, size=(30, 2)) * unit
    xy[rng.integers(0, 30, size=3)] = xy[0]  # coincident sensors
    placements = points(xy, rng.permutation(30))
    ties = [math.hypot(*(xy[i] - xy[j]).tolist()) for i, j in rng.integers(0, 30, size=(6, 2))]
    for radius in ties + [unit, 0.0, 5e-324, 1e160, 1e300, 1.7976931348623157e308]:
        with np.errstate(all="warn"):  # and no numpy warning (an error under pytest)
            table = build_neighbor_graph(placements, radius)
        assert_same_table(table, neighbor_graph(placements, radius))


def hypot_calls(monkeypatch, placements, radius):
    """``build_neighbor_graph``'s table and the argument tuples it passed to ``math.hypot``."""
    calls, real = [], math.hypot

    def hypot(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(federation.math, "hypot", hypot)
    with np.errstate(all="warn"):  # and no numpy warning (an error under pytest)
        table = build_neighbor_graph(placements, radius)
    monkeypatch.undo()
    return table, calls


def test_neighbor_graph_decides_the_dense_grid_without_math_hypot(monkeypatch):
    # 160 m is 3.2 grid spacings: no pair lies within ~1e-9 of the radius,
    # so numpy decides every candidate
    sensors, radius = dense_gossip_sensors()
    table, calls = hypot_calls(monkeypatch, sensors, radius)
    edges, n = int(table.valid.sum()) // 2, len(sensors)
    assert edges == 6190 and n * (n - 1) // 2 == 79800
    assert calls == []
    assert_same_table(table, neighbor_graph(sensors, radius))


@pytest.mark.parametrize("unit", [1e-3, 1.0, 1e3, 2.5e7])
def test_neighbor_graph_calls_math_hypot_once_per_tie(monkeypatch, unit):
    # 3-4-5 pairs in every orientation, each exactly at the radius, far
    # apart; coordinates are small integers times a power of two near
    # ``unit``, so every difference is exact and the radius is a tie
    u = math.ldexp(1.0, math.frexp(unit)[1])
    legs = [(3, 4), (-4, 3), (3, -4), (-4, -3), (0, 5), (5, 0)]
    xy = [(100 * k * u, 0.0) for k in range(len(legs))]
    xy += [(100 * k * u + dx * u, dy * u) for k, (dx, dy) in enumerate(legs)]
    radius = 5 * u
    assert all(math.hypot(dx * u, dy * u) == radius for dx, dy in legs)
    placements = points(xy, np.random.default_rng(len(xy)).permutation(len(xy)))
    table, calls = hypot_calls(monkeypatch, placements, radius)
    assert len(calls) == len(legs)
    assert neighbors(table) == [[k + len(legs)] for k in range(len(legs))] + [
        [k] for k in range(len(legs))
    ]
    assert_same_table(table, neighbor_graph(placements, radius))


def test_merge_uniform_average():
    cfg = FederationConfig(weighting="uniform")
    merged = merge_models(logistic(2, 10), [logistic(4, 1), logistic(6, 1)], cfg)
    np.testing.assert_allclose(merged.theta, np.full(4, 4.0), rtol=1e-15)
    assert merged.n_train_samples == 10


def test_merge_samples_weighting():
    cfg = FederationConfig(weighting="samples")
    merged = merge_models(logistic(2, 1), [logistic(6, 3)], cfg)
    # (1*2 + 3*6) / 4 = 5
    np.testing.assert_allclose(merged.theta, np.full(4, 5.0), rtol=1e-15)
    assert merged.n_train_samples == 3


def test_merge_samples_zero_count_floors_to_one():
    cfg = FederationConfig(weighting="samples")
    merged = merge_models(logistic(0, 0), [logistic(8, 0)], cfg)
    np.testing.assert_allclose(merged.theta, np.full(4, 4.0), rtol=1e-15)


def test_merge_exclude_self():
    cfg = FederationConfig(weighting="uniform", include_self_weight=False)
    merged = merge_models(logistic(100, 50), [logistic(4), logistic(8)], cfg)
    np.testing.assert_allclose(merged.theta, np.full(4, 6.0), rtol=1e-15)
    assert merged.n_train_samples == 50


def test_merge_empty_received_is_identity():
    own = logistic(3, 7)
    cfg = FederationConfig(weighting="samples")
    merged = merge_models(own, [], cfg)
    assert merged is own


def test_merge_result_count_is_max_of_contributors():
    cfg = FederationConfig(weighting="uniform")
    merged = merge_models(logistic(1, 2), [logistic(2, 9), logistic(3, 4)], cfg)
    assert merged.n_train_samples == 9


def test_merge_kind_mismatch():
    own = logistic(1)
    other = CountedModel("mlp", np.zeros(41))
    with pytest.raises(KindMismatchError):
        merge_models(own, [other], FederationConfig(weighting="uniform"))


def test_merge_unknown_weighting():
    with pytest.raises(ValueError, match="weighting"):
        merge_models(logistic(1), [logistic(2)], FederationConfig(weighting="mean"))


@given(
    st.lists(st.tuples(st.floats(-10, 10), st.integers(1, 500)), min_size=1, max_size=6),
    st.integers(2, 9),
)
@settings(max_examples=60, deadline=None)
def test_merge_samples_weighting_scale_invariant(received_pairs, scale):
    # weights are proportional to counts, so multiplying every count by the
    # same factor cannot move the merged coefficients
    cfg = FederationConfig(weighting="samples")
    own_a, own_b = logistic(1.5, 3), logistic(1.5, 3 * scale)
    recv_a = [logistic(v, n) for v, n in received_pairs]
    recv_b = [logistic(v, n * scale) for v, n in received_pairs]
    a = merge_models(own_a, recv_a, cfg)
    b = merge_models(own_b, recv_b, cfg)
    np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=1e-12)


@given(
    st.floats(-5, 5),
    st.lists(st.tuples(st.floats(-5, 5), st.integers(0, 20)), min_size=1, max_size=5),
    st.sampled_from(WEIGHTINGS),
)
@settings(max_examples=80, deadline=None)
def test_merge_is_convex_combination(own_value, received_pairs, weighting):
    cfg = FederationConfig(weighting=weighting)
    own = logistic(own_value, 3)
    received = [logistic(v, n) for v, n in received_pairs]
    merged = merge_models(own, received, cfg)
    values = [own_value] + [v for v, _ in received_pairs]
    assert min(values) - 1e-9 <= merged.theta[0] <= max(values) + 1e-9


def test_fedavg_weighted_example():
    merged = fedavg_aggregate([logistic(1, 1), logistic(5, 3)])
    np.testing.assert_allclose(merged.theta, np.full(4, 4.0), rtol=1e-15)
    assert merged.n_train_samples == 4


def test_fedavg_single_update_is_exact():
    m = CountedModel("logistic", np.array([0.1, -0.2, 0.3, 0.7]), 9)
    out = fedavg_aggregate([m])
    np.testing.assert_array_equal(out.theta, m.theta)
    assert out.n_train_samples == 9


def test_fedavg_zero_counts_floor_to_one():
    merged = fedavg_aggregate([logistic(0, 0), logistic(6, 0)])
    np.testing.assert_allclose(merged.theta, np.full(4, 3.0), rtol=1e-15)
    assert merged.n_train_samples == 2


def test_fedavg_empty_and_mismatch():
    with pytest.raises(EmptyUpdatesError):
        fedavg_aggregate([])
    with pytest.raises(KindMismatchError):
        fedavg_aggregate([logistic(1), CountedModel("mlp", np.zeros(41))])


@given(st.lists(st.tuples(st.floats(-8, 8), st.integers(0, 50)), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_fedavg_permutation_invariant(pairs, rnd):
    updates = [logistic(v, n) for v, n in pairs]
    shuffled = list(updates)
    rnd.shuffle(shuffled)
    a = fedavg_aggregate(updates)
    b = fedavg_aggregate(shuffled)
    np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=1e-12)
    assert a.n_train_samples == b.n_train_samples


def stacked(models):
    """The ``(n, d)`` array of a list of models, as the engine holds them."""
    return np.stack([m.theta for m in models])


def degree_of(table):
    """The ``(n,)`` degree vector of a neighbor table, as the engine builds it."""
    return table.valid.sum(axis=1)


def assert_frozen_ints(a, shape):
    """``a`` is a read-only int array of ``shape``."""
    assert a.shape == shape and a.dtype.kind == "i" and not a.flags.writeable


def test_gossip_round_snapshot_semantics():
    # 3-node line, uniform weighting: every merge must read pre-round models
    table = build_neighbor_graph(line_placements(100.0, 3), 150.0)
    theta = stacked([logistic(0.0), logistic(3.0), logistic(9.0)])
    before = theta.copy()
    cfg = FederationConfig(weighting="uniform")
    new_theta = gossip_mix(theta, gossip_mixer(table, cfg, theta.shape[1]))
    np.testing.assert_allclose(new_theta[0], np.full(4, 1.5), rtol=1e-15)
    np.testing.assert_allclose(new_theta[1], np.full(4, 4.0), rtol=1e-15)
    np.testing.assert_allclose(new_theta[2], np.full(4, 6.0), rtol=1e-15)
    # input untouched
    np.testing.assert_array_equal(theta, before)
    stats = exchange_traffic(degree_of(table), 0, 48, 1)
    assert stats.tx_bytes.tolist() == [48, 96, 48]  # each also receives as much
    assert stats.messages == 4


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("self_weight", [True, False])
def test_gossip_isolated_node_untouched(weighting, self_weight):
    # the 3-node line at radius 100 with link 1-2 cut, plus a far node 3:
    # nodes 2 and 3 have no neighbor, so their round weighs their own row
    # 1.0, whatever include_self_weight says, and adds -0.0 terms, which
    # leave -0.0, +-inf and NaN as they are
    table = NeighborTable(
        ids=np.array([[1], [0], [0], [0]]), valid=np.array([[True], [True], [False], [False]])
    )
    theta = stacked([logistic(0.0), logistic(3.0), logistic(9.0), logistic(9.0)])
    theta[2] = [-0.0, np.inf, -np.inf, np.nan]
    cfg = FederationConfig(weighting=weighting, include_self_weight=self_weight)
    new_theta = gossip_mix(theta, gossip_mixer(table, cfg, theta.shape[1]))
    np.testing.assert_array_equal(new_theta[2:], theta[2:])  # NaN compared as NaN
    np.testing.assert_array_equal(np.signbit(new_theta[2:]), np.signbit(theta[2:]))
    stats = exchange_traffic(degree_of(table), 0, 48, 1)
    assert stats.messages == 2
    assert stats.tx_bytes.tolist() == [48, 48, 0, 0]


def test_gossip_empty_graph_no_messages():
    table = build_neighbor_graph(line_placements(1000.0, 3), 10.0)
    theta = stacked([logistic(1.0), logistic(2.0), logistic(3.0)])
    new_theta = gossip_mix(theta, gossip_mixer(table, FederationConfig(weighting="samples"), 4))
    np.testing.assert_array_equal(new_theta, theta)
    stats = exchange_traffic(degree_of(table), 0, 48, 5)
    assert stats.tx_bytes.tolist() == [0, 0, 0]
    assert (stats.central_bytes, stats.total_bytes, stats.messages) == (0, 0, 0)


def message_traffic(links, payload, rounds, coordinator):
    """Reference: book every (sender, receiver) model transfer one at a time.

    Returns (bytes sent per node id, bytes received per node id, bytes the
    ``coordinator`` node id sent and received, total bytes, messages)."""
    tx, rx, total, messages = {}, {}, 0, 0
    for _ in range(rounds):
        for sender, receiver in links:
            tx[sender] = tx.get(sender, 0) + payload
            rx[receiver] = rx.get(receiver, 0) + payload
            total += payload
            messages += 1
    return tx, rx, tx.get(coordinator, 0) + rx.get(coordinator, 0), total, messages


def assert_matches_messages(stats, links, payload, rounds, n, coordinator=-1):
    """``stats`` books what sending every message one at a time books: sensor
    ``i`` of ``n`` sends and receives ``tx_bytes[i]``, the ``coordinator``
    node (an id outside ``0..n-1``) ``central_bytes / 2`` each way."""
    tx, rx, central, total, messages = message_traffic(links, payload, rounds, coordinator)
    assert_frozen_ints(stats.tx_bytes, (n,))
    assert stats.tx_bytes.tolist() == [tx.get(i, 0) for i in range(n)]
    assert stats.tx_bytes.tolist() == [rx.get(i, 0) for i in range(n)]
    assert (stats.central_bytes, stats.total_bytes, stats.messages) == (central, total, messages)
    assert stats.central_bytes // 2 == tx.get(coordinator, 0) == rx.get(coordinator, 0)
    assert stats.tx_bytes.sum() + stats.central_bytes // 2 == stats.total_bytes


@given(st.integers(0, 2**32 - 1), st.integers(1, 14), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_gossip_message_count_equals_degree_sum(seed, n, rounds):
    rng = np.random.default_rng(seed)
    placements = [
        Placement(i, "sensor", float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 500, size=(n, 2)))
    ]
    table = build_neighbor_graph(placements, float(rng.uniform(0, 400)))
    stats = exchange_traffic(degree_of(table), 0, 48, rounds)
    links = [(i, j) for i, row in enumerate(neighbors(table)) for j in row]
    assert_matches_messages(stats, links, 48, rounds, n)
    assert stats.messages == rounds * table.valid.sum()
    assert stats.total_bytes == 48 * rounds * table.valid.sum()
    assert stats.central_bytes == 0


def test_central_round_traffic_and_distribution():
    models = [logistic(i, 60) for i in range(12)]
    theta = stacked(models)
    new_theta = fedavg_mix(theta)
    stats = exchange_traffic(np.ones(12, np.int64), 12, 48, 1)
    assert stats.messages == 24
    assert stats.total_bytes == 24 * 48
    assert stats.central_bytes == 24 * 48
    assert stats.tx_bytes.tolist() == [48] * 12
    # the coordinator is node 20, say: no sensor id
    links = [(i, 20) for i in range(12)] + [(20, i) for i in range(12)]
    assert_matches_messages(stats, links, 48, 1, 12, coordinator=20)
    # equal counts -> the plain mean of 0..11
    np.testing.assert_allclose(new_theta[0], np.full(4, 5.5), rtol=1e-15)
    for row in new_theta:
        assert row.tobytes() == fedavg_aggregate(models).theta.tobytes()
    assert theta[:, 0].tolist() == list(range(12))


def test_traffic_closed_form_scales_with_rounds():
    degree = np.array([1, 2, 1])
    one = exchange_traffic(degree, 0, 344, 1)
    assert one.tx_bytes.sum() == one.total_bytes
    assert one.total_bytes == 4 * 344
    assert one.tx_bytes[1] == 2 * 344
    three = exchange_traffic(degree, 0, 344, 3)
    assert three.total_bytes == 3 * one.total_bytes
    assert three.messages == 3 * one.messages == 12
    assert three.tx_bytes.tolist() == (3 * one.tx_bytes).tolist()
    for stats in exchange_traffic(degree, 3, 344, 0), exchange_traffic(0 * degree, 0, 344, 3):
        assert stats.tx_bytes.tolist() == [0, 0, 0]
        assert (stats.central_bytes, stats.total_bytes, stats.messages) == (0, 0, 0)


@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=10), st.integers(0, 10), st.integers(0, 5)
)
@settings(max_examples=60, deadline=None)
def test_traffic_conservation_property(degree, central, rounds):
    stats = exchange_traffic(np.array(degree), central, 48, rounds)
    assert_frozen_ints(stats.tx_bytes, (len(degree),))
    assert stats.tx_bytes.tolist() == [48 * rounds * d for d in degree]
    assert stats.tx_bytes.sum() + stats.central_bytes // 2 == stats.total_bytes
    assert stats.messages == rounds * (sum(degree) + central)
    assert stats.central_bytes == 2 * 48 * rounds * central


def random_models(rng, n, kind, count):
    """Models with mixed-sign coefficients and signed zeros, all backed by
    ``count`` samples: in a run every merge sees one shared count."""
    theta = rng.normal(0.0, 2.0, size=(n, model_dim(kind)))
    theta[rng.random(theta.shape) < 0.2] = -0.0
    theta[rng.random(theta.shape) < 0.1] = 0.0
    return [CountedModel(kind, theta[i], count) for i in range(n)]


def merges(models, table, cfg):
    """Each node's ``merge_models`` of its own model and its table row's
    models: the rows a gossip round must return."""
    received = [[models[j] for j in ids[valid]] for ids, valid in zip(*table)]
    return [merge_models(own, row, cfg).theta for own, row in zip(models, received)]


# shared counts: none yet (floored to one), a few periods, and a large one
COUNTS = st.one_of(st.just(0), st.integers(1, 500), st.just(2**40))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.sampled_from(WEIGHTINGS),
    st.booleans(),
    st.sampled_from(["logistic", "mlp"]),
    COUNTS,
)
@settings(max_examples=150, deadline=None)
# falsified a mix whose reduction started from add's default +0.0
@example(seed=0, n=2, weighting="uniform", self_weight=False, kind="logistic", count=0)
@example(seed=5, n=12, weighting="samples", self_weight=True, kind="mlp", count=2**40)
def test_gossip_mix_matches_merge_models_bitwise(seed, n, weighting, self_weight, kind, count):
    rng = np.random.default_rng(seed)
    placements = [
        Placement(i, "sensor", float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 500, size=(n, 2)))
    ]
    # radii from empty to complete, so some nodes are isolated and rows are padded
    table = build_neighbor_graph(placements, float(rng.uniform(0, 500)))
    cfg = FederationConfig(weighting=weighting, include_self_weight=self_weight)
    models = random_models(rng, n, kind, count)
    theta = stacked(models)
    new_theta = gossip_mix(theta, gossip_mixer(table, cfg, theta.shape[1]))
    for row, expected in zip(new_theta, merges(models, table, cfg), strict=True):
        assert row.tobytes() == expected.tobytes()


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.sampled_from(WEIGHTINGS),
    st.booleans(),
    st.lists(st.integers(0, 2), min_size=2, max_size=6),
)
@settings(max_examples=100, deadline=None)
# shared counts that change between rounds, then repeat
@example(seed=3, n=6, weighting="samples", self_weight=True, rounds=[0, 1, 1, 2, 0])
def test_one_mixer_over_many_rounds_matches_merge_models_bitwise(
    seed, n, weighting, self_weight, rounds
):
    # one mixer for every round, as a run uses it; round r's models share
    # count r of three, which the oracle weighs and the mixer never sees
    rng = np.random.default_rng(seed)
    placements = points(rng.uniform(0, 500, size=(n, 2)))
    table = build_neighbor_graph(placements, float(rng.uniform(0, 500)))
    cfg = FederationConfig(weighting=weighting, include_self_weight=self_weight)
    counts = [0, int(rng.integers(1, 40)), 2**40]
    theta = stacked(random_models(rng, n, "mlp", 0))
    mixer = gossip_mixer(table, cfg, theta.shape[1])
    returned = []  # every round's result with its bytes when returned
    for r in rounds:
        models = [CountedModel("mlp", row.copy(), counts[r]) for row in theta]
        theta = gossip_mix(theta, mixer)
        for row, expected in zip(theta, merges(models, table, cfg), strict=True):
            assert row.tobytes() == expected.tobytes()
        returned.append((theta, theta.tobytes()))
    # no result is a view of the mixer's buffers: later rounds left each intact
    for theta, theta_bytes in returned:
        assert theta.tobytes() == theta_bytes


def mixing_matrix(adjacent, counts, cfg):
    """Dense row-stochastic ``W`` of one gossip round, so that the round maps
    ``theta`` to ``W @ theta``; a row without neighbors is an identity row."""
    n = len(adjacent)
    own = np.ones(n)
    if cfg.weighting == "uniform":
        links = np.where(adjacent, 1.0, 0.0)
    else:
        own = np.maximum(counts, 1).astype(np.float64)
        links = np.where(adjacent, own[None, :], 0.0)
    w = links + np.diag(own if cfg.include_self_weight else np.zeros(n))
    mixes = adjacent.any(axis=1)
    w[mixes] /= w[mixes].sum(axis=1, keepdims=True)
    w[~mixes] = np.eye(n)[~mixes]
    return w


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.floats(0.0, 600.0),
    st.sampled_from(WEIGHTINGS),
    st.booleans(),
    st.sampled_from(["logistic", "mlp"]),
    COUNTS,
)
@settings(max_examples=150, deadline=None)
def test_gossip_mix_equals_its_mixing_matrix(
    seed, n, radius, weighting, self_weight, kind, count
):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 500, size=(n, 2))
    placements = [Placement(i, "sensor", float(x), float(y)) for i, (x, y) in enumerate(xy)]
    table = build_neighbor_graph(placements, radius)
    # the table holds exactly the numpy distance matrix's graph
    adjacent = radio_range(xy, radius)
    degree = adjacent.sum(axis=1)
    assert table.valid.shape == table.ids.shape == (n, degree.max())
    for i, k in enumerate(degree):
        assert table.ids[i, :k].tolist() == np.flatnonzero(adjacent[i]).tolist()
        assert table.valid[i].tolist() == [True] * k + [False] * (degree.max() - k)
        assert np.all(table.ids[i, k:] == 0)

    cfg = FederationConfig(weighting=weighting, include_self_weight=self_weight)
    theta = stacked(random_models(rng, n, kind, count))
    new_theta = gossip_mix(theta, gossip_mixer(table, cfg, theta.shape[1]))
    w = mixing_matrix(adjacent, np.full(n, count), cfg)
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(new_theta, w @ theta, rtol=0, atol=1e-12)


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 20), st.sampled_from(["logistic", "mlp"]), COUNTS
)
@settings(max_examples=100, deadline=None)
@example(seed=1, n=400, kind="logistic", count=0)
@example(seed=2, n=1200, kind="mlp", count=2**40)
def test_fedavg_mix_matches_fedavg_aggregate_bitwise(seed, n, kind, count):
    models = random_models(np.random.default_rng(seed), n, kind, count)
    new_theta = fedavg_mix(stacked(models))
    expected = fedavg_aggregate(models).theta.tobytes()
    assert all(row.tobytes() == expected for row in new_theta)


@pytest.mark.parametrize("self_weight", [True, False])
def test_samples_weighting_builds_the_uniform_mixer(self_weight):
    # equal counts at every merge: samples weighs as uniform does, array for array
    # a 4-node line and a far node without neighbors
    table = build_neighbor_graph(line_placements(100.0, 4) + [Placement(4, "sensor", 5e3, 0.0)], 150.0)
    uniform, samples = (
        gossip_mixer(table, FederationConfig(weighting=w, include_self_weight=self_weight), 4)
        for w in WEIGHTINGS
    )
    for name in ("slots", "weights", "padded"):
        assert getattr(samples, name).tobytes() == getattr(uniform, name).tobytes()
    assert samples.terms.shape == uniform.terms.shape


def test_gossip_mix_rejects_a_theta_of_another_shape():
    # a 1-row theta against a 3-node mixer once broadcast to a (3, d) result
    table = build_neighbor_graph(line_placements(100.0, 3), 150.0)
    mixer = gossip_mixer(table, FederationConfig(weighting="uniform"), 4)
    for theta in (np.zeros((1, 4)), np.zeros((4, 4)), np.zeros((3, 5)), np.zeros(4)):
        message = f"theta: shape {theta.shape} does not match the mixer's (3, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            gossip_mix(theta, mixer)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
@pytest.mark.parametrize("self_weight", [True, False])
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_gossip_mix_wide_rows_on_the_dense_grid(weighting, self_weight, kind):
    # 36 neighbor slots a row, past the widths the drawn layouts above reach
    sensors, radius = dense_gossip_sensors()
    table = build_neighbor_graph(sensors, radius)
    assert table.ids.shape == (400, 36)
    cfg = FederationConfig(weighting=weighting, include_self_weight=self_weight)
    rng = np.random.default_rng(len(weighting) + 2 * self_weight)
    count = int(rng.integers(0, 2**40))
    models = random_models(rng, len(sensors), kind, count)
    theta = stacked(models)
    new_theta = gossip_mix(theta, gossip_mixer(table, cfg, theta.shape[1]))
    for row, expected in zip(new_theta, merges(models, table, cfg), strict=True):
        assert row.tobytes() == expected.tobytes()
    adjacent = radio_range([(p.x_m, p.y_m) for p in sensors], radius)
    w = mixing_matrix(adjacent, np.full(len(sensors), count), cfg)
    np.testing.assert_allclose(new_theta, w @ theta, rtol=0, atol=1e-12)
