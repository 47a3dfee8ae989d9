import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspectrum.federation import (
    WEIGHTINGS,
    EmptyUpdatesError,
    FederationConfig,
    KindMismatchError,
    NonpositiveDistanceError,
    TrafficStats,
    build_neighbor_graph,
    exchange_traffic,
    fedavg_aggregate,
    fedavg_mix,
    gossip_mix,
    merge_models,
    neighbor_table,
    payload_bytes,
)
from fedspectrum.scenario import Placement
from fedspectrum.sensing import ModelParams, model_dim


def logistic(value, n=0):
    return ModelParams("logistic", np.full(4, float(value)), n)


def line_placements(spacing=100.0, n=3):
    return [Placement(i, "sensor", i * spacing, 0.0) for i in range(n)]


def test_payload_bytes():
    assert payload_bytes(4) == 48
    assert payload_bytes(41) == 344


def test_neighbor_graph_radius_and_symmetry():
    g = build_neighbor_graph(line_placements(100.0, 4), 150.0)
    assert g.adjacency == {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    assert g.distances[1] == [100.0, 100.0]
    assert g.n_edges == 3
    assert g.degree(1) == 2
    assert g.sum_degrees() == 6


def test_neighbor_graph_boundary_inclusive():
    g = build_neighbor_graph(line_placements(100.0, 2), 100.0)
    assert g.adjacency == {0: [1], 1: [0]}
    g = build_neighbor_graph(line_placements(100.0, 2), 99.999)
    assert g.adjacency == {0: [], 1: []}
    assert g.n_edges == 0


def test_merge_uniform_average():
    cfg = FederationConfig(weighting="uniform")
    merged = merge_models(logistic(2, 10), [(logistic(4, 1), 50.0), (logistic(6, 1), 80.0)], cfg)
    np.testing.assert_allclose(merged.theta, np.full(4, 4.0), rtol=1e-15)
    assert merged.n_train_samples == 10


def test_merge_samples_weighting():
    cfg = FederationConfig(weighting="samples")
    merged = merge_models(logistic(2, 1), [(logistic(6, 3), 50.0)], cfg)
    # (1*2 + 3*6) / 4 = 5
    np.testing.assert_allclose(merged.theta, np.full(4, 5.0), rtol=1e-15)
    assert merged.n_train_samples == 3


def test_merge_samples_zero_count_floors_to_one():
    cfg = FederationConfig(weighting="samples")
    merged = merge_models(logistic(0, 0), [(logistic(8, 0), 10.0)], cfg)
    np.testing.assert_allclose(merged.theta, np.full(4, 4.0), rtol=1e-15)


def test_merge_inverse_distance():
    cfg = FederationConfig(weighting="inverse_distance")
    merged = merge_models(logistic(2), [(logistic(8), 0.5)], cfg)
    # weights 1 and 2: (2 + 16) / 3 = 6
    np.testing.assert_allclose(merged.theta, np.full(4, 6.0), rtol=1e-15)
    with pytest.raises(NonpositiveDistanceError):
        merge_models(logistic(2), [(logistic(8), 0.0)], cfg)
    with pytest.raises(NonpositiveDistanceError):
        merge_models(logistic(2), [(logistic(8), -1.0)], cfg)


def test_merge_exclude_self():
    cfg = FederationConfig(weighting="uniform", include_self_weight=False)
    merged = merge_models(logistic(100, 50), [(logistic(4), 1.0), (logistic(8), 1.0)], cfg)
    np.testing.assert_allclose(merged.theta, np.full(4, 6.0), rtol=1e-15)
    assert merged.n_train_samples == 50


def test_merge_empty_received_is_identity():
    own = logistic(3, 7)
    cfg = FederationConfig(weighting="samples")
    merged = merge_models(own, [], cfg)
    assert merged is own


def test_merge_result_count_is_max_of_contributors():
    cfg = FederationConfig(weighting="uniform")
    merged = merge_models(logistic(1, 2), [(logistic(2, 9), 1.0), (logistic(3, 4), 1.0)], cfg)
    assert merged.n_train_samples == 9


def test_merge_kind_mismatch():
    own = logistic(1)
    other = ModelParams("mlp", np.zeros(41))
    with pytest.raises(KindMismatchError):
        merge_models(own, [(other, 1.0)], FederationConfig(weighting="uniform"))


def test_merge_unknown_weighting():
    with pytest.raises(ValueError, match="weighting"):
        merge_models(logistic(1), [(logistic(2), 1.0)], FederationConfig(weighting="mean"))


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
    recv_a = [(logistic(v, n), 10.0) for v, n in received_pairs]
    recv_b = [(logistic(v, n * scale), 10.0) for v, n in received_pairs]
    a = merge_models(own_a, recv_a, cfg)
    b = merge_models(own_b, recv_b, cfg)
    np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=1e-12)


@given(
    st.floats(-5, 5),
    st.lists(st.tuples(st.floats(-5, 5), st.integers(0, 20), st.floats(0.1, 900)),
             min_size=1, max_size=5),
    st.sampled_from(["uniform", "samples", "inverse_distance"]),
)
@settings(max_examples=80, deadline=None)
def test_merge_is_convex_combination(own_value, received_pairs, weighting):
    cfg = FederationConfig(weighting=weighting)
    own = logistic(own_value, 3)
    received = [(logistic(v, n), d) for v, n, d in received_pairs]
    merged = merge_models(own, received, cfg)
    values = [own_value] + [v for v, _, _ in received_pairs]
    assert min(values) - 1e-9 <= merged.theta[0] <= max(values) + 1e-9


def test_fedavg_weighted_example():
    merged = fedavg_aggregate([logistic(1, 1), logistic(5, 3)])
    np.testing.assert_allclose(merged.theta, np.full(4, 4.0), rtol=1e-15)
    assert merged.n_train_samples == 4


def test_fedavg_single_update_is_exact():
    m = ModelParams("logistic", np.array([0.1, -0.2, 0.3, 0.7]), 9)
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
        fedavg_aggregate([logistic(1), ModelParams("mlp", np.zeros(41))])


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
    """(theta, counts) arrays of a list of models, as the engine holds them."""
    theta = np.stack([m.theta for m in models])
    return theta, np.array([m.n_train_samples for m in models], dtype=np.int64)


def degrees_of(graph):
    return {i: graph.degree(i) for i in graph.adjacency}


def star(n, central_id):
    """Degrees of a central round: one link per sensor, n at the coordinator."""
    return {**dict.fromkeys(range(n), 1), central_id: n}


def test_gossip_round_snapshot_semantics():
    # 3-node line, uniform weighting: every merge must read pre-round models
    graph = build_neighbor_graph(line_placements(100.0, 3), 150.0)
    theta, counts = stacked([logistic(0.0, 4), logistic(3.0, 4), logistic(9.0, 4)])
    before = theta.copy()
    cfg = FederationConfig(weighting="uniform")
    new_theta, new_counts = gossip_mix(theta, counts, neighbor_table(graph), cfg)
    np.testing.assert_allclose(new_theta[0], np.full(4, 1.5), rtol=1e-15)
    np.testing.assert_allclose(new_theta[1], np.full(4, 4.0), rtol=1e-15)
    np.testing.assert_allclose(new_theta[2], np.full(4, 6.0), rtol=1e-15)
    assert new_counts.tolist() == [0, 0, 0]
    # inputs untouched
    np.testing.assert_array_equal(theta, before)
    assert counts.tolist() == [4, 4, 4]
    stats = exchange_traffic(degrees_of(graph), 48, 1, central_id=9)
    assert stats.tx_bytes == stats.rx_bytes == {0: 48, 1: 96, 2: 48}
    assert stats.messages == 4


def test_gossip_isolated_node_untouched():
    placements = line_placements(100.0, 3)
    graph = build_neighbor_graph(placements, 100.0)
    graph.adjacency[2] = []
    graph.distances[2] = []
    graph.adjacency[1] = [0]
    graph.distances[1] = [100.0]
    theta, counts = stacked([logistic(0.0, 4), logistic(3.0, 4), logistic(9.0, 7)])
    for self_weight in (True, False):
        cfg = FederationConfig(weighting="uniform", include_self_weight=self_weight)
        new_theta, new_counts = gossip_mix(theta, counts, neighbor_table(graph), cfg)
        assert new_theta[2].tobytes() == theta[2].tobytes()
        assert new_counts.tolist() == [0, 0, 7]
    stats = exchange_traffic(degrees_of(graph), 48, 1, central_id=9)
    assert stats.messages == 2
    assert 2 not in stats.tx_bytes and 2 not in stats.rx_bytes


def test_gossip_empty_graph_no_messages():
    graph = build_neighbor_graph(line_placements(1000.0, 3), 10.0)
    theta, counts = stacked([logistic(1.0, 1), logistic(2.0, 2), logistic(3.0, 3)])
    new_theta, new_counts = gossip_mix(
        theta, counts, neighbor_table(graph), FederationConfig(weighting="samples")
    )
    np.testing.assert_array_equal(new_theta, theta)
    np.testing.assert_array_equal(new_counts, counts)
    assert exchange_traffic(degrees_of(graph), 48, 5, central_id=9) == TrafficStats()


def message_traffic(links, payload, rounds, central_id):
    """Reference: book every (sender, receiver) model transfer one at a time."""
    stats = TrafficStats()
    for _ in range(rounds):
        for sender, receiver in links:
            stats.tx_bytes[sender] = stats.tx_bytes.get(sender, 0) + payload
            stats.rx_bytes[receiver] = stats.rx_bytes.get(receiver, 0) + payload
            stats.total_bytes += payload
            stats.messages += 1
    stats.central_bytes = stats.node_bytes(central_id)
    return stats


@given(st.integers(0, 2**32 - 1), st.integers(1, 14), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_gossip_message_count_equals_degree_sum(seed, n, rounds):
    rng = np.random.default_rng(seed)
    placements = [
        Placement(i, "sensor", float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 500, size=(n, 2)))
    ]
    graph = build_neighbor_graph(placements, float(rng.uniform(0, 400)))
    stats = exchange_traffic(degrees_of(graph), 48, rounds, central_id=99)
    links = [(i, j) for i in graph.adjacency for j in graph.adjacency[i]]
    assert stats == message_traffic(links, 48, rounds, central_id=99)
    assert stats.messages == rounds * graph.sum_degrees()
    assert stats.total_bytes == 48 * rounds * graph.sum_degrees()
    assert stats.central_bytes == 0


def test_central_round_traffic_and_distribution():
    models = [logistic(i, i) for i in range(12)]
    theta, counts = stacked(models)
    new_theta, new_counts = fedavg_mix(theta, counts)
    stats = exchange_traffic(star(12, 20), 48, 1, central_id=20)
    assert stats.messages == 24
    assert stats.total_bytes == 24 * 48
    assert stats.central_bytes == 24 * 48
    for i in range(12):
        assert stats.tx_bytes[i] == 48
        assert stats.rx_bytes[i] == 48
    links = [(i, 20) for i in range(12)] + [(20, i) for i in range(12)]
    assert stats == message_traffic(links, 48, 1, central_id=20)
    # counts 1,1,2,...,11 -> weighted mean of 0..11
    counts_floor = [max(i, 1) for i in range(12)]
    expected = sum(c * i for c, i in zip(counts_floor, range(12))) / sum(counts_floor)
    np.testing.assert_allclose(new_theta[0], np.full(4, expected), rtol=1e-15)
    for row in new_theta:
        assert row.tobytes() == fedavg_aggregate(models).theta.tobytes()
    assert new_counts.tolist() == [0] * 12
    assert counts.tolist() == list(range(12))


def test_traffic_closed_form_scales_with_rounds():
    degrees = {0: 1, 1: 2, 2: 1}
    one = exchange_traffic(degrees, 344, 1, central_id=7)
    assert sum(one.tx_bytes.values()) == sum(one.rx_bytes.values()) == one.total_bytes
    assert one.total_bytes == 4 * 344
    assert one.node_bytes(1) == 2 * 2 * 344
    three = exchange_traffic(degrees, 344, 3, central_id=7)
    assert three.total_bytes == 3 * one.total_bytes
    assert three.messages == 3 * one.messages == 12
    assert three.node_bytes(1) == 3 * one.node_bytes(1)
    assert exchange_traffic(degrees, 344, 0, central_id=7) == TrafficStats()
    assert exchange_traffic({}, 344, 3, central_id=7) == TrafficStats()


@given(st.dictionaries(st.integers(0, 9), st.integers(0, 9), max_size=10), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_traffic_conservation_property(degrees, rounds):
    stats = exchange_traffic(degrees, 48, rounds, central_id=0)
    assert sum(stats.tx_bytes.values()) == stats.total_bytes
    assert sum(stats.rx_bytes.values()) == stats.total_bytes
    assert stats.messages == rounds * sum(degrees.values())
    assert stats.central_bytes == 2 * 48 * rounds * degrees.get(0, 0)


def random_models(rng, n, kind):
    """Models with mixed-sign coefficients, signed zeros and zero counts."""
    theta = rng.normal(0.0, 2.0, size=(n, model_dim(kind)))
    theta[rng.random(theta.shape) < 0.2] = -0.0
    theta[rng.random(theta.shape) < 0.1] = 0.0
    counts = rng.integers(0, 40, size=n) * (rng.random(n) < 0.8)
    return [ModelParams(kind, theta[i], int(counts[i])) for i in range(n)]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.sampled_from(WEIGHTINGS),
    st.booleans(),
    st.sampled_from(["logistic", "mlp"]),
)
@settings(max_examples=150, deadline=None)
def test_gossip_mix_matches_merge_models_bitwise(seed, n, weighting, self_weight, kind):
    rng = np.random.default_rng(seed)
    placements = [
        Placement(i, "sensor", float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 500, size=(n, 2)))
    ]
    # radii from empty to complete, so some nodes are isolated and rows are padded
    graph = build_neighbor_graph(placements, float(rng.uniform(0, 500)))
    cfg = FederationConfig(weighting=weighting, include_self_weight=self_weight)
    models = random_models(rng, n, kind)
    theta, counts = stacked(models)
    new_theta, new_counts = gossip_mix(theta, counts, neighbor_table(graph), cfg)
    for i in range(n):
        received = [
            (models[j], d) for j, d in zip(graph.adjacency[i], graph.distances[i])
        ]
        expected = merge_models(models[i], received, cfg)
        assert new_theta[i].tobytes() == expected.theta.tobytes()
        assert new_counts[i] == (0 if received else models[i].n_train_samples)


@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.sampled_from(["logistic", "mlp"]))
@settings(max_examples=100, deadline=None)
def test_fedavg_mix_matches_fedavg_aggregate_bitwise(seed, n, kind):
    models = random_models(np.random.default_rng(seed), n, kind)
    theta, counts = stacked(models)
    new_theta, new_counts = fedavg_mix(theta, counts)
    expected = fedavg_aggregate(models).theta.tobytes()
    assert all(row.tobytes() == expected for row in new_theta)
    assert new_counts.tolist() == [0] * n


def test_gossip_mix_rejects_what_merge_models_rejects():
    # two sensors at one spot: inverse-distance weighting has no weight for them
    placements = [Placement(0, "sensor", 5.0, 5.0), Placement(1, "sensor", 5.0, 5.0)]
    table = neighbor_table(build_neighbor_graph(placements, 10.0))
    theta, counts = stacked([logistic(1.0), logistic(2.0)])
    with pytest.raises(NonpositiveDistanceError):
        gossip_mix(theta, counts, table, FederationConfig(weighting="inverse_distance"))
    with pytest.raises(ValueError, match="weighting"):
        gossip_mix(theta, counts, table, FederationConfig(weighting="mean"))
