"""Model exchange as one mixing step over stacked node models.

The engine holds the models as one ``(n, d)`` array (row ``i`` is sensor
``i``) plus ``(n,)`` sample counts.  A gossip round mixes each row with its
radio-range neighbors' rows; a central round replaces every row by their
FedAvg mean.  Rounds are synchronous, and both steps match the per-model
references ``merge_models`` and ``fedavg_aggregate`` bit for bit.  Traffic
is a closed form: per round each node sends one model to and receives one
from each peer, at ``16 + 8 * param_count`` bytes a model (4-byte sender id,
4-byte round index, 8-byte sample count, then float64 coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from .sensing import ModelParams

if TYPE_CHECKING:
    from .scenario import Placement

HEADER_BYTES = 16

TOPOLOGIES = ("isolated", "gossip", "central")
WEIGHTINGS = ("uniform", "samples", "inverse_distance")


class KindMismatchError(ValueError):
    """Models of different kinds cannot be averaged."""


class NonpositiveDistanceError(ValueError):
    """Inverse-distance weighting needs strictly positive link distances."""


class EmptyUpdatesError(ValueError):
    """FedAvg was called with no updates."""


@dataclass
class FederationConfig:
    topology: str = "isolated"
    neighbor_radius_m: float = 300.0
    weighting: str = "samples"
    include_self_weight: bool = True


@dataclass
class NeighborGraph:
    """Symmetric radio-range graph over the sensor nodes, no self loops."""

    adjacency: dict[int, list[int]]
    distances: dict[int, list[float]]

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2

    def degree(self, node_id: int) -> int:
        return len(self.adjacency[node_id])

    def sum_degrees(self) -> int:
        return sum(len(v) for v in self.adjacency.values())


@dataclass
class TrafficStats:
    """Byte counters for one or more federation rounds."""

    tx_bytes: dict[int, int] = field(default_factory=dict)
    rx_bytes: dict[int, int] = field(default_factory=dict)
    central_bytes: int = 0
    total_bytes: int = 0
    messages: int = 0

    def node_bytes(self, node_id: int) -> int:
        return self.tx_bytes.get(node_id, 0) + self.rx_bytes.get(node_id, 0)


def payload_bytes(param_count: int) -> int:
    return HEADER_BYTES + 8 * param_count


def exchange_traffic(
    degrees: Mapping[int, int], payload: int, rounds: int, central_id: int
) -> TrafficStats:
    """Traffic of ``rounds`` rounds in which each node sends one model to, and
    receives one from, each of its ``degrees[node]`` peers (for central, the
    star around ``central_id``).  Nodes that exchange nothing get no entry."""
    per_node = {node: d * payload * rounds for node, d in degrees.items() if d and rounds}
    links = sum(degrees.values()) * rounds
    return TrafficStats(
        per_node, dict(per_node), 2 * per_node.get(central_id, 0), links * payload, links
    )


def build_neighbor_graph(
    placements: Sequence["Placement"], radius_m: float
) -> NeighborGraph:
    """Connect every pair of sensors within ``radius_m`` of each other."""
    nodes = sorted(placements, key=lambda p: p.node_id)
    adjacency: dict[int, list[int]] = {p.node_id: [] for p in nodes}
    distances: dict[int, list[float]] = {p.node_id: [] for p in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            d = math.hypot(a.x_m - b.x_m, a.y_m - b.y_m)
            if d <= radius_m:
                adjacency[a.node_id].append(b.node_id)
                distances[a.node_id].append(d)
                adjacency[b.node_id].append(a.node_id)
                distances[b.node_id].append(d)
    return NeighborGraph(adjacency, distances)


class NeighborTable(NamedTuple):
    """A neighbor graph padded to ``(n, max_degree)`` arrays: row ``i`` lists
    node ``i``'s neighbors in adjacency order; padded slots have ``valid``
    False, id 0 and distance inf."""

    ids: np.ndarray
    valid: np.ndarray
    distances: np.ndarray


def neighbor_table(graph: NeighborGraph) -> NeighborTable:
    """Pad ``graph`` (node ids ``0..n-1``) into a ``NeighborTable``."""
    n = len(graph.adjacency)
    width = max(map(len, graph.adjacency.values()), default=0)
    table = NeighborTable(
        np.zeros((n, width), np.intp), np.zeros((n, width), bool), np.full((n, width), np.inf)
    )
    for i in range(n):
        k = len(graph.adjacency[i])
        table.ids[i, :k] = graph.adjacency[i]
        table.valid[i, :k] = True
        table.distances[i, :k] = graph.distances[i]
    return table


def _check_kinds(kinds: Sequence[str]) -> str:
    first = kinds[0]
    for k in kinds[1:]:
        if k != first:
            raise KindMismatchError(
                f"kind: cannot merge {k!r} into {first!r} models"
            )
    return first


def merge_models(
    own: ModelParams,
    received: Sequence[tuple[ModelParams, float]],
    cfg: FederationConfig,
) -> ModelParams:
    """Convex combination of the own model and the received ones.

    Weights before normalization: ``uniform`` gives 1 to every contributor,
    ``samples`` gives ``max(n_train_samples, 1)``, ``inverse_distance`` gives
    the own model 1 and each received model ``1/distance``.  With
    ``include_self_weight`` false the own model gets weight 0 (its sample
    count still participates in the resulting counter).  An empty ``received``
    returns ``own`` unchanged.
    """
    if not received:
        return own
    _check_kinds([own.kind] + [m.kind for m, _ in received])
    if cfg.weighting == "uniform":
        own_w = 1.0
        recv_w = [1.0] * len(received)
    elif cfg.weighting == "samples":
        own_w = float(max(own.n_train_samples, 1))
        recv_w = [float(max(m.n_train_samples, 1)) for m, _ in received]
    elif cfg.weighting == "inverse_distance":
        for _, d in received:
            if d <= 0.0:
                raise NonpositiveDistanceError(
                    f"distance: inverse_distance weighting needs d > 0 (got {d})"
                )
        own_w = 1.0
        recv_w = [1.0 / d for _, d in received]
    else:
        raise ValueError(
            f"weighting: unknown mode {cfg.weighting!r} (expected one of {WEIGHTINGS})"
        )
    if not cfg.include_self_weight:
        own_w = 0.0
    total = own_w + sum(recv_w)
    theta = own.theta * (own_w / total)
    for (m, _), w in zip(received, recv_w):
        theta = theta + m.theta * (w / total)
    n_max = max([own.n_train_samples] + [m.n_train_samples for m, _ in received])
    return ModelParams(own.kind, theta, n_max)


def gossip_mix(
    theta: np.ndarray, counts: np.ndarray, table: NeighborTable, cfg: FederationConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous gossip round over stacked models; returns new arrays.

    Every node with a neighbor gets the ``merge_models`` of its pre-round row
    and its neighbors' rows, bit for bit (same weights, same summation
    order), and its sample counter resets to 0: the contribution has been
    consumed.  Nodes without neighbors keep their row and counter.
    """
    ids, valid, distances = table
    if cfg.weighting == "uniform":
        own_w = np.ones(len(theta))
        nbr_w = valid.astype(np.float64)
    elif cfg.weighting == "samples":
        own_w = np.maximum(counts, 1).astype(np.float64)
        nbr_w = np.where(valid, own_w[ids], 0.0)
    elif cfg.weighting == "inverse_distance":
        d = distances.min(initial=np.inf)
        if d <= 0.0:
            raise NonpositiveDistanceError(
                f"distance: inverse_distance weighting needs d > 0 (got {d})"
            )
        own_w = np.ones(len(theta))
        nbr_w = 1.0 / distances  # padded slots: 1/inf = 0
    else:
        raise ValueError(
            f"weighting: unknown mode {cfg.weighting!r} (expected one of {WEIGHTINGS})"
        )
    if not cfg.include_self_weight:
        own_w = np.zeros(len(theta))
    # merge_models sums own_w + ((0 + w1) + w2 ...); padded 0.0 weights add exactly
    received = np.zeros(len(theta))
    for k in range(nbr_w.shape[1]):
        received += nbr_w[:, k]
    mixes = valid.any(axis=1)
    total = np.where(mixes, own_w + received, 1.0)  # rows without neighbors are kept below
    mixed = theta * (own_w / total)[:, None]
    parts = theta[ids] * (nbr_w / total[:, None])[:, :, None]
    for k in range(parts.shape[1]):
        # where, not + 0.0: adding a padded slot would turn -0.0 into 0.0
        mixed = np.where(valid[:, k, None], mixed + parts[:, k], mixed)
    return np.where(mixes[:, None], mixed, theta), np.where(mixes, 0, counts)


def fedavg_aggregate(updates: Sequence[ModelParams]) -> ModelParams:
    """Sample-count-weighted average; empty counters weigh as one sample."""
    if len(updates) == 0:
        raise EmptyUpdatesError("updates: nothing to aggregate")
    kind = _check_kinds([m.kind for m in updates])
    counts = [max(m.n_train_samples, 1) for m in updates]
    n = sum(counts)
    theta = np.zeros_like(updates[0].theta)
    for m, c in zip(updates, counts):
        theta += m.theta * (c / n)
    return ModelParams(kind, theta, n)


def fedavg_mix(theta: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One collect/average/distribute round over stacked models; returns new
    arrays.  Every row becomes the ``fedavg_aggregate`` of all rows, bit for
    bit (rows accumulated in node order), and every sample counter resets."""
    weights = np.maximum(counts, 1)
    weights = weights / weights.sum()
    mean = np.zeros(theta.shape[1])
    for row, w in zip(theta, weights):
        mean += row * w
    return np.tile(mean, (len(theta), 1)), np.zeros_like(counts)
