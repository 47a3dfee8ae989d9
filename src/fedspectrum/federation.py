"""Model exchange as one mixing step over stacked node models.

The engine holds the models as one ``(n, d)`` array (row ``i`` is sensor
``i``) plus ``(n,)`` sample counts, and the radio-range graph as one padded
``NeighborTable`` whose row ``i`` lists node ``i``'s neighbors.  A gossip
round mixes each row with its neighbors' rows; a central round replaces
every row by their FedAvg mean.  Rounds are synchronous, and both steps
match per-model references (``merge_models`` and ``fedavg_aggregate`` in
the tests' oracles) bit for bit.  Traffic is a closed form: per round each
node sends one model to and receives one from each peer, at
``16 + 8 * param_count`` bytes a model (4-byte sender id, 4-byte round
index, 8-byte sample count, then float64 coefficients), so a node receives
as many bytes as it sends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scenario import Placement

HEADER_BYTES = 16

TOPOLOGIES = ("isolated", "gossip", "central")
WEIGHTINGS = ("uniform", "samples", "inverse_distance")


class NonpositiveDistanceError(ValueError):
    """Inverse-distance weighting needs strictly positive link distances."""


@dataclass
class FederationConfig:
    topology: str = "isolated"
    neighbor_radius_m: float = 300.0
    weighting: str = "samples"
    include_self_weight: bool = True


@dataclass
class TrafficStats:
    """Byte counters for one or more federation rounds; every node receives
    as many bytes as it sends (``tx_bytes``)."""

    tx_bytes: dict[int, int] = field(default_factory=dict)
    central_bytes: int = 0
    total_bytes: int = 0
    messages: int = 0

    def node_bytes(self, node_id: int) -> int:
        """Bytes the node sent and received."""
        return 2 * self.tx_bytes.get(node_id, 0)


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
    return TrafficStats(per_node, 2 * per_node.get(central_id, 0), links * payload, links)


class NeighborTable(NamedTuple):
    """The symmetric radio-range graph, no self loops, padded to
    ``(n, max_degree)`` arrays: row ``i`` lists node ``i``'s neighbors in
    ascending order; padded slots have ``valid`` False, id 0 and distance
    inf.  Node ``i``'s degree is ``valid[i].sum()``."""

    ids: np.ndarray
    valid: np.ndarray
    distances: np.ndarray


def build_neighbor_graph(
    placements: Sequence["Placement"], radius_m: float
) -> NeighborTable:
    """Connect every pair of nodes within ``radius_m`` of each other; row
    ``i`` is the ``i``-th placement by node id (sensors have ids ``0..n-1``)."""
    nodes = sorted(placements, key=lambda p: p.node_id)
    n = len(nodes)
    ids: list[list[int]] = [[] for _ in range(n)]
    dists: list[list[float]] = [[] for _ in range(n)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes[i + 1 :], i + 1):
            d = math.hypot(a.x_m - b.x_m, a.y_m - b.y_m)
            if d <= radius_m:
                ids[i].append(j)
                dists[i].append(d)
                ids[j].append(i)
                dists[j].append(d)
    width = max(map(len, ids), default=0)
    table = NeighborTable(
        np.zeros((n, width), np.intp), np.zeros((n, width), bool), np.full((n, width), np.inf)
    )
    for i, row in enumerate(ids):
        table.ids[i, : len(row)] = row
        table.valid[i, : len(row)] = True
        table.distances[i, : len(row)] = dists[i]
    return table


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
