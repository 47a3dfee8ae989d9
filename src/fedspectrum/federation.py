"""Model exchange as one mixing step over stacked node models.

The engine holds the models as one ``(n, d)`` array (row ``i`` is sensor
``i``) plus ``(n,)`` sample counts, and the radio-range graph as one
padded ``NeighborTable`` whose row ``i`` lists node ``i``'s neighbors;
numpy screens the candidate pairs and ``math.hypot`` decides each one.  A
gossip round mixes each row with its neighbors' rows in one ordered
reduction over a stack of own and neighbor terms; a central round replaces
every row by their FedAvg mean, one reduction over the rows.  Rounds are
synchronous, and both steps match per-model references (``merge_models``
and ``fedavg_aggregate`` in the tests' oracles) bit for bit.  Traffic is a
closed form: per round each node sends one model to and receives one from
each peer, at ``16 + 8 * param_count`` bytes a model (4-byte sender id,
4-byte round index, 8-byte sample count, then float64 coefficients), so a
node receives as many bytes as it sends.
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
    ``i`` is the ``i``-th placement by node id (sensors have ids ``0..n-1``).
    numpy screens pairs row by row with a little slack (no ``(n, n)`` array);
    ``math.hypot`` decides each candidate and gives its distance."""
    nodes = sorted(placements, key=lambda p: p.node_id)
    n = len(nodes)
    xy = np.array([(p.x_m, p.y_m) for p in nodes], dtype=np.float64).reshape(n, 2)
    near = [
        np.flatnonzero(np.hypot(*(xy[i + 1 :] - xy[i]).T) <= radius_m * (1 + 1e-9)) + i + 1
        for i in range(n)
    ]
    src = np.repeat(np.arange(n), [len(js) for js in near])
    dst = np.concatenate(near) if n else src
    d = np.array(list(map(math.hypot, *(xy[src] - xy[dst]).T.tolist())))
    src, dst, d = src[d <= radius_m], dst[d <= radius_m], d[d <= radius_m]
    # both directions of every edge, by row and then by neighbor id
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = np.lexsort((cols, rows))
    rows, cols, dists = rows[order], cols[order], np.tile(d, 2)[order]
    degree = np.bincount(rows, minlength=n)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)
    shape = (n, int(degree.max(initial=0)))
    table = NeighborTable(np.zeros(shape, np.intp), np.zeros(shape, bool), np.full(shape, np.inf))
    table.ids[rows, slot], table.valid[rows, slot], table.distances[rows, slot] = cols, True, dists
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
    # slot k is row k of ids, valid and distances; padded slots point at row n
    ids, valid, distances = (np.ascontiguousarray(a.T) for a in table)
    n = len(theta)
    slots, own_w = np.where(valid, ids, n), np.ones(n)
    if cfg.weighting == "uniform":
        nbr_w = valid.astype(np.float64)
    elif cfg.weighting == "samples":
        own_w = np.maximum(counts, 1).astype(np.float64)
        nbr_w = np.append(own_w, 0.0)[slots]
    elif cfg.weighting == "inverse_distance":
        d = distances.min(initial=np.inf)
        if d <= 0.0:
            raise NonpositiveDistanceError(
                f"distance: inverse_distance weighting needs d > 0 (got {d})"
            )
        nbr_w = 1.0 / distances  # padded slots: 1/inf = 0
    else:
        raise ValueError(
            f"weighting: unknown mode {cfg.weighting!r} (expected one of {WEIGHTINGS})"
        )
    if not cfg.include_self_weight:
        own_w = np.zeros(n)
    # Outer-axis reductions add rows in order, as merge_models does, from -0.0:
    # add's own +0.0 start turns -0.0 to 0.0.  Padded slots add -0.0 * 0.0.
    mixes = valid.any(axis=0)
    total = np.where(mixes, own_w + np.add.reduce(nbr_w, axis=0, initial=-0.0), 1.0)
    padded = np.concatenate([theta, np.full((1, theta.shape[1]), -0.0)])
    terms = np.empty((len(ids) + 1, *theta.shape))  # own terms, then slot by slot
    np.multiply(theta, (own_w / total)[:, None], out=terms[0])
    np.take(padded, slots, axis=0, out=terms[1:], mode="clip")  # unbuffered, unlike "raise"
    terms[1:] *= (nbr_w / total)[..., None]
    mixed = np.add.reduce(terms, axis=0, initial=-0.0)
    return np.where(mixes[:, None], mixed, theta), np.where(mixes, 0, counts)


def fedavg_mix(theta: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One collect/average/distribute round over stacked models; returns new
    arrays.  Every row becomes the ``fedavg_aggregate`` of all rows, bit for
    bit (one reduction adds the rows in node order), and every counter resets."""
    weights = np.maximum(counts, 1)
    weights = weights / weights.sum()
    mean = np.add.reduce(theta * weights[:, None], axis=0, initial=0.0)
    return np.tile(mean, (len(theta), 1)), np.zeros_like(counts)
