"""Model exchange as one mixing step over stacked node models.

The engine holds the models as one ``(n, d)`` array (row ``i`` is sensor
``i``) and the radio-range graph as one padded ``NeighborTable`` whose row
``i`` lists node ``i``'s neighbors; numpy screens the candidate pairs in
blocks of rows within reach in y and decides each one, bar the ties within
~1e-9 of the radius, which ``math.hypot`` decides; no distance is kept.
A run's gossip rounds apply one fixed operator, which ``gossip_mixer``
builds once, with the graph: the table slot-major, the normalised weights
and the work buffers.  A ``gossip_mix`` round fills the buffers and adds
each node's own and neighbor terms in one ordered reduction.  A central
round replaces every row by their mean, one reduction over the rows.  Every
node trains on the same windows at the same slots, so every merge would
weigh equal sample counts: both weightings build uniform weights, and no
counts are kept.  Rounds are synchronous, and both steps match per-model
references (``merge_models`` and ``fedavg_aggregate`` in the tests' oracles,
given equal counts) bit for bit.
Traffic is a closed form: per round sensor ``i`` sends one model to and
receives one from each of its ``degree[i]`` peers (the coordinator: each
sensor it serves), at ``16 + 8 * param_count`` bytes a model (4-byte sender
id, 4-byte round index, 8-byte sample count, then float64 coefficients), so
a node receives as many bytes as it sends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scenario import Placement

HEADER_BYTES = 16

TOPOLOGIES = ("isolated", "gossip", "central")
WEIGHTINGS = ("uniform", "samples")


@dataclass(frozen=True)
class FederationConfig:
    topology: str = "isolated"
    neighbor_radius_m: float = 300.0
    weighting: str = "samples"
    include_self_weight: bool = True


@dataclass(eq=False)
class TrafficStats:
    """Byte counters for one or more federation rounds: each sensor sends and
    receives ``tx_bytes`` (read-only, ``(n,)``), the coordinator ``central_bytes``."""

    tx_bytes: np.ndarray
    central_bytes: int = 0
    total_bytes: int = 0
    messages: int = 0


def payload_bytes(param_count: int) -> int:
    return HEADER_BYTES + 8 * param_count


def exchange_traffic(degree: np.ndarray, central: int, payload: int, rounds: int) -> TrafficStats:
    """Traffic of ``rounds`` rounds in which sensor ``i`` sends one model to,
    and receives one from, each of its ``degree[i]`` peers, and the
    coordinator does so with each of ``central`` sensors."""
    tx = np.multiply(degree, payload * rounds, dtype=np.int64)
    tx.flags.writeable = False
    messages = (int(np.sum(degree)) + central) * rounds  # the models sent
    return TrafficStats(tx, 2 * central * payload * rounds, messages * payload, messages)


class NeighborTable(NamedTuple):
    """The symmetric radio-range graph, no self loops, padded to
    ``(n, max_degree)`` arrays: row ``i`` lists node ``i``'s neighbors in
    ascending order; padded slots have ``valid`` False and id 0.  Node
    ``i``'s degree is ``valid[i].sum()``."""

    ids: np.ndarray
    valid: np.ndarray


def build_neighbor_graph(placements: Sequence["Placement"], radius_m: float) -> NeighborTable:
    """Connect every pair of nodes within ``radius_m`` of each other; row
    ``i`` is the ``i``-th placement by node id (sensors have ids ``0..n-1``).
    With the nodes ordered by y, numpy screens pairs with a little slack in
    blocks of rows, each against the nodes within reach of it in y (no
    ``(n, n)`` array), and accepts every pair safely inside the radius;
    ``math.hypot`` decides the other candidates, the ties within ~1e-9 of
    it.  No distance is kept."""
    nodes = sorted(placements, key=lambda p: p.node_id)
    n = len(nodes)
    xy = np.array([(p.x_m, p.y_m) for p in nodes], dtype=np.float64).reshape(n, 2)
    by_y = np.argsort(xy[:, 1], kind="stable")
    x, y = xy[by_y].T.copy()
    pairs, inside = [np.zeros((2, 0), np.intp)], [np.zeros(0, bool)]
    step = max(1, (1 << 14) // max(n, 1))  # rows a block: at most 16,384 pairs
    # squared distances in units of a power of two near the radius (capped
    # for a subnormal one): exact, and squares near the radius neither
    # overflow nor underflow, so the slack keeps every pair math.hypot
    # accepts; the absolute part covers its rounding of subnormal distances
    reach = (radius_m + 1e-323) * (1 + 1e-9)
    scale = math.ldexp(1.0, -max(math.frexp(reach)[1], -1000))
    limit = (reach * scale) ** 2
    # a float square-sum is within a few ulps of the exact one, so below
    # this the faithfully rounded math.hypot is at most the radius (a
    # product: ** raises OverflowError near the largest float)
    accept = (radius_m * scale) * (radius_m * scale) * (1 - 1e-9)
    for a in range(0, n, step):
        # rows a.. against columns a..end, those within reach in y; a pair
        # counts once, from its lower position in y order
        end = np.searchsorted(y, float(y[min(a + step, n) - 1]) + reach, side="right")
        # what overflows is out of range; what underflows is far inside it
        with np.errstate(over="ignore", under="ignore"):
            dx = (x[a:end] - x[a : a + step, None]) * scale
            dy = (y[a:end] - y[a : a + step, None]) * scale
            squares = dx * dx + dy * dy
        near = np.argwhere(np.triu(squares <= limit, 1)).T
        inside.append(squares[tuple(near)] < accept)
        pairs.append(near + a)
    i, j = np.concatenate(pairs, axis=1)
    edge = np.concatenate(inside)
    tie = np.flatnonzero(~edge)
    with np.errstate(over="ignore"):  # an overflowing difference is out of range
        dx, dy = (x[i[tie]] - x[j[tie]]).tolist(), (y[i[tie]] - y[j[tie]]).tolist()
    edge[tie] = [math.hypot(u, v) <= radius_m for u, v in zip(dx, dy)]
    src, dst = by_y[i[edge]], by_y[j[edge]]
    # both directions of every edge, by row and then by neighbor id
    rows, cols = np.divmod(np.sort(np.concatenate([src * n + dst, dst * n + src])), n)
    degree = np.bincount(rows, minlength=n)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)
    shape = (n, int(degree.max(initial=0)))
    table = NeighborTable(np.zeros(shape, np.intp), np.zeros(shape, bool))
    table.ids[rows, slot], table.valid[rows, slot] = cols, True
    return table


class GossipMixer(NamedTuple):
    """A run's gossip round (module docstring)."""

    slots: np.ndarray  # (D + 1, n) rows of padded: own, then neighbor slots
    weights: np.ndarray  # (D + 1, n, d) normalised, per term
    terms: np.ndarray  # (D + 1, n, d) work buffer
    padded: np.ndarray  # (n + 1, d) work buffer; row n stays -0.0 (a real row's inf * 0 is NaN)


def gossip_mixer(table: NeighborTable, cfg: FederationConfig, d: int) -> GossipMixer:
    """The gossip round over ``table`` under ``cfg`` for ``(n, d)`` models;
    both weightings build uniform weights (module docstring)."""
    # slot k + 1 is row k of ids and valid; slot 0 is the node itself
    ids, valid = (np.ascontiguousarray(a.T) for a in table)
    n = len(table.ids)
    slots = np.concatenate([np.arange(n)[None], np.where(valid, ids, n)])
    # a node without neighbors weighs its own row 1.0, whatever
    # include_self_weight says: its round is -0.0 + row * 1.0 plus padded
    # terms of -0.0, its row exactly, for ±0, ±inf and NaN alike
    own_w = np.where(valid.any(axis=0), float(cfg.include_self_weight), 1.0)
    nbr_w = valid.astype(np.float64)  # padded slots: 0
    # Outer-axis reductions add rows in order, as merge_models does, from -0.0:
    # add's own +0.0 start turns -0.0 to 0.0.  Padded slots add -0.0 * 0.0.
    total = own_w + np.add.reduce(nbr_w, axis=0, initial=-0.0)
    # full width: (D + 1, n, 1) weights broadcast in the multiply run slower
    weights = np.repeat((np.vstack([own_w, nbr_w]) / total)[..., None], d, axis=2)
    return GossipMixer(slots, weights, np.empty_like(weights), np.full((n + 1, d), -0.0))


def gossip_mix(theta: np.ndarray, mixer: GossipMixer) -> np.ndarray:
    """One synchronous round of ``mixer`` over stacked ``(n, d)`` models;
    returns a new array.  Every node with a neighbor gets the
    ``merge_models`` of its pre-round row and its neighbors' rows, bit for
    bit (same weights, same summation order); a node without neighbors keeps
    its row, its one term weighted 1.0."""
    if theta.shape != mixer.padded[:-1].shape:
        raise ValueError(
            f"theta: shape {theta.shape} does not match the mixer's {mixer.padded[:-1].shape}"
        )
    mixer.padded[:-1] = theta
    np.take(mixer.padded, mixer.slots, axis=0, out=mixer.terms, mode="clip")  # "raise" would buffer
    np.multiply(mixer.terms, mixer.weights, out=mixer.terms)
    return np.add.reduce(mixer.terms, axis=0, initial=-0.0)


def fedavg_mix(theta: np.ndarray) -> np.ndarray:
    """One collect/average/distribute round over stacked models; returns a new
    array.  Every row becomes the mean of all rows, one reduction adding them
    in node order: the ``fedavg_aggregate`` of models with equal counts, bit
    for bit, since ``c / (n * c)`` rounds to ``1 / n`` for every count ``c``."""
    mean = np.add.reduce(theta * (1 / len(theta)), axis=0, initial=0.0)
    return np.tile(mean, (len(theta), 1))
