"""Independent references the module tests share."""

import numpy as np


def radio_range(xy, radius_m):
    """(adjacent, distances) ``(n, n)`` matrices of the radio-range graph over
    the points ``xy``, from one numpy distance matrix: an oracle for
    ``build_neighbor_graph``, which tests each pair with ``math.hypot``."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    dist = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    return (dist <= radius_m) & ~np.eye(len(xy), dtype=bool), dist
