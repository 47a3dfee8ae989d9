"""Random streams by kind and row.

Every experiment owns a single 64-bit master seed.  Each consumer draws from
its own stream, named by a kind and a row: ``placement``, ``traffic`` and
``init`` have one row, and ``obs``, ``shadow`` and ``train`` have row ``i``
for sensor ``i``.  Adding or removing draws in one module therefore
never shifts the sequences any other module sees.  ``engine`` derives every
stream.

Kind ``kind`` under ``seed`` is numpy's ``SeedSequence([seed, key])``, the
key being the first 8 bytes of the kind's UTF-8 SHA-256, little-endian.  Its
``generate_state`` words, four a row, seed one ``PCG64`` per row, so a whole
kind costs one ``SeedSequence``.  The words do not depend on how many are
asked for, so row ``r`` is the same whatever the row count above it: a
sensor's streams do not depend on the sensor count.  The generators hold no
``SeedSequence``, so they cannot ``spawn``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MAX_SEED = (1 << 64) - 1


class _State(ISeedSequence):
    """Hands ``PCG64`` its precomputed ``generate_state(4, uint64)`` words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def streams(seed: int, kind: str, rows: range) -> list[np.random.Generator]:
    """The generators of rows ``rows`` of ``kind`` under a seed in ``0..MAX_SEED``."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed: must be in 0..{MAX_SEED} (got {seed})")
    key = int.from_bytes(hashlib.sha256(kind.encode("utf-8")).digest()[:8], "little")
    words = np.random.SeedSequence([seed, key]).generate_state(4 * rows.stop, np.uint64)
    words = words.reshape(-1, 4)
    return [np.random.Generator(np.random.PCG64(_State(words[r]))) for r in rows]


def substream(seed: int, kind: str) -> np.random.Generator:
    """The generator of a one-row kind such as ``placement``."""
    return streams(seed, kind, range(1))[0]
