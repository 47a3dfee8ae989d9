"""Labeled random sub-stream derivation.

Every experiment owns a single 64-bit master seed.  Each consumer (placement,
primary-user traffic, per-sensor observation noise, per-node training shuffle)
derives its own generator from ``(seed, label)``, so adding or removing draws
in one module never shifts the sequences any other module sees.
"""

from __future__ import annotations

import hashlib

import numpy as np

MAX_SEED = (1 << 64) - 1


def substream_key(label: str) -> int:
    """Stable 64-bit key for a stream label (first 8 bytes of SHA-256)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for ``label`` under a seed in ``0..MAX_SEED``."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed: must be in 0..{MAX_SEED} (got {seed})")
    return np.random.default_rng(np.random.SeedSequence([seed, substream_key(label)]))
