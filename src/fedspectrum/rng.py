"""Labeled random sub-stream derivation.

Every experiment owns a single 64-bit master seed.  Each consumer (placement,
primary-user traffic, model init, each sensor's noise, shadowing and fading,
each node's training shuffle) derives its own generator from ``(seed,
label)``, so adding or removing draws in one module never shifts the
sequences any other module sees.  ``engine`` derives every label.

Stream ``(seed, label)`` is ``default_rng(SeedSequence([seed, key]))``, the
key being the label's 8-byte SHA-256 prefix (``substream_keys``), but
``substreams`` derives a whole batch of labels at once.  Its keys are hashed
in one batch: the prefixes are joined and read by one ``frombuffer``.  Then
numpy's ``SeedSequence`` hash (``mix_entropy`` on a pool of four 32-bit
words, then ``generate_state(4, uint64)``) runs column-wise over one ``(L,
4)`` word array and each ``PCG64`` is seeded with its row, so the batch
costs one numpy pass instead of L ``SeedSequence`` objects.  ``[seed, key]``
is at most four words and ``SeedSequence`` hashes a missing pool word as 0,
so zero padding is exact.  The streams hold no ``SeedSequence``, so they
cannot ``spawn``; every stream is derived from its own label instead.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MAX_SEED = (1 << 64) - 1

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) in uint32: its
# k-th hash step xors in c * m**k and multiplies by c * m**(k + 1), the same
# for every row, so the step constants are tabled once; mix_entropy takes 16
# steps of _HASH_A, generate_state(4, uint64) 8 of _HASH_B
_MASK32 = 0xFFFFFFFF
_POOL = 4
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HASH_A = np.array([0x43B0D7E5 * 0x931E8875**k & _MASK32 for k in range(17)], np.uint32)
_HASH_B = np.array([0x8B51F9DD * 0x58F38DED**k & _MASK32 for k in range(9)], np.uint32)
_OTHERS = [np.array([d for d in range(_POOL) if d != src]) for src in range(_POOL)]


def substream_keys(labels: Sequence[str]) -> np.ndarray:
    """``(L,)`` uint64 keys of stream labels: each the first 8 bytes of the
    label's UTF-8 SHA-256, little-endian, read in one ``frombuffer``."""
    digests = b"".join([hashlib.sha256(label.encode("utf-8")).digest()[:8] for label in labels])
    return np.frombuffer(digests, "<u8")


def substream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for ``label`` under a seed in ``0..MAX_SEED``."""
    return substreams(seed, [label])[0]


def substreams(seed: int, labels: Sequence[str]) -> list[np.random.Generator]:
    """``[substream(seed, label) for label in labels]``, derived in one pass;
    a repeated label gives distinct generators in equal states."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed: must be in 0..{MAX_SEED} (got {seed})")
    return _keyed_streams(seed, substream_keys(labels))


class _State(ISeedSequence):
    """Hands ``PCG64`` its precomputed ``generate_state(4, uint64)`` words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, m: int) -> np.ndarray:
    """Hash steps ``k..k+m-1`` over the last axis of ``value``."""
    value = (value ^ consts[k : k + m]) * consts[k + 1 : k + m + 1]
    return value ^ value >> 16


def _keyed_streams(seed: int, keys: Sequence[int] | np.ndarray) -> list[np.random.Generator]:
    """The generators of ``SeedSequence([seed, key])`` for each key in
    ``0..MAX_SEED`` (a seed in ``0..MAX_SEED``, no spawn key)."""
    keys = np.asarray(keys, dtype=np.uint64)
    # entropy words: the seed's (one, or two from 2**32), then the key's; a
    # key below 2**32 has one word, and its zero high word is the padding
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    ns = len(seed_words)
    pool = np.zeros((len(keys), _POOL), dtype=np.uint32)
    pool[:, :ns] = seed_words
    pool[:, ns] = keys & _MASK32
    pool[:, ns + 1] = keys >> 32
    # mix_entropy: hash each pool word, then mix every word into every other;
    # the three mixes from one source word read it unchanged, so they run as one
    pool = _hashmix(pool, _HASH_A, 0, _POOL)
    for src, dst in enumerate(_OTHERS):
        hashed = _hashmix(pool[:, src, None], _HASH_A, 4 + 3 * src, 3)
        mixed = _MIX_L * pool[:, dst] - _MIX_R * hashed
        pool[:, dst] = mixed ^ mixed >> 16
    # generate_state(4, uint64): eight words cycling the pool, packed as
    # little-endian pairs
    words = _hashmix(np.concatenate((pool, pool), axis=1), _HASH_B, 0, 2 * _POOL)
    words = words.astype(np.uint64)
    state = words[:, 0::2] | words[:, 1::2] << 32
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in state]
