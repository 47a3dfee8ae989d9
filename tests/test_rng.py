"""The batched stream derivation against one ``SeedSequence`` per stream."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspectrum import rng
from fedspectrum.rng import MAX_SEED, substream, substream_keys, substreams
from oracles import seed_sequence_stream
from oracles import substream as reference_substream

# one-word (below 2**32) and two-word values, each drawn often
WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, MAX_SEED))
KEYS = [0, 1, 2**32 - 1, 2**32, MAX_SEED]


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(3).tobytes() == want.random(3).tobytes()
    assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=WORDS, keys=st.lists(WORDS, max_size=6))
@example(seed=0, keys=KEYS)
@example(seed=2**32 - 1, keys=KEYS)
@example(seed=2**32, keys=KEYS)
@example(seed=MAX_SEED, keys=KEYS)
def test_batched_derivation_is_one_seed_sequence_per_key(seed, keys):
    got = rng._keyed_streams(seed, keys)
    assert len(got) == len(keys)
    for stream, key in zip(got, keys):
        assert_same_stream(stream, seed_sequence_stream(seed, key))


@settings(max_examples=50, deadline=None)
@given(seed=WORDS, labels=st.lists(st.text(max_size=12), max_size=5))
@example(seed=5, labels=["placement", "traffic", "obs:0", "shadow:shared", "train:399"])
def test_substreams_are_the_labels_streams(seed, labels):
    got = substreams(seed, labels)
    assert len(got) == len(labels)
    for stream, label in zip(got, labels):
        assert_same_stream(stream, reference_substream(seed, label))
        assert_same_stream(substream(seed, label), reference_substream(seed, label))


def test_repeated_label_gives_distinct_generators_in_equal_states():
    # oracles.identical_nodes: every node gets its own train:shared generator
    streams = substreams(3, ["train:shared"] * 3)
    assert len({id(s) for s in streams}) == len({id(s.bit_generator) for s in streams}) == 3
    start = substream(3, "train:shared").bit_generator.state
    assert all(s.bit_generator.state == start for s in streams)
    first = streams[0].random(5)
    assert [s.bit_generator.state == start for s in streams] == [False, True, True]
    assert streams[1].random(5).tobytes() == streams[2].random(5).tobytes() == first.tobytes()


@settings(max_examples=50, deadline=None)
@given(labels=st.lists(st.text(max_size=12), max_size=5))
@example(labels=["placement", "obs:0", "train:399", "\u00e9", ""])
def test_keys_are_each_labels_sha256_prefix_in_one_batch(labels):
    want = [int.from_bytes(hashlib.sha256(s.encode("utf-8")).digest()[:8], "little")
            for s in labels]
    keys = substream_keys(labels)
    assert keys.dtype == np.uint64 and keys.shape == (len(labels),)
    assert keys.tolist() == want


def test_no_labels_give_no_streams():
    assert substreams(3, []) == []


@pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
def test_out_of_range_seed_is_rejected_before_any_hashing(monkeypatch, seed):
    def hash_labels(labels):
        raise AssertionError(f"hashed {list(labels)!r} before the seed check")

    monkeypatch.setattr(rng, "substream_keys", hash_labels)
    message = rf"^seed: must be in 0\.\.{MAX_SEED} \(got {seed}\)$"
    with pytest.raises(ValueError, match=message):
        substream(seed, "traffic")
    with pytest.raises(ValueError, match=message):
        substreams(seed, ["obs:0", "shadow:0"])
