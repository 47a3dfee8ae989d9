"""The stream derivation against one ``SeedSequence`` per kind, its words split
into rows, each row seeding a ``PCG64`` whose seeding is spelled out here."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspectrum.rng import MAX_SEED, streams, substream
from oracles import pcg64_generator, stream_key
from oracles import substream as reference_substream

# one-word (below 2**32) and two-word values, each drawn often
WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, MAX_SEED))
SEEDS = [0, 2**32 - 1, 2**32, MAX_SEED]
# the engine's kinds (engine module docstring)
KINDS = ["placement", "traffic", "init", "obs", "shadow", "train"]


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(3).tobytes() == want.random(3).tobytes()
    assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_rows_are_the_words_of_one_seed_sequence_per_kind(seed, kind):
    words = np.random.SeedSequence([seed, stream_key(kind)]).generate_state(20, np.uint64)
    got = streams(seed, kind, range(2, 5))
    assert len(got) == 3
    for row, stream in zip(range(2, 5), got):
        assert_same_stream(stream, pcg64_generator(words[4 * row : 4 * row + 4]))


@settings(max_examples=100, deadline=None)
@given(seed=WORDS, kind=st.text(max_size=12), start=st.integers(0, 5), size=st.integers(0, 4))
@example(seed=5, kind="obs", start=0, size=3)
def test_a_slice_of_rows_is_the_reference_rows(seed, kind, start, size):
    got = streams(seed, kind, range(start, start + size))
    assert len(got) == size
    for row, stream in enumerate(got, start):
        assert_same_stream(stream, reference_substream(seed, kind, row))


@pytest.mark.parametrize("seed", SEEDS)
def test_row_zero_is_numpys_own_seeding_of_the_kind(seed):
    # ties the spelled-out PCG64 seeding to numpy's: a one-row kind is the
    # generator default_rng builds from the same SeedSequence
    for kind in KINDS:
        for got in (substream(seed, kind), reference_substream(seed, kind, 0)):
            want = np.random.default_rng(np.random.SeedSequence([seed, stream_key(kind)]))
            assert_same_stream(got, want)


def test_a_row_is_the_same_for_every_row_count_above_it():
    # sensor r's streams do not depend on the sensor count
    for r in range(5):
        alone = streams(9, "obs", range(r, r + 1))[0].bit_generator.state
        for stop in range(r + 1, 9):
            assert streams(9, "obs", range(stop))[r].bit_generator.state == alone


def test_the_kinds_streams_are_pairwise_distinct():
    states = [stream.bit_generator.state["state"]
              for kind in KINDS for stream in streams(3, kind, range(3))]
    assert len({s["state"] for s in states}) == len({s["inc"] for s in states}) == len(states)
    generators = list(itertools.chain.from_iterable(streams(3, k, range(3)) for k in KINDS))
    assert len({id(g.bit_generator) for g in generators}) == len(generators)


def test_no_rows_give_no_streams():
    assert streams(3, "obs", range(0)) == streams(3, "obs", range(4, 4)) == []


@pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, 2**70])
def test_a_seed_outside_64_bits_is_rejected_by_name(monkeypatch, seed):
    def seed_sequence(entropy):
        raise AssertionError(f"built SeedSequence({entropy!r}) before the seed check")

    monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
    message = rf"^seed: must be in 0\.\.{MAX_SEED} \(got {seed}\)$"
    with pytest.raises(ValueError, match=message):
        substream(seed, "traffic")
    with pytest.raises(ValueError, match=message):
        streams(seed, "obs", range(2))


def test_stream_layout_canary():
    # literal words and states, so a numpy change to SeedSequence or to
    # PCG64's seeding fails here by name rather than as every golden hash
    assert stream_key("placement") == 0xCACB595412FB8014
    words = np.random.SeedSequence([7, stream_key("obs")]).generate_state(8, np.uint64)
    assert words[4:].tolist() == [
        0x7913D649D1CC0BCD, 0x293512120A55C6E1, 0xC51F3D1502CD390C, 0x53997AFEC51171B5]
    words = np.random.SeedSequence([7, stream_key("placement")]).generate_state(4, np.uint64)
    assert words.tolist() == [
        0x02B37C5F142357D5, 0xEC356D7CDB2E40B4, 0x05864ABA9619FD9F, 0xCBBE0617CD2D7047]
    obs = streams(7, "obs", range(1, 2))[0].bit_generator.state["state"]
    assert obs == {"state": 0xDA989B0FCA570B935D9416796ADDD1E7,
                   "inc": 0x8A3E7A2A059A7218A732F5FD8A22E36B}
    placement = substream(7, "placement").bit_generator.state["state"]
    assert placement == {"state": 0x0F4AB56E56F19436E204C0B82CAB399E,
                         "inc": 0x0B0C95752C33FB3F977C0C2F9A5AE08F}
