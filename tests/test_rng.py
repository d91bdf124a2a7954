import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubench.rng import BlockBounds, block_mix64, block_normals, block_randbelow
from tubench.stream import _shuffle
from conftest import SplitMix64, mix64

WIDE = st.integers(-(2**70), 2**70)  # masked to 64 bits, as 64-bit arithmetic wraps them
HALF_REJECTED = 2**63 + 1  # randbelow's limit is 2**63 + 1: about half of all words fail it
BOUNDS = st.one_of(
    st.sampled_from([1, 2, HALF_REJECTED, 2**64 - 1]), st.integers(1, 40), st.integers(1, 2**64 - 1)
)


def test_block_mix64_is_deterministic_and_order_sensitive():
    assert block_mix64(1, 2, 3) == block_mix64(1, 2, 3)
    assert block_mix64(1, 2) != block_mix64(2, 1)
    assert block_mix64(0) != block_mix64(0, 0)
    seen = set(block_mix64(np.arange(20)[:, None], np.arange(20)).ravel().tolist())
    assert len(seen) == 400


def test_streams_with_same_seed_are_identical():
    a, b, c = block_randbelow([123, 123, 124], BlockBounds([[2**64 - 1] * 50] * 3))
    assert a == b
    assert a[0] != c[0]
    a, b = SplitMix64(123), SplitMix64(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]
    assert SplitMix64(124).next_u64() != SplitMix64(123).next_u64()


def test_random_is_in_unit_interval():
    stream = SplitMix64(5)
    values = [stream.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(np.mean(values) - 0.5) < 0.03


def test_randbelow_bounds_and_rough_uniformity():
    (values,) = block_randbelow([9], BlockBounds([[7] * 7000]))
    counts = [values.count(value) for value in range(7)]
    assert sum(counts) == 7000
    assert min(counts) > 800  # each bucket near 1000
    with pytest.raises(ValueError):
        BlockBounds([[0]])
    with pytest.raises(ValueError):
        SplitMix64(9).randbelow(0)


def test_shuffle_is_a_permutation():
    items = list(range(30))
    shuffled, expected = items[:], items[:]
    (draws,) = block_randbelow([2], BlockBounds([range(30, 1, -1)]))
    _shuffle(shuffled, draws)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity
    SplitMix64(2).shuffle(expected)
    assert shuffled == expected


def test_normals_have_standard_moments():
    values = block_normals(31, 20000)
    assert abs(values.mean()) < 0.03
    assert abs(values.std() - 1.0) < 0.03


def scalar_draws(seed, bounds):
    stream = SplitMix64(seed)
    return [stream.randbelow(n) for n in bounds]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(WIDE, st.lists(BOUNDS, max_size=12)), max_size=6))
def test_block_randbelow_equals_successive_scalar_draws(streams):
    seeds = [seed for seed, _ in streams]
    bounds = [row for _, row in streams]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = block_randbelow(seeds, BlockBounds(bounds))
    assert got == [scalar_draws(seed, row) for seed, row in streams]


def test_block_randbelow_falls_back_to_the_scalar_stream_mid_row():
    # Word 2 of a stream is rejected for n = 2**63 + 1 when it is >= 2**63 + 1.
    bounds = [5, HALF_REJECTED, 3, HALF_REJECTED, 7, 1]
    seeds = list(range(40))
    rejected = 0
    for seed in seeds:
        stream = SplitMix64(seed)
        stream.next_u64()
        rejected += stream.next_u64() >= HALF_REJECTED
    assert 0 < rejected < len(seeds)
    assert block_randbelow(seeds, BlockBounds([bounds] * len(seeds))) == [
        scalar_draws(seed, bounds) for seed in seeds
    ]


def test_block_randbelow_rejects_a_zero_bound():
    with pytest.raises(ValueError):
        block_randbelow([1, 2], BlockBounds([[3], [2, 0]]))
    assert block_randbelow([], BlockBounds([])) == []


@settings(max_examples=200, deadline=None)
@given(
    WIDE,
    st.lists(WIDE, min_size=1, max_size=3),
    st.lists(WIDE, min_size=1, max_size=3),
    st.lists(WIDE, min_size=1, max_size=3),
)
def test_block_mix64_equals_mix64(base, repeats, users, sessions):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        block = block_mix64(
            base,
            np.array(repeats, dtype=object).reshape(-1, 1, 1),
            np.array(users, dtype=object).reshape(-1, 1),
            sessions,
        )
    assert block.shape == (len(repeats), len(users), len(sessions))
    for (i, j, k), value in np.ndenumerate(block):
        assert int(value) == mix64(base, repeats[i], users[j], sessions[k])
