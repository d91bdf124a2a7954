import numpy as np
import pytest

from tubench.rng import SplitMix64, block_normals, mix64


def test_mix64_is_deterministic_and_order_sensitive():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(0) != mix64(0, 0)
    seen = {mix64(a, b) for a in range(20) for b in range(20)}
    assert len(seen) == 400


def test_streams_with_same_seed_are_identical():
    a, b = SplitMix64(123), SplitMix64(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]
    assert SplitMix64(124).next_u64() != SplitMix64(123).next_u64()


def test_random_is_in_unit_interval():
    stream = SplitMix64(5)
    values = [stream.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(np.mean(values) - 0.5) < 0.03


def test_randbelow_bounds_and_rough_uniformity():
    stream = SplitMix64(9)
    counts = [0] * 7
    for _ in range(7000):
        value = stream.randbelow(7)
        counts[value] += 1
    assert min(counts) > 800  # each bucket near 1000
    with pytest.raises(ValueError):
        stream.randbelow(0)


def test_shuffle_is_a_permutation():
    stream = SplitMix64(2)
    items = list(range(30))
    shuffled = items[:]
    stream.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_normals_have_standard_moments():
    values = block_normals(31, 20000)
    assert abs(values.mean()) < 0.03
    assert abs(values.std() - 1.0) < 0.03
