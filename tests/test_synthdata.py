import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubench import (
    Sample,
    SynthConfig,
    ValidationError,
    generate,
    read_dataset,
    write_dataset,
)
from tubench import ingest, synthdata
from tubench.rng import SplitMix64, block_normals, mix64
from conftest import altered_child, assert_reaped_and_clean, dataset_of, in_process


class ScalarNormals:
    """Reference Box-Muller stream: one variate per call, the sine of each
    uniform pair kept as a spare for the next call."""

    def __init__(self, seed):
        self._stream = SplitMix64(seed)
        self._spare = None

    def normal(self):
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        u1 = 1.0 - self._stream.random()
        u2 = self._stream.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = radius * math.sin(theta)
        return radius * math.cos(theta)

    def normals(self, count):
        return [self.normal() for _ in range(count)]


def reference_generate(config):
    """Reference generator: one Sample per draw of d normals, in order."""
    d = config.dimension
    per_session = config.samples_per_session
    samples = []
    for user_index in range(config.num_users):
        stream = ScalarNormals(mix64(config.seed, user_index))
        base = config.base_spread * np.array(stream.normals(d))
        drift = config.drift_scale * np.array(stream.normals(d))
        user_id = f"u{user_index:03d}"
        for session in range(1, config.num_sessions + 1):
            ageing = base + (session - 1) * drift
            for k in range(per_session):
                noise = config.noise_scale * np.array(stream.normals(d))
                samples.append(
                    Sample(
                        user_id=user_id,
                        session=session,
                        order_index=(session - 1) * per_session + k,
                        features=ageing + noise,
                    )
                )
    return dataset_of(tuple(samples))


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 31, mix64(42, 7), 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 10, 31, 1001, 1240])
def test_block_normals_equal_the_scalar_stream_bitwise(seed, count):
    expected = ScalarNormals(seed).normals(count)
    got = block_normals(seed, count)
    assert got.shape == (count,)
    assert np.array_equal(bits(got), bits(expected))


@settings(max_examples=60, deadline=None)
@given(
    users=st.integers(1, 4),
    sessions=st.integers(2, 5),
    per_session=st.integers(1, 5),
    dimension=st.sampled_from([1, 2, 3, 10, 31]),
    seed=st.integers(0, 2**64 - 1),
    drift=st.floats(0.0, 2.0),
    spread=st.floats(0.01, 5.0),
    noise=st.floats(0.001, 2.0),
)
def test_generate_equals_the_per_sample_reference_bitwise(
    tmp_path_factory, users, sessions, per_session, dimension, seed, drift, spread, noise
):
    config = SynthConfig(
        users, sessions, per_session, dimension,
        base_spread=spread, drift_scale=drift, noise_scale=noise, seed=seed,
    )
    got = generate(config)
    expected = reference_generate(config)
    assert np.array_equal(bits(got.feature_matrix), bits(expected.feature_matrix))
    assert got == expected
    directory = tmp_path_factory.mktemp("synth")
    write_dataset(got, directory / "got.csv")
    write_dataset(expected, directory / "expected.csv")
    assert (directory / "got.csv").read_bytes() == (directory / "expected.csv").read_bytes()
    back = read_dataset(directory / "got.csv")
    assert back == got
    assert np.array_equal(bits(back.feature_matrix), bits(got.feature_matrix))


ACCEPTANCE_SHAPE = dict(
    num_users=20, num_sessions=8, samples_per_session=20, dimension=10,
    base_spread=1.0, drift_scale=0.08, noise_scale=0.15,
)


def session_centroid(dataset, user, session):
    return np.mean(dataset.feature_matrix[dataset.row_range(user, session)], axis=0)


def test_generation_is_bit_deterministic():
    config = SynthConfig(5, 3, 4, 6, seed=99, drift_scale=0.1)
    first = generate(config)
    second = generate(config)
    assert first == second
    changed = generate(SynthConfig(5, 3, 4, 6, seed=100, drift_scale=0.1))
    assert changed != first


def test_generated_dataset_is_valid():
    dataset = generate(SynthConfig(**ACCEPTANCE_SHAPE, seed=1))
    assert len(dataset.samples) == 20 * 8 * 20
    assert dataset.num_sessions == 8


def test_order_index_increases_through_sessions():
    dataset = generate(SynthConfig(3, 4, 5, 2, seed=7))
    for user in dataset.users:
        orders = dataset.row_order[dataset.row_user == dataset.users.index(user)].tolist()
        assert orders == list(range(4 * 5))


def test_zero_drift_keeps_session_means_stationary():
    config = SynthConfig(100, 8, 20, 10, base_spread=1.0, drift_scale=0.0,
                         noise_scale=0.15, seed=5)
    dataset = generate(config)
    gaps = [
        np.linalg.norm(session_centroid(dataset, u, 8) - session_centroid(dataset, u, 1))
        for u in dataset.users
    ]
    # distance between two session centroids is pure sampling noise:
    # per-dimension variance 2 * sigma_w^2 / G, so the norm concentrates
    # near sigma_w * sqrt(2 d / G)
    predicted = 0.15 * np.sqrt(2 * 10 / 20)
    assert 0.8 * predicted < np.mean(gaps) < 1.2 * predicted


def test_drift_is_linear_in_session_index():
    config = SynthConfig(10, 6, 30, 4, base_spread=1.0, drift_scale=0.2,
                         noise_scale=1e-9, seed=11)
    dataset = generate(config)
    for user in dataset.users:
        centroids = [session_centroid(dataset, user, s) for s in range(1, 7)]
        steps = np.diff(centroids, axis=0)
        # with noise ~ 1e-9 every session step equals the drift vector
        assert np.allclose(steps, steps[0], atol=1e-8)


def test_acceptance_scale_drift_exceeds_within_session_spread():
    dataset = generate(SynthConfig(**ACCEPTANCE_SHAPE, seed=20))
    travel = np.mean([
        np.linalg.norm(session_centroid(dataset, u, 8) - session_centroid(dataset, u, 1))
        for u in dataset.users
    ])
    spreads = []
    for user in dataset.users:
        centroid = session_centroid(dataset, user, 1)
        spreads.append(np.mean([
            np.linalg.norm(features - centroid)
            for features in dataset.feature_matrix[dataset.row_range(user, 1)]
        ]))
    assert travel > np.mean(spreads)


def test_config_validation():
    with pytest.raises(ValidationError):
        SynthConfig(0, 2, 1, 1)
    with pytest.raises(ValidationError):
        SynthConfig(1, 1, 1, 1)
    with pytest.raises(ValidationError):
        SynthConfig(1, 2, 1, 1, noise_scale=0.0)
    with pytest.raises(ValidationError):
        SynthConfig(1, 2, 1, 1, drift_scale=-0.1)


@pytest.fixture
def split_generate(forks, monkeypatch):
    """Draws every dataset on two processes; the list grows by one per fork."""
    monkeypatch.setattr(synthdata, "SPLIT_MIN_VALUES", 0)
    return forks


def _one_process(config):
    result = []
    in_process(lambda: result.append(generate(config)))
    return result[0]


@pytest.mark.parametrize("users", [1, 2, 5])
def test_split_generate_equals_one_process_bitwise(tmp_path, split_generate, users):
    config = SynthConfig(users, 3, 4, 5, drift_scale=0.3, seed=users)
    got = generate(config)
    assert len(split_generate) == 1
    expected = _one_process(config)
    assert len(split_generate) == 1
    assert np.array_equal(bits(got.feature_matrix), bits(expected.feature_matrix))
    assert got == expected == reference_generate(config)
    assert_reaped_and_clean(tmp_path)


@pytest.mark.parametrize("failure", ["raises", "is killed", "sends too little", "sends too much"])
def test_a_failed_or_short_child_leaves_its_users_to_the_parent(
    tmp_path, split_generate, monkeypatch, failure
):
    config = SynthConfig(5, 3, 4, 5, drift_scale=0.3, seed=9)
    parent = os.getpid()
    normals = synthdata.block_normals

    def failing(seed, count):
        if os.getpid() != parent:
            if failure == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("the child fails")
        return normals(seed, count)

    if failure in ("raises", "is killed"):
        monkeypatch.setattr(synthdata, "block_normals", failing)
    else:
        # Eight bytes fewer or more shift every value the child sends.
        alter = (lambda sent: sent[8:]) if failure == "sends too little" else (
            lambda sent: bytes(8) + sent)
        monkeypatch.setattr(synthdata, "split_work", altered_child(synthdata.split_work, alter))
    got = generate(config)
    assert len(split_generate) == 1
    assert np.array_equal(bits(got.feature_matrix), bits(reference_generate(config).feature_matrix))
    assert got == _one_process(config)
    assert_reaped_and_clean(tmp_path)


def test_the_acceptance_shape_is_drawn_in_one_process(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(ingest, "_two_cores", lambda: True)
    monkeypatch.setattr(os, "fork", fork)
    config = SynthConfig(**ACCEPTANCE_SHAPE, seed=42)
    assert generate(config) == reference_generate(config)
