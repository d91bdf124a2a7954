import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tubench import (
    EPSILON,
    ConfigError,
    EnrollmentError,
    Label,
    QueryEvent,
    ReferenceLanes,
    StrategyKind,
    UpdateStrategy,
    ValidationError,
    centered_score,
    enroll,
    maybe_update,
    raw_score,
    refresh_statistics,
)
from tubench import matcher
from tubench.rng import SplitMix64
from conftest import ListFifo, center, gallery_statistics, make_sample, single_raw_score


def brute_stats(vectors, eps=EPSILON):
    """Independent recomputation of the gallery statistics."""
    arr = np.asarray(vectors, dtype=float)
    mu = [sum(col) / len(col) for col in arr.T]
    mad = [max(sum(abs(x - m) for x in col) / len(col), eps) for col, m in zip(arr.T, mu)]
    return np.array(mu), np.array(mad)


def brute_raw(query, mu, mad):
    return sum(abs(q - m) / s for q, m, s in zip(query, mu, mad)) / len(query)


def test_enroll_identical_vectors_floors_everything():
    ref = enroll("u", np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert np.allclose(ref.mad, EPSILON)
    assert ref.center_m.tolist() == [0.0]
    assert ref.center_s.tolist() == [EPSILON]


def test_enroll_two_point_statistics():
    ref = enroll("u", np.array([[0.0, 0.0], [2.0, 2.0]]))
    assert np.array_equal(ref.mu[0], [1.0, 1.0])
    assert np.array_equal(ref.mad[0], [1.0, 1.0])


def test_enroll_leave_one_out_centering_matches_hand_computation():
    # Three 2-d vectors on the diagonal; each fold scores the held-out
    # vector against the statistics of the other two:
    #   hold (0,0): rest mean (3,3), rest mad (1,1) -> score 3
    #   hold (2,2): rest mean (2,2), rest mad (2,2) -> score 0
    #   hold (4,4): rest mean (1,1), rest mad (1,1) -> score 3
    vectors = [[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]]
    ref = enroll("u", np.array(vectors))
    assert ref.center_m[0] == pytest.approx(2.0, abs=1e-15)
    assert ref.center_s[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)

    # same numbers from an independent brute-force pass over the folds
    loo = []
    for k in range(3):
        rest = [v for i, v in enumerate(vectors) if i != k]
        mu, mad = brute_stats(rest)
        loo.append(brute_raw(vectors[k], mu, mad))
    assert ref.center_m[0] == pytest.approx(np.mean(loo), abs=1e-15)
    assert ref.center_s[0] == pytest.approx(np.std(loo), abs=1e-15)


def test_enroll_requires_two_samples():
    with pytest.raises(EnrollmentError):
        enroll("u", np.array([[1.0]]))
    with pytest.raises(EnrollmentError, match="matrix"):
        enroll("u", [1.0, 2.0, 3.0])  # one vector, not a matrix of several


def test_enroll_rejects_capacity_below_enrollment():
    with pytest.raises(ConfigError, match="capacity 2 is below the enrollment size 3"):
        enroll("u", np.array([[1.0], [2.0], [3.0]]), capacity=2)
    assert enroll("u", np.array([[1.0], [2.0], [3.0]]), capacity=3).capacity == 3


def test_raw_score_of_gallery_mean_is_zero():
    ref = enroll("u", np.array([[0.0, 1.0], [2.0, 5.0], [1.0, 0.0]]))
    assert raw_score(ref, ref.mu[0]) == 0.0


def test_raw_score_hand_example():
    ref = enroll("u", np.array([[0.0, 0.0], [2.0, 2.0]]))
    ref.mu[0] = [1.0, 2.0]
    ref.mad[0] = [0.5, 1.0]
    ref.inv_mad[0] = 1.0 / ref.mad[0]
    assert raw_score(ref, [1.5, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_raw_score_matches_elementwise_recomputation():
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(6, 5))
    ref = enroll("u", np.array(vectors))
    for _ in range(20):
        query = rng.normal(size=5)
        expected = brute_raw(query, ref.mu[0], ref.mad[0])
        assert raw_score(ref, query) == pytest.approx(expected, abs=1e-12)


def test_raw_score_rejects_dimension_mismatch():
    ref = enroll("u", np.array([[0.0, 0.0], [2.0, 2.0]]))
    with pytest.raises(ValidationError):
        raw_score(ref, [1.0])


def test_scores_reject_matrices_of_the_wrong_shape():
    ref = enroll("u", np.array([[0.0, 0.0], [2.0, 2.0]]))
    for bad in (np.zeros((3, 1)), np.zeros((2, 3, 2)), 1.0):
        with pytest.raises(ValidationError):
            raw_score(ref, bad)
        with pytest.raises(ValidationError):
            centered_score(ref, bad)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 3, 8, 10, 31, 200]),
    n=st.integers(1, 50),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_scores_equal_row_scores_bitwise(d, n, scale, seed):
    # Scoring an (n, d) matrix must reproduce the 1-D path row by row to
    # the last bit: numpy has to reduce each row in the same order.
    rng = np.random.default_rng(seed)
    ref = enroll("u", np.array(rng.normal(size=(4, d)) * scale))
    queries = rng.normal(size=(n, d)) * scale
    for score in (raw_score, centered_score):
        batched = score(ref, queries)
        assert batched.shape == (n,)
        one_by_one = np.array([score(ref, row) for row in queries])
        assert np.array_equal(batched.view(np.uint64), one_by_one.view(np.uint64))


def loop_centering(vectors, eps):
    """The leave-one-out centering constants, one np.delete per sample
    (the per-sample loop `enroll` used before it gathered all n at once)."""
    scores = []
    for k in range(len(vectors)):
        rest = np.delete(vectors, k, axis=0)
        mu = rest.mean(axis=0)
        mad = np.maximum(np.abs(rest - mu).mean(axis=0), eps)
        scores.append(float(np.mean(np.abs(vectors[k] - mu) / mad)))
    return float(np.mean(scores)), max(float(np.std(scores)), eps)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.sampled_from([1, 3, 10, 31, 200]),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
    eps=st.sampled_from([EPSILON, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gathered_leave_one_out_equals_the_per_sample_loop_bitwise(n, d, scale, eps, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)) * scale + rng.normal()
    ref = enroll("u", np.array(vectors), eps=eps)
    center_m, center_s = loop_centering(vectors, eps)
    assert ref.center_m[0].hex() == center_m.hex()
    assert ref.center_s[0].hex() == center_s.hex()


def whole_array_centering(vectors, eps):
    """The leave-one-out centering constants from one (n, n - 1, d) array
    of every leave-one-out gallery (the form `enroll` used before it
    worked in blocks of rows)."""
    n = len(vectors)
    others = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    rest = vectors[others]
    mu_loo = rest.mean(axis=1)
    mad_loo = np.maximum(np.abs(rest - mu_loo[:, None, :]).mean(axis=1), eps)
    loo_scores = np.mean(np.abs(vectors - mu_loo) / mad_loo, axis=1)
    return float(np.mean(loo_scores)), max(float(np.std(loo_scores)), eps)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.sampled_from([1, 3, 10, 31]),
    block=st.integers(1, 4000),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
    eps=st.sampled_from([EPSILON, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_leave_one_out_equals_the_whole_array_bitwise(n, d, block, scale, eps, seed):
    # A small block splits enrollment into blocks of rows, down to one row each.
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)) * scale + rng.normal()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matcher, "LOO_BLOCK", block)
        ref = enroll("u", np.array(vectors), eps=eps)
    center_m, center_s = whole_array_centering(vectors, eps)
    assert ref.center_m[0].hex() == center_m.hex()
    assert ref.center_s[0].hex() == center_s.hex()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.sampled_from([1, 2, 3, 10, 31]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    eps=st.sampled_from([EPSILON, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bare_reductions_equal_np_mean_bitwise(n, d, scale, eps, seed):
    # The kernels, and the oracles the tests hold them to, average by
    # np.add.reduce / count; np.mean must give the same bits.
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)) * scale + rng.normal() * scale
    mean_mu = np.mean(vectors, axis=0)
    mean_mad = np.maximum(np.mean(np.abs(vectors - mean_mu), axis=0), eps)
    lane = one_lane(vectors, eps)
    for mu, mad in (gallery_statistics(vectors, eps), (lane.mu[0], lane.mad[0])):
        assert mu.tobytes() == mean_mu.tobytes()
        assert mad.tobytes() == mean_mad.tobytes()

    enrolled = rng.normal(size=(max(n, 2), d)) * scale
    ref = enroll("u", enrolled, eps=eps)
    center_m, center_s = whole_array_centering(enrolled, eps)
    assert ref.center_m[0].hex() == center_m.hex()
    assert ref.center_s[0].hex() == center_s.hex()
    queries = rng.normal(size=(n, d)) * scale
    expected = np.mean(np.abs(queries - ref.mu[0]) * ref.inv_mad[0], axis=-1)
    assert raw_score(ref, queries).tobytes() == expected.tobytes()
    assert raw_score(ref, queries[0]).hex() == float(expected[0]).hex()


def one_lane(vectors, eps=EPSILON):
    """A one-lane store whose gallery is `vectors` (one row is enough), with
    its statistics from `refresh`; its centering stays at 0 / 1."""
    vectors = np.array(vectors, dtype=float)
    statistics = (*np.empty((3, 1, vectors.shape[1])), np.zeros(1), np.ones(1))
    lane = ReferenceLanes(vectors[None], np.array([len(vectors)]), [len(vectors)], statistics,
                          eps, None)
    lane.refresh([0])
    return lane


@pytest.mark.parametrize("capacity", [None, 5])
def test_lanes_update_and_evict_without_touching_their_templates(capacity):
    # 2 + 5 + 4 updates on 3 or 4 enrollment vectors fill an unbounded lane
    # or evict from a FIFO of 5.
    rng = np.random.default_rng(17)
    users = (("u", 3), ("v", 4))
    templates = [enroll(user, rng.normal(size=(n, 2)), capacity=capacity) for user, n in users]

    def states():
        return [[t.gallery.tobytes(), t.mu.tobytes(), t.mad.tobytes()] for t in templates]

    before = states()
    lanes = ReferenceLanes.stack(templates)
    # Before any extend, a store is exactly as wide as its enrollment, and
    # the stack exactly as wide as the largest one.
    assert [t.gallery.shape[1] for t in templates] == [3, 4]
    assert lanes.gallery.shape[1] == 4
    fresh = [enroll(user, t.vectors(), capacity=capacity) for (user, _), t in zip(users, templates)]
    evicted = [0, 0]
    for k in (2, 5, 4):
        for lane, model in enumerate(fresh):
            rows = rng.normal(size=(k, 2))
            lanes.extend(lane, rows)
            evicted[lane] += len(model.extend(0, rows))
            refresh_statistics(model)
        lanes.refresh(np.arange(2))
        for lane, model in enumerate(fresh):
            assert lanes.vectors(lane).tobytes() == model.vectors().tobytes()
            for name in ("mu", "mad", "center_m", "center_s"):
                assert getattr(lanes, name)[lane].tobytes() == getattr(model, name)[0].tobytes()
        assert states() == before
    # Unbounded, the width doubled from 4 past the widest lane's 4 + 2 and
    # 4 + 7 rows to 16; a FIFO of 5 evicted 14 - 5 and 15 - 5 updates.
    assert lanes.gallery.shape[1] == (16 if capacity is None else 5)
    assert lanes.size.tolist() == ([14, 15] if capacity is None else [5, 5])
    assert evicted == ([0, 0] if capacity is None else [9, 10])


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 40), min_size=1, max_size=5),
    d=st.sampled_from([1, 2, 3, 8, 31]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    spare=st.sampled_from([None, 0, 3]),
    batches=st.lists(st.integers(0, 30), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# One small lane whose batch outgrows twice its width at once.
@example(sizes=[2], d=1, scale=1.0, spare=None, batches=[9], seed=0)
def test_lane_kernels_equal_the_single_reference_kernels_bitwise(
    sizes, d, scale, spare, batches, seed
):
    # Lanes of ragged sizes take ragged batches; with a capacity, the FIFO
    # wraps around (spare 0 evicts every update of the largest lane at once).
    # The stack starts as wide as the largest enrollment, so lanes outgrow
    # the width and double it.
    rng = np.random.default_rng(seed)
    capacity = None if spare is None else max(sizes) + spare
    templates = [enroll(f"u{k}", rng.normal(size=(n, d)) * scale, capacity=capacity)
                 for k, n in enumerate(sizes)]
    lanes = ReferenceLanes.stack(templates)
    galleries = [ListFifo(t.vectors().copy(), capacity) for t in templates]
    for batch in batches:
        counts = rng.integers(0, batch + 1, size=len(sizes))
        for lane, (gallery, k) in enumerate(zip(galleries, counts)):
            rows = rng.normal(size=(k, d)) * scale
            evicted = lanes.extend(lane, rows)
            expected = [vector for vector in map(gallery.append, rows) if vector is not None]
            assert evicted.tobytes() == b"".join(vector.tobytes() for vector in expected)
        if counts.any():
            lanes.refresh(np.flatnonzero(counts))
        assert lanes.gallery.shape[1] <= (capacity or math.inf)
        for lane, gallery in enumerate(galleries):
            assert lanes.vectors(lane).tobytes() == gallery.tobytes()
            mu, mad = gallery_statistics(np.array(gallery.vectors), lanes.eps)
            assert lanes.mu[lane].tobytes() == mu.tobytes()
            assert lanes.mad[lane].tobytes() == mad.tobytes()
        queries = rng.normal(size=(len(sizes), int(rng.integers(1, 6)), d)) * scale
        some = np.flatnonzero(rng.integers(0, 2, size=len(sizes)))
        for picked, (raw, centered) in (
            (range(len(sizes)), lanes.scores(queries)),
            (some, lanes.scores(queries[some], some)),
        ):
            for row, lane in enumerate(picked):
                mu, mad = gallery_statistics(np.array(galleries[lane].vectors), lanes.eps)
                expected = single_raw_score(queries[lane], mu, mad)
                assert raw[row].tobytes() == expected.tobytes()
                template = templates[lane]
                shifted = (expected - template.center_m[0]) / template.center_s[0]
                assert centered[row].tobytes() == shifted.tobytes()
                assert lanes.scores(queries[lane], lane)[0].tobytes() == expected.tobytes()
                assert centered_score(lanes, queries[lane], lane).tobytes() == shifted.tobytes()


def test_enrollment_memory_stays_bounded_by_its_blocks():
    # One whole (n, n - 1, d) array and its two temporaries peak at 258 MiB at this size.
    vectors = np.random.default_rng(5).normal(size=(600, 31))
    tracemalloc.start()
    try:
        enroll("u", vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_centered_score_is_affine_in_raw():
    ref = enroll("u", np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]]))
    m, s = ref.center_m[0], ref.center_s[0]
    assert center(ref, m) == 0.0
    assert center(ref, m - 0.2 * s) == pytest.approx(-0.2, abs=1e-12)
    assert center(ref, m + 2.0 * s) == pytest.approx(2.0, abs=1e-12)
    # the kernel's centered scores are the formula's, bit for bit, and strictly
    # increasing in raw on random queries
    queries = np.random.default_rng(3).uniform(-5.0, 10.0, size=(50, 2))
    raw, centered = ref.scores(queries, 0)
    assert centered.tolist() == [center(ref, r) for r in raw.tolist()]
    assert [centered_score(ref, q) for q in queries] == centered.tolist()
    rising = np.argsort(raw)
    assert np.all(np.diff(centered[rising]) > 0) and np.all(np.diff(raw[rising]) > 0)
    assert centered_score(ref, ref.mu[0]) == center(ref, 0.0)


def test_refresh_statistics_is_idempotent():
    ref = enroll("u", np.array([[0.0, 1.0], [4.0, 3.0]]))
    mu, mad = ref.mu.copy(), ref.mad.copy()
    refresh_statistics(ref)
    assert np.array_equal(ref.mu, mu)
    assert np.array_equal(ref.mad, mad)


def test_refresh_after_appending_the_mean_shrinks_mad():
    ref = enroll("u", np.array([[0.0, 1.0], [4.0, 3.0], [2.0, 5.0]]))
    before_mu, before_mad = ref.mu.copy(), ref.mad.copy()
    assert ref.extend(0, before_mu).shape == (0, 2)
    refresh_statistics(ref)
    assert np.allclose(ref.mu, before_mu)
    assert np.all(ref.mad <= before_mad + 1e-15)
    expected_mu, expected_mad = brute_stats(list(ref.vectors()))
    assert np.allclose(ref.mu, expected_mu, atol=1e-15)
    assert np.allclose(ref.mad, expected_mad, atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    enrolled=st.integers(2, 5),
    spare=st.sampled_from([None, 0, 1, 3, 8]),
    batches=st.lists(st.integers(0, 12), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_extend_equals_a_loop_of_one_row_appends(enrolled, spare, batches, seed):
    # spare None: unbounded, so batches cross the width doubling; 0: capacity
    # equal to the enrollment size, so every update is evicted at once.
    capacity = None if spare is None else enrolled + spare
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(enrolled, 3))
    batched, looped = enroll("u", vectors, capacity=capacity), ListFifo(vectors, capacity)
    for k in batches:
        rows = rng.normal(size=(k, 3))
        evicted = batched.extend(0, rows)
        appended = [looped.append(row) for row in rows]
        expected = [vector for vector in appended if vector is not None]
        assert evicted.shape == (len(expected), 3)
        assert evicted.tobytes() == b"".join(vector.tobytes() for vector in expected)
        assert batched.vectors().tobytes() == looped.tobytes()
        assert batched.size.tolist() == [len(looped.vectors)]


def test_a_capacity_no_gallery_reaches_allocates_as_an_unbounded_gallery():
    vectors = np.array([[0.0, 0.0], [1.0, 1.0]])
    unbounded, huge = enroll("u", vectors), enroll("u", vectors, capacity=10**12)
    for first_session in (2, 5, 6, 20):
        rows = _updates(first_session, 3)
        assert len(unbounded.extend(0, rows)) == len(huge.extend(0, rows)) == 0
        assert huge.gallery.shape == unbounded.gallery.shape
        assert huge.vectors().tobytes() == unbounded.vectors().tobytes()
    assert huge.gallery.shape[1] == 20


def _updates(first, k):
    """k distinct update vectors, numbered from `first`."""
    return np.arange(first, first + k, dtype=float)[:, None] * [1.0, -1.0]


def test_a_batch_that_lands_exactly_on_the_capacity_evicts_nothing():
    ref = enroll("u", np.array([[0.0, 0.0], [1.0, 1.0]]), capacity=5)
    rows = _updates(2, 3)
    assert ref.extend(0, rows).shape == (0, 2)
    assert len(ref.vectors()) == 5
    assert ref.vectors()[2:].tobytes() == rows.tobytes()


def test_one_row_past_the_capacity_evicts_the_oldest_update():
    enrollment = np.array([[0.0, 0.0], [1.0, 1.0]])
    ref = enroll("u", enrollment, capacity=5)
    rows = _updates(2, 3)
    ref.extend(0, rows)  # the gallery sits at its capacity
    row = _updates(5, 1)
    assert ref.extend(0, row).tobytes() == rows[:1].tobytes()
    assert len(ref.vectors()) == 5
    assert ref.vectors().tobytes() == np.concatenate([enrollment, rows[1:], row]).tobytes()
    # a batch that overshoots the capacity by one from below evicts one too
    ref = enroll("u", enrollment, capacity=5)
    rows = _updates(2, 4)
    assert ref.extend(0, rows).tobytes() == rows[:1].tobytes()
    assert ref.vectors().tobytes() == np.concatenate([enrollment, rows[1:]]).tobytes()


def test_singleton_gallery_statistics_are_floored():
    lane = one_lane([[7.0, 8.0]])
    for mu, mad in (gallery_statistics(np.array([[7.0, 8.0]]), EPSILON), (lane.mu[0], lane.mad[0])):
        assert np.array_equal(mu, [7.0, 8.0])
        assert np.allclose(mad, EPSILON)
    # a gallery of one repeated vector has the singleton's statistics
    ref = enroll("u", np.array([[7.0, 8.0], [7.0, 8.0]]))
    refresh_statistics(ref)
    assert np.array_equal(ref.mu[0], [7.0, 8.0])
    assert np.allclose(ref.mad, EPSILON)
    assert ref.center_s.tolist() == [EPSILON]


def test_one_lane_enrollment_is_validated():
    with pytest.raises(EnrollmentError, match=r"shape \(0,\)"):
        enroll("u", [])
    with pytest.raises(EnrollmentError, match=r"shape \(1, 2\)"):
        enroll("u", [[1.0, 2.0]])
    with pytest.raises(ConfigError, match="capacity 1 is below the enrollment size 2"):
        enroll("u", [[1.0], [2.0]], capacity=1)
    ref = enroll("u", [[1.0], [2.0]], eps=0.5, capacity=2)
    assert (ref.eps, ref.capacity, ref.enrolled, ref.size.tolist()) == (0.5, 2, [2], [2])
    assert ref.vectors().tobytes() == np.array([[1.0], [2.0]]).tobytes()


@pytest.mark.parametrize(
    "vectors, eps, error, message",
    [
        ([[1.0], [2.0]], 0.0, ValidationError, "^eps must be finite and > 0, got 0.0$"),
        ([[1.0], [2.0]], -1.0, ValidationError, "^eps must be finite and > 0, got -1.0$"),
        ([[1.0], [2.0]], math.nan, ValidationError, "^eps must be finite and > 0, got nan$"),
        ([[1.0], [2.0]], math.inf, ValidationError, "^eps must be finite and > 0, got inf$"),
        (np.empty((3, 0)), EPSILON, EnrollmentError, r"shape \(3, 0\)"),
    ],
    ids=["eps 0", "eps -1", "eps nan", "eps inf", "zero width"],
)
def test_enrollment_checks_its_inputs_before_any_arithmetic(vectors, eps, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's divide and empty-mean warnings included
        with pytest.raises(error, match=message):
            enroll("u", vectors, eps=eps)


def test_gallery_keeps_enrollment_entries_first():
    ref = enroll("u", np.array([[2.0], [1.0]]))
    assert ref.extend(0, np.array([[3.0], [4.0]])).shape == (0, 1)
    assert ref.vectors().tobytes() == np.array([[2.0], [1.0], [3.0], [4.0]]).tobytes()
    # a FIFO gallery evicts only updates, so its enrollment entries stay first
    ref = enroll("u", np.array([[2.0], [1.0]]), capacity=2)
    assert ref.extend(0, np.array([[3.0]])).tobytes() == np.array([[3.0]]).tobytes()
    assert ref.vectors().tobytes() == np.array([[2.0], [1.0]]).tobytes()


def test_statistics_track_gallery_through_random_update_sequences():
    rng = np.random.default_rng(11)
    stream_rng = SplitMix64(99)
    ref = enroll("u", np.array(rng.normal(size=(4, 3))))
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, threshold=math.inf)
    m, s = ref.center_m.copy(), ref.center_s.copy()
    for i in range(40):
        source = "u" if stream_rng.random() < 0.5 else "v"
        label = Label.GENUINE if source == "u" else Label.IMPOSTOR
        sample = make_sample(source, 2, i, rng.normal(size=3))
        query = QueryEvent(sample, "u", label, i)
        maybe_update(ref, query, centered_score(ref, sample.features), strategy)
        expected_mu, expected_mad = brute_stats(list(ref.vectors()))
        assert np.allclose(ref.mu, expected_mu, atol=1e-12)
        assert np.allclose(ref.mad, expected_mad, atol=1e-12)
        assert raw_score(ref, ref.mu[0]) == 0.0
    # centering constants never move, bit for bit
    assert ref.center_m.tobytes() == m.tobytes() and ref.center_s.tobytes() == s.tobytes()
