import math
import random

import numpy as np
import pytest

from tubench import (
    Label,
    MetricError,
    Mode,
    Scheme,
    ScoreLog,
    ScoreRecord,
    aggregate,
    cumulative_mean_eer,
    eer,
    far_frr,
    inclusion_per_session,
    per_session_eer,
    pooled_eer,
    report_for,
)
from tubench.evaluator import InclusionSnapshot
from conftest import log_columns, log_of


def oracle_eer(genuine, impostor):
    """Exhaustive-threshold brute force, coded independently of the library.

    Candidates are every distinct score, midpoints between consecutive
    distinct scores, and +-infinity; acceptance is score <= threshold.
    """
    distinct = sorted(set(genuine) | set(impostor))
    candidates = [-math.inf]
    for i, value in enumerate(distinct):
        candidates.append(value)
        if i + 1 < len(distinct):
            candidates.append((value + distinct[i + 1]) / 2.0)
    candidates.append(math.inf)
    best = None
    for threshold in candidates:
        far = sum(1 for s in impostor if s <= threshold) / len(impostor)
        frr = sum(1 for s in genuine if s > threshold) / len(genuine)
        key = (abs(far - frr), far + frr, threshold)
        if best is None or key < best[0]:
            best = (key, (far + frr) / 2.0)
    return best[1]


def test_far_frr_boundaries():
    genuine, impostor = [0.1, 0.2, 0.3], [0.25, 0.4, 0.5]
    assert far_frr(genuine, impostor, -1.0) == (0.0, 1.0)
    assert far_frr(genuine, impostor, 9.0) == (1.0, 0.0)


def test_far_frr_hand_counted():
    far, frr = far_frr([0.1, 0.2, 0.3], [0.25, 0.4, 0.5], 0.275)
    assert far == pytest.approx(1 / 3)
    assert frr == pytest.approx(1 / 3)


def test_far_frr_rejects_empty_sides():
    with pytest.raises(MetricError):
        far_frr([], [1.0], 0.5)
    with pytest.raises(MetricError):
        far_frr([1.0], [], 0.5)


def test_eer_perfect_separation():
    assert eer([0.1, 0.2], [0.8, 0.9]) == 0.0


def test_eer_indistinguishable_distributions():
    assert eer([0.5], [0.5]) == 0.5


def test_eer_hand_example():
    assert eer([0.1, 0.2, 0.3], [0.25, 0.4, 0.5]) == pytest.approx(1 / 3)


def test_eer_matches_oracle_on_random_instances():
    rng = random.Random(12345)
    for _ in range(300):
        n_g = rng.randint(2, 40)
        n_i = rng.randint(2, 40)
        scale = 10.0 ** rng.randint(-2, 2)
        genuine = [rng.gauss(0.0, 1.0) * scale for _ in range(n_g)]
        impostor = [rng.gauss(rng.uniform(0.0, 2.0), 1.0) * scale for _ in range(n_i)]
        if rng.random() < 0.3:  # force ties between the two sides
            impostor[0] = genuine[0]
        assert eer(genuine, impostor) == oracle_eer(genuine, impostor)


def test_eer_is_rank_invariant():
    rng = random.Random(7)
    transforms = [
        lambda x: 3.0 * x + 1.0,
        lambda x: x**3,
        lambda x: math.atan(x),
        lambda x: math.exp(x / 4.0),
    ]
    for _ in range(50):
        genuine = [rng.gauss(0, 1) for _ in range(rng.randint(2, 20))]
        impostor = [rng.gauss(1, 1) for _ in range(rng.randint(2, 20))]
        base = eer(genuine, impostor)
        for fn in transforms:
            assert eer([fn(x) for x in genuine], [fn(x) for x in impostor]) == base


def _log_from_session_scores(per_session, mode=Mode.ONLINE, repeat=0):
    """Build a log from {session: (genuine scores, impostor scores)}."""
    records = []
    for session in sorted(per_session):
        genuine, impostor = per_session[session]
        for value in genuine:
            records.append(
                ScoreRecord(repeat, session, "t", "t", Label.GENUINE, 1.0, value, False)
            )
        for value in impostor:
            records.append(
                ScoreRecord(repeat, session, "t", "x", Label.IMPOSTOR, 1.0, value, False)
            )
    num_sessions = max(per_session)
    return log_of(tuple(records), num_sessions, mode)


def test_per_session_eer_is_constant_on_identical_sessions():
    scores = ([0.1, 0.2, 0.3], [0.25, 0.4, 0.5])
    log = _log_from_session_scores({2: scores, 3: scores, 4: scores})
    values = per_session_eer(log)
    assert values == [values[0]] * 3
    assert values[0] == pytest.approx(1 / 3)


def test_per_session_eer_matches_independent_per_session_oracle():
    rng = random.Random(99)
    per_session = {
        s: (
            [rng.gauss(0, 1) for _ in range(12)],
            [rng.gauss(1.5, 1) for _ in range(8)],
        )
        for s in (2, 3, 4)
    }
    log = _log_from_session_scores(per_session)
    expected = [oracle_eer(*per_session[s]) for s in (2, 3, 4)]
    assert per_session_eer(log) == expected


def test_per_session_eer_length_for_eight_sessions():
    scores = ([0.1, 0.2], [0.6, 0.9])
    log = _log_from_session_scores({s: scores for s in range(2, 9)})
    assert len(per_session_eer(log)) == 7


def test_per_session_eer_requires_both_labels_each_session():
    records = (
        ScoreRecord(0, 2, "t", "t", Label.GENUINE, 1.0, 0.1, False),
        ScoreRecord(0, 2, "t", "x", Label.IMPOSTOR, 1.0, 0.9, False),
        ScoreRecord(0, 3, "t", "t", Label.GENUINE, 1.0, 0.1, False),
    )
    log = log_of(records, 3, Mode.ONLINE)
    with pytest.raises(MetricError, match="session 3"):
        per_session_eer(log)


def test_cumulative_mean_is_prefix_mean():
    rng = random.Random(4)
    per_session = {
        s: (
            [rng.gauss(0, 1) for _ in range(10)],
            [rng.gauss(1, 1) for _ in range(10)],
        )
        for s in range(2, 8)
    }
    log = _log_from_session_scores(per_session)
    a = per_session_eer(log)
    b = cumulative_mean_eer(log)
    assert b[0] == a[0]
    for i in range(len(a)):
        assert abs(b[i] - sum(a[: i + 1]) / (i + 1)) < 1e-12
    assert max(b) - min(b) <= max(a) - min(a) + 1e-15


def test_cumulative_mean_arithmetic_example():
    # per-session values 0.10 / 0.20 / 0.30 -> running means 0.10 / 0.15 / 0.20
    per_session = {
        2: ([0.1, 0.3], [0.2, 0.9]),        # EER 0.25... constructed below instead
    }
    # build sessions whose EERs are exactly 0.1, 0.2, 0.3 via score sets
    # with known crossings: k of 10 genuine above t and k of 10 impostor below.
    def session_with_eer(k):
        genuine = [0.0] * (10 - k) + [2.0] * k
        impostor = [0.0] * k + [2.0] * (10 - k)
        return genuine, impostor

    log = _log_from_session_scores({2: session_with_eer(1), 3: session_with_eer(2), 4: session_with_eer(3)})
    assert per_session_eer(log) == pytest.approx([0.1, 0.2, 0.3])
    assert cumulative_mean_eer(log) == pytest.approx([0.1, 0.15, 0.2])


def test_pooled_eer_of_single_session_equals_per_session():
    scores = ([0.1, 0.2, 0.35], [0.3, 0.4])
    log = _log_from_session_scores({2: scores})
    assert pooled_eer(log) == per_session_eer(log)


def test_pooled_eer_on_identical_sessions_equals_common_value():
    scores = ([0.1, 0.2, 0.3], [0.25, 0.4, 0.5])
    log = _log_from_session_scores({s: scores for s in (2, 3, 4)})
    pooled = pooled_eer(log)
    assert pooled == [pytest.approx(1 / 3)] * 3


def test_pooled_eer_matches_pooled_oracle_and_duplicates():
    rng = random.Random(15)
    per_session = {
        s: (
            [rng.gauss(0, 1) for _ in range(9)],
            [rng.gauss(1, 1) for _ in range(7)],
        )
        for s in (2, 3, 4)
    }
    log = _log_from_session_scores(per_session)
    genuine = [v for s in (2, 3, 4) for v in per_session[s][0]]
    impostor = [v for s in (2, 3, 4) for v in per_session[s][1]]
    pooled = pooled_eer(log)
    assert len(pooled) == 3
    assert len(set(pooled)) == 1
    assert pooled[0] == oracle_eer(genuine, impostor)


def test_schemes_are_order_invariant_within_sessions():
    rng = random.Random(31)
    per_session = {
        s: (
            [rng.gauss(0, 1) for _ in range(8)],
            [rng.gauss(1, 1) for _ in range(8)],
        )
        for s in (2, 3)
    }
    log = _log_from_session_scores(per_session)
    shuffled_rows = []
    for session in (2, 3):
        chunk = np.flatnonzero(log.session == session).tolist()
        rng.shuffle(chunk)
        shuffled_rows.extend(chunk)
    shuffled = ScoreLog.from_columns(log.users, 3, Mode.ONLINE, *log_columns(log, shuffled_rows))
    assert per_session_eer(shuffled) == per_session_eer(log)
    assert cumulative_mean_eer(shuffled) == cumulative_mean_eer(log)
    assert pooled_eer(shuffled) == pooled_eer(log)


def test_aggregate_degenerate_single_repeat():
    report = aggregate(Scheme.PER_SESSION, [[0.1, 0.2]], [2, 3])
    assert report.mean_per_slot == (0.1, 0.2)
    assert report.std_per_slot == (0.0, 0.0)


def test_aggregate_two_repeats_mean():
    report = aggregate(Scheme.PER_SESSION, [[0.1, 0.3], [0.3, 0.1]], [2, 3])
    assert report.mean_per_slot == pytest.approx((0.2, 0.2))


def test_aggregate_matches_independent_statistics():
    rng = random.Random(8)
    vectors = [[rng.random() for _ in range(5)] for _ in range(10)]
    report = aggregate(Scheme.PER_SESSION, vectors, [2, 3, 4, 5, 6])
    for slot in range(5):
        column = [vec[slot] for vec in vectors]
        mean = sum(column) / len(column)
        std = math.sqrt(sum((v - mean) ** 2 for v in column) / len(column))
        assert report.mean_per_slot[slot] == pytest.approx(mean, abs=1e-12)
        assert report.std_per_slot[slot] == pytest.approx(std, abs=1e-12)


def test_aggregate_rejects_mismatched_slots():
    with pytest.raises(MetricError):
        aggregate(Scheme.PER_SESSION, [[0.1, 0.2], [0.1]], [2, 3])


def test_report_for_splits_repeats():
    scores_a = ([0.1, 0.2], [0.4, 0.5])
    scores_b = ([0.2, 0.3], [0.25, 0.6])
    log0 = _log_from_session_scores({2: scores_a, 3: scores_a}, repeat=0)
    log1 = _log_from_session_scores({2: scores_b, 3: scores_b}, repeat=1)
    assert log0.users == log1.users
    merged = ScoreLog.from_columns(
        log0.users, 3, Mode.ONLINE,
        *map(np.concatenate, zip(log_columns(log0), log_columns(log1))),
    )
    report = report_for(Scheme.PER_SESSION, merged)
    assert report.per_repeat == (
        tuple(per_session_eer(log0)),
        tuple(per_session_eer(log1)),
    )


def test_inclusion_per_session_means_over_users():
    snapshots = [
        InclusionSnapshot(0, "a", 2, 0.0),
        InclusionSnapshot(0, "b", 2, 0.5),
        InclusionSnapshot(0, "a", 3, 0.25),
        InclusionSnapshot(0, "b", 3, 0.25),
    ]
    result = inclusion_per_session(snapshots)
    assert result == {(0, 2): 0.25, (0, 3): 0.25}


def test_inclusion_vector_shapes_for_scripted_story():
    # one impostor lands in session 3 of 4 and stays: zero, zero, then a
    # positive constant (the gallery only grows afterwards).
    snapshots = [
        InclusionSnapshot(0, "a", 2, 0.0),
        InclusionSnapshot(0, "a", 3, 1 / 5),
        InclusionSnapshot(0, "a", 4, 1 / 5),
    ]
    values = [inclusion_per_session(snapshots)[(0, s)] for s in (2, 3, 4)]
    assert values[0] == 0.0
    assert values[1] == values[2] == pytest.approx(0.2)
