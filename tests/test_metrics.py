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
    compute_scheme,
    eer,
    session_eers,
)
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


def _one_repeat(scheme):
    """The scheme's vector for a one-repeat log, as a list."""
    def vector(log):
        (row,) = compute_scheme(scheme, session_eers(log)).tolist()
        return row
    return vector


per_session_of = _one_repeat(Scheme.PER_SESSION)
cumulative_of = _one_repeat(Scheme.CUMULATIVE_MEAN)
pooled_of = _one_repeat(Scheme.POOLED)


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
    values = per_session_of(log)
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
    assert per_session_of(log) == expected


def test_per_session_eer_length_for_eight_sessions():
    scores = ([0.1, 0.2], [0.6, 0.9])
    log = _log_from_session_scores({s: scores for s in range(2, 9)})
    assert len(per_session_of(log)) == 7


def test_per_session_eer_requires_both_labels_each_session():
    records = (
        ScoreRecord(0, 2, "t", "t", Label.GENUINE, 1.0, 0.1, False),
        ScoreRecord(0, 2, "t", "x", Label.IMPOSTOR, 1.0, 0.9, False),
        ScoreRecord(0, 3, "t", "t", Label.GENUINE, 1.0, 0.1, False),
    )
    log = log_of(records, 3, Mode.ONLINE)
    with pytest.raises(MetricError, match="session 3"):
        session_eers(log)


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
    a = per_session_of(log)
    b = cumulative_of(log)
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
    assert per_session_of(log) == pytest.approx([0.1, 0.2, 0.3])
    assert cumulative_of(log) == pytest.approx([0.1, 0.15, 0.2])


def test_pooled_eer_of_single_session_equals_per_session():
    scores = ([0.1, 0.2, 0.35], [0.3, 0.4])
    log = _log_from_session_scores({2: scores})
    assert pooled_of(log) == per_session_of(log)


def test_pooled_eer_on_identical_sessions_equals_common_value():
    scores = ([0.1, 0.2, 0.3], [0.25, 0.4, 0.5])
    log = _log_from_session_scores({s: scores for s in (2, 3, 4)})
    pooled = pooled_of(log)
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
    pooled = pooled_of(log)
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
    shuffled = ScoreLog(log.users, 3, Mode.ONLINE, *log_columns(log, shuffled_rows))
    assert per_session_of(shuffled) == per_session_of(log)
    assert cumulative_of(shuffled) == cumulative_of(log)
    assert pooled_of(shuffled) == pooled_of(log)


def test_aggregate_degenerate_single_repeat():
    mean, std = aggregate([[0.1, 0.2]])
    assert tuple(mean.tolist()) == (0.1, 0.2)
    assert tuple(std.tolist()) == (0.0, 0.0)


def test_aggregate_two_repeats_mean():
    mean, _ = aggregate([[0.1, 0.3], [0.3, 0.1]])
    assert tuple(mean.tolist()) == pytest.approx((0.2, 0.2))


def test_aggregate_matches_independent_statistics():
    rng = random.Random(8)
    vectors = [[rng.random() for _ in range(5)] for _ in range(10)]
    mean_per_slot, std_per_slot = aggregate(vectors)
    for slot in range(5):
        column = [vec[slot] for vec in vectors]
        mean = sum(column) / len(column)
        std = math.sqrt(sum((v - mean) ** 2 for v in column) / len(column))
        assert mean_per_slot[slot] == pytest.approx(mean, abs=1e-12)
        assert std_per_slot[slot] == pytest.approx(std, abs=1e-12)


def test_aggregate_rejects_mismatched_slots():
    with pytest.raises(MetricError):
        aggregate([[0.1, 0.2], [0.1]])
    with pytest.raises(MetricError):
        aggregate(np.empty((0, 2)))


def _merged(*logs):
    """One log holding the rows of same-user logs, in order."""
    assert len({log.users for log in logs}) == 1
    return ScoreLog(
        logs[0].users, logs[0].num_sessions, logs[0].mode,
        *map(np.concatenate, zip(*map(log_columns, logs))),
    )


def test_session_eers_splits_repeats():
    scores_a = ([0.1, 0.2], [0.4, 0.5])
    scores_b = ([0.2, 0.3], [0.25, 0.6])
    log0 = _log_from_session_scores({2: scores_a, 3: scores_a}, repeat=0)
    log1 = _log_from_session_scores({2: scores_b, 3: scores_b}, repeat=1)
    per_session, pooled = session_eers(_merged(log0, log1))
    assert per_session.tolist() == [per_session_of(log0), per_session_of(log1)]
    assert pooled.tolist() == [pooled_of(log0)[0], pooled_of(log1)[0]]


def test_session_eers_orders_repeats_by_id_not_by_row():
    scores_a = ([0.1, 0.2], [0.4, 0.5])
    scores_b = ([0.2, 0.3], [0.25, 0.6])
    log3 = _log_from_session_scores({2: scores_a, 3: scores_b}, repeat=3)
    log1 = _log_from_session_scores({2: scores_b, 3: scores_a}, repeat=1)
    per_session, _ = session_eers(_merged(log3, log1))
    assert per_session.tolist() == [per_session_of(log1), per_session_of(log3)]


def test_session_eers_raise_for_the_first_repeat_then_session():
    # Repeat ids in ascending order whatever the row order, then sessions.
    full = _log_from_session_scores({2: ([0.1], [0.9]), 3: ([0.1], [0.9])}, repeat=1)
    cases = [
        ({2: ([0.1], [0.9]), 3: ([0.1], [])}, "session 3: no impostor scores"),
        ({2: ([], [0.9]), 3: ([0.1], [])}, "session 2: no genuine scores"),
    ]
    for scores, message in cases:
        first = _log_from_session_scores(scores, repeat=0)
        for logs in ((first, full), (full, first)):
            with pytest.raises(MetricError, match=f"^{message}$"):
                session_eers(_merged(*logs))
    broken = _log_from_session_scores({2: ([], [0.9]), 3: ([0.1], [0.9])}, repeat=2)
    with pytest.raises(MetricError, match="^session 3: no impostor scores$"):
        session_eers(_merged(broken, _log_from_session_scores(cases[0][0], repeat=0)))


def test_cumulative_mean_is_each_prefix_mean_bitwise():
    # Past 8 sessions numpy's mean sums pairwise, which a running sum would not.
    rng = random.Random(5)
    per_session = np.array([[rng.random() for _ in range(20)] for _ in range(3)])
    cumulative = compute_scheme(Scheme.CUMULATIVE_MEAN, (per_session, np.zeros(3)))
    for row, got in zip(per_session, cumulative):
        expected = [float(np.mean(row.tolist()[: i + 1])) for i in range(row.size)]
        assert got.tolist() == expected
