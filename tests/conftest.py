import bisect
import math

import numpy as np
import pytest

from tubench import Dataset, Label, Sample, ScoreLog

LOG_COLUMNS = ("repeat", "session", "target", "source", "raw", "centered", "applied")


def fast_oracle_eer(genuine, impostor):
    """Independent exhaustive-threshold EER oracle.

    Enumerates every candidate threshold (distinct scores, midpoints of
    consecutive distinct scores, +-infinity) and counts error rates with
    bisection over sorted copies; selection mirrors the documented
    tie-breaking: smallest |far - frr|, then far + frr, then threshold.
    """
    gen = sorted(genuine)
    imp = sorted(impostor)
    distinct = sorted(set(gen) | set(imp))
    candidates = [-math.inf]
    for i, value in enumerate(distinct):
        candidates.append(value)
        if i + 1 < len(distinct):
            candidates.append((value + distinct[i + 1]) / 2.0)
    candidates.append(math.inf)
    best_key = None
    best_eer = None
    for threshold in candidates:
        far = bisect.bisect_right(imp, threshold) / len(imp)
        frr = (len(gen) - bisect.bisect_right(gen, threshold)) / len(gen)
        key = (abs(far - frr), far + frr, threshold)
        if best_key is None or key < best_key:
            best_key = key
            best_eer = (far + frr) / 2.0
    return best_eer


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p-value for paired wins against losses.

    Ties are left out by the caller. Under the null hypothesis each
    untied pair is a fair coin, so p is twice the smaller tail of
    Binomial(wins + losses, 1/2), capped at 1; no pairs gives 1.
    """
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def make_sample(user, session, order, feats):
    return Sample(user, session, order, np.asarray(feats, dtype=float))


def sample_columns(samples, width):
    """The user_id, session, order_index columns and the (N, width) feature
    matrix of sample-shaped records."""
    samples = list(samples)
    return (
        [s.user_id for s in samples],
        [s.session for s in samples],
        [s.order_index for s in samples],
        np.array([s.features for s in samples], dtype=float).reshape(len(samples), width),
    )


def dataset_of(dimension, num_sessions, samples):
    """`Dataset.from_columns` over the columns of sample-shaped records."""
    return Dataset.from_columns(dimension, num_sessions, *sample_columns(samples, dimension))


def log_of(records, num_sessions, mode):
    """`ScoreLog.from_columns` over the columns of `ScoreRecord` objects, with
    the users sorted by str."""
    records = tuple(records)
    users = sorted({r.target_user for r in records} | {r.source_user for r in records}, key=str)
    position = {user: i for i, user in enumerate(users)}
    return ScoreLog.from_columns(
        users,
        num_sessions,
        mode,
        [r.repeat_id for r in records],
        [r.session for r in records],
        [position[r.target_user] for r in records],
        [position[r.source_user] for r in records],
        [r.raw_score for r in records],
        [r.centered_score for r in records],
        [r.update_applied for r in records],
    )


def log_columns(log, rows=slice(None)):
    """The log's columns in `ScoreLog.from_columns` order, at `rows`."""
    return [getattr(log, name)[rows] for name in LOG_COLUMNS]


def log_rows(log):
    """Each row of a score log, read from its columns, in `ScoreRecord`
    field order: repeat, session, target and source user, label, raw and
    centered score, and whether it was applied."""
    users = log.users
    return [
        (repeat, session, users[target], users[source],
         Label.GENUINE if target == source else Label.IMPOSTOR, raw, centered, applied)
        for repeat, session, target, source, raw, centered, applied in zip(
            *(column.tolist() for column in log_columns(log))
        )
    ]


def two_user_1d_dataset():
    """Two symmetric 1-d users over 3 sessions, small enough to trace by hand.

    Per user: three enrollment values spaced by 2, then one sample in
    each of sessions 2 and 3 near the enrollment mean.
    """
    samples = []
    for user, offset in (("A", 0.0), ("B", 10.0)):
        for order, value in enumerate((0.0, 2.0, 4.0)):
            samples.append(make_sample(user, 1, order, [offset + value]))
        samples.append(make_sample(user, 2, 3, [offset + 2.2]))
        samples.append(make_sample(user, 3, 4, [offset + 2.6]))
    return dataset_of(1, 3, samples)


@pytest.fixture
def trace_dataset():
    return two_user_1d_dataset()
