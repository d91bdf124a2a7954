import bisect
import math
import os
from pathlib import Path

import numpy as np
import pytest

from tubench import (
    Dataset, Label, LocalOrder, Sample, ScoreLog, centered_score, ingest, plan_session,
    session_layouts, synthdata,
)

LOG_COLUMNS = ("repeat", "session", "target", "source", "raw", "centered", "applied")
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def finalize64(z):
    """SplitMix64's output mix of one 64-bit state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mix64(*parts):
    """Hash any number of integers into one 64-bit seed, one part at a
    time: the scalar oracle of `rng.block_mix64`. Order-sensitive, so
    mix64(a, b) != mix64(b, a) in general."""
    acc = 0
    for part in parts:
        acc = finalize64((acc + GAMMA + (part & MASK64)) & MASK64)
    return acc


class SplitMix64:
    """A seeded stream of 64-bit words, drawn one at a time, with uniform,
    integer and shuffle helpers. The scalar oracle of `rng.block_randbelow`,
    of `rng.block_normals` (through `random`) and of `stream._shuffle`,
    and the tests' own scalar RNG. It shares no code with `tubench.rng`."""

    def __init__(self, seed):
        self._state = seed & MASK64

    def next_u64(self):
        self._state = (self._state + GAMMA) & MASK64
        return finalize64(self._state)

    def random(self):
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n):
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        # Rejection sampling over the largest multiple of n below 2**64.
        limit = (MASK64 + 1) - ((MASK64 + 1) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


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


def gallery_statistics(vectors, eps):
    """One gallery's per-dimension mean and mean absolute deviation, mad
    floored at eps: the single-reference refresh that
    `ReferenceLanes.refresh` must equal bit for bit."""
    n = len(vectors)
    mu = np.add.reduce(vectors, axis=0) / n
    mad = np.maximum(np.add.reduce(np.abs(vectors - mu), axis=0) / n, eps)
    return mu, mad


def single_raw_score(query, mu, mad):
    """The single-reference raw score of a (d,) query or an (m, d) matrix
    against statistics (mu, mad): what `ReferenceLanes.scores` must equal
    bit for bit."""
    return np.add.reduce(np.abs(query - mu) * (1.0 / mad), axis=-1) / mu.size


def center(ref, raw):
    """A raw score on a one-lane reference's frozen centered scale, by the
    formula `ReferenceLanes.scores` applies, restated."""
    return (raw - ref.center_m[0]) / ref.center_s[0]


class ListFifo:
    """A gallery as a list of vectors: its enrollment, then its updates,
    oldest first. With a capacity, an append past it pops the oldest update."""

    def __init__(self, enrollment, capacity=None):
        self.vectors = list(enrollment)
        self.enrolled, self.capacity = len(self.vectors), capacity

    def append(self, vector):
        """Append one vector; return the evicted update, or None."""
        self.vectors.append(vector)
        if self.capacity is not None and len(self.vectors) > self.capacity:
            return self.vectors.pop(self.enrolled)
        return None

    def tobytes(self):
        return b"".join(np.asarray(vector, dtype=float).tobytes() for vector in self.vectors)


class MaskedPool:
    """A closest-* stream's impostor pool kept as state: an alive mask over
    the layout's candidates and the current impostor (a `dataset.users`
    position), both moved by `commit`. `plan` ranks the pool with two
    stable argsorts. The oracle of `stream.plan_rows`, which reads the
    pool off the presented rows instead."""

    def __init__(self, layout):
        start, stop = layout.edges[layout.run : layout.run + 2]
        self.layout, self.cursor, self.current = layout, 0, None
        self.alive = np.ones(layout.candidates.size, dtype=bool)
        self.alive[start:stop] = False

    def commit(self, rows, impostor, count):
        """Mark the positions before `count` of the planned `rows` as
        presented: their impostors leave the pool."""
        presented = rows[self.cursor : count][impostor[self.cursor : count]]
        if presented.size:
            self.alive[np.searchsorted(self.layout.candidates, presented)] = False
            self.current = int(self.layout.dataset.row_user[presented[-1]])
        self.cursor = count

    def plan(self, rows, impostor, lanes, lane):
        """Choose the impostor rows of `rows` from the cursor on against
        lane `lane`, in place; returns that view of `rows`."""
        layout = self.layout
        ahead, slots = rows[self.cursor :], impostor[self.cursor :]
        count = int(np.count_nonzero(slots))
        if count:
            live = layout.candidates[self.alive]
            scores = centered_score(lanes, layout.dataset.feature_matrix[live], lane)
            ranked = live[np.argsort(scores, kind="stable")]
            if layout.config.local_order is LocalOrder.CLOSEST_IMPOSTOR:
                # Users in the ranking of their first-ranked row, current first.
                row_user = layout.dataset.row_user
                owners = row_user[ranked]
                firsts = np.unique(owners, return_index=True)[1]
                rank = np.empty(len(layout.dataset.users), dtype=np.intp)
                rank[owners[np.sort(firsts)]] = np.arange(firsts.size)
                if self.current is not None:
                    rank[self.current] = -1
                ranked = live[np.argsort(rank[row_user[live]], kind="stable")]
            ahead[slots] = ranked[:count]
        return ahead


def make_sample(user, session, order, feats):
    return Sample(user, session, order, np.asarray(feats, dtype=float))


def sample_columns(samples, width=-1):
    """The user_id, session, order_index columns and the (N, width) feature
    matrix of sample-shaped records; `width` is needed only when N is 0."""
    samples = list(samples)
    return (
        [s.user_id for s in samples],
        [s.session for s in samples],
        [s.order_index for s in samples],
        np.array([s.features for s in samples], dtype=float).reshape(len(samples), width),
    )


def dataset_of(samples):
    """`Dataset.from_columns` over the columns of sample-shaped records."""
    return Dataset.from_columns(*sample_columns(samples))


def planned(dataset, user, session, config, seed):
    """`plan_session` of one (user, session) under the stream `config`, its
    indices drawn one at a time from the scalar `SplitMix64(seed)` stream,
    as a run draws them from the stream seeded ``mix64(base_seed, repeat,
    user_index, session)``."""
    (layout,) = session_layouts(dataset, config, [(user, session)])
    rng = SplitMix64(seed)
    return plan_session(layout, [rng.randbelow(n) for n in layout.bounds])


def log_of(records, num_sessions, mode):
    """`ScoreLog(...)` over the columns of `ScoreRecord` objects, with
    the users sorted by str."""
    records = tuple(records)
    users = sorted({r.target_user for r in records} | {r.source_user for r in records}, key=str)
    position = {user: i for i, user in enumerate(users)}
    return ScoreLog(
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
    """The log's columns in `ScoreLog` order, at `rows`."""
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
    return dataset_of(samples)


@pytest.fixture
def trace_dataset():
    return two_user_1d_dataset()


@pytest.fixture
def forks(monkeypatch):
    """Sends every line-formatted output, of any length and on any CPU
    count, through the forked writer; the list grows by one per fork."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(ingest, "SPLIT_MIN_LINES", 0)
    monkeypatch.setattr(ingest, "_two_cores", lambda: True)
    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def in_process(work):
    """Run `work()` with every output formatted, every dataset file read and
    every dataset drawn in this process only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "SPLIT_MIN_LINES", math.inf)
        patch.setattr(ingest, "SPLIT_MIN_BYTES", math.inf)
        patch.setattr(synthdata, "SPLIT_MIN_VALUES", math.inf)
        work()


def assert_reaped_and_clean(directory):
    """No child process is left to reap and no part file under `directory`."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(Path(directory).rglob("*.part"))


def altered_child(split_work, alter):
    """`split_work` whose forked child sends `alter(sent)` where its share
    would send the bytes `sent`; the share done in this process is left
    as it is."""
    parent = os.getpid()

    def split(here, there, *into):
        def share():
            if os.getpid() == parent:
                return there()
            return alter(there().tobytes())

        return split_work(here, share, *into)

    return split
