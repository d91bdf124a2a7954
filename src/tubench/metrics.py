"""Equal-error-rate computation and the per-session result presentations.

Three presentations of one score log coexist: an EER per session, the
running mean of those per-session values, and a single EER over the
pooled scores (duplicated across session slots so the three can be
plotted against each other). They answer different questions and can
suggest contradictory conclusions about the same run, which is exactly
what the bench exists to expose.

`session_eers` computes each EER of a log once, per (repeat, session) and
pooled per repeat; `compute_scheme` reads one presentation's (repeats,
sessions) matrix off them, and `aggregate` its per-slot mean and spread.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import ScoreLog
from .errors import MetricError


class Scheme(str, Enum):
    PER_SESSION = "per_session"
    CUMULATIVE_MEAN = "cumulative_mean"
    POOLED = "pooled"


def eer(genuine, impostor) -> float:
    """Equal error rate: (far + frr) / 2 at the closest crossing.

    The candidate thresholds are the distinct scores: the one minimizing
    |far - frr| wins, ties falling to the smaller far + frr. Any other
    threshold gives the (far, frr) of the largest distinct score at or
    below it, or (0, 1) below every score, which wins only where every gap
    is 1 and so every EER is 0.5. Equal gaps and totals give equal EERs.
    """
    gen = np.sort(np.asarray(genuine, dtype=float))
    imp = np.sort(np.asarray(impostor, dtype=float))
    if gen.size == 0:
        raise MetricError("eer needs at least one genuine score")
    if imp.size == 0:
        raise MetricError("eer needs at least one impostor score")
    thresholds = np.unique(np.concatenate((gen, imp)))
    far = np.searchsorted(imp, thresholds, side="right") / imp.size
    frr = (gen.size - np.searchsorted(gen, thresholds, side="right")) / gen.size
    best = np.lexsort((far + frr, np.abs(far - frr)))[0]
    return float((far[best] + frr[best]) / 2.0)


def session_eers(log: ScoreLog) -> tuple[np.ndarray, np.ndarray]:
    """A (repeats, covered sessions) matrix of per-session EERs, each over
    all users' comparisons of one (repeat, session), and each repeat's
    pooled EER over all its sessions; repeats in ascending id order. The
    first (repeat, session) without genuine or impostor scores raises."""
    repeats, repeat_pos = np.unique(log.repeat, return_inverse=True)
    sessions = log.covered_sessions
    shape = (len(repeats), len(sessions), 2)
    # Group k = (repeat, session, label) in row-major order of `shape`, genuine first.
    group = (repeat_pos * len(sessions) + log.session - sessions.start) * 2 + ~log.genuine
    counts = np.bincount(group, minlength=math.prod(shape))
    empty = np.argwhere(counts.reshape(shape) == 0)  # in row-major order
    if empty.size:
        _, s, side = empty[0].tolist()
        raise MetricError(f"session {sessions[s]}: no {'impostor' if side else 'genuine'} scores")
    parts = np.split(log.centered[np.argsort(group, kind="stable")], np.cumsum(counts)[:-1])
    per_session = [eer(gen, imp) for gen, imp in zip(parts[::2], parts[1::2])]
    step = 2 * len(sessions)  # one repeat's parts
    pooled = [
        eer(np.concatenate(parts[k : k + step : 2]), np.concatenate(parts[k + 1 : k + step : 2]))
        for k in range(0, len(parts), step)
    ]
    return np.reshape(per_session, shape[:2]), np.array(pooled)


def compute_scheme(scheme: Scheme, eers: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One scheme's (repeats, sessions) matrix from what `session_eers` returns.

    The cumulative mean takes each prefix's mean on its own (a running sum
    could differ in the last bit); the pooled value repeats across slots.
    """
    per_session, pooled = eers
    scheme = Scheme(scheme)
    if scheme is Scheme.PER_SESSION:
        return per_session
    if scheme is Scheme.CUMULATIVE_MEAN:
        return np.array([[np.mean(row[: i + 1]) for i in range(row.size)] for row in per_session])
    return np.repeat(pooled[:, None], per_session.shape[1], axis=1)


def sign_test_p(wins: int, losses: int) -> float:
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


def aggregate(per_repeat) -> tuple[np.ndarray, np.ndarray]:
    """The arithmetic mean and population standard deviation across repeats
    of a (repeats, sessions) matrix, per session slot."""
    try:
        matrix = np.asarray(per_repeat, dtype=float)
    except ValueError:  # ragged rows
        matrix = np.empty(0)
    if matrix.ndim != 2 or not matrix.shape[0]:
        raise MetricError("aggregate needs a (repeats, sessions) matrix of at least one repeat")
    return matrix.mean(axis=0), matrix.std(axis=0)
