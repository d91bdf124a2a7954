"""Equal-error-rate computation and the per-session result presentations.

Three presentations of one score log coexist: an EER per session, the
running mean of those per-session values, and a single EER over the
pooled scores (duplicated across session slots so the three can be
plotted against each other). They answer different questions and can
suggest contradictory conclusions about the same run, which is exactly
what the bench exists to expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import ScoreLog
from .errors import MetricError
from .evaluator import InclusionSnapshot


class Scheme(str, Enum):
    PER_SESSION = "per_session"
    CUMULATIVE_MEAN = "cumulative_mean"
    POOLED = "pooled"


def far_frr(genuine, impostor, threshold: float) -> tuple[float, float]:
    """False-acceptance and false-rejection rates at one threshold.

    Scores are dissimilarities, so acceptance means score <= threshold.
    """
    gen = np.asarray(list(genuine), dtype=float)
    imp = np.asarray(list(impostor), dtype=float)
    if gen.size == 0:
        raise MetricError("far_frr needs at least one genuine score")
    if imp.size == 0:
        raise MetricError("far_frr needs at least one impostor score")
    far = int(np.count_nonzero(imp <= threshold)) / imp.size
    frr = int(np.count_nonzero(gen > threshold)) / gen.size
    return far, frr


def _candidate_thresholds(scores: np.ndarray) -> np.ndarray:
    distinct = np.unique(scores)
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    inner = np.sort(np.concatenate((distinct, midpoints)))
    return np.concatenate(([-math.inf], inner, [math.inf]))


def eer(genuine, impostor) -> float:
    """Equal error rate: (far + frr) / 2 at the closest crossing.

    Candidate thresholds are every distinct score, the midpoints between
    consecutive distinct scores, and +-infinity. Among candidates the
    one minimizing |far - frr| wins; ties fall to the smaller far + frr,
    then to the smaller threshold.
    """
    gen = np.sort(np.asarray(list(genuine), dtype=float))
    imp = np.sort(np.asarray(list(impostor), dtype=float))
    if gen.size == 0:
        raise MetricError("eer needs at least one genuine score")
    if imp.size == 0:
        raise MetricError("eer needs at least one impostor score")
    candidates = _candidate_thresholds(np.concatenate((gen, imp)))
    accepted_imp = np.searchsorted(imp, candidates, side="right")
    accepted_gen = np.searchsorted(gen, candidates, side="right")
    far = accepted_imp / imp.size
    frr = (gen.size - accepted_gen) / gen.size
    gap = np.abs(far - frr)
    total = far + frr
    best = np.lexsort((candidates, total, gap))[0]
    return float((far[best] + frr[best]) / 2.0)


def _session_scores(log: ScoreLog, session: int) -> tuple[np.ndarray, np.ndarray]:
    picked = log.session == session
    genuine = log.genuine
    gen = log.centered[picked & genuine]
    imp = log.centered[picked & ~genuine]
    if not gen.size:
        raise MetricError(f"session {session}: no genuine scores")
    if not imp.size:
        raise MetricError(f"session {session}: no impostor scores")
    return gen, imp


def per_session_eer(log: ScoreLog) -> list[float]:
    """One EER per covered session, pooling all users' comparisons."""
    return [eer(*_session_scores(log, s)) for s in log.covered_sessions]


def cumulative_mean_eer(log: ScoreLog) -> list[float]:
    """Running mean of the per-session EERs up to each session."""
    per_session = per_session_eer(log)
    return [float(np.mean(per_session[: i + 1])) for i in range(len(per_session))]


def pooled_eer(log: ScoreLog) -> list[float]:
    """EER of all covered sessions' scores merged into one global set,
    duplicated once per covered session for side-by-side plotting."""
    genuine, impostor = zip(*(_session_scores(log, s) for s in log.covered_sessions))
    value = eer(np.concatenate(genuine), np.concatenate(impostor))
    return [value] * len(log.covered_sessions)


_SCHEME_FUNCTIONS = {
    Scheme.PER_SESSION: per_session_eer,
    Scheme.CUMULATIVE_MEAN: cumulative_mean_eer,
    Scheme.POOLED: pooled_eer,
}


def compute_scheme(scheme: Scheme, log: ScoreLog) -> list[float]:
    return _SCHEME_FUNCTIONS[Scheme(scheme)](log)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Per-repeat EER vectors for one scheme, with per-slot statistics."""

    scheme: Scheme
    sessions: tuple[int, ...]
    per_repeat: tuple[tuple[float, ...], ...]
    mean_per_slot: tuple[float, ...]
    std_per_slot: tuple[float, ...]

    def __post_init__(self):
        problems = []
        for row in self.per_repeat:
            if len(row) != len(self.sessions):
                problems.append("per-repeat vector length != session slot count")
                break
            if any(not 0.0 <= v <= 1.0 for v in row):
                problems.append("EER values must lie in [0, 1]")
                break
            if self.scheme is Scheme.POOLED and len(set(row)) > 1:
                problems.append("pooled scheme must repeat one value across slots")
                break
        if problems:
            raise MetricError("; ".join(problems))


def aggregate(
    scheme: Scheme,
    per_repeat: Sequence[Sequence[float]],
    sessions: Sequence[int],
) -> EvaluationReport:
    """Average per-repeat scheme vectors slot by slot.

    mean/std are the arithmetic mean and population standard deviation
    across repeats for each session slot.
    """
    vectors = [tuple(float(v) for v in row) for row in per_repeat]
    if not vectors:
        raise MetricError("aggregate needs at least one repeat")
    slots = len(sessions)
    if any(len(row) != slots for row in vectors):
        raise MetricError(
            f"aggregate: repeat vectors do not all cover {slots} session slots"
        )
    arr = np.asarray(vectors, dtype=float)
    return EvaluationReport(
        scheme=Scheme(scheme),
        sessions=tuple(int(s) for s in sessions),
        per_repeat=tuple(vectors),
        mean_per_slot=tuple(float(v) for v in arr.mean(axis=0)),
        std_per_slot=tuple(float(v) for v in arr.std(axis=0)),
    )


def report_for(scheme: Scheme, log: ScoreLog) -> EvaluationReport:
    """Compute one scheme per repeat in the log and aggregate the repeats."""
    vectors = [compute_scheme(scheme, log.for_repeat(r)) for r in log.repeat_ids]
    return aggregate(scheme, vectors, tuple(log.covered_sessions))


def inclusion_per_session(
    snapshots: Iterable[InclusionSnapshot],
) -> dict[tuple[int, int], float]:
    """Mean impostor-inclusion over target users, keyed (repeat, session)."""
    grouped: dict[tuple[int, int], list[float]] = {}
    for snap in snapshots:
        grouped.setdefault((snap.repeat_id, snap.session), []).append(snap.inclusion)
    return {
        key: float(np.mean(values))
        for key, values in sorted(grouped.items())
    }
