"""Reference verifier: a per-user gallery scored by scaled-Manhattan distance.

Scores are dissimilarities (lower = more similar). Acceptance and update
rules therefore read "score <= threshold". Each reference carries
centering constants frozen at enrollment that place scores on a scale
where 0 means "as close as a typical enrollment self-comparison" and
negative values mean closer than that, which is what makes negative
update thresholds meaningful. A reference is built only by enrolling a
user's enrollment vectors, and its gallery tags every entry it holds.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import ConfigError, EnrollmentError, ValidationError

EPSILON = 1e-6
LOO_BLOCK = 1 << 20


class Origin(str, Enum):
    ENROLLMENT = "enrollment"
    GENUINE_UPDATE = "genuine_update"
    IMPOSTOR_UPDATE = "impostor_update"


class ReferenceModel:
    """A user's adaptable biometric reference, built by enrolling the (n, d)
    matrix of the user's enrollment vectors.

    The gallery is mutated by exactly one evaluation loop at a time;
    mu / mad always mirror the current gallery, while center_m /
    center_s stay fixed at their enrollment values. The centering
    constants come from leave-one-out self-scores: each enrollment
    vector is scored against the statistics of the remaining ones;
    center_m is the mean of those scores and center_s their population
    standard deviation (floored at eps). They never change afterwards,
    so the centered scale keeps its meaning while the gallery evolves.

    The gallery's vectors live in one preallocated matrix, one row per
    entry in gallery order: enrollment entries first, then updates,
    oldest first. The gallery tags each row (origin, source_user,
    source_session) itself, at the same position in a list: enrollment
    entries (ENROLLMENT, target_user, 1), updates by `extend`. With a
    `capacity` (at least the enrollment size) the gallery is a FIFO that
    evicts only updates, and only when full; without one it grows without
    bound. The matrix starts at twice the enrollment size and doubles when
    outgrown, never past the capacity. Evicting shifts later updates up.
    """

    def __init__(
        self, target_user: str, vectors, eps: float = EPSILON, capacity: int | None = None
    ):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or len(vectors) < 2 or not vectors.shape[1]:
            raise EnrollmentError(
                f"user {target_user}: enrollment needs an (n >= 2, d) matrix,"
                f" got shape {vectors.shape}"
            )
        n = len(vectors)
        if not eps > 0:
            raise ValidationError("eps must be > 0")
        if capacity is not None and capacity < n:
            raise ConfigError(f"gallery capacity {capacity} is below the enrollment size {n}")

        # Row k of `rest` holds every enrollment vector but the k-th, in order, so the
        # axis-1 reductions give each leave-one-out gallery's statistics, the same in
        # any block of rows; one block holds about LOO_BLOCK values.
        loo_scores = np.empty(n)
        step = max(1, LOO_BLOCK // ((n - 1) * vectors.shape[1]))
        for start in range(0, n, step):
            k = np.arange(start, min(start + step, n))
            rest = vectors[np.arange(n - 1) + (np.arange(n - 1) >= k[:, None])]
            mu_loo = rest.mean(axis=1)
            mad_loo = np.maximum(np.abs(rest - mu_loo[:, None, :]).mean(axis=1), eps)
            loo_scores[k] = np.mean(np.abs(vectors[k] - mu_loo) / mad_loo, axis=1)
        self.center_m = float(np.mean(loo_scores))
        self.center_s = max(float(np.std(loo_scores)), eps)

        self.target_user = target_user
        self.eps = eps
        self.capacity = capacity
        self._matrix = np.empty((min(2 * n, capacity or math.inf), vectors.shape[1]))
        self._matrix[:n] = vectors
        self._tags = [(Origin.ENROLLMENT, target_user, 1)] * n
        self._enrolled = n
        self.mu, self.mad = gallery_statistics(vectors, eps)
        self._inv_mad = 1.0 / self.mad

    @property
    def origins(self) -> tuple[Origin, ...]:
        """Each gallery entry's origin, in gallery order."""
        return tuple(tag[0] for tag in self._tags)

    @property
    def vectors(self) -> np.ndarray:
        """(gallery size, dimension) view of the gallery's vectors, in gallery order."""
        return self._matrix[: len(self._tags)]

    @property
    def dimension(self) -> int:
        return int(self._matrix.shape[1])

    def extend(self, vectors, source_users, source_sessions, impostor) -> list[tuple]:
        """Add a (k, d) matrix of update vectors as k appends would, tagging
        each (IMPOSTOR_UPDATE or GENUINE_UPDATE, source_user, source_session)
        by its `impostor` flag: each append past `capacity` entries evicts
        the oldest update. Returns the evicted tags, oldest first; mu / mad
        are left to `refresh_statistics`."""
        tags = [
            (Origin.IMPOSTOR_UPDATE if is_impostor else Origin.GENUINE_UPDATE, user, session)
            for user, session, is_impostor in zip(source_users, source_sessions, impostor)
        ]
        first, n, rows = self._enrolled, len(self._tags), len(self._matrix)
        end, capacity = n + len(tags), self.capacity or math.inf
        if end > rows and rows < capacity:  # outgrown: double, never past the capacity
            grown = np.empty((min(max(2 * rows, end), capacity), self._matrix.shape[1]))
            grown[:n] = self._matrix[:n]
            self._matrix = grown
        if end <= capacity:  # nothing to evict: write in place
            self._matrix[n:end] = vectors
            self._tags += tags
            return []
        updates = self._tags[first:] + tags
        dropped = end - capacity
        self._matrix[first:capacity] = np.concatenate([self._matrix[first:n], vectors])[dropped:]
        self._tags[first:] = updates[dropped:]
        return updates[:dropped]


def gallery_statistics(vectors: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and mean absolute deviation, mad floored at eps."""
    mu = vectors.mean(axis=0)
    mad = np.maximum(np.abs(vectors - mu).mean(axis=0), eps)
    return mu, mad


def enroll(
    target_user: str,
    enrollment_vectors,
    *,
    eps: float = EPSILON,
    capacity: int | None = None,
) -> ReferenceModel:
    """Build a reference from the (n, d) matrix of a user's enrollment vectors;
    `capacity` is the gallery's FIFO capacity for the reference's lifetime."""
    return ReferenceModel(target_user, enrollment_vectors, eps, capacity)


def raw_score(ref: ReferenceModel, query):
    """Scaled-Manhattan dissimilarity of a query vector to the gallery mean.

    An (n, d) query matrix gives n scores, bitwise equal to scoring each row alone.
    """
    arr = np.asarray(query, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1:] != ref.mu.shape:
        raise ValidationError(
            f"query shape {arr.shape} does not end in reference dimension {ref.mu.size}"
        )
    scores = np.mean(np.abs(arr - ref.mu) * ref._inv_mad, axis=-1)
    return float(scores) if arr.ndim == 1 else scores


def center(ref: ReferenceModel, raw: float) -> float:
    """Map a raw score onto the reference's frozen centered scale."""
    return (raw - ref.center_m) / ref.center_s


def centered_score(ref: ReferenceModel, query):
    return center(ref, raw_score(ref, query))


def refresh_statistics(ref: ReferenceModel) -> ReferenceModel:
    """Recompute mu / mad from the current gallery; centering untouched."""
    ref.mu, ref.mad = gallery_statistics(ref.vectors, ref.eps)
    ref._inv_mad = 1.0 / ref.mad
    return ref
