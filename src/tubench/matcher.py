"""Reference verifier: a per-user gallery scored by scaled-Manhattan distance.

Scores are dissimilarities (lower = more similar). Acceptance and update
rules therefore read "score <= threshold". Each reference carries
centering constants frozen at enrollment that place scores on a scale
where 0 means "as close as a typical enrollment self-comparison" and
negative values mean closer than that, which is what makes negative
update thresholds meaningful.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ConfigError, EnrollmentError, ValidationError

EPSILON = 1e-6


class Origin(str, Enum):
    ENROLLMENT = "enrollment"
    GENUINE_UPDATE = "genuine_update"
    IMPOSTOR_UPDATE = "impostor_update"


class ReferenceModel:
    """A user's adaptable biometric reference.

    The gallery is mutated by exactly one evaluation loop at a time;
    mu / mad always mirror the current gallery, while center_m /
    center_s stay fixed at their enrollment values.

    The gallery's vectors live in one preallocated matrix, one row per
    entry in gallery order: enrollment entries first, then updates,
    oldest first; each row's (origin, source_user, source_session) tag
    sits at the same position in a list. With a `capacity` (at least the
    enrollment size) the gallery is a FIFO that evicts only updates, and
    the matrix has capacity rows; without one it grows without bound,
    and the matrix doubles when outgrown. Evicting the oldest updates
    shifts the later update rows up.
    """

    def __init__(
        self,
        target_user: str,
        vectors,
        tags,
        mu: np.ndarray,
        mad: np.ndarray,
        center_m: float,
        center_s: float,
        eps: float = EPSILON,
        capacity: int | None = None,
    ):
        self.target_user = target_user
        self.mu = mu
        self.mad = mad
        self.center_m = center_m
        self.center_s = center_s
        self.eps = eps
        self.capacity = capacity
        vectors = np.asarray(vectors, dtype=float)
        tags = list(tags)
        enrolled = sum(1 for tag in tags if tag[0] is Origin.ENROLLMENT)
        problems = []
        if vectors.ndim != 2 or not vectors.size:
            problems.append(f"reference for {target_user}: gallery must be a non-empty matrix")
        else:
            dim = vectors.shape[1]
            if len(tags) != len(vectors):
                problems.append(f"reference for {target_user}: one tag per gallery vector")
            if mu.shape != (dim,) or mad.shape != (dim,):
                problems.append(f"reference for {target_user}: statistics shape mismatch")
            if any(tag[0] is not Origin.ENROLLMENT for tag in tags[:enrolled]):
                problems.append(f"reference for {target_user}: enrollment entries must come first")
        if eps <= 0:
            problems.append("eps must be > 0")
        elif vectors.size and not np.all(mad >= eps):
            problems.append("mad entries must be floored at eps")
        if center_s < eps:
            problems.append("center_s must be floored at eps")
        if problems:
            raise ValidationError(problems)
        if capacity is not None and capacity < len(tags):
            raise ConfigError(
                f"gallery capacity {capacity} is below the enrollment size {len(tags)}"
            )
        self._matrix = np.empty((2 * len(tags) if capacity is None else capacity, dim))
        self._matrix[: len(tags)] = vectors
        self._tags = tags
        self._enrolled = enrolled
        self._inv_mad = 1.0 / mad

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

    def extend(self, vectors, tags) -> list[tuple]:
        """Add a (k, d) matrix of update vectors with their (origin, source_user,
        source_session) tags as k appends would: each append past `capacity`
        entries evicts the oldest update. Returns the evicted tags, oldest
        first; mu / mad are left to `refresh_statistics`."""
        if any(tag[0] is Origin.ENROLLMENT for tag in tags):
            raise ValidationError("enrollment entries cannot be appended to a gallery")
        first, n, capacity = self._enrolled, len(self._tags), self.capacity
        end = n + len(tags)
        if capacity is None and end > len(self._matrix):  # an unbounded gallery grows
            grown = np.empty((max(2 * len(self._matrix), end), self._matrix.shape[1]))
            grown[:n] = self._matrix[:n]
            self._matrix = grown
        if capacity is None or end <= capacity:  # nothing to evict: write in place
            self._matrix[n:end] = vectors
            self._tags += tags
            return []
        updates = self._tags[first:] + list(tags)
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
    """Build a reference from the (n, d) matrix of a user's enrollment vectors.

    Every entry is tagged (ENROLLMENT, target_user, 1). The centering
    constants come from leave-one-out self-scores: each enrollment
    vector is scored against the statistics of the remaining ones;
    center_m is the mean of those scores and center_s their population
    standard deviation (floored at eps). They never change afterwards,
    so the centered scale keeps its meaning while the gallery evolves.
    `capacity` is the gallery's FIFO capacity for the reference's lifetime.
    """
    vectors = np.asarray(enrollment_vectors, dtype=float)
    n = len(vectors)
    if vectors.ndim != 2 or n < 2:
        raise EnrollmentError(
            f"user {target_user}: enrollment needs an (n >= 2, d) matrix, got shape {vectors.shape}"
        )

    # Row k of `rest` holds every enrollment vector but the k-th, in order,
    # so the axis-1 reductions give each leave-one-out gallery's statistics.
    others = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    rest = vectors[others]
    mu_loo = rest.mean(axis=1)
    mad_loo = np.maximum(np.abs(rest - mu_loo[:, None, :]).mean(axis=1), eps)
    loo_scores = np.mean(np.abs(vectors - mu_loo) / mad_loo, axis=1)
    center_m = float(np.mean(loo_scores))
    center_s = max(float(np.std(loo_scores)), eps)

    mu, mad = gallery_statistics(vectors, eps)
    return ReferenceModel(
        target_user=target_user,
        vectors=vectors,
        tags=[(Origin.ENROLLMENT, target_user, 1)] * n,
        mu=mu,
        mad=mad,
        center_m=center_m,
        center_s=center_s,
        eps=eps,
        capacity=capacity,
    )


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
