"""Reference verifier: a per-user gallery scored by scaled-Manhattan distance.

Scores are dissimilarities (lower = more similar). Acceptance and update
rules therefore read "score <= threshold". Each reference carries
centering constants frozen at enrollment that place scores on a scale
where 0 means "as close as a typical enrollment self-comparison" and
negative values mean closer than that, which is what makes negative
update thresholds meaningful. A reference is built only by enrolling a
user's enrollment vectors. Its gallery holds vectors only: which query
each update came from is recorded by the run (`RunResult.updates`).

Every kernel averages as `np.add.reduce(x, axis) / count`. For float64
input that is exactly what `np.mean` computes, a sum reduction and then
one true division by the count, without its Python wrapper.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, EnrollmentError, ValidationError

EPSILON = 1e-6
LOO_BLOCK = 1 << 20


class ReferenceModel:
    """A user's adaptable biometric reference, built by enrolling the (n, d)
    matrix of the user's enrollment vectors.

    A run enrolls each user once and presents each repeat to the lanes of a
    `ReferenceLanes` built from the references, which stay unchanged;
    mu / mad always mirror the current gallery, while center_m /
    center_s stay fixed at their enrollment values. The centering
    constants come from leave-one-out self-scores: each enrollment
    vector is scored against the statistics of the remaining ones;
    center_m is the mean of those scores and center_s their population
    standard deviation (floored at eps). They never change afterwards,
    so the centered scale keeps its meaning while the gallery evolves.

    The gallery's vectors live in one preallocated matrix, one row per
    entry in gallery order: enrollment entries first, then updates,
    oldest first. With a `capacity` (at least the enrollment size) the
    gallery is a FIFO that evicts only updates, and only when full; without
    one it grows without bound. The matrix starts at twice the enrollment
    size and doubles when outgrown, never past the capacity. Evicting
    shifts later updates up.
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
        d = vectors.shape[1]
        loo_scores = np.empty(n)
        step = max(1, LOO_BLOCK // ((n - 1) * d))
        for start in range(0, n, step):
            k = np.arange(start, min(start + step, n))
            rest = vectors[np.arange(n - 1) + (np.arange(n - 1) >= k[:, None])]
            mu_loo = np.add.reduce(rest, axis=1) / (n - 1)
            spread = np.add.reduce(np.abs(rest - mu_loo[:, None, :]), axis=1) / (n - 1)
            mad_loo = np.maximum(spread, eps)
            loo_scores[k] = np.add.reduce(np.abs(vectors[k] - mu_loo) / mad_loo, axis=1) / d
        self.center_m = float(np.mean(loo_scores))
        self.center_s = max(float(np.std(loo_scores)), eps)

        self.target_user = target_user
        self.eps = eps
        self.capacity = capacity
        self._matrix = np.empty((min(2 * n, capacity or math.inf), d))
        self._matrix[:n] = vectors
        self._size = self._enrolled = n
        self.mu, self.mad = gallery_statistics(vectors, eps)
        self._inv_mad = 1.0 / self.mad

    @property
    def vectors(self) -> np.ndarray:
        """(gallery size, dimension) view of the gallery's vectors, in gallery order."""
        return self._matrix[: self._size]

    @property
    def dimension(self) -> int:
        return int(self._matrix.shape[1])

    def extend(self, vectors) -> np.ndarray:
        """Add a (k, d) matrix of update vectors as k appends would: each
        append past `capacity` entries evicts the oldest update. Returns the
        evicted update vectors, oldest first; mu / mad are left to
        `refresh_statistics`."""
        first, n, rows = self._enrolled, self._size, len(self._matrix)
        end, capacity = n + len(vectors), self.capacity or math.inf
        if end > rows and rows < capacity:  # outgrown: double, never past the capacity
            grown = np.empty((min(max(2 * rows, end), capacity), self._matrix.shape[1]))
            grown[:n] = self._matrix[:n]
            self._matrix = grown
        if end <= capacity:  # nothing to evict: write in place
            self._matrix[n:end] = vectors
            self._size = end
            return self._matrix[:0]
        updates = np.concatenate([self._matrix[first:n], vectors])
        dropped = end - capacity
        self._matrix[first:capacity] = updates[dropped:]
        self._size = capacity
        return updates[:dropped]


def gallery_statistics(vectors: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and mean absolute deviation, mad floored at eps."""
    n = len(vectors)
    mu = np.add.reduce(vectors, axis=0) / n
    mad = np.maximum(np.add.reduce(np.abs(vectors - mu), axis=0) / n, eps)
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
    scores = np.add.reduce(np.abs(arr - ref.mu) * ref._inv_mad, axis=-1) / ref.mu.size
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


class ReferenceLanes:
    """Many references as one stack of lanes, lane k starting in the state of
    `templates[k]`, which stays unchanged. Lane k's gallery is the top
    `size[k]` rows of `gallery[k]`, zero-filled and wide enough for
    `room[k]` more updates; `mu`, `mad`, `inv_mad`, `center_m` and
    `center_s` stack the lanes' statistics, bitwise each lane's own."""

    def __init__(self, templates: list[ReferenceModel], room: np.ndarray):
        self.eps = templates[0].eps
        self.size = np.array([len(template.vectors) for template in templates])
        width = min(templates[0].capacity or math.inf, int(np.max(self.size + room)))
        self.gallery = np.zeros((len(templates), width, templates[0].dimension))
        self.mu, self.mad, self.inv_mad, self.center_m, self.center_s = (
            np.array([getattr(template, name) for template in templates])
            for name in ("mu", "mad", "_inv_mad", "center_m", "center_s")
        )
        stacks = {"_matrix": self.gallery, "mu": self.mu, "mad": self.mad, "_inv_mad": self.inv_mad}
        self._views = [object.__new__(ReferenceModel) for _ in templates]
        for lane, (template, view) in enumerate(zip(templates, self._views)):
            self.gallery[lane, : self.size[lane]] = template.vectors
            view.__dict__ = {**template.__dict__, **{k: stack[lane] for k, stack in stacks.items()}}

    def reference(self, lane: int) -> ReferenceModel:
        """Lane `lane` as a reference: a read-only view, current until the lane next changes."""
        view = self._views[lane]
        view._size = int(self.size[lane])
        return view

    def scores(self, queries: np.ndarray, lanes=slice(None)):
        """Raw and centered scores of a (lanes, m, d) query stack, each row of
        `queries[k]` against lane `lanes[k]`, as `raw_score` and `center` give."""
        raw = np.add.reduce(
            np.abs(queries - self.mu[lanes, None]) * self.inv_mad[lanes, None], axis=-1
        ) / queries.shape[-1]
        return raw, (raw - self.center_m[lanes, None]) / self.center_s[lanes, None]

    def extend(self, lane: int, vectors) -> None:
        """Add a (k, d) matrix of update vectors to the lane by `ReferenceModel.extend`,
        in place, as a lane never outgrows its rows; mu / mad are left to `refresh`."""
        view = self.reference(lane)
        view.extend(vectors)
        self.size[lane] = view._size

    def refresh(self, lanes: np.ndarray) -> None:
        """Recompute mu / mad of the (non-empty) `lanes` from their galleries,
        in one masked reduction over the lanes' entries; centering untouched."""
        size = self.size[lanes][:, None]
        vectors = self.gallery[lanes, : size.max()]
        held = (np.arange(vectors.shape[1]) < size)[..., None]
        mu = np.add.reduce(vectors, axis=1, where=held) / size
        spread = np.add.reduce(np.abs(vectors - mu[:, None]), axis=1, where=held) / size
        self.mu[lanes], self.mad[lanes] = mu, np.maximum(spread, self.eps)
        self.inv_mad[lanes] = 1.0 / self.mad[lanes]
