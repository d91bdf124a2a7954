"""Reference verifier: per-user galleries scored by scaled-Manhattan distance.

Scores are dissimilarities (lower = more similar). Acceptance and update
rules therefore read "score <= threshold". Each reference carries
centering constants frozen at enrollment that place scores on a scale
where 0 means "as close as a typical enrollment self-comparison" and
negative values mean closer than that, which is what makes negative
update thresholds meaningful. Enrolling a user's enrollment vectors gives
a one-lane `ReferenceLanes`; a run stacks them into the lanes of one store
per repeat. A gallery holds vectors only: which query each update came
from is recorded by the run (`RunResult.updates`).

Every kernel averages as `np.add.reduce(x, axis) / count`. For float64
input that is exactly what `np.mean` computes, a sum reduction and then
one true division by the count, without its Python wrapper.
"""

from __future__ import annotations

import math

import numpy as np

from .core import shown
from .errors import ConfigError, EnrollmentError, ValidationError

EPSILON = 1e-6
LOO_BLOCK = 1 << 20


class ReferenceLanes:
    """References as one stack of lanes. Lane k's gallery is the top
    `size[k]` rows of `gallery[k]`, in gallery order: its `enrolled[k]`
    enrollment entries first, then updates, oldest first; the rows below
    are zero-filled. `statistics` are the per-lane stacks `mu`, `mad`,
    `inv_mad`, `center_m` and `center_s`. mu / mad mirror each lane's
    gallery once `refresh` has run; center_m / center_s stay at their
    enrollment values.

    With a `capacity` (at least every lane's enrollment size) each gallery
    is a FIFO that evicts only updates, and only when full; without one it
    grows without bound (`extend`).
    """

    def __init__(self, gallery, size, enrolled, statistics, eps, capacity):
        self.gallery, self.size, self.enrolled = gallery, size, enrolled
        self.mu, self.mad, self.inv_mad, self.center_m, self.center_s = statistics
        self.eps, self.capacity = eps, capacity

    @classmethod
    def stack(cls, references: list[ReferenceLanes]) -> ReferenceLanes:
        """Lanes starting as the one-lane `references`, which stay unchanged,
        as wide as the largest of them; `extend` grows the width."""
        first = references[0]
        size = np.concatenate([reference.size for reference in references])
        gallery = np.zeros((len(references), int(size.max()), first.gallery.shape[2]))
        for lane, reference in enumerate(references):
            gallery[lane, : size[lane]] = reference.vectors()
        enrolled = [count for reference in references for count in reference.enrolled]
        statistics = (np.concatenate([getattr(reference, name) for reference in references])
                      for name in ("mu", "mad", "inv_mad", "center_m", "center_s"))
        return cls(gallery, size, enrolled, statistics, first.eps, first.capacity)

    def vectors(self, lane: int = 0) -> np.ndarray:
        """(gallery size, dimension) view of the lane's vectors, in gallery order."""
        return self.gallery[lane, : self.size[lane]]

    def scores(self, queries: np.ndarray, lanes=slice(None)):
        """Raw and centered scores of a (lanes, m, d) query stack, `queries[k]`
        against lane `lanes[k]`, or of an (m, d) matrix against one int lane."""
        raw = np.add.reduce(
            np.abs(queries - self.mu[lanes, None]) * self.inv_mad[lanes, None], axis=-1
        ) / queries.shape[-1]
        return raw, (raw - self.center_m[lanes, None]) / self.center_s[lanes, None]

    def extend(self, lane: int, vectors) -> np.ndarray:
        """Add a (k, d) matrix of update vectors to the lane as k appends
        would: each append past `capacity` entries evicts the oldest update.
        A lane that outgrows the width doubles it, never past the capacity.
        Returns the evicted update vectors, oldest first; mu / mad are left
        to `refresh`."""
        first, n, width = self.enrolled[lane], int(self.size[lane]), self.gallery.shape[1]
        end, capacity = n + len(vectors), self.capacity or math.inf
        if end > width and width < capacity:
            grow = min(max(2 * width, end), capacity) - width
            self.gallery = np.pad(self.gallery, ((0, 0), (0, grow), (0, 0)))
        gallery = self.gallery[lane]
        self.size[lane] = min(end, capacity)
        if end <= capacity:  # nothing to evict: write in place
            gallery[n:end] = vectors
            return gallery[:0]
        updates = np.concatenate([gallery[first:n], vectors])
        dropped = end - capacity
        gallery[first:capacity] = updates[dropped:]
        return updates[:dropped]

    def refresh(self, lanes) -> None:
        """Recompute mu / mad of the (non-empty) `lanes` from their galleries,
        in one masked reduction over the lanes' entries; centering untouched."""
        size = self.size[lanes][:, None]
        vectors = self.gallery[lanes, : size.max()]
        held = (np.arange(vectors.shape[1]) < size)[..., None]
        mu = np.add.reduce(vectors, axis=1, where=held) / size
        spread = np.add.reduce(np.abs(vectors - mu[:, None]), axis=1, where=held) / size
        mad = np.maximum(spread, self.eps)
        self.mu[lanes], self.mad[lanes], self.inv_mad[lanes] = mu, mad, 1.0 / mad


def enroll(
    target_user: str,
    enrollment_vectors,
    *,
    eps: float = EPSILON,
    capacity: int | None = None,
) -> ReferenceLanes:
    """Enroll the (n, d) matrix of a user's enrollment vectors as a one-lane
    store; `capacity` is the gallery's FIFO capacity for its lifetime.

    The centering constants come from leave-one-out self-scores: each
    enrollment vector is scored against the statistics of the remaining
    ones; center_m is the mean of those scores and center_s their
    population standard deviation (floored at eps). They never change
    afterwards, so the centered scale keeps its meaning while the gallery
    evolves. The gallery starts at its enrollment size; `extend` grows it.
    """
    vectors = np.asarray(enrollment_vectors, dtype=float)
    if vectors.ndim != 2 or len(vectors) < 2 or not vectors.shape[1]:
        raise EnrollmentError(
            f"user {target_user}: enrollment needs an (n >= 2, d) matrix,"
            f" got shape {vectors.shape}"
        )
    n, d = vectors.shape
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and > 0, got {shown(eps)}")
    if capacity is not None and capacity < n:
        raise ConfigError(f"gallery capacity {capacity} is below the enrollment size {n}")

    # Row k of `rest` holds every enrollment vector but the k-th, in order, so the
    # axis-1 reductions give each leave-one-out gallery's statistics, the same in
    # any block of rows; one block holds about LOO_BLOCK values.
    loo_scores = np.empty(n)
    step = max(1, LOO_BLOCK // ((n - 1) * d))
    for start in range(0, n, step):
        k = np.arange(start, min(start + step, n))
        rest = vectors[np.arange(n - 1) + (np.arange(n - 1) >= k[:, None])]
        mu_loo = np.add.reduce(rest, axis=1) / (n - 1)
        spread = np.add.reduce(np.abs(rest - mu_loo[:, None, :]), axis=1) / (n - 1)
        mad_loo = np.maximum(spread, eps)
        loo_scores[k] = np.add.reduce(np.abs(vectors[k] - mu_loo) / mad_loo, axis=1) / d
    gallery = vectors.copy()[None]
    statistics = (*np.empty((3, 1, d)), np.array([np.mean(loo_scores)]),
                  np.array([max(np.std(loo_scores), eps)]))
    reference = ReferenceLanes(gallery, np.array([n]), [n], statistics, eps, capacity)
    reference.refresh(slice(None))  # mu / mad / inv_mad
    return reference


def raw_score(ref: ReferenceLanes, query):
    """Scaled-Manhattan dissimilarity of a query vector to the gallery mean.

    An (n, d) query matrix gives n scores, bitwise equal to scoring each row alone.
    """
    return _lane_scores(ref, query, 0)[0]


def center(ref: ReferenceLanes, raw):
    """Map a raw score onto the reference's frozen centered scale."""
    return (raw - ref.center_m[0]) / ref.center_s[0]


def centered_score(ref: ReferenceLanes, query, lane: int = 0):
    """`center` of `raw_score`, from the same one `scores` call."""
    return _lane_scores(ref, query, lane)[1]


def _lane_scores(ref: ReferenceLanes, query, lane: int):
    arr = np.asarray(query, dtype=float)
    d = ref.gallery.shape[2]
    if arr.ndim not in (1, 2) or arr.shape[-1:] != (d,):
        raise ValidationError(
            f"query shape {arr.shape} does not end in reference dimension {d}"
        )
    raw, centered = ref.scores(arr, lane)
    if arr.ndim == 1:
        return float(raw[0]), float(centered[0])
    return raw, centered


def refresh_statistics(ref: ReferenceLanes) -> ReferenceLanes:
    """Recompute mu / mad from the current gallery; centering untouched."""
    ref.refresh([0])
    return ref
