"""Template-update strategies and the impostor-inclusion measurement.

Supervised and self-threshold updating share one threshold gate; they
differ only in whether the ground-truth label is consulted, which is
exactly the variable the bench isolates. Self-threshold updating never
reads the label, so impostor vectors that score below the threshold do
get absorbed into the reference. The gallery keeps only vectors; impostor
inclusion is derived from a run's log of applied updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, Label, QueryEvent, check_fields, shown
from .errors import ValidationError
from .matcher import ReferenceLanes, refresh_statistics


class StrategyKind(str, Enum):
    NONE = "none"
    SUPERVISED = "supervised"
    SELF_THRESHOLD = "self_threshold"


@dataclass(frozen=True)
class UpdateStrategy:
    """How (and whether) accepted queries enter the gallery.

    kind may be given by value ("supervised"). threshold None means no
    score gate, and is stored as +inf. capacity None means the gallery
    grows without bound; an integer switches to FIFO eviction among
    non-enrollment entries. A run enrolls each reference with it
    (`enroll(..., capacity=)`), and the reference rejects a capacity below
    its enrollment size.
    """

    kind: StrategyKind = StrategyKind.NONE
    threshold: float | None = None
    capacity: int | None = None

    def __post_init__(self):
        check_fields(self)
        problems = []
        if self.threshold is None:
            object.__setattr__(self, "threshold", math.inf)
        elif math.isnan(self.threshold):
            problems.append("threshold must not be NaN")
        if self.capacity is not None and self.capacity < 1:
            problems.append(f"capacity must be >= 1, got {shown(self.capacity)}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class UpdateOutcome:
    """What one query did to the reference."""

    applied: bool
    evicted: np.ndarray | None  # the evicted update's vector
    was_impostor: bool

    def __post_init__(self):
        if not self.applied and self.evicted is not None:
            raise ValidationError("an update that was not applied cannot evict")


def accepts(strategy: UpdateStrategy, centered, impostor):
    """The strategy's decision rule, elementwise over scored queries.

    True where a query with that centered score and ground truth would
    update the reference. Ground truth is read only by the supervised
    strategy.
    """
    if strategy.kind is StrategyKind.NONE:
        return np.zeros(np.shape(centered), dtype=bool)
    accept = np.asarray(centered) <= strategy.threshold
    if strategy.kind is StrategyKind.SUPERVISED:
        accept = accept & ~np.asarray(impostor)
    return accept


def score_free(strategy: UpdateStrategy) -> bool:
    """Whether the decision rule reads no (non-NaN) score: `none`, or any
    kind at a threshold of +inf. `accepts` then depends on the label alone."""
    return strategy.kind is StrategyKind.NONE or strategy.threshold == math.inf


def maybe_update(
    ref: ReferenceLanes,
    query: QueryEvent,
    centered: float,
    strategy: UpdateStrategy,
) -> UpdateOutcome:
    """Apply the strategy's decision rule to one already-scored query.

    The caller passes the centered score it computed for the query, so
    scoring happens exactly once per query.
    """
    is_impostor = query.true_label is Label.IMPOSTOR
    if not accepts(strategy, centered, is_impostor):
        return UpdateOutcome(False, None, is_impostor)
    features = [query.sample.features]  # built outside the program: check its width
    d = ref.gallery.shape[2]
    if np.ndim(features) != 2 or np.shape(features)[1] != d:
        raise ValidationError(
            f"query shape {np.shape(features)} != (k, reference dimension {d})"
        )
    evicted = ref.extend(0, features)
    refresh_statistics(ref)
    return UpdateOutcome(True, evicted[0] if len(evicted) else None, is_impostor)


def impostor_inclusion(dataset: Dataset, updates: dict, gallery_size: np.ndarray) -> np.ndarray:
    """Each gallery's share of impostor entries, per (repeat, session 2..S,
    user) of `gallery_size`, from a run's applied `updates`, which run
    contiguously per (repeat, target), sessions ascending. It relies on FIFO
    eviction of the oldest update: a gallery holds its enrollment plus the
    newest `gallery_size - enrolled` of the updates applied to it so far."""
    repeats, sessions, users = gallery_size.shape
    target, row = updates["target"], updates["row"]
    keys = (updates["repeat"] * users + target) * sessions + updates["session"] - 2
    grid = np.arange(gallery_size.size).reshape(repeats, users, sessions).transpose(0, 2, 1)
    ends = np.searchsorted(keys, grid, side="right")  # past each gallery's updates so far
    enrolled = np.bincount(dataset.row_user[dataset.row_session == 1], minlength=users)
    impostors = np.concatenate([[0], np.cumsum(dataset.row_user[row] != target)])
    return (impostors[ends] - impostors[ends - gallery_size + enrolled]) / gallery_size
