"""Template-update strategies and the impostor-inclusion measurement.

Supervised and self-threshold updating share one threshold gate; they
differ only in whether the ground-truth label is consulted, which is
exactly the variable the bench isolates. Self-threshold updating never
reads the label, so impostor vectors that score below the threshold do
get absorbed into the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Label, QueryEvent
from .errors import ValidationError
from .matcher import Origin, ReferenceModel, refresh_statistics


class StrategyKind(str, Enum):
    NONE = "none"
    SUPERVISED = "supervised"
    SELF_THRESHOLD = "self_threshold"


@dataclass(frozen=True)
class UpdateStrategy:
    """How (and whether) accepted queries enter the gallery.

    capacity None means the gallery grows without bound; an integer
    switches to FIFO eviction among non-enrollment entries. A run enrolls
    each reference with it (`enroll(..., capacity=)`), and the reference
    rejects a capacity below its enrollment size.
    """

    kind: StrategyKind
    update_threshold: float = math.inf
    capacity: int | None = None

    def __post_init__(self):
        problems = []
        if math.isnan(self.update_threshold):
            problems.append("update_threshold must not be NaN")
        if self.capacity is not None and self.capacity < 1:
            problems.append(f"capacity must be >= 1, got {self.capacity}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class UpdateOutcome:
    """What one query did to the reference."""

    applied: bool
    evicted: tuple | None  # the evicted entry's (origin, source_user, source_session)
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
    accept = np.asarray(centered) <= strategy.update_threshold
    if strategy.kind is StrategyKind.SUPERVISED:
        accept = accept & ~np.asarray(impostor)
    return accept


def score_free(strategy: UpdateStrategy) -> bool:
    """Whether the decision rule reads no (non-NaN) score: `none`, or any
    kind at a threshold of +inf. `accepts` then depends on the label alone."""
    return strategy.kind is StrategyKind.NONE or strategy.update_threshold == math.inf


def apply_updates(
    ref: ReferenceModel, features, source_users, source_sessions, impostor
) -> list[tuple]:
    """Insert accepted queries' (k, d) vectors in order and refresh mu / mad
    once, as one insert and refresh per row would: the statistics read only
    the final gallery. Returns the evicted tags, oldest first; the inserted
    (origin, source_user, source_session) tags are measurement bookkeeping."""
    if np.ndim(features) != 2 or np.shape(features)[1] != ref.dimension:
        raise ValidationError(
            f"query shape {np.shape(features)} != (k, reference dimension {ref.dimension})"
        )
    tags = [
        (Origin.IMPOSTOR_UPDATE if is_impostor else Origin.GENUINE_UPDATE, user, session)
        for user, session, is_impostor in zip(source_users, source_sessions, impostor)
    ]
    evicted = ref.extend(features, tags)
    refresh_statistics(ref)
    return evicted


def maybe_update(
    ref: ReferenceModel,
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
    sample = query.sample
    evicted = apply_updates(
        ref, [sample.features], [sample.user_id], [sample.session], [is_impostor]
    ) or [None]
    return UpdateOutcome(True, evicted[0], is_impostor)


def impostor_inclusion(ref: ReferenceModel) -> float:
    """Fraction of the gallery that originated from impostor queries."""
    origins = ref.origins
    if not origins:
        raise ValidationError("impostor_inclusion needs a non-empty gallery")
    return origins.count(Origin.IMPOSTOR_UPDATE) / len(origins)
