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
from .errors import ConfigError, ValidationError
from .matcher import Origin, ReferenceModel, refresh_statistics


class StrategyKind(str, Enum):
    NONE = "none"
    SUPERVISED = "supervised"
    SELF_THRESHOLD = "self_threshold"


@dataclass(frozen=True)
class UpdateStrategy:
    """How (and whether) accepted queries enter the gallery.

    capacity None means the gallery grows without bound; an integer
    switches to FIFO eviction among non-enrollment entries. The capacity
    must cover the enrollment gallery, which is checked once the
    enrollment size is known.
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


def apply_update(
    ref: ReferenceModel,
    features,
    source_user: str,
    source_session: int,
    is_impostor: bool,
    strategy: UpdateStrategy,
) -> tuple | None:
    """Insert an accepted query's vector into the gallery and refresh mu / mad.

    Returns the tag FIFO eviction removed, if any. The (origin,
    source_user, source_session) tag of the inserted vector is
    measurement bookkeeping.
    """
    if np.shape(features) != (ref.dimension,):
        raise ValidationError(
            f"query shape {np.shape(features)} != reference dimension ({ref.dimension},)"
        )
    if strategy.capacity is not None and strategy.capacity < ref.enrollment_size:
        raise ConfigError(
            f"gallery capacity {strategy.capacity} is below the enrollment size "
            f"{ref.enrollment_size}"
        )
    origin = Origin.IMPOSTOR_UPDATE if is_impostor else Origin.GENUINE_UPDATE
    evicted = ref.append(features, (origin, source_user, source_session), strategy.capacity)
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
    evicted = apply_update(
        ref, sample.features, sample.user_id, sample.session, is_impostor, strategy
    )
    return UpdateOutcome(True, evicted, is_impostor)


def impostor_inclusion(ref: ReferenceModel) -> float:
    """Fraction of the gallery that originated from impostor queries."""
    origins = ref.origins
    if not origins:
        raise ValidationError("impostor_inclusion needs a non-empty gallery")
    return origins.count(Origin.IMPOSTOR_UPDATE) / len(origins)
