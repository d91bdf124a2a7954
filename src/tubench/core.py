"""Shared domain model: samples, datasets, query events, score logs.

Every type validates its invariants at construction time and is
immutable afterwards, so instances can be shared freely between
evaluation loops. Within one user, acquisition time is ordered by the
pair (session, order_index); no wall-clock timestamps exist anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import groupby
from typing import Iterable

import numpy as np

from .errors import ValidationError


class Provenance(str, Enum):
    DATASET = "dataset"
    SYNTHETIC = "synthetic"


class Label(str, Enum):
    GENUINE = "genuine"
    IMPOSTOR = "impostor"


class Mode(str, Enum):
    ONLINE = "online"
    OFFLINE = "offline"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Sample:
    """One biometric acquisition: a feature vector with its chronology."""

    user_id: str
    session: int
    order_index: int
    features: np.ndarray
    provenance: Provenance = Provenance.DATASET

    def __post_init__(self):
        arr = _frozen_array(self.features)
        object.__setattr__(self, "features", arr)
        problems = []
        if self.session < 1:
            problems.append(f"sample {self._key_text()}: session must be >= 1")
        if self.order_index < 0:
            problems.append(f"sample {self._key_text()}: order_index must be >= 0")
        if arr.ndim != 1 or arr.size < 1:
            problems.append(f"sample {self._key_text()}: features must be a non-empty vector")
        elif not np.all(np.isfinite(arr)):
            problems.append(f"sample {self._key_text()}: non-finite feature value")
        if problems:
            raise ValidationError(problems)

    def _key_text(self) -> str:
        return f"({self.user_id}, session {self.session}, #{self.order_index})"

    @property
    def age(self) -> tuple[int, int]:
        """Total chronological order within one user."""
        return (self.session, self.order_index)

    @property
    def dimension(self) -> int:
        return int(self.features.size)

    def __eq__(self, other) -> bool:
        # provenance records how the sample entered the process, not what
        # it is; the canonical file format does not carry it, so it stays
        # out of value equality.
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and self.session == other.session
            and self.order_index == other.order_index
            and np.array_equal(self.features, other.features)
        )


def dataset_violations(dimension: int, num_sessions: int, samples: Iterable) -> list[str]:
    """Scan sample-shaped records against the dataset invariants.

    Works on anything exposing user_id / session / order_index /
    features, which lets loaders report every problem in a file instead
    of failing on the first bad row.
    """
    problems = []
    if dimension < 1:
        problems.append(f"dimension must be >= 1, got {dimension}")
    if num_sessions < 2:
        problems.append(f"dataset must span at least 2 sessions, got {num_sessions}")
    seen_keys: set[tuple] = set()
    users_with_session1: set = set()
    all_users: set = set()
    for sample in samples:
        key = (sample.user_id, sample.session, sample.order_index)
        key_text = f"({key[0]}, session {key[1]}, #{key[2]})"
        all_users.add(sample.user_id)
        if key in seen_keys:
            problems.append(f"duplicate sample key {key_text}")
        seen_keys.add(key)
        if not 1 <= sample.session <= num_sessions:
            problems.append(f"sample {key_text}: session outside [1, {num_sessions}]")
        elif sample.session == 1:
            users_with_session1.add(sample.user_id)
        features = np.asarray(sample.features, dtype=float)
        if features.ndim != 1 or features.size != dimension:
            problems.append(f"sample {key_text}: feature dimension {features.size} != {dimension}")
        elif not np.all(np.isfinite(features)):
            problems.append(f"sample {key_text}: non-finite feature value")
    for user in sorted(all_users - users_with_session1, key=str):
        problems.append(f"user {user}: no session-1 samples (no enrollment material)")
    return problems


@dataclass(frozen=True, eq=False)
class Dataset:
    """Session-structured collection of samples for many users.

    `rows` holds the samples sorted by (user, session, order_index);
    `row_user` (position in `users`) and `row_session` index them.
    """

    dimension: int
    num_sessions: int
    samples: tuple[Sample, ...]
    rows: tuple[Sample, ...] = field(init=False, repr=False)
    row_user: np.ndarray = field(init=False, repr=False)
    row_session: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        problems = dataset_violations(self.dimension, self.num_sessions, self.samples)
        if problems:
            raise ValidationError(problems)
        users = tuple(sorted({s.user_id for s in self.samples}, key=str))
        position = {user: i for i, user in enumerate(users)}
        rows = tuple(sorted(self.samples, key=lambda s: (position[s.user_id], *s.age)))
        by_user_session = {
            key: tuple(group) for key, group in groupby(rows, key=lambda s: (s.user_id, s.session))
        }
        row_user = _frozen_array([position[s.user_id] for s in rows], np.intp)
        object.__setattr__(self, "_users", users)
        object.__setattr__(self, "_by_user_session", by_user_session)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_user", row_user)
        object.__setattr__(self, "row_session", _frozen_array([s.session for s in rows], np.intp))

    @property
    def user_ids(self) -> frozenset:
        return frozenset(self.users)

    @property
    def users(self) -> tuple[str, ...]:
        """User identifiers in sorted order, for deterministic iteration."""
        return self._users

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """(len(rows), dimension) features of `rows`, built on first use."""
        return _frozen_array([s.features for s in self.rows])

    def samples_for(self, user_id: str, session: int | None = None) -> tuple[Sample, ...]:
        """A user's samples in chronological order, optionally one session."""
        index = self._by_user_session
        if session is not None:
            return index.get((user_id, session), ())
        sessions = range(1, self.num_sessions + 1)
        return tuple(s for sess in sessions for s in index.get((user_id, sess), ()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        same_shape = (self.dimension, self.num_sessions) == (other.dimension, other.num_sessions)
        return same_shape and self.rows == other.rows


def validate_dataset(dataset: Dataset) -> list[str]:
    """Re-check an existing Dataset; empty list means every invariant holds."""
    return dataset_violations(dataset.dimension, dataset.num_sessions, dataset.samples)


@dataclass(frozen=True, eq=False)
class QueryEvent:
    """One verification attempt drawn from a session stream."""

    sample: Sample
    target_user: str
    true_label: Label
    stream_position: int

    def __post_init__(self):
        problems = []
        genuine = self.sample.user_id == self.target_user
        if (self.true_label is Label.GENUINE) != genuine:
            problems.append(
                f"query of {self.sample.user_id} against {self.target_user}: "
                f"label {self.true_label.value} contradicts user identity"
            )
        if self.stream_position < 0:
            problems.append("stream_position must be >= 0")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class ScoreRecord:
    """One logged comparison with its update outcome."""

    repeat_id: int
    session: int
    target_user: str
    source_user: str
    true_label: Label
    raw_score: float
    centered_score: float
    update_applied: bool

    def __post_init__(self):
        problems = []
        if self.repeat_id < 0:
            problems.append("repeat_id must be >= 0")
        if self.session < 1:
            problems.append("session must be >= 1")
        if not (np.isfinite(self.raw_score) and self.raw_score >= 0):
            problems.append(f"raw_score must be finite and >= 0, got {self.raw_score}")
        if not np.isfinite(self.centered_score):
            problems.append(f"centered_score must be finite, got {self.centered_score}")
        genuine = self.source_user == self.target_user
        if (self.true_label is Label.GENUINE) != genuine:
            problems.append(
                f"record {self.source_user} vs {self.target_user}: "
                f"label {self.true_label.value} contradicts user identity"
            )
        if problems:
            raise ValidationError(problems)


def scored_sessions(mode: Mode, num_sessions: int) -> range:
    """Sessions a run logs scores for: 2..S online, 3..S offline."""
    return range(2 if mode is Mode.ONLINE else 3, num_sessions + 1)


@dataclass(frozen=True, eq=False)
class ScoreLog:
    """Ordered comparison records for a whole evaluation run.

    Online runs cover sessions 2..S; offline runs cover 3..S because the
    last consumed session never gets its own frozen-reference pass.
    """

    records: tuple[ScoreRecord, ...]
    num_sessions: int
    mode: Mode

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        problems = []
        expected = scored_sessions(self.mode, self.num_sessions)
        if self.num_sessions < expected.start:
            problems.append(f"{self.mode.value} log needs at least {expected.start} sessions")
        covered = {r.session for r in self.records}
        if covered != set(expected):
            problems.append(
                f"{self.mode.value} log must cover sessions {list(expected)}, "
                f"got {sorted(covered)}"
            )
        last_session: dict[tuple[int, str], int] = {}
        for record in self.records:
            group = (record.repeat_id, record.target_user)
            if last_session.get(group, 0) > record.session:
                problems.append(
                    f"records for repeat {group[0]}, user {group[1]} are out of stream order"
                )
                break
            last_session[group] = record.session
        if problems:
            raise ValidationError(problems)

    @property
    def covered_sessions(self) -> range:
        return scored_sessions(self.mode, self.num_sessions)

    @property
    def repeat_ids(self) -> tuple[int, ...]:
        return tuple(sorted({r.repeat_id for r in self.records}))

    def for_repeat(self, repeat_id: int) -> "ScoreLog":
        """Sub-log holding a single repeat's records."""
        picked = tuple(r for r in self.records if r.repeat_id == repeat_id)
        return ScoreLog(picked, self.num_sessions, self.mode)

    def session_records(self, session: int) -> tuple[ScoreRecord, ...]:
        return tuple(r for r in self.records if r.session == session)
