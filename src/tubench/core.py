"""Shared domain model: datasets and score logs as columns, and per-query views.

A `Dataset` and a `ScoreLog` are built from per-row columns, checked in
one vectorized pass, and immutable afterwards, so runs share them
freely. `Sample` (an unchecked view of one dataset row), `QueryEvent`
and `ScoreRecord` serve the per-query reference loops only. Within one
user, acquisition time is ordered by (session, order_index); no
wall-clock timestamps exist anywhere. `typed` is the type rule of every
config field, which the config dataclasses and the CLI share.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from contextlib import suppress
from dataclasses import InitVar, dataclass, field
from functools import cache, cached_property
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .errors import ValidationError

REQUIRED = object()
"""The default of a config field that has none."""


@cache
def fields_of(cls) -> dict:
    """Each field of a config dataclass as (kind, default), in field order:
    `T | None` is T, `tuple[T, ...]` is [T], and no default is REQUIRED."""
    section, hints = {}, typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if isinstance(kind, types.UnionType):
            kind = typing.get_args(kind)[0]
        if typing.get_origin(kind) is tuple:
            kind = [typing.get_args(kind)[0]]
        section[f.name] = (kind, REQUIRED if f.default is dataclasses.MISSING else f.default)
    return section


def _what(kind) -> str:
    if isinstance(kind, list):
        return f"a list, each {_what(kind[0])}"
    if issubclass(kind, Enum):
        return f"one of {[member.value for member in kind]}"
    return {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}.get(
        kind, f"of type {kind.__name__}"
    )


def typed(kind, value):
    """`value` as a field of a `fields_of` kind, by the one type rule of every
    config field: an int and a bool never stand for each other, any real
    number becomes a float, an Enum is taken by its value, and [T] is a list
    of T, kept as a tuple. Else a TypeError says what the value must be."""
    if isinstance(kind, list):
        if isinstance(value, (list, tuple)):
            with suppress(TypeError):
                return tuple(typed(kind[0], item) for item in value)
    elif issubclass(kind, Enum):
        with suppress(ValueError, TypeError):
            return kind(value)
    elif isinstance(value, bool) == (kind is bool):
        if kind is int and isinstance(value, Integral):
            return int(value)
        if kind is float and isinstance(value, Real):
            with suppress(OverflowError):
                return float(value)
            raise TypeError("a number that fits a float")
        if kind not in (int, float) and isinstance(value, kind):
            return value
    raise TypeError(_what(kind))


def check_fields(instance) -> None:
    """Set each field of a frozen config dataclass to its `typed` value, or
    leave a None whose default is None; raise every misfit together, by name."""
    problems = []
    for name, (kind, default) in fields_of(type(instance)).items():
        value = getattr(instance, name)
        if value is None and default is None:
            continue
        try:
            object.__setattr__(instance, name, typed(kind, value))
        except TypeError as exc:
            problems.append(f"{name} must be {exc}, got {value!r}")
    if problems:
        raise ValidationError(problems)


class Label(str, Enum):
    GENUINE = "genuine"
    IMPOSTOR = "impostor"


class Mode(str, Enum):
    ONLINE = "online"
    OFFLINE = "offline"


@dataclass(frozen=True, eq=False, slots=True)
class Sample:
    """One biometric acquisition: a feature vector with its chronology.

    A plain view of one `Dataset` row, which the dataset has validated;
    a `Sample` checks nothing itself.
    """

    user_id: str
    session: int
    order_index: int
    features: np.ndarray


def _require_rows(rows: int, sizes: dict) -> None:
    """Raise a ValidationError naming each column whose length is not `rows`."""
    wrong = [f"column {name} has {n} entries, not {rows}" for name, n in sizes.items() if n != rows]
    if wrong:
        raise ValidationError(wrong)


def _columns(user_ids, sessions, order_indices, features):
    """`features` as a float (N, width) matrix, and `sessions` and
    `order_indices` as integer vectors, each column checked to be one
    entry per matrix row before any of them is indexed."""
    matrix = _array("features", features, float, ndim=2)
    vectors = {
        "user_ids": _array("user_ids", user_ids, object),
        "sessions": _array("sessions", sessions, np.intp),
        "order_indices": _array("order_indices", order_indices, np.intp),
    }
    _require_rows(len(matrix), {name: v.size for name, v in vectors.items()})
    return matrix, vectors["sessions"], vectors["order_indices"]


def _array(name: str, column, dtype, ndim: int = 1) -> np.ndarray:
    """`column` as an `ndim`-dimensional array of `dtype`; a ValidationError
    naming the column says what it must be if not."""
    try:
        array = np.asarray(column, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # ragged, not of that type, or out of range
        array = None
    if array is None or array.ndim != ndim:
        shape = "an (N, width) matrix" if ndim == 2 else "a one-dimensional column"
        entries = {np.intp: " of integers", float: " of numbers", bool: " of booleans"}.get(dtype, "")
        raise ValidationError(f"column {name} must be {shape}{entries}")
    return array


def _check_columns(dimension, num_sessions, user_ids, sessions, order_indices, features):
    """Problems of per-row columns, the sorted users, the feature matrix
    with its rows sorted by (user, session, order_index), and the sorted
    (user position, session, order_index) columns."""
    features, session_col, order_col = _columns(user_ids, sessions, order_indices, features)
    problems = []
    if dimension < 1:
        problems.append(f"dimension must be >= 1, got {dimension}")
    if num_sessions < 2:
        problems.append(f"dataset must span at least 2 sessions, got {num_sessions}")
    users = tuple(sorted(set(user_ids), key=str))
    position = {user: i for i, user in enumerate(users)}
    codes = np.fromiter(map(position.__getitem__, user_ids), np.intp, len(user_ids))
    order = np.lexsort((order_col, session_col, codes))
    # Stable sort: within a run of equal keys, every row after the first repeats it.
    key = (codes[order], session_col[order], order_col[order])
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = np.logical_and.reduce([k[1:] == k[:-1] for k in key])
    in_range = (session_col >= 1) & (session_col <= num_sessions)
    width = features.shape[1]
    misshapen = np.full(len(features), width != dimension)
    finite = np.isfinite(features).all(axis=1)
    for i in np.flatnonzero(repeat | ~in_range | misshapen | ~finite).tolist():
        key_text = f"({user_ids[i]}, session {sessions[i]}, #{order_indices[i]})"
        if repeat[i]:
            problems.append(f"duplicate sample key {key_text}")
        if not in_range[i]:
            problems.append(f"sample {key_text}: session outside [1, {num_sessions}]")
        if misshapen[i]:
            problems.append(f"sample {key_text}: feature dimension {width} != {dimension}")
        elif not finite[i]:
            problems.append(f"sample {key_text}: non-finite feature value")
    enrolled = np.zeros(len(users), dtype=bool)
    enrolled[codes[in_range & (session_col == 1)]] = True
    for k in np.flatnonzero(~enrolled).tolist():
        problems.append(f"user {users[k]}: no session-1 samples (no enrollment material)")
    present = np.unique(session_col[in_range])
    gaps = np.flatnonzero(present != np.arange(1, present.size + 1))
    empty = gaps[0] + 1 if gaps.size else present.size + 1
    if empty <= num_sessions:
        problems.append(f"session {empty} of {num_sessions}: no samples")
    return problems, users, features[order], key


@dataclass(frozen=True, eq=False)
class Dataset:
    """Session-structured collection of samples for many users.

    Built from per-row columns and an (N, dimension) feature matrix with
    `from_columns`: a column without one entry per row is rejected first,
    then the rows are checked once, in one vectorized pass. Every problem
    is raised together, as `ValidationError.violations`, in row order
    (per row: duplicate key, session range, then feature dimension or
    non-finite values), then every user without session-1 samples,
    sorted by str, then the first of sessions 1..`num_sessions` without
    samples.
    `feature_matrix` holds every feature vector, read-only, in (user,
    session, order_index) order, and `row_user` (position in `users`),
    `row_session` and `row_order` index its rows. `samples` views the
    same rows as `Sample` objects, built on first use.
    """

    dimension: int
    num_sessions: int
    columns: InitVar[tuple]
    feature_matrix: np.ndarray = field(init=False, repr=False)
    row_user: np.ndarray = field(init=False, repr=False)
    row_session: np.ndarray = field(init=False, repr=False)
    row_order: np.ndarray = field(init=False, repr=False)

    @classmethod
    def from_columns(
        cls, dimension: int, num_sessions: int, user_ids, sessions, order_indices, features
    ) -> "Dataset":
        """A dataset from per-row columns and an (N, dimension) feature matrix."""
        columns = (user_ids, sessions, order_indices, features)
        return cls(dimension, num_sessions, columns=columns)

    def __post_init__(self, columns):
        problems, users, matrix, (row_user, row_session, row_order) = _check_columns(
            self.dimension, self.num_sessions, *columns
        )
        if problems:
            raise ValidationError(problems)
        for column in (matrix, row_user, row_session, row_order):
            column.flags.writeable = False
        starts = np.flatnonzero(
            np.diff(row_user, prepend=-1) | np.diff(row_session, prepend=-1)
        ).tolist()
        spans = {
            (users[row_user[a]], row_session[a].item()): range(a, b)
            for a, b in zip(starts, starts[1:] + [len(matrix)])
        }
        object.__setattr__(self, "_users", users)
        object.__setattr__(self, "_spans", spans)
        object.__setattr__(self, "feature_matrix", matrix)
        object.__setattr__(self, "row_user", row_user)
        object.__setattr__(self, "row_session", row_session)
        object.__setattr__(self, "row_order", row_order)

    @cached_property
    def samples(self) -> tuple[Sample, ...]:
        """Every row as a read-only `Sample` view of the matrix, in row order."""
        return tuple(map(
            Sample, map(self._users.__getitem__, self.row_user.tolist()),
            self.row_session.tolist(), self.row_order.tolist(), self.feature_matrix,
        ))

    @cached_property
    def session_rows(self) -> tuple[np.ndarray, ...]:
        """At index s, the rows of `feature_matrix` in session s, ascending."""
        return tuple(np.flatnonzero(self.row_session == s) for s in range(self.num_sessions + 1))

    @property
    def users(self) -> tuple[str, ...]:
        """User identifiers in sorted order, for deterministic iteration."""
        return self._users

    def row_range(self, user_id: str, session: int) -> range:
        """Rows of `feature_matrix` holding one user's session, in chronological order."""
        return self._spans.get((user_id, session), range(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        same_shape = (self.dimension, self.num_sessions) == (other.dimension, other.num_sessions)
        columns = ("row_user", "row_session", "row_order", "feature_matrix")
        return (
            same_shape
            and self.users == other.users
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)
        )


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
        problems = _record_problems(
            self.repeat_id, self.session, self.target_user, self.source_user,
            self.true_label, self.raw_score, self.centered_score,
        )
        if problems:
            raise ValidationError(problems)


def _record_problems(repeat_id, session, target_user, source_user, true_label, raw, centered):
    """What is wrong with one comparison record's values, in field order."""
    problems = []
    if repeat_id < 0:
        problems.append("repeat_id must be >= 0")
    if session < 1:
        problems.append("session must be >= 1")
    if not (np.isfinite(raw) and raw >= 0):
        problems.append(f"raw_score must be finite and >= 0, got {raw}")
    if not np.isfinite(centered):
        problems.append(f"centered_score must be finite, got {centered}")
    if (true_label is Label.GENUINE) != (source_user == target_user):
        problems.append(
            f"record {source_user} vs {target_user}: "
            f"label {true_label.value} contradicts user identity"
        )
    return problems


def scored_sessions(mode: Mode, num_sessions: int) -> range:
    """Sessions a run logs scores for: 2..S online, 3..S offline."""
    return range(2 if mode is Mode.ONLINE else 3, num_sessions + 1)


def score_log_violations(
    num_sessions: int, mode: Mode, users, repeat, session, target, source, raw, centered
) -> list[str]:
    """Check score-log columns against the log invariants in one vectorized pass.

    `target` and `source` are positions in `users`; a row's label is its
    identity (genuine where source == target), so no label can contradict
    it. Problems come row by row, in row order, worded as `ScoreRecord`
    words them; then the session count, the covered sessions, and the
    first row whose session precedes an earlier row's of the same
    (repeat, target).
    """
    repeat, session, target, source = (
        np.asarray(c, dtype=np.intp) for c in (repeat, session, target, source)
    )
    raw, centered = np.asarray(raw, dtype=float), np.asarray(centered, dtype=float)
    bad = (repeat < 0) | (session < 1) | ~(np.isfinite(raw) & (raw >= 0)) | ~np.isfinite(centered)
    problems = []
    for i in np.flatnonzero(bad).tolist():
        label = Label.GENUINE if source[i] == target[i] else Label.IMPOSTOR
        problems += _record_problems(
            repeat[i], session[i], users[target[i]], users[source[i]], label,
            raw[i].item(), centered[i].item(),
        )
    expected = scored_sessions(mode, num_sessions)
    if num_sessions < expected.start:
        problems.append(f"{mode.value} log needs at least {expected.start} sessions")
    covered = np.unique(session).tolist()
    if covered != list(expected):
        problems.append(
            f"{mode.value} log must cover sessions {list(expected)}, got {covered}"
        )
    # Within each (repeat, target) group, in row order (the sort is stable),
    # a session below its predecessor's is out of stream order.
    order = np.lexsort((target, repeat))
    group_repeat, group_target, group_session = repeat[order], target[order], session[order]
    same_group = (group_repeat[1:] == group_repeat[:-1]) & (group_target[1:] == group_target[:-1])
    backwards = order[1:][same_group & (group_session[1:] < group_session[:-1])]
    if backwards.size:
        first = backwards.min()
        problems.append(
            f"records for repeat {repeat[first]}, user {users[target[first]]} "
            "are out of stream order"
        )
    return problems


_LOG_COLUMNS = (
    ("repeat", np.intp), ("session", np.intp), ("target", np.intp), ("source", np.intp),
    ("raw", float), ("centered", float), ("applied", bool),
)


@dataclass(frozen=True, eq=False)
class ScoreLog:
    """Comparison records for a whole evaluation run, held as columns.

    Row k is the run's k-th comparison: `repeat`, `session`, `target` and
    `source` (positions in `users`, sorted by str), the `raw` and
    `centered` scores, and whether the query was `applied` as an update.
    A comparison is genuine when source == target. The log is built from
    columns of one length, `users` as any sequence (kept as a tuple), and
    validated once, by `score_log_violations`.

    Online runs cover sessions 2..S; offline runs cover 3..S because the
    last consumed session never gets its own frozen-reference pass.
    """

    users: tuple[str, ...]
    num_sessions: int
    mode: Mode
    repeat: np.ndarray = field(repr=False)
    session: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)
    raw: np.ndarray = field(repr=False)
    centered: np.ndarray = field(repr=False)
    applied: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        # Copies, so that freezing them leaves the caller's arrays writable.
        arrays = [_array(name, getattr(self, name), dtype).copy() for name, dtype in _LOG_COLUMNS]
        sizes = {name: column.size for (name, _), column in zip(_LOG_COLUMNS, arrays)}
        _require_rows(max(sizes.values()), sizes)
        problems = score_log_violations(self.num_sessions, self.mode, self.users, *arrays[:-1])
        if problems:
            raise ValidationError(problems)
        for (name, _), column in zip(_LOG_COLUMNS, arrays):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def genuine(self) -> np.ndarray:
        """Per row, whether the comparison is genuine (source is the target)."""
        return self.source == self.target

    @property
    def covered_sessions(self) -> range:
        return scored_sessions(self.mode, self.num_sessions)
