"""Delimited-text reading and writing for session-structured datasets.

The canonical on-disk form is a comma-separated file with a header row
(user, session, rep, f1..fd), rows sorted by (user, session, rep), and
floats rendered with round-trippable precision, so two writes of the
same dataset are byte-identical and outputs are diffable. A column
mapping adapts loaders to the common keystroke-benchmark layout
(subject / sessionIndex / rep / timing columns).
"""

from __future__ import annotations

import csv
import io
import os
import shutil
import threading
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import Dataset
from .errors import FormatError


@contextmanager
def _utf8(path):
    """`path` opened as UTF-8 text for csv; bytes that are not UTF-8 raise a
    FormatError naming the file."""
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a comma-delimited file with a header; returns (header, rows)."""
    with _utf8(path) as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise FormatError(f"{path}: empty file")
    return rows[0], rows[1:]


#: Below this many lines an output is formatted in this process only: a
#: fork and its wait cost about as much as formatting 4,096 lines.
SPLIT_MIN_LINES = 4096


def _two_cores() -> bool:
    """Whether a forked child can format on a second CPU: fork exists, this
    process may run on 2 or more CPUs, and no other thread runs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _write_lines(handle, path: Path, lines, count: int) -> None:
    """Write `lines(0, count)` to the open text `handle` of `path`.

    `lines(lo, hi)` yields lines lo..hi-1, each ending in a newline. From
    SPLIT_MIN_LINES lines on, where `_two_cores()`, a forked child formats
    lines [count // 2, count) into a sibling part file while this process
    formats the first half into `handle`, then appends the part file. The
    bytes are those of one in-process pass: a child that fails leaves its
    half to this process. The child is always reaped and the part file
    always removed.
    """
    if count < SPLIT_MIN_LINES or not _two_cores():
        handle.writelines(lines(0, count))
        return
    mid = count // 2
    part = path.with_name(path.name + ".part")
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of native threads (numpy's BLAS pool) at a
            # fork; the child calls no code that takes their locks.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        handle.writelines(lines(0, count))
        return
    if pid == 0:  # the child: format, write, and leave without any cleanup
        status = 1
        try:
            with open(part, "w", newline="", encoding="utf-8") as out:
                out.writelines(lines(mid, count))
            status = 0
        finally:
            os._exit(status)
    try:
        try:
            handle.writelines(lines(0, mid))
        finally:
            failed = os.waitpid(pid, 0)[1] != 0
        if failed:
            handle.writelines(lines(mid, count))
        else:
            handle.flush()
            with open(part, "rb") as rest:
                shutil.copyfileobj(rest, handle.buffer, 1 << 20)
    finally:
        part.unlink(missing_ok=True)


def write_table(path, header: list[str], rows=(), lines=None, count: int = 0) -> None:
    """Write a comma-delimited file with a header and unix newlines.

    `rows` are lists of fields, formatted by csv. When `lines` is given,
    `count` lines follow them, already formatted: `lines(lo, hi)` yields
    lines lo..hi-1, each ending in a newline (see `_write_lines`).
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if lines is not None:
            _write_lines(handle, Path(path), lines, count)


@dataclass(frozen=True)
class ColumnMapping:
    """Where to find the identity, chronology, and feature columns.

    feature_columns None means "every column not otherwise claimed",
    in header order.
    """

    user_column: str = "user"
    session_column: str = "session"
    rep_column: str = "rep"
    feature_columns: tuple[str, ...] | None = None


#: Layout used by the public CMU keystroke benchmark files.
CMU_KEYSTROKE = ColumnMapping("subject", "sessionIndex", "rep")


def _repeated(names) -> str | None:
    """The first name that occurs more than once in `names`, if any."""
    return next((name for name, count in Counter(names).items() if count > 1), None)


def _layout(path, header: list[str], mapping: ColumnMapping):
    """The header positions of the user, session and rep columns, the
    feature names and their positions; a repeated, missing or absent
    column is a FormatError naming the file."""
    for names in (header, mapping.feature_columns or ()):
        name = _repeated(names)
        if name is not None:
            raise FormatError(f"{path}: duplicate column '{name}'")
    positions = {name: i for i, name in enumerate(header)}
    ids = (mapping.user_column, mapping.session_column, mapping.rep_column)
    for name in ids:
        if name not in positions:
            raise FormatError(f"{path}: missing column '{name}'")
    if mapping.feature_columns is None:
        feature_names = [name for name in header if name not in ids]
    else:
        feature_names = list(mapping.feature_columns)
        for name in feature_names:
            if name not in positions:
                raise FormatError(f"{path}: missing column '{name}'")
    if not feature_names:
        raise FormatError(f"{path}: no feature columns")
    feature_idx = [positions[name] for name in feature_names]
    return [positions[name] for name in ids], feature_names, feature_idx


def _first_non_numeric(row: list[str], names: list[str], positions: list[int]) -> str:
    """The first feature name whose field float() rejects."""
    for name, index in zip(names, positions):
        try:
            float(row[index])
        except ValueError:
            return name


def _read_rows(path, mapping: ColumnMapping):
    """The reference parse: csv.reader row by row, features parsed with
    float(). It reads csv quoting and raises every row error. Returns the
    columns `_assemble` takes."""
    with _utf8(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        ids, feature_names, feature_idx = _layout(path, header, mapping)
        user_idx, session_idx, rep_idx = ids
        pick = itemgetter(*feature_idx) if len(feature_idx) > 1 else lambda row: (row[feature_idx[0]],)

        user_codes: dict[str, int] = {}  # in order of first appearance
        codes, sessions, reps = [], [], []
        features = array("d")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(
                    f"{path}: row {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                session = int(row[session_idx])
                rep = int(row[rep_idx])
            except ValueError:
                raise FormatError(f"{path}: row {line_no}: non-integer session or rep") from None
            try:
                features.extend(map(float, pick(row)))
            except ValueError:
                name = _first_non_numeric(row, feature_names, feature_idx)
                raise FormatError(f"{path}: row {line_no}: non-numeric feature '{name}'") from None
            codes.append(user_codes.setdefault(row[user_idx], len(user_codes)))
            sessions.append(session)
            reps.append(rep)

    if not codes:
        raise FormatError(f"{path}: no data rows")
    matrix = np.frombuffer(features, dtype=float).reshape(-1, len(feature_names))
    return user_codes, codes, sessions, reps, matrix


def _plain(line: str) -> bool:
    """Whether `line` holds none of the characters that need the row loop:
    csv's quote and carriage return, NUL, and the separators \\x1c-\\x1f,
    which numpy's float parser strips as whitespace and float() rejects."""
    return not (
        '"' in line or "\r" in line or "\0" in line
        or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line
    )


def _read_bulk(path, mapping: ColumnMapping):
    """The columns of `_read_rows`, with every feature parsed by one
    np.loadtxt call, or None where the file needs the row loop.

    A streaming pass checks each line and splits off only its id fields,
    so no token of the file is kept as a string; loadtxt then parses the
    feature columns of the same lines.
    """
    limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            first = next(handle, "").removesuffix("\n")
            if not first or not _plain(first):
                return None
            header = first.split(",")
            ids, _, feature_idx = _layout(path, header, mapping)
            user_idx, session_idx, rep_idx = ids
            split = max(ids) + 1
            commas = len(header) - 1
            user_codes: dict[str, int] = {}
            codes, sessions, reps = [], [], []
            for line in handle:
                if line.count(",") != commas or len(line) > limit or not _plain(line):
                    return None
                fields = line.removesuffix("\n").split(",", split)
                sessions.append(int(fields[session_idx]))
                reps.append(int(fields[rep_idx]))
                codes.append(user_codes.setdefault(fields[user_idx], len(user_codes)))
            if not codes:
                return None
            handle.seek(0)
            features = np.loadtxt(
                handle, delimiter=",", comments=None, quotechar=None, skiprows=1,
                usecols=feature_idx, dtype=float, ndmin=2, encoding="utf-8",
            )
    except ValueError:  # UnicodeDecodeError among them
        return None
    if features.shape != (len(codes), len(feature_idx)):
        return None
    return user_codes, codes, sessions, reps, features


def _integers(path, column: str, values: list[int]) -> np.ndarray:
    """`values`, the parsed fields of `column` in row order, as an intp
    vector; a value past its range is a FormatError naming the row."""
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        bounds = np.iinfo(np.intp)
        row = next(i for i, value in enumerate(values) if not bounds.min <= value <= bounds.max)
        raise FormatError(
            f"{path}: row {row + 2}: integer out of range in column '{column}'"
        ) from None


def _assemble(
    path, mapping: ColumnMapping, user_codes: dict[str, int], codes, sessions, reps, features
) -> Dataset:
    """A Dataset from parsed columns: users sorted by str, each one's rows
    ranked by (session, rep) into order indices. Sessions 1..S must each
    hold a row; the first one that holds none is a FormatError, raised
    before anything is built per session."""
    session_col = _integers(path, mapping.session_column, sessions)
    rep_col = _integers(path, mapping.rep_column, reps)
    present = np.unique(session_col)
    present = present[present >= 1]
    missing = np.flatnonzero(present != np.arange(1, len(present) + 1))
    if missing.size:
        raise FormatError(
            f"{path}: session {missing[0] + 1} has no rows, though session {present[-1]} has"
        )
    users = sorted(user_codes, key=str)
    rank = {user: i for i, user in enumerate(users)}
    user_pos = np.array([rank[user] for user in user_codes], dtype=np.intp)[codes]
    order = np.lexsort((rep_col, session_col, user_pos))
    user_pos = user_pos[order]
    first_row = np.searchsorted(user_pos, np.arange(len(users)))
    return Dataset.from_columns(
        dimension=features.shape[1],
        num_sessions=max(0, int(session_col.max())),
        user_ids=[users[k] for k in user_pos.tolist()],
        sessions=session_col[order],
        order_indices=np.arange(len(order)) - first_row[user_pos],
        features=features[order],
    )


def read_dataset(path, mapping: ColumnMapping = ColumnMapping()) -> Dataset:
    """Load a delimited file into a validated Dataset.

    Rows are grouped per user and ordered by (session, rep); order_index
    is assigned as the rank in that ordering, making it the single
    source of chronology regardless of how the file numbered its reps.

    The bulk path reads the id fields in one streaming pass and every
    feature with one np.loadtxt call. It leaves the whole file to the row
    loop (csv.reader, features parsed with float()) when a line holds a
    quote, a carriage return, NUL or one of \\x1c-\\x1f, has another
    field count than the header or is longer than csv's field limit, when
    the file has no data rows or is not UTF-8, or when int() or loadtxt
    rejects a field. Both give the same dataset for the same file, and
    every row error comes from the row loop. A session or rep past the
    intp range, or a session number skipped, is a FormatError raised
    before the dataset is built.
    """
    columns = _read_bulk(path, mapping)
    if columns is None:
        columns = _read_rows(path, mapping)
    return _assemble(path, mapping, *columns)


def csv_field(value: str) -> str:
    """`value` rendered as csv.writer renders it inside a row of several fields."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value, ""])
    return buffer.getvalue()[: -len(",\n")]


def write_dataset(dataset: Dataset, path) -> None:
    """Write a Dataset in canonical form (see module docstring).

    Lines are streamed row by row and joined directly: only a user id can
    need csv quoting, so each is rendered by csv once, while ints and
    float reprs never need it.
    """
    header = ["user", "session", "rep"] + [f"f{j + 1}" for j in range(dataset.dimension)]
    users = [csv_field(str(user)) for user in dataset.users]

    def lines(lo: int, hi: int):
        for user, session, order_index, features in zip(
            dataset.row_user[lo:hi].tolist(),
            dataset.row_session[lo:hi].tolist(),
            dataset.row_order[lo:hi].tolist(),
            dataset.feature_matrix[lo:hi],
        ):
            yield f"{users[user]},{session},{order_index},{','.join(map(repr, features.tolist()))}\n"

    write_table(path, header, lines=lines, count=len(dataset.feature_matrix))
