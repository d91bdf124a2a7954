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
import signal
import threading
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import Dataset, check_fields
from .errors import FormatError, ValidationError


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
    """Whether a forked child can work on a second CPU: fork exists, this
    process may run on 2 or more CPUs, and no other thread runs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def split_work(here, there, into=None) -> None:
    """Call `here()` in this process while a forked child calls `there()`.

    With `into`, the child sends the contiguous array `there()` returns
    as raw bytes through a pipe, read once `here()` has returned straight
    into the array `into()` gives, which they must fill to the byte.
    Where no child can run (see `_two_cores`), or it fails, exits non-zero
    or sends another number of bytes, `there()` runs here, as
    `into()[...] = there()` with `into`. When `here` or `into` raises, the
    child is killed; it is always reaped.
    """
    pid = None
    if _two_cores():
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns of native threads (numpy's BLAS pool) at a
            # fork; the child calls no code that takes their locks.
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
    if pid == 0:  # the child: its share, then leave without any cleanup
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                sent = there()
                if into is not None:
                    out.write(sent)
            status = 0
        finally:
            os._exit(status)
    received = False
    if pid is None:
        here()
    else:
        os.close(write_end)
        try:  # the pipe closes before the wait, which ends a child blocked on it
            with open(read_end, "rb") as pipe:
                here()
                target = np.empty(0) if into is None else into()  # with no into, no byte may come
                received = pipe.readinto(target) == target.nbytes and not pipe.read(1)
        except BaseException:  # the child's share is of no use now
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            received = os.waitpid(pid, 0)[1] == 0 and received
    if not received:
        sent = there()
        if into is not None:
            into()[...] = sent


def _write_lines(handle, path: Path, lines, count: int) -> None:
    """Write `lines(0, count)` to the open text `handle` of `path`.

    `lines(lo, hi)` yields lines lo..hi-1, each ending in a newline. From
    SPLIT_MIN_LINES lines on, where `_two_cores()`, lines [count // 2,
    count) are formatted into a sibling part file by a forked child (see
    `split_work`) while this process formats the first half into
    `handle`, and then appended; a pipe would stall the child. The bytes
    are those of one pass, and the part file is always removed.
    """
    if count < SPLIT_MIN_LINES or not _two_cores():
        handle.writelines(lines(0, count))
        return
    part = path.with_name(path.name + ".part")

    def there():
        with open(part, "w", newline="", encoding="utf-8") as out:
            out.writelines(lines(count // 2, count))

    try:
        split_work(lambda: handle.writelines(lines(0, count // 2)), there)
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


def _repeated(names) -> str | None:
    """The first name that occurs more than once in `names`, if any."""
    return next((name for name, count in Counter(names).items() if count > 1), None)


@dataclass(frozen=True)
class ColumnMapping:
    """Where to find the identity, chronology, and feature columns.

    feature_columns None means "every column not otherwise claimed",
    in header order; otherwise it names one or more columns, each once,
    none of them an id column.
    """

    user_column: str = "user"
    session_column: str = "session"
    rep_column: str = "rep"
    feature_columns: tuple[str, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        ids = (self.user_column, self.session_column, self.rep_column)
        features, problems = self.feature_columns or (), []
        if len(set(ids)) < len(ids):
            problems.append(f"user_column, session_column and rep_column must differ, got {ids}")
        if self.feature_columns == ():
            problems.append("feature_columns must name at least one column, got ()")
        repeated = _repeated(features)
        if repeated is not None:
            problems.append(f"feature_columns must name each column once, got {repeated!r} twice")
        taken = next((name for name in features if name in ids), None)
        if taken is not None:
            problems.append(f"feature_columns must not name an id column, got {taken!r}")
        if problems:
            raise ValidationError(problems)


#: Layout used by the public CMU keystroke benchmark files.
CMU_KEYSTROKE = ColumnMapping("subject", "sessionIndex", "rep")


def _layout(path, header: list[str], mapping: ColumnMapping):
    """The header positions of the user, session and rep columns, the
    feature names and their positions; a repeated header column, a missing
    column or no feature columns is a FormatError naming the file."""
    name = _repeated(header)
    if name is not None:
        raise FormatError(f"{path}: duplicate column '{name}'")
    positions = {name: i for i, name in enumerate(header)}
    ids = (mapping.user_column, mapping.session_column, mapping.rep_column)
    feature_names = list(mapping.feature_columns or (name for name in header if name not in ids))
    for name in (*ids, *feature_names):
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
    user, session and rep fields as lists and the feature matrix."""
    with _utf8(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        ids, feature_names, feature_idx = _layout(path, header, mapping)
        user_idx, session_idx, rep_idx = ids
        pick = itemgetter(*feature_idx) if len(feature_idx) > 1 else lambda row: (row[feature_idx[0]],)

        users, sessions, reps = [], [], []
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
            users.append(row[user_idx])
            sessions.append(session)
            reps.append(rep)

    if not users:
        raise FormatError(f"{path}: no data rows")
    matrix = np.frombuffer(features, dtype=float).reshape(-1, len(feature_names))
    return users, sessions, reps, matrix


def _plain(line: bytes) -> bool:
    """Whether `line` holds none of the characters that need the row loop:
    csv's quote and carriage return, NUL, and the separators \\x1c-\\x1f,
    which numpy's float parser strips as whitespace and float() rejects.
    One C pass: deleting them leaves the line as long only if it has none."""
    return len(line.translate(None, b'"\r\0\x1c\x1d\x1e\x1f')) == len(line)


#: Below this many bytes of rows a dataset file is parsed in this process
#: only: from 256 KiB on, the features a child parses take longer than a
#: fork, its wait and the transfer back (about 3 ms).
SPLIT_MIN_BYTES = 1 << 18


def _features(path, start: int, rows: int | None, feature_idx) -> np.ndarray:
    """The feature columns of `rows` lines of `path` from byte `start` on,
    or of every line from there where `rows` is None, parsed by loadtxt."""
    with open(path, "rb") as handle:
        handle.seek(start)
        return np.loadtxt(
            io.TextIOWrapper(handle, encoding="utf-8", newline=""), delimiter=",",
            comments=None, quotechar=None, usecols=feature_idx, dtype=float, ndmin=2,
            max_rows=rows,
        )


def _read_bulk(path, mapping: ColumnMapping):
    """The columns of `_read_rows`, with every feature parsed by np.loadtxt,
    or None where the file needs the row loop.

    A streaming pass checks each line and splits off only its id fields,
    so no token of the file is kept as a string; loadtxt then parses the
    feature columns of the same lines. From SPLIT_MIN_BYTES of rows on, a
    forked child (see `split_work`) parses the features from the first
    line start at or after a third of the rows' bytes and sends them as
    raw float64 bytes into the matrix; this process makes the pass, then
    fills the matrix's rows before that line, which takes about as long.
    """
    limit = csv.field_size_limit()
    users, sessions, reps = [], [], []
    front = features = None
    try:
        with open(path, "rb") as handle:
            first = handle.readline().removesuffix(b"\n")
            header = first.decode("utf-8").split(",")
            body, size = handle.tell(), handle.seek(0, os.SEEK_END)
            if size - body >= SPLIT_MIN_BYTES:
                handle.seek(body + (size - body) // 3 - 1)
                handle.readline()
            cut = handle.tell()
        if not first or not _plain(first):
            return None
        ids, _, feature_idx = _layout(path, header, mapping)
        user_idx, session_idx, rep_idx = ids
        split = max(ids) + 1
        commas = len(header) - 1

        def here():
            nonlocal front, features
            with open(path, "rb") as handle:
                handle.seek(body)
                at = body
                for line in handle:
                    if at == cut:
                        front = len(users)
                    at += len(line)
                    if line.count(b",") != commas or len(line) > limit or not _plain(line):
                        raise ValueError("a line for the row loop")
                    fields = line.removesuffix(b"\n").split(b",", split)
                    sessions.append(int(fields[session_idx]))
                    reps.append(int(fields[rep_idx]))
                    users.append(fields[user_idx].decode("utf-8"))
            if not users:
                raise ValueError("no data rows")
            features = np.empty((len(users), len(feature_idx)))
            features[:front] = _features(path, body, front, feature_idx)

        if cut < size:
            split_work(here, lambda: _features(path, cut, None, feature_idx),
                       lambda: features[front:])
        else:
            here()
    except ValueError:  # UnicodeDecodeError among them
        return None
    return users, sessions, reps, features


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


def read_dataset(path, mapping: ColumnMapping = ColumnMapping()) -> Dataset:
    """Load a delimited file into a validated Dataset.

    Rows go to `Dataset.from_columns` as read: a row's rep is its
    order_index, so `Dataset`'s checks apply to the file's own keys, and a
    repeated (user, session, rep) or a skipped session number is a
    ValidationError whose every problem starts with `<path>: `.

    The bulk path reads the id fields in one streaming pass and every
    feature with one np.loadtxt call. It leaves the whole file to the row
    loop (csv.reader, features parsed with float()) when a line holds a
    quote, a carriage return, NUL or one of \\x1c-\\x1f, has another
    field count than the header or is longer than csv's field limit, when
    the file has no data rows or is not UTF-8, or when int() or loadtxt
    rejects a field. Both give the same dataset for the same file, and
    every row error comes from the row loop. A session or rep past the
    intp range is a FormatError naming its row.
    """
    users, sessions, reps, features = _read_bulk(path, mapping) or _read_rows(path, mapping)
    session_col = _integers(path, mapping.session_column, sessions)
    rep_col = _integers(path, mapping.rep_column, reps)
    try:
        return Dataset.from_columns(users, session_col, rep_col, features)
    except ValidationError as exc:
        raise ValidationError([f"{path}: {problem}" for problem in exc.violations]) from None


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
