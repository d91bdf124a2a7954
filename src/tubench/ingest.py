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
from array import array
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


def write_table(path, header: list[str], rows=(), lines=()) -> None:
    """Write a comma-delimited file with a header and unix newlines.

    `rows` are lists of fields, formatted by csv; `lines` follow them,
    already formatted, each ending in a newline.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        handle.writelines(lines)


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


def _first_non_numeric(row: list[str], names: list[str], positions: list[int]) -> str:
    """The first feature name whose field float() rejects."""
    for name, index in zip(names, positions):
        try:
            float(row[index])
        except ValueError:
            return name


def read_dataset(path, mapping: ColumnMapping = ColumnMapping()) -> Dataset:
    """Load a delimited file into a validated Dataset.

    Rows are grouped per user and ordered by (session, rep); order_index
    is assigned as the rank in that ordering, making it the single
    source of chronology regardless of how the file numbered its reps.
    The file is streamed into columns, features parsed with float().
    """
    with _utf8(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        positions = {name: i for i, name in enumerate(header)}
        for name in (mapping.user_column, mapping.session_column, mapping.rep_column):
            if name not in positions:
                raise FormatError(f"{path}: missing column '{name}'")
        if mapping.feature_columns is None:
            claimed = {mapping.user_column, mapping.session_column, mapping.rep_column}
            feature_names = [name for name in header if name not in claimed]
        else:
            feature_names = list(mapping.feature_columns)
            for name in feature_names:
                if name not in positions:
                    raise FormatError(f"{path}: missing column '{name}'")
        if not feature_names:
            raise FormatError(f"{path}: no feature columns")
        feature_idx = [positions[name] for name in feature_names]
        pick = itemgetter(*feature_idx) if len(feature_idx) > 1 else lambda row: (row[feature_idx[0]],)
        user_idx = positions[mapping.user_column]
        session_idx = positions[mapping.session_column]
        rep_idx = positions[mapping.rep_column]

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
    users = sorted(user_codes, key=str)
    rank = {user: i for i, user in enumerate(users)}
    user_pos = np.array([rank[user] for user in user_codes], dtype=np.intp)[codes]
    session_col = np.array(sessions, dtype=np.intp)
    order = np.lexsort((np.array(reps, dtype=np.intp), session_col, user_pos))
    user_pos = user_pos[order]
    first_row = np.searchsorted(user_pos, np.arange(len(users)))
    dimension = len(feature_names)
    return Dataset.from_columns(
        dimension=dimension,
        num_sessions=max(0, int(session_col.max())),
        user_ids=[users[k] for k in user_pos.tolist()],
        sessions=session_col[order],
        order_indices=np.arange(len(order)) - first_row[user_pos],
        features=np.frombuffer(features, dtype=float).reshape(-1, dimension)[order],
    )


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
    path = Path(path)
    header = ["user", "session", "rep"] + [f"f{j + 1}" for j in range(dataset.dimension)]
    users = [csv_field(str(user)) for user in dataset.users]
    lines = (
        f"{users[user]},{session},{order_index},{','.join(map(repr, features.tolist()))}\n"
        for user, session, order_index, features in zip(
            dataset.row_user.tolist(),
            dataset.row_session.tolist(),
            dataset.row_order.tolist(),
            dataset.feature_matrix,
        )
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(lines)
