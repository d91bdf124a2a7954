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
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .core import Dataset, Provenance, Sample, dataset_violations
from .errors import FormatError, ValidationError


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a comma-delimited file with a header; returns (header, rows)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise FormatError(f"{path}: empty file")
    return rows[0], rows[1:]


def write_table(path, header: list[str], rows) -> None:
    """Write a comma-delimited file with a header and unix newlines."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


class _Row(NamedTuple):
    user_id: str
    session: int
    order_index: int
    features: list[float]


def read_dataset(path, mapping: ColumnMapping = ColumnMapping()) -> Dataset:
    """Load a delimited file into a validated Dataset.

    Rows are grouped per user and ordered by (session, rep); order_index
    is assigned as the rank in that ordering, making it the single
    source of chronology regardless of how the file numbered its reps.
    """
    header, rows = read_table(path)
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
    user_idx = positions[mapping.user_column]
    session_idx = positions[mapping.session_column]
    rep_idx = positions[mapping.rep_column]

    parsed: dict[str, list[tuple[int, int, list[float]]]] = {}
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise FormatError(
                f"{path}: row {line_no}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            session = int(row[session_idx])
            rep = int(row[rep_idx])
        except ValueError:
            raise FormatError(f"{path}: row {line_no}: non-integer session or rep") from None
        features = []
        for name, idx in zip(feature_names, feature_idx):
            try:
                features.append(float(row[idx]))
            except ValueError:
                raise FormatError(
                    f"{path}: row {line_no}: non-numeric feature '{name}'"
                ) from None
        parsed.setdefault(row[user_idx], []).append((session, rep, features))

    if not parsed:
        raise FormatError(f"{path}: no data rows")
    staged: list[_Row] = []
    num_sessions = 0
    for user in sorted(parsed, key=str):
        entries = sorted(parsed[user], key=lambda e: (e[0], e[1]))
        for rank, (session, _rep, features) in enumerate(entries):
            staged.append(_Row(user, session, rank, features))
            num_sessions = max(num_sessions, session)

    dimension = len(feature_names)
    problems = dataset_violations(dimension, num_sessions, staged)
    if problems:
        raise ValidationError(problems)
    samples = tuple(
        Sample(r.user_id, r.session, r.order_index, r.features, Provenance.DATASET)
        for r in staged
    )
    return Dataset(dimension=dimension, num_sessions=num_sessions, samples=samples)


def write_dataset(dataset: Dataset, path) -> None:
    """Write a Dataset in canonical form (see module docstring)."""
    path = Path(path)
    header = ["user", "session", "rep"] + [f"f{j + 1}" for j in range(dataset.dimension)]
    rows = [
        [str(s.user_id), str(s.session), str(s.order_index)]
        + [repr(float(v)) for v in s.features]
        for s in dataset.rows
    ]
    write_table(path, header, rows)
