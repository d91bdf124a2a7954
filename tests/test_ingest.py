import csv
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from tubench import (
    CMU_KEYSTROKE,
    ColumnMapping,
    Dataset,
    FormatError,
    SynthConfig,
    ValidationError,
    generate,
    read_dataset,
    write_dataset,
)
from tubench import ingest
from tubench.ingest import _assemble, _read_bulk, _read_rows, read_table, write_table
from conftest import altered_child, assert_reaped_and_clean, dataset_of, in_process, make_sample


def test_round_trip_of_synthetic_dataset_is_exact(tmp_path):
    dataset = generate(SynthConfig(4, 3, 5, 6, drift_scale=0.1, seed=8))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    assert read_dataset(path) == dataset


def test_two_writes_are_byte_identical(tmp_path):
    dataset = generate(SynthConfig(3, 2, 4, 3, seed=21))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(dataset, first)
    write_dataset(dataset, second)
    assert first.read_bytes() == second.read_bytes()


def test_round_trip_over_random_small_datasets(tmp_path):
    rng = np.random.default_rng(77)
    for trial in range(15):
        users = rng.integers(1, 4)
        sessions = rng.integers(2, 5)
        d = rng.integers(1, 4)
        samples = []
        for u in range(users):
            order = 0
            for session in range(1, sessions + 1):
                for _ in range(rng.integers(1, 4)):
                    samples.append(
                        make_sample(f"user{u}", session, order, rng.normal(size=d))
                    )
                    order += 1
        dataset = dataset_of(tuple(samples))
        path = tmp_path / f"rt{trial}.csv"
        write_dataset(dataset, path)
        assert read_dataset(path) == dataset


def test_user_ids_are_quoted_like_csv_writer_does(tmp_path):
    users = ["plain", "a,b", 'q"x', "line\nbreak", " pad ", "tab\there"]
    samples = tuple(
        make_sample(user, session, session - 1, [0.1 * k, -2.5e-7, 1e16 + k])
        for k, user in enumerate(users)
        for session in (1, 2)
    )
    dataset = dataset_of(samples)
    path = tmp_path / "quoted.csv"
    write_dataset(dataset, path)
    expected = tmp_path / "expected.csv"
    write_table(
        expected,
        ["user", "session", "rep", "f1", "f2", "f3"],
        [
            [s.user_id, str(s.session), str(s.order_index), *map(repr, s.features.tolist())]
            for s in dataset.samples
        ],
    )
    assert path.read_bytes() == expected.read_bytes()
    assert read_dataset(path) == dataset


def test_canonical_layout(tmp_path):
    samples = (
        make_sample("z", 1, 0, [1.5, 2.5]),
        make_sample("z", 2, 1, [3.5, 4.5]),
        make_sample("a", 1, 0, [0.25, 0.75]),
        make_sample("a", 2, 1, [0.1, 0.2]),
    )
    path = tmp_path / "tiny.csv"
    write_dataset(dataset_of(samples), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user,session,rep,f1,f2"
    assert lines[1].startswith("a,1,0,")  # rows sorted by user then session
    assert lines[-1].startswith("z,2,1,")
    assert len(lines) == 5


def test_smallest_dataset_writes_header_plus_one_row_per_session(tmp_path):
    samples = (make_sample("only", 1, 0, [1.0, 2.0]), make_sample("only", 2, 1, [3.0, 4.0]))
    path = tmp_path / "one.csv"
    write_dataset(dataset_of(samples), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1:] == ["only,1,0,1.0,2.0", "only,2,1,3.0,4.0"]


def test_cmu_benchmark_layout_loads(tmp_path):
    # 51 subjects x 8 sessions x 2 reps in the public keystroke-file shape
    rng = np.random.default_rng(3)
    path = tmp_path / "keystrokes.csv"
    rows = []
    for subject in range(51):
        for session in range(1, 9):
            for rep in (1, 2):
                rows.append(
                    [f"s{subject:03d}", str(session), str(rep)]
                    + [repr(float(v)) for v in rng.uniform(0.05, 0.4, size=5)]
                )
    header = ["subject", "sessionIndex", "rep", "H.a", "DD.a.b", "UD.a.b", "H.b", "H.c"]
    write_table(path, header, rows)

    dataset = read_dataset(path, CMU_KEYSTROKE)
    assert dataset.num_sessions == 8
    assert len(dataset.users) == 51
    assert dataset.dimension == 5
    # order_index follows (session, rep) chronology per user
    for user in dataset.users:
        orders = dataset.row_order[dataset.row_user == dataset.users.index(user)].tolist()
        assert orders == list(range(16))


def test_feature_column_subset_is_respected(tmp_path):
    path = tmp_path / "subset.csv"
    write_table(
        path,
        ["user", "session", "rep", "keep", "drop"],
        [["u", "1", "0", "1.0", "9.9"], ["u", "2", "1", "2.0", "9.9"]],
    )
    mapping = ColumnMapping(feature_columns=("keep",))
    dataset = read_dataset(path, mapping)
    assert dataset.dimension == 1
    assert dataset.feature_matrix[dataset.row_range("u", 2)].tolist() == [[2.0]]


def test_empty_file_is_a_format_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(FormatError, match="empty"):
        read_dataset(path)
    header_only = tmp_path / "header.csv"
    header_only.write_text("user,session,rep,f1\n")
    with pytest.raises(FormatError, match="no data rows"):
        read_dataset(header_only)


def test_missing_column_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    write_table(path, ["user", "when", "rep", "f1"], [["u", "1", "0", "1.0"]])
    with pytest.raises(FormatError, match="session"):
        read_dataset(path)


def test_non_numeric_feature_names_the_row(tmp_path):
    path = tmp_path / "bad.csv"
    write_table(
        path,
        ["user", "session", "rep", "f1"],
        [["u", "1", "0", "1.0"], ["u", "2", "1", "oops"]],
    )
    with pytest.raises(FormatError, match="row 3"):
        read_dataset(path)


def test_non_finite_feature_fails_validation(tmp_path):
    path = tmp_path / "nan.csv"
    write_table(
        path,
        ["user", "session", "rep", "f1"],
        [["u", "1", "0", "1.0"], ["u", "2", "1", "nan"]],
    )
    with pytest.raises(ValidationError, match="non-finite"):
        read_dataset(path)


def test_dataset_problems_of_a_file_come_in_file_order(tmp_path):
    path = tmp_path / "nonfinite.csv"
    write_table(
        path,
        ["user", "session", "rep", "f1"],
        [["b", "1", "0", "nan"], ["a", "2", "0", "inf"], ["a", "1", "0", "1.0"],
         ["b", "2", "0", "2.0"]],
    )
    with pytest.raises(ValidationError) as raised:
        read_dataset(path)
    assert raised.value.violations == [
        "sample (b, session 1, #0): non-finite feature value",
        "sample (a, session 2, #1): non-finite feature value",
    ]


def test_dataset_invariant_violations_propagate(tmp_path):
    path = tmp_path / "orphan.csv"
    write_table(
        path,
        ["user", "session", "rep", "f1"],
        [["u", "1", "0", "1.0"], ["u", "2", "0", "1.5"], ["v", "2", "0", "2.0"]],
    )
    with pytest.raises(ValidationError, match="session-1"):
        read_dataset(path)


def test_read_table_round_trips_arbitrary_tables(tmp_path):
    path = tmp_path / "table.csv"
    header = ["colA", "colB"]
    rows = [["1", "x"], ["2", "y"]]
    write_table(path, header, rows)
    got_header, got_rows = read_table(path)
    assert got_header == header
    assert got_rows == rows


HEADER = "user,session,rep,f1,f2\n"
ROWS = "u,1,0,1.0,2.0\nu,2,1,3.0,4.0\n"


@pytest.mark.parametrize(
    "content, mapping, message",
    [
        (HEADER + "u,1,0,1.0,2.0\nu,2,1,3.0\n", None, "row 3: expected 5 fields, got 4"),
        (HEADER + "u,1,0,1.0,2.0,9.0\n" + ROWS, None, "row 2: expected 5 fields, got 6"),
        (HEADER + "u,1,0,1.0,2.0\n\nu,2,1,3.0,4.0\n", None, "row 3: expected 5 fields, got 0"),
        (HEADER + ROWS + "\n", None, "row 4: expected 5 fields, got 0"),
        (HEADER + "u,1,0,1.0,2.0\nu,two,1,3.0,4.0\n", None, "row 3: non-integer session or rep"),
        (HEADER + "u,1,0.5,1.0,2.0\n", None, "row 2: non-integer session or rep"),
        (HEADER + "u,1,0,1.0,x\n", None, "row 2: non-numeric feature 'f2'"),
        ("user,session,rep\nu,1,0\n", None, "no feature columns"),
        (HEADER + ROWS, ColumnMapping(feature_columns=("f1", "f9")), "missing column 'f9'"),
        (HEADER.encode() + b"u\xff,1,0,1.0,2.0\n", None, "not UTF-8 text"),
        ("\ufeff" + HEADER + ROWS, None, "missing column 'user'"),
        ("user,session,rep,f1,f1\nu,1,0,8.0,9.0\n", None, "duplicate column 'f1'"),
        ("user,session,rep,f1,user\na,1,0,1.0,y\n", None, "duplicate column 'user'"),
        (HEADER + ROWS, ColumnMapping(feature_columns=("f1", "f1")), "duplicate column 'f1'"),
        ("", None, "empty file"),
        (HEADER, None, "no data rows"),
    ],
    ids=[
        "short row", "long row", "blank middle line", "trailing blank line",
        "non-integer session", "non-integer rep", "non-numeric feature", "no feature columns",
        "missing mapped feature", "not UTF-8", "UTF-8 BOM header", "repeated feature column",
        "repeated user column", "repeated mapped feature", "empty file", "no data rows",
    ],
)
def test_read_dataset_error_texts(tmp_path, content, mapping, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    mapping = mapping or ColumnMapping()
    for read in (read_dataset, _read_rows):
        with pytest.raises(FormatError) as caught:
            read(path, mapping)
        assert str(caught.value) == f"{path}: {message}"


def _outcome(read):
    """What a read gives: the dataset's columns as bytes, or the error's type and text."""
    try:
        dataset = read()
    except Exception as error:  # compared between the two readers, not handled
        return type(error), str(error)
    return (
        dataset.users,
        dataset.num_sessions,
        dataset.feature_matrix.shape,
        *(column.tobytes() for column in (
            dataset.row_user, dataset.row_session, dataset.row_order, dataset.feature_matrix,
        )),
    )


def _row_loop(path, mapping=ColumnMapping()):
    return _assemble(path, mapping, *_read_rows(path, mapping))


def test_canonical_files_take_the_bulk_path(tmp_path):
    dataset = generate(SynthConfig(5, 3, 4, 7, drift_scale=0.1, seed=4))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    columns = _read_bulk(path, ColumnMapping())
    assert columns is not None
    expected = _outcome(lambda: _row_loop(path))
    assert _outcome(lambda: _assemble(path, ColumnMapping(), *columns)) == expected
    # ids after the features, the last one ending its line
    lines = path.read_text().splitlines()
    moved = tmp_path / "moved.csv"
    moved.write_text("".join(
        ",".join(fields[3:] + [fields[2], fields[0], fields[1]]) + "\n"
        for fields in (line.split(",") for line in lines)
    ))
    columns = _read_bulk(moved, ColumnMapping())
    assert columns is not None
    assert _outcome(lambda: _assemble(moved, ColumnMapping(), *columns)) == expected
    assert read_dataset(moved) == dataset


@pytest.mark.parametrize(
    "content",
    [
        HEADER + '"u,v",1,0,1.0,2.0\n"u,v",2,1,3.0,4.0\n',
        HEADER + '"u",1,0,1.0,2.0\n"u",2,1,3.0,4.0\n',
        HEADER.replace("\n", "\r\n") + ROWS.replace("\n", "\r\n"),
        HEADER + "u\0,1,0,1.0,2.0\nu\0,2,1,3.0,4.0\n",
        HEADER + "u,1,0,1_0,2.0\nu,2,1,3.0,4.0\n",
        HEADER + "u,1,0,\u0661\u0662,2.0\nu,2,1,3.0,4.0\n",
        HEADER + "u,1,0,1.0\x1c,2.0\nu,2,1,3.0,4.0\n",
        HEADER + "u,1,0,1.0,\x1f2.0\nu,2,1,3.0,4.0\n",
        HEADER + "u,1,0,1.0,2.0\n\nu,2,1,3.0,4.0\n",
        HEADER + "u,1,x,1.0,2.0\nu,2,1,3.0,4.0\n",
        HEADER,
    ],
    ids=[
        "quoted user with a comma", "quoted user", "CRLF", "NUL", "underscore",
        "non-ASCII digits", "x1c", "x1f", "blank line", "non-integer rep", "no data rows",
    ],
)
def test_bulk_path_leaves_these_files_to_the_row_loop(tmp_path, content):
    path = tmp_path / "data.csv"
    path.write_text(content, newline="")
    assert _read_bulk(path, ColumnMapping()) is None
    assert _outcome(lambda: read_dataset(path)) == _outcome(lambda: _row_loop(path))


def scanned_plain(line: bytes) -> bool:
    """The line check `_plain` replaced: one `in` scan per row-loop byte."""
    return not (
        b'"' in line or b"\r" in line or b"\0" in line
        or b"\x1c" in line or b"\x1d" in line or b"\x1e" in line or b"\x1f" in line
    )


@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_the_one_pass_line_check_agrees_with_the_scans_on_every_byte(where):
    line = b"u001,3,17,0.25,-1.5e-07\n"
    for value in range(256):
        byte = bytes([value])
        cut = {"start": 0, "middle": len(line) // 2, "end": len(line)}[where]
        placed = line[:cut] + byte + line[cut:]
        assert ingest._plain(placed) == scanned_plain(placed), (where, value)
        assert ingest._plain(byte) == scanned_plain(byte), value
    assert ingest._plain(line) and ingest._plain(b"")


def test_lines_past_the_csv_field_limit_go_to_the_row_loop(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "u,1,0,1.0,2.0\nu,2,1,3.0,4.0\n" + "w" * 30 + ",1,0,5.0,6.0\n")
    limit = csv.field_size_limit(20)
    try:
        assert _read_bulk(path, ColumnMapping()) is None
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_dataset(path)
        csv.field_size_limit(30)  # the line is longer, but no field
        assert _read_bulk(path, ColumnMapping()) is None
        assert read_dataset(path) == _row_loop(path)
    finally:
        csv.field_size_limit(limit)


# Tokens that float(), int(), csv and np.loadtxt may read differently, or not at all.
_ODD_TOKENS = [
    " 1.5 ", "\t2", "\x0b3", "4\x0c", "1_0", "+.5", "nan", "-nan", "-inf", "Infinity", "1e400",
    "-0.0", "5e-324", "0x10", "0x1p3", "", " ", " 2", "+1", "1.0", "\u0661\u0662", "\x1c4",
    "5\x1f", "\xa06", "7\u2003", "8\x85", "9\u2028", "1 2", "1e", " a", "\u00e9", '"a"',
    '"a,b"', '"q""x"', '"3.5"', "u\0",
]
_ODD_LINES = ["blank", "short", "long", "crlf"]
# csv reads '"a"' as the user 'a', and '"q""x"' as 'q"x'.
_USERS = ["a", "b", "c d", '"a"', '"q""x"']


@st.composite
def csv_texts(draw):
    """A dataset file with its columns in any order, and a mapping that reads
    all its features or some of them in any order. Every user has rows in
    sessions 1 and 2, so a file of canonical fields is a valid dataset. A
    file is odd in at most three ways: odd tokens in some fields, blank,
    short or long lines, or CRLF line endings."""
    d = draw(st.integers(1, 3))
    names = ["user", "session", "rep"] + [f"f{j + 1}" for j in range(d)]
    order = draw(st.permutations(range(len(names))))
    chosen = draw(st.permutations(names[3:]))[: draw(st.integers(1, d))]
    mapping = ColumnMapping(feature_columns=draw(st.sampled_from([None, tuple(chosen)])))
    odd = draw(st.lists(st.sampled_from(_ODD_TOKENS + _ODD_LINES), max_size=3, unique=True))
    tokens = [token for token in odd if token not in _ODD_LINES]

    def field(canonical):
        if tokens:
            canonical = st.one_of(canonical, canonical, canonical, st.sampled_from(tokens))
        return draw(canonical)

    users = draw(st.lists(st.sampled_from(_USERS), min_size=1, max_size=3, unique=True))
    keys = [(user, session) for user in users for session in ("1", "2")]
    keys += draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from("123")), max_size=3))
    kinds = ["row"] * 4 + [kind for kind in odd if kind in ("blank", "short", "long")]
    feature = st.floats(-1e6, 1e6).map(repr)
    lines = [",".join(names[k] for k in order)]
    for user, session in draw(st.permutations(keys)):
        kind = draw(st.sampled_from(kinds))
        fields = [field(st.just(user)), field(st.just(session)), field(st.integers(0, 5).map(str))]
        fields = [(fields + [field(feature) for _ in range(d)])[k] for k in order]
        if kind == "short":
            fields.pop()
        elif kind == "long":
            fields.append(field(feature))
        lines.append("" if kind == "blank" else ",".join(fields))
    newline = "\r\n" if "crlf" in odd else "\n"
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), mapping


@settings(max_examples=250, deadline=None)
@given(csv_texts())
def test_bulk_path_reads_every_file_as_the_row_loop_does(tmp_path_factory, drawn):
    text, mapping = drawn
    path = tmp_path_factory.mktemp("differential") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _outcome(lambda: _row_loop(path, mapping))
    columns = _read_bulk(path, mapping)
    path_taken = "row loop" if columns is None else "bulk"
    event(f"{path_taken}: {'error' if isinstance(expected[0], type) else 'dataset'}")
    if columns is not None:
        assert _outcome(lambda: _assemble(path, mapping, *columns)) == expected
    assert _outcome(lambda: read_dataset(path, mapping)) == expected


@pytest.mark.parametrize("column", ["session", "rep"])
@pytest.mark.parametrize("value", ["99999999999999999999", "-9223372036854775809"])
def test_integers_past_int64_name_the_file_row_and_column(tmp_path, column, value):
    path = tmp_path / "big.csv"
    row = {"session": f"u,{value},1,3.0,4.0\n", "rep": f"u,2,{value},3.0,4.0\n"}[column]
    path.write_text(HEADER + "u,1,0,1.0,2.0\n" + row)
    assert _read_bulk(path, ColumnMapping()) is not None
    for read in (read_dataset, _row_loop):
        with pytest.raises(FormatError) as caught:
            read(path)
        assert str(caught.value) == f"{path}: row 3: integer out of range in column '{column}'"
    cmu = tmp_path / "cmu.csv"
    cmu.write_text(path.read_text().replace("user,session", "subject,sessionIndex", 1))
    name = {"session": "sessionIndex", "rep": "rep"}[column]
    with pytest.raises(FormatError, match=f"row 3: integer out of range in column '{name}'"):
        read_dataset(cmu, CMU_KEYSTROKE)


@pytest.mark.parametrize(
    "sessions, missing, last",
    [((1, 2000000000), 2, 2000000000), ((1, 2, 4), 3, 4), ((0, 1, 3), 2, 3), ((2, 3), 1, 3)],
)
def test_a_session_gap_names_the_first_missing_session(
    tmp_path, monkeypatch, sessions, missing, last
):
    path = tmp_path / "gap.csv"
    path.write_text(HEADER + "".join(f"u,{s},{k},1.0,2.0\n" for k, s in enumerate(sessions)))

    def built(*args, **kwargs):
        raise AssertionError("a dataset was built")

    monkeypatch.setattr(Dataset, "from_columns", built)
    for read in (read_dataset, _row_loop):
        with pytest.raises(FormatError) as caught:
            read(path)
        message = f"session {missing} has no rows, though session {last} has"
        assert str(caught.value) == f"{path}: {message}"


def _lines(lo, hi):
    return (f"{i},x\n" for i in range(lo, hi))


@pytest.mark.parametrize("count", [0, 1, 2, 7, 10])
def test_forked_table_lines_equal_one_pass(tmp_path, forks, count):
    path = tmp_path / "t.csv"
    write_table(path, ["n", "v"], [["a", "b,c"]], lines=_lines, count=count)
    assert len(forks) == 1
    assert path.read_bytes() == ("n,v\na,\"b,c\"\n" + "".join(_lines(0, count))).encode()
    assert_reaped_and_clean(tmp_path)


QUOTED_USERS = ["plain", "a,b", 'q"x', "line\nbreak", " pad ", "\u00e9"]


@pytest.mark.parametrize("rows", [2, 3, 4, 8, 11])
def test_forked_dataset_write_equals_one_pass(tmp_path, forks, rows):
    samples = tuple(
        make_sample(QUOTED_USERS[k // 2 % len(QUOTED_USERS)], 1 + k % 2, k,
                    [0.1 * k, -2.5e-7, 1e16 + k])
        for k in range(rows)
    )
    dataset = dataset_of(samples)
    forked, single = tmp_path / "forked.csv", tmp_path / "single.csv"
    write_dataset(dataset, forked)
    assert len(forks) == 1
    in_process(lambda: write_dataset(dataset, single))
    assert len(forks) == 1
    assert forked.read_bytes() == single.read_bytes()
    assert len(forked.read_text(encoding="utf-8").splitlines()) > rows  # one user breaks a line
    assert_reaped_and_clean(tmp_path)


def test_forked_dataset_write_takes_a_str_path(tmp_path, forks):
    samples = tuple(
        make_sample(user, session, session - 1, [0.5 * session])
        for user in QUOTED_USERS
        for session in (1, 2)
    )
    dataset = dataset_of(samples)
    named, single = tmp_path / "named.csv", tmp_path / "single.csv"
    write_dataset(dataset, str(named))
    assert len(forks) == 1
    in_process(lambda: write_dataset(dataset, single))
    assert named.read_bytes() == single.read_bytes()
    assert read_dataset(named) == dataset
    assert_reaped_and_clean(tmp_path)


@st.composite
def small_datasets(draw):
    """The samples of a dataset of 2 or 3 sessions whose users need csv
    quoting or not."""
    d = draw(st.integers(1, 3))
    users = draw(st.lists(st.sampled_from(QUOTED_USERS), min_size=1, max_size=4, unique=True))
    feature = st.floats(allow_nan=False, allow_infinity=False)
    samples = []
    for user in users:
        counts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        order = 0
        for session, count in enumerate(counts, start=1):
            for _ in range(count):
                samples.append(make_sample(user, session, order, draw(st.lists(
                    feature, min_size=d, max_size=d))))
                order += 1
    return tuple(samples)


# `forks` patches the same values for every example and counts forks across them.
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(small_datasets())
def test_forked_write_of_any_small_dataset_equals_one_pass(tmp_path_factory, forks, drawn):
    dataset = dataset_of(drawn)
    directory = tmp_path_factory.mktemp("split")
    forked, single = directory / "forked.csv", directory / "single.csv"
    before = len(forks)
    write_dataset(dataset, forked)
    assert len(forks) == before + 1
    in_process(lambda: write_dataset(dataset, single))
    assert forked.read_bytes() == single.read_bytes()
    assert read_dataset(forked) == dataset
    assert_reaped_and_clean(directory)


@pytest.mark.parametrize("failure", ["raises", "raises after one line", "is killed"])
def test_a_failed_child_leaves_its_half_to_the_parent(tmp_path, forks, failure):
    parent = os.getpid()

    def lines(lo, hi):
        for i in range(lo, hi):
            if os.getpid() != parent and (i > lo or failure != "raises after one line"):
                if failure == "is killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("the child fails")
            yield f"{i},x\n"

    path = tmp_path / "t.csv"
    write_table(path, ["n", "v"], lines=lines, count=9)
    assert len(forks) == 1
    assert path.read_text() == "n,v\n" + "".join(_lines(0, 9))
    assert_reaped_and_clean(tmp_path)


def test_a_parent_failure_still_reaps_the_child_and_removes_the_part(tmp_path, forks):
    parent = os.getpid()

    def lines(lo, hi):
        if os.getpid() == parent and lo == 0:
            raise RuntimeError("the parent fails")
        return _lines(lo, hi)

    with pytest.raises(RuntimeError, match="the parent fails"):
        write_table(tmp_path / "t.csv", ["n", "v"], lines=lines, count=9)
    assert len(forks) == 1
    assert_reaped_and_clean(tmp_path)


def test_short_outputs_threads_and_one_cpu_stay_in_process(tmp_path, monkeypatch):
    forked = []
    monkeypatch.setattr(os, "fork", lambda: forked.append(1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    write_table(tmp_path / "short.csv", ["n", "v"], lines=_lines,
                count=ingest.SPLIT_MIN_LINES - 1)
    assert ingest._two_cores()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not ingest._two_cores()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not ingest._two_cores()
    finally:
        stop.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert not ingest._two_cores()
    assert forked == []
    assert (tmp_path / "short.csv").read_text() == "n,v\n" + "".join(
        _lines(0, ingest.SPLIT_MIN_LINES - 1))


@pytest.fixture
def split_reads(forks, monkeypatch):
    """Sends every dataset file read through the forked reader; the list
    grows by one per fork."""
    monkeypatch.setattr(ingest, "SPLIT_MIN_BYTES", 0)
    return forks


def _one_pass(read):
    """`read()` with every file read in this process only."""
    result = []
    in_process(lambda: result.append(read()))
    return result[0]


def _columns_bytes(columns):
    return None if columns is None else (*columns[:4], columns[4].tobytes())


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(csv_texts())
def test_split_read_reads_every_file_as_the_row_loop_does(tmp_path_factory, split_reads, drawn):
    text, mapping = drawn
    directory = tmp_path_factory.mktemp("split-read")
    path = directory / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _outcome(lambda: _row_loop(path, mapping))
    assert _outcome(lambda: read_dataset(path, mapping)) == expected
    split = _read_bulk(path, mapping)
    assert _columns_bytes(split) == _columns_bytes(_one_pass(lambda: _read_bulk(path, mapping)))
    assert_reaped_and_clean(directory)


def _split_file(tmp_path, rows=40):
    """A file of `rows` valid rows of one user over sessions 1 and 2."""
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "".join(f"u,{1 + k % 2},{k},{k}.5,-{k}.25\n" for k in range(rows)))
    return path


@pytest.mark.parametrize(
    "row, line, message",
    [
        (30, "u,2,30,1.0,x\n", "row 32: non-numeric feature 'f2'"),
        (30, "u,2,30,1.0\n", "row 32: expected 5 fields, got 4"),
        (5, "u,2,5,x,2.0\n", "row 7: non-numeric feature 'f1'"),
        (30, '"u",2,30,1.0,2.0\n', None),
        (39, "u,2,39,1.0,2.0\r\n", None),
    ],
    ids=["non-numeric", "short row", "non-numeric before the cut", "quote", "CRLF"],
)
def test_a_row_for_the_row_loop_in_either_part(tmp_path, split_reads, row, line, message):
    path = _split_file(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    lines[row + 1] = line
    path.write_text("".join(lines), newline="")
    assert _read_bulk(path, ColumnMapping()) is None
    outcome = _outcome(lambda: read_dataset(path))
    assert outcome == _outcome(lambda: _row_loop(path))
    if message is not None:
        assert outcome == (FormatError, f"{path}: {message}")
    assert split_reads
    assert_reaped_and_clean(tmp_path)


@pytest.mark.parametrize("failure", ["raises", "is killed", "sends too little", "sends too much"])
def test_a_failed_or_short_child_leaves_its_rows_to_the_parent(
    tmp_path, split_reads, monkeypatch, failure
):
    path = _split_file(tmp_path)
    expected = _one_pass(lambda: _read_bulk(path, ColumnMapping()))
    parent = os.getpid()
    features = ingest._features

    def failing(*args):
        if os.getpid() != parent:
            if failure == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("the child fails")
        return features(*args)

    if failure in ("raises", "is killed"):
        monkeypatch.setattr(ingest, "_features", failing)
    else:
        # Eight bytes fewer or more shift every value the child sends.
        alter = (lambda sent: sent[8:]) if failure == "sends too little" else (
            lambda sent: bytes(8) + sent)
        monkeypatch.setattr(ingest, "split_work", altered_child(ingest.split_work, alter))
    assert _columns_bytes(_read_bulk(path, ColumnMapping())) == _columns_bytes(expected)
    assert len(split_reads) == 1
    assert read_dataset(path) == _one_pass(lambda: read_dataset(path))
    assert_reaped_and_clean(tmp_path)


def test_a_parent_failure_still_reaps_the_reading_child(tmp_path, split_reads, monkeypatch):
    path = _split_file(tmp_path)
    parent = os.getpid()
    features = ingest._features

    def failing(*args):
        if os.getpid() == parent:
            raise RuntimeError("the parent fails")
        return features(*args)

    monkeypatch.setattr(ingest, "_features", failing)
    with pytest.raises(RuntimeError, match="the parent fails"):
        read_dataset(path)
    assert len(split_reads) == 1
    assert_reaped_and_clean(tmp_path)


def test_a_failure_here_kills_the_child_at_once(tmp_path, forks):
    def here():
        raise RuntimeError("this process fails")

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="this process fails"):
        ingest.split_work(here, lambda: time.sleep(60))
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_reaped_and_clean(tmp_path)
