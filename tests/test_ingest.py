import numpy as np
import pytest

from tubench import (
    CMU_KEYSTROKE,
    ColumnMapping,
    FormatError,
    SynthConfig,
    ValidationError,
    generate,
    read_dataset,
    write_dataset,
)
from tubench.ingest import read_table, write_table
from conftest import dataset_of, make_sample


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
        dataset = dataset_of(int(d), int(sessions), tuple(samples))
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
    dataset = dataset_of(3, 2, samples)
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
    write_dataset(dataset_of(2, 2, samples), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user,session,rep,f1,f2"
    assert lines[1].startswith("a,1,0,")  # rows sorted by user then session
    assert lines[-1].startswith("z,2,1,")
    assert len(lines) == 5


def test_singleton_dataset_writes_header_plus_one_row(tmp_path):
    dataset = dataset_of(2, 2, (make_sample("only", 1, 0, [1.0, 2.0]),))
    path = tmp_path / "one.csv"
    write_dataset(dataset, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "only,1,0,1.0,2.0"


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
