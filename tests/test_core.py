import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubench import (
    ColumnMapping,
    Dataset,
    ExperimentConfig,
    Label,
    Mode,
    QueryEvent,
    ScoreLog,
    ScoreRecord,
    StreamConfig,
    SynthConfig,
    UpdateStrategy,
    ValidationError,
    score_log_violations,
)
from tubench.core import fields_of, shown, typed
from conftest import dataset_of, log_columns, log_of, make_sample, sample_columns


def reference_violations(width, samples):
    """Reference row-by-row scan of the dataset invariants, for sample-shaped
    records whose features are `width` values each."""
    num_sessions = max([0, *(sample.session for sample in samples)])
    problems = []
    if width < 1:
        problems.append(f"dimension must be >= 1, got {width}")
    if num_sessions < 2:
        problems.append(f"dataset must span at least 2 sessions, got {num_sessions}")
    seen_keys = set()
    users_with_session1 = set()
    all_users = set()
    for sample in samples:
        key = (sample.user_id, sample.session, sample.order_index)
        key_text = f"({key[0]}, session {key[1]}, #{key[2]})"
        all_users.add(sample.user_id)
        if key in seen_keys:
            problems.append(f"duplicate sample key {key_text}")
        seen_keys.add(key)
        if sample.session < 1:
            problems.append(f"sample {key_text}: session outside [1, {num_sessions}]")
        elif sample.session == 1:
            users_with_session1.add(sample.user_id)
        if not np.all(np.isfinite(sample.features)):
            problems.append(f"sample {key_text}: non-finite feature value")
    for user in sorted(all_users - users_with_session1, key=str):
        problems.append(f"user {user}: no session-1 samples (no enrollment material)")
    present = {s.session for s in samples}
    empty = next((s for s in range(1, num_sessions + 1) if s not in present), None)
    if empty is not None:
        problems.append(f"session {empty} of {num_sessions}: no samples")
    return problems


_feature_value = st.one_of(
    st.floats(-5.0, 5.0), st.sampled_from([math.nan, math.inf, -math.inf])
)


@st.composite
def sample_shaped_records(draw):
    width = draw(st.integers(0, 4))
    records = draw(
        st.lists(
            st.builds(
                SimpleNamespace,
                user_id=st.sampled_from(["a", "b", "c", "u10", "u2"]),
                session=st.integers(-1, 5),
                order_index=st.integers(-2, 3),
                features=st.lists(_feature_value, min_size=width, max_size=width),
            ),
            max_size=25,
        )
    )
    return width, records


@settings(max_examples=300, deadline=None)
@given(sample_shaped_records())
def test_column_validator_matches_the_row_by_row_scan(case):
    width, records = case
    expected = reference_violations(width, records)
    columns = sample_columns(records, width)
    if expected:
        with pytest.raises(ValidationError) as err:
            Dataset.from_columns(*columns)
        assert err.value.violations == expected
    else:
        Dataset.from_columns(*columns)


def violations(samples):
    """The `ValidationError.violations` that `Dataset.from_columns` raises
    over the columns of sample-shaped records, or [] when it builds."""
    try:
        Dataset.from_columns(*sample_columns(samples))
    except ValidationError as err:
        return err.violations
    return []


def test_sample_is_an_unchecked_view():
    sample = make_sample("u", 0, -1, [math.nan])
    assert (sample.session, sample.order_index) == (0, -1)
    assert math.isnan(sample.features[0])


def _ok_samples():
    return (
        make_sample("a", 1, 0, [0.0, 0.0]),
        make_sample("a", 1, 1, [1.0, 1.0]),
        make_sample("a", 2, 2, [2.0, 2.0]),
        make_sample("b", 1, 0, [3.0, 3.0]),
        make_sample("b", 2, 1, [4.0, 4.0]),
    )


def test_well_formed_dataset_has_no_violations():
    assert violations(_ok_samples()) == []
    dataset_of(_ok_samples())


def test_violation_for_missing_enrollment_session():
    samples = [make_sample("a", 1, 0, [0.0]), make_sample("b", 2, 0, [1.0])]
    problems = violations(samples)
    assert len(problems) == 1
    assert "b" in problems[0] and "session-1" in problems[0]


def test_violation_for_non_finite_feature_names_sample():
    samples = [make_sample("a", 1, 0, [math.nan]), make_sample("a", 2, 1, [0.5])]
    problems = violations(samples)
    assert len(problems) == 1
    assert "non-finite" in problems[0] and "a" in problems[0]


def test_violation_for_duplicate_sample_key():
    samples = [make_sample("a", 1, 0, [0.0]), make_sample("a", 1, 0, [1.0])]
    assert any("duplicate" in p for p in violations(samples))


def test_violation_for_session_out_of_range():
    samples = [make_sample("a", 1, 0, [0.0]), make_sample("a", 2, 1, [1.0]),
               make_sample("a", 0, 2, [1.0])]
    assert violations(samples) == ["sample (a, session 0, #2): session outside [1, 2]"]


def test_dimension_and_session_count_are_read_off_the_rows():
    samples = [make_sample(user, session, session, [0.5 * session, 1.0, -2.0])
               for user in ("a", "b") for session in (1, 3, 2)]
    dataset = dataset_of(samples)
    assert (dataset.dimension, dataset.num_sessions) == (3, 3)
    assert dataset.dimension == dataset.feature_matrix.shape[1]
    assert dataset.num_sessions == int(dataset.row_session.max())
    assert [len(rows) for rows in dataset.session_rows] == [0, 2, 2, 2]
    with pytest.raises(TypeError):
        Dataset.from_columns(3, 3, *sample_columns(samples))


def test_violations_come_in_row_order_then_users_without_enrollment():
    samples = [
        make_sample("c", 0, 0, [0.0]),
        make_sample("a", 1, 0, [0.0]),
        make_sample("a", 1, 0, [math.inf]),
        make_sample("b", 2, 0, [1.0]),
    ]
    expected = [
        "sample (c, session 0, #0): session outside [1, 2]",
        "duplicate sample key (a, session 1, #0)",
        "sample (a, session 1, #0): non-finite feature value",
        "user b: no session-1 samples (no enrollment material)",
        "user c: no session-1 samples (no enrollment material)",
    ]
    assert reference_violations(1, samples) == expected
    assert violations(samples) == expected


@pytest.mark.parametrize(
    "sessions, message",
    [((1, 3), "session 2 of 3"), ((1, 2_000_000_000), "session 2 of 2000000000")],
)
def test_first_session_without_samples_is_named_without_a_per_session_array(sessions, message):
    samples = [make_sample("a", s, k, [float(k)]) for k, s in enumerate(sessions)]
    tracemalloc.start()
    try:
        problems = violations(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == [f"{message}: no samples"]
    assert peak < 1 << 20


def test_dataset_construction_rejects_violations():
    samples = [make_sample("a", 1, 0, [0.0]), make_sample("b", 2, 0, [1.0])]
    with pytest.raises(ValidationError) as err:
        dataset_of(samples)
    assert any("session-1" in v for v in err.value.violations)


def test_dataset_lookup_is_chronological():
    dataset = dataset_of(_ok_samples())
    assert dataset.users == ("a", "b")
    orders = dataset.row_order[dataset.row_user == dataset.users.index("a")].tolist()
    assert orders == sorted(orders)
    assert dataset.row_order[dataset.row_range("a", 1)].tolist() == [0, 1]
    assert dataset.row_session[dataset.row_range("a", 2)][0] == 2


def _fields(samples):
    return [(s.user_id, s.session, s.order_index, s.features.tolist()) for s in samples]


def test_dataset_from_columns_equals_dataset_from_samples():
    samples = _ok_samples()
    columns = Dataset.from_columns(
        [s.user_id for s in reversed(samples)],
        [s.session for s in reversed(samples)],
        [s.order_index for s in reversed(samples)],
        [s.features.tolist() for s in reversed(samples)],
    )
    assert columns == dataset_of(samples)
    assert _fields(columns.samples) == _fields(dataset_of(samples).samples)
    assert _fields(columns.samples) == _fields(sorted(samples, key=lambda s: (s.user_id, s.session)))
    assert not columns.feature_matrix.flags.writeable
    with pytest.raises(ValueError):
        columns.samples[0].features[0] = 9.0
    with pytest.raises(ValidationError, match="session-1"):
        Dataset.from_columns(["a"], [2], [0], np.array([[1.0]]))


@pytest.mark.parametrize(
    "user_ids, sessions, order_indices, features, column",
    [
        (["a"], [1], [0], [1.0], "features"),  # one vector, not a matrix
        (["a", "a"], [1, 2], [0, 1], [[1.0], [1.0, 2.0]], "features"),  # ragged rows
        (["a", "a"], [1, 2], [0, 1], [["x"], ["y"]], "features"),  # not numbers
        (["a", "b"], [1, 1], [0, 1], [[1.0]], "user_ids"),  # 2 user ids, 1 row
        (["a"], [1, 2], [0, 1], [[1.0], [2.0]], "user_ids"),  # 1 user id, 2 rows
        (["a", "a"], [1], [0, 1], [[1.0], [2.0]], "sessions"),
        (["a", "a"], [1, 2], [0, 1, 2], [[1.0], [2.0]], "order_indices"),
        (["a", "a"], [[1, 1], [2, 2]], [0, 1], [[1.0], [2.0]], "sessions"),  # 2-D
        (["a", "a"], 1, [0, 1], [[1.0], [2.0]], "sessions"),  # a scalar
        (["a", "a"], [1, 2], [[0], [1]], [[1.0], [2.0]], "order_indices"),  # 2-D
        (["a", "a"], [1, 2], [0, [1, 2]], [[1.0], [2.0]], "order_indices"),  # ragged
        ([["a"], ["a"]], [1, 2], [0, 1], [[1.0], [2.0]], "user_ids"),  # 2-D
        ("a", [1], [0], [[1.0]], "user_ids"),  # a scalar
        (["a", "a"], [1, 10**20], [0, 1], [[1.0], [2.0]], "sessions"),  # past intp
        (["a", "a"], [1, 2], [0, 10**20], [[1.0], [2.0]], "order_indices"),  # past intp
    ],
    ids=[
        "vector", "ragged", "not-numbers", "2-ids-1-row", "1-id-2-rows", "sessions", "orders",
        "2d-sessions", "scalar-sessions", "2d-orders", "ragged-orders", "2d-ids", "scalar-ids",
        "overflow-sessions", "overflow-orders",
    ],
)
def test_malformed_columns_are_rejected_by_name(
    user_ids, sessions, order_indices, features, column
):
    with pytest.raises(ValidationError, match=f"column {column} "):
        Dataset.from_columns(user_ids, sessions, order_indices, features)


@pytest.mark.parametrize("short", ["repeat", "target", "raw", "applied"])
def test_log_columns_of_unequal_length_are_rejected_by_name(short):
    columns = {
        "repeat": [0, 0], "session": [2, 2], "target": [0, 0], "source": [0, 1],
        "raw": [1.0, 2.0], "centered": [0.0, 1.0], "applied": [False, False],
    }
    columns[short] = columns[short][:1]
    with pytest.raises(ValidationError, match=f"^column {short} has 1 entries, not 2$"):
        ScoreLog(("a", "b"), 2, Mode.ONLINE, *columns.values())


@pytest.mark.parametrize("repeat", [[10**20], ["x"], [[1, 2]]], ids=["overflow", "not-integers", "2d"])
def test_a_malformed_log_column_is_rejected_by_name(repeat):
    columns = [repeat, [2], [0], [1], [1.0], [0.0], [False]]
    with pytest.raises(
        ValidationError, match="^column repeat must be a one-dimensional column of integers$"
    ):
        ScoreLog(("a", "b"), 2, Mode.ONLINE, *columns)


def test_a_log_leaves_the_callers_columns_writable():
    repeat = np.zeros(1, dtype=np.intp)
    log = ScoreLog(("a", "b"), 2, Mode.ONLINE, repeat, [2], [0], [1], [1.0], [0.0], [False])
    assert repeat.flags.writeable and not log.repeat.flags.writeable


def test_dataset_equality_is_field_for_field():
    first = dataset_of(_ok_samples())
    second = dataset_of(reversed(_ok_samples()))
    assert first == second


def test_query_event_rejects_inconsistent_label():
    sample = make_sample("a", 2, 0, [0.0])
    with pytest.raises(ValidationError):
        QueryEvent(sample, "a", Label.IMPOSTOR, 0)
    with pytest.raises(ValidationError):
        QueryEvent(sample, "b", Label.GENUINE, 0)
    QueryEvent(sample, "b", Label.IMPOSTOR, 0)  # consistent: fine


def test_score_record_rejects_bad_values():
    with pytest.raises(ValidationError):
        ScoreRecord(0, 2, "a", "a", Label.GENUINE, -0.5, 0.0, False)
    with pytest.raises(ValidationError):
        ScoreRecord(0, 2, "a", "a", Label.GENUINE, 1.0, math.nan, False)
    with pytest.raises(ValidationError):
        ScoreRecord(0, 2, "a", "b", Label.GENUINE, 1.0, 0.0, False)


def _record(repeat, session, target="t", source="s", centered=0.0):
    label = Label.GENUINE if target == source else Label.IMPOSTOR
    return ScoreRecord(repeat, session, target, source, label, 1.0, centered, False)


def test_online_log_must_cover_sessions_2_to_s():
    records = (_record(0, 2), _record(0, 3))
    log = log_of(records, 3, Mode.ONLINE)
    assert list(log.covered_sessions) == [2, 3]
    with pytest.raises(ValidationError):
        log_of((_record(0, 2),), 3, Mode.ONLINE)  # session 3 missing
    with pytest.raises(ValidationError):
        log_of(records, 2, Mode.ONLINE)  # session 3 out of range


def test_offline_log_covers_3_to_s_only():
    log = log_of((_record(0, 3),), 3, Mode.OFFLINE)
    assert list(log.covered_sessions) == [3]
    with pytest.raises(ValidationError):
        log_of((_record(0, 2), _record(0, 3)), 3, Mode.OFFLINE)


def test_log_rejects_out_of_stream_order_records():
    records = (_record(0, 3), _record(0, 2))
    with pytest.raises(ValidationError, match="stream order"):
        log_of(records, 3, Mode.ONLINE)


def test_log_keeps_each_record_repeat():
    records = (_record(0, 2), _record(1, 2), _record(0, 3), _record(1, 3))
    log = log_of(records, 3, Mode.ONLINE)
    assert np.unique(log.repeat).tolist() == [0, 1]
    assert log.repeat.tolist() == [0, 1, 0, 1]


def test_log_keeps_users_as_a_tuple():
    log = log_of((_record(0, 2), _record(0, 3)), 3, Mode.ONLINE)
    assert log.users == ("s", "t")
    for users in (["s", "t"], iter(["s", "t"])):
        rebuilt = ScoreLog(users, 3, Mode.ONLINE, *log_columns(log))
        assert rebuilt.users == ("s", "t")
        assert {rebuilt.users: 0}[log.users] == 0


def reference_log_violations(num_sessions, mode, rows):
    """The record-by-record checks: each record's, as ScoreRecord makes
    them, then the scan the record-holding ScoreLog made."""
    problems = []
    for r in rows:
        if r.repeat_id < 0:
            problems.append("repeat_id must be >= 0")
        if r.session < 1:
            problems.append("session must be >= 1")
        if not (np.isfinite(r.raw_score) and r.raw_score >= 0):
            problems.append(f"raw_score must be finite and >= 0, got {r.raw_score}")
        if not np.isfinite(r.centered_score):
            problems.append(f"centered_score must be finite, got {r.centered_score}")
        if (r.true_label is Label.GENUINE) != (r.source_user == r.target_user):
            problems.append(
                f"record {r.source_user} vs {r.target_user}: "
                f"label {r.true_label.value} contradicts user identity"
            )
    expected = range(2 if mode is Mode.ONLINE else 3, num_sessions + 1)
    if num_sessions < expected.start:
        problems.append(f"{mode.value} log needs at least {expected.start} sessions")
    covered = {r.session for r in rows}
    if covered != set(expected):
        problems.append(
            f"{mode.value} log must cover sessions {list(expected)}, got {sorted(covered)}"
        )
    last_session = {}
    for r in rows:
        group = (r.repeat_id, r.target_user)
        if last_session.get(group, 0) > r.session:
            problems.append(
                f"records for repeat {group[0]}, user {group[1]} are out of stream order"
            )
            break
        last_session[group] = r.session
    return problems


@st.composite
def score_log_rows(draw):
    num_sessions = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(list(Mode)))
    raw = st.one_of(st.floats(0.0, 10.0), st.sampled_from([-0.5, math.nan, math.inf]))
    centered = st.one_of(st.floats(-5.0, 5.0), st.just(math.nan))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        target, source = draw(st.sampled_from(["a", "b", "u10"])), draw(st.sampled_from(["a", "u10"]))
        rows.append(SimpleNamespace(
            repeat_id=draw(st.integers(-1, 1)), session=draw(st.integers(0, 4)),
            target_user=target, source_user=source,
            true_label=Label.GENUINE if target == source else Label.IMPOSTOR,
            raw_score=draw(raw), centered_score=draw(centered),
        ))
    return num_sessions, mode, rows


@settings(max_examples=400, deadline=None)
@given(score_log_rows())
def test_log_column_checks_match_the_record_by_record_checks(case):
    num_sessions, mode, rows = case
    expected = reference_log_violations(num_sessions, mode, rows)
    users = sorted({r.target_user for r in rows} | {r.source_user for r in rows})
    columns = (
        [r.repeat_id for r in rows],
        [r.session for r in rows],
        [users.index(r.target_user) for r in rows],
        [users.index(r.source_user) for r in rows],
        [r.raw_score for r in rows],
        [r.centered_score for r in rows],
    )
    assert score_log_violations(num_sessions, mode, users, *columns) == expected
    applied = [False] * len(rows)
    if expected:
        with pytest.raises(ValidationError) as err:
            ScoreLog(users, num_sessions, mode, *columns, applied)
        assert err.value.violations == expected
    else:
        ScoreLog(users, num_sessions, mode, *columns, applied)


def test_core_types_are_frozen():
    sample = make_sample("a", 1, 0, [0.0])
    with pytest.raises(AttributeError):
        sample.session = 2
    record = _record(0, 2)
    with pytest.raises(AttributeError):
        record.session = 5


CONFIGS = (
    SynthConfig(3, 3, 2, 2),
    ColumnMapping(),
    StreamConfig(0.3),
    UpdateStrategy(),
    ExperimentConfig(Mode.ONLINE, StreamConfig(0.3), UpdateStrategy()),
)


def _wrong_types(kind):
    """Values that are not of one `fields_of` kind."""
    if isinstance(kind, list):
        return ["x", [5]]
    return {
        int: [2.5, True, "1"], float: [True, "0.5"], bool: [1, "false"], str: [5, ["x"]],
    }.get(kind, [5, "x"])  # an Enum or a config dataclass


@pytest.mark.parametrize(
    "config, name, kind, value",
    [
        pytest.param(config, name, kind, value, id=f"{type(config).__name__}.{name}={value!r}")
        for config in CONFIGS
        for name, (kind, _) in fields_of(type(config)).items()
        for value in _wrong_types(kind)
    ],
)
def test_every_config_field_of_the_wrong_type_fails_naming_it(config, name, kind, value):
    with pytest.raises(TypeError) as misfit:
        typed(kind, value)
    with pytest.raises(ValidationError) as caught:
        dataclasses.replace(config, **{name: value})
    assert caught.value.violations == [f"{name} must be {misfit.value}, got {value!r}"]


HUGE = 10**5000  # past Python's 4,300-digit limit on writing an int in decimal


@pytest.mark.parametrize(
    "build, name",
    [
        pytest.param(lambda: StreamConfig(HUGE), "impostor_ratio", id="stream-ratio"),
        pytest.param(lambda: UpdateStrategy(capacity=-HUGE), "capacity", id="update-capacity"),
        pytest.param(
            lambda: ExperimentConfig(Mode.ONLINE, StreamConfig(0.3), UpdateStrategy(), -HUGE),
            "repeats", id="experiment-repeats",
        ),
        pytest.param(lambda: SynthConfig(-HUGE, 3, 2, 2), "num_users", id="synth-users"),
        pytest.param(
            lambda: SynthConfig(3, 3, 2, 2, base_spread=HUGE), "base_spread", id="synth-spread",
        ),
        pytest.param(lambda: ColumnMapping(HUGE), "user_column", id="mapping-user"),
    ],
)
def test_an_int_too_long_to_print_is_rejected_by_name(build, name):
    with pytest.raises(ValidationError) as caught:
        build()
    [problem] = caught.value.violations
    assert problem.startswith(f"{name} must be "), problem
    assert problem.endswith(" integer of 16610 bits"), problem


def test_shown_is_the_repr_of_anything_it_can_print():
    assert [shown(value) for value in (2.5, "x", -3, ("a",))] == ["2.5", "'x'", "-3", "('a',)"]
    assert shown(-HUGE) == "a negative integer of 16610 bits"
    assert shown((HUGE,)) == "a tuple too long to show"


def test_every_wrong_field_is_named_before_any_range_check():
    with pytest.raises(ValidationError) as caught:
        SynthConfig(0, "3", 2, 2, noise_scale=-1.0, seed=None)
    assert caught.value.violations == [
        "num_sessions must be an integer, got '3'", "seed must be an integer, got None",
    ]


@pytest.mark.parametrize(
    "kind, value, expected",
    [
        (int, np.int64(3), 3), (int, -(2**65), -(2**65)), (float, 2, 2.0),
        (float, np.float32(0.5), 0.5), (bool, False, False), (str, "a", "a"),
        (Mode, "offline", Mode.OFFLINE), (Mode, Mode.ONLINE, Mode.ONLINE),
        ([Label], ["impostor", Label.GENUINE], (Label.IMPOSTOR, Label.GENUINE)),
        ([str], [], ()),
    ],
)
def test_typed_converts_by_the_one_rule(kind, value, expected):
    got = typed(kind, value)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "kind, value, what",
    [
        (int, True, "an integer"), (int, 2.0, "an integer"), (bool, 1, "a boolean"),
        (bool, np.True_, "a boolean"), (float, False, "a number"),
        (float, 10**400, "a number that fits a float"), (str, b"a", "a string"),
        (Mode, "Online", "one of ['online', 'offline']"), ([str], "ab", "a list, each a string"),
        ([Label], ["genuin"], "a list, each one of ['genuine', 'impostor']"),
        (StreamConfig, {"impostor_ratio": 0.3}, "of type StreamConfig"),
    ],
)
def test_typed_says_what_a_misfit_must_be(kind, value, what):
    with pytest.raises(TypeError, match=f"^{re.escape(what)}$"):
        typed(kind, value)
