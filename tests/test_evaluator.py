import math
from dataclasses import astuple
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubench import (
    ConfigError,
    Dataset,
    EnrollmentError,
    GlobalOrder,
    Label,
    LocalOrder,
    Mode,
    ScoreRecord,
    SessionPolicy,
    StrategyKind,
    StreamConfig,
    StreamError,
    UpdateStrategy,
    ValidationError,
    ExperimentConfig,
    centered_score,
    enroll,
    impostor_count,
    maybe_update,
    next_query,
    plan_session,
    raw_score,
    run_experiment,
)
from tubench import evaluator, stream as stream_module
from tubench.matcher import ReferenceLanes
from tubench.stream import CLOSEST, session_layouts
from tubench.synthdata import SynthConfig, generate
from conftest import (
    center, dataset_of, log_columns, log_of, log_rows, make_sample, mix64, planned,
)

SCRIPTED = (Label.GENUINE, Label.IMPOSTOR)


def trace_config(mode, kind=StrategyKind.SELF_THRESHOLD, threshold=-0.2, repeats=1):
    stream = StreamConfig(
        impostor_ratio=0.5, global_order=GlobalOrder.SCRIPTED, scripted=SCRIPTED
    )
    return ExperimentConfig(
        mode=mode,
        stream=stream,
        strategy=UpdateStrategy(kind, threshold=threshold),
        repeats=repeats,
        base_seed=7,
    )


def small_synth(seed=3, users=4, sessions=4, per_session=4, d=3):
    return generate(
        SynthConfig(users, sessions, per_session, d, base_spread=1.0,
                    drift_scale=0.05, noise_scale=0.2, seed=seed)
    )


def test_online_covers_one_session_more_than_offline():
    dataset = small_synth()
    stream = StreamConfig(impostor_ratio=0.3)
    online = run_experiment(
        dataset,
        ExperimentConfig(Mode.ONLINE, stream, UpdateStrategy(StrategyKind.NONE), 1, 5),
    )
    offline = run_experiment(
        dataset,
        ExperimentConfig(Mode.OFFLINE, stream, UpdateStrategy(StrategyKind.NONE), 1, 5),
    )
    assert list(online.log.covered_sessions) == [2, 3, 4]
    assert list(offline.log.covered_sessions) == [3, 4]
    # inclusion is read after every session 2..4, for each of the 4 users
    assert online.inclusion.shape == (1, 3, 4)
    assert offline.inclusion.shape == (1, 3, 4)


def test_runs_are_deterministic():
    dataset = small_synth()
    config = ExperimentConfig(
        Mode.ONLINE,
        StreamConfig(impostor_ratio=0.3),
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, -0.1),
        repeats=2,
        base_seed=11,
    )
    first = run_experiment(dataset, config)
    second = run_experiment(dataset, config)
    assert first.log.users == second.log.users
    for got, expected in zip(log_columns(first.log), log_columns(second.log)):
        assert got.tobytes() == expected.tobytes()
    assert first.inclusion.tobytes() == second.inclusion.tobytes()


ENUM_FIELDS = {
    "global_order": GlobalOrder,
    "local_order": LocalOrder,
    "impostor_session_policy": SessionPolicy,
    "mode": Mode,
}


def config_with(field, value):
    """A run that absorbs and evicts impostors, with one stream field or the
    mode set to `value`."""
    fields = {"mode": Mode.ONLINE, field: value}
    mode = fields.pop("mode")
    return ExperimentConfig(
        mode,
        StreamConfig(0.5, **fields),
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, 50.0, capacity=SESSION_SIZE + 2),
        repeats=2,
        base_seed=3,
    )


@pytest.mark.parametrize(
    "field, member",
    [(field, member) for field, kind in ENUM_FIELDS.items() for member in kind
     if member is not GlobalOrder.SCRIPTED],
)
def test_an_enum_field_given_by_value_runs_as_its_member(field, member):
    by_value, by_member = config_with(field, member.value), config_with(field, member)
    configured = by_value if field == "mode" else by_value.stream
    assert getattr(configured, field) is member
    dataset = close_users(5)
    got, expected = (run_experiment(dataset, config) for config in (by_value, by_member))
    for value_column, member_column in zip(log_columns(got.log), log_columns(expected.log)):
        assert value_column.tobytes() == member_column.tobytes()
    assert got.inclusion.tobytes() == expected.inclusion.tobytes()


@pytest.mark.parametrize("field", list(ENUM_FIELDS))
def test_an_unknown_enum_value_is_rejected_by_name(field):
    with pytest.raises(ValidationError) as caught:
        config_with(field, "sideways")
    choices = [member.value for member in ENUM_FIELDS[field]]
    assert caught.value.violations == [f"{field} must be one of {choices}, got 'sideways'"]


@pytest.mark.parametrize(
    "field, value", [("repeats", 2.5), ("repeats", True), ("repeats", "2"),
                     ("base_seed", 1.5), ("base_seed", False), ("base_seed", None)],
)
def test_repeats_and_base_seed_must_be_integers(field, value):
    with pytest.raises(ValidationError) as caught:
        ExperimentConfig(Mode.ONLINE, StreamConfig(0.3), UpdateStrategy(), **{field: value})
    assert caught.value.violations == [f"{field} must be an integer, got {value!r}"]


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1e-6])
def test_eps_must_be_finite_and_positive(eps):
    with pytest.raises(ValidationError) as caught:
        ExperimentConfig(Mode.ONLINE, StreamConfig(0.3), UpdateStrategy(), eps=eps)
    assert caught.value.violations == [f"eps must be finite and > 0, got {eps}"]


def test_repeats_must_be_positive_and_may_be_any_integer_type():
    stream, strategy = StreamConfig(0.3), UpdateStrategy()
    with pytest.raises(ValidationError, match="^repeats must be >= 1, got 0$"):
        ExperimentConfig(Mode.ONLINE, stream, strategy, repeats=0)
    config = ExperimentConfig(Mode.ONLINE, stream, strategy, np.int64(2), -(2**65))
    assert (config.repeats, config.base_seed) == (2, -(2**65))


def test_offline_needs_at_least_three_sessions():
    dataset = small_synth(sessions=2)
    config = ExperimentConfig(
        Mode.OFFLINE, StreamConfig(impostor_ratio=0.3), UpdateStrategy(StrategyKind.NONE)
    )
    with pytest.raises(ConfigError, match="3 sessions"):
        run_experiment(dataset, config)


@pytest.mark.parametrize("repeats", [10**30, 2**50])
def test_repeats_too_many_for_the_run_arrays_fail_naming_repeats_before_enrollment(
    monkeypatch, repeats
):
    # numpy refuses both shapes before it touches a page: 10**30 exceeds its
    # largest dimension, 2**50 x 3 x 4 entries its address space.
    enrolled = []
    monkeypatch.setattr(evaluator, "enroll", lambda *args, **kwargs: enrolled.append(args))
    config = ExperimentConfig(Mode.ONLINE, StreamConfig(0.3), UpdateStrategy(StrategyKind.NONE),
                              repeats)
    with pytest.raises(ConfigError) as caught:
        run_experiment(small_synth(), config)
    assert type(caught.value) is ConfigError
    assert str(caught.value).startswith(f"repeats {repeats} is too large to run: ")
    assert enrolled == []


def test_runs_build_no_sample_views_and_evict_updates_oldest_first(monkeypatch):
    galleries = recording_lanes(monkeypatch)
    dataset = small_synth()  # built from columns
    for mode in Mode:
        strategy = UpdateStrategy(StrategyKind.SUPERVISED, capacity=6)
        result = run_experiment(
            dataset, ExperimentConfig(mode, StreamConfig(impostor_ratio=0.3), strategy, 1, 2)
        )
        models = galleries(len(dataset.users))
        updates = result.updates
        assert (dataset.row_user[updates["row"]] == updates["target"]).all(), mode
        assert derived_evictions(dataset, result).any(), mode
        for user_index, model in enumerate(models):
            rows = updates["row"][updates["target"] == user_index]
            kept = len(model.vectors) - 4
            # The gallery keeps the newest `kept` updates, in the order applied.
            newest = dataset.feature_matrix[rows[rows.size - kept :]]
            assert model.vectors[4:].tobytes() == newest.tobytes()
            assert dataset.row_user[rows[rows.size - kept :]].tolist() == [user_index] * kept
        assert not result.inclusion.any(), mode
    assert "samples" not in dataset.__dict__


def test_online_single_user_scores_match_standalone_recomputation():
    # one user, no impostors, no updates: every logged score must equal
    # what a freestanding scorer computes over the same chronological
    # sample sequence against the frozen enrollment reference.
    samples = [make_sample("solo", 1, i, [float(i), 1.0]) for i in range(3)]
    samples += [make_sample("solo", s, 3 * (s - 1) + i, [0.5 * s + 0.1 * i, 1.0])
                for s in (2, 3) for i in range(3)]
    dataset = dataset_of(tuple(samples))
    config = ExperimentConfig(
        Mode.ONLINE, StreamConfig(impostor_ratio=0.0), UpdateStrategy(StrategyKind.NONE),
        repeats=1, base_seed=2,
    )
    result = run_experiment(dataset, config)

    ref = enroll("solo", dataset.feature_matrix[dataset.row_range("solo", 1)])
    expected = []
    for session in (2, 3):
        for features in dataset.feature_matrix[dataset.row_range("solo", session)]:
            raw = raw_score(ref, features)
            expected.append((session, raw, center(ref, raw)))
    log = result.log
    got = list(zip(log.session.tolist(), log.raw.tolist(), log.centered.tolist()))
    assert got == expected


def test_online_applied_records_match_gallery_insertions():
    dataset = small_synth(users=5)
    config = ExperimentConfig(
        Mode.ONLINE,
        StreamConfig(impostor_ratio=0.3),
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, 0.5),
        repeats=2,
        base_seed=13,
    )
    result = run_experiment(dataset, config)
    log, updates = result.log, result.updates
    for repeat in range(config.repeats):
        for user_index, user in enumerate(dataset.users):
            rows = (log.repeat == repeat) & (log.target == user_index)
            applied = np.count_nonzero(log.applied[rows])
            ours = (updates["repeat"] == repeat) & (updates["target"] == user_index)
            assert np.count_nonzero(ours) == applied
            inserted = result.gallery_size[repeat, -1, user_index] - len(dataset.row_range(user, 1))
            assert applied == inserted


def test_offline_and_online_agree_when_nothing_updates():
    dataset = small_synth(users=5, sessions=5)
    stream = StreamConfig(impostor_ratio=0.3)
    online = run_experiment(
        dataset, ExperimentConfig(Mode.ONLINE, stream, UpdateStrategy(StrategyKind.NONE), 2, 17)
    )
    offline = run_experiment(
        dataset, ExperimentConfig(Mode.OFFLINE, stream, UpdateStrategy(StrategyKind.NONE), 2, 17)
    )
    for session in (3, 4, 5):
        on = sorted(online.log.centered[online.log.session == session].tolist())
        off = sorted(offline.log.centered[offline.log.session == session].tolist())
        assert on == off


def test_online_hand_trace(trace_dataset):
    log = run_experiment(trace_dataset, trace_config(Mode.ONLINE)).log
    a = log.target == log.users.index("A")
    raw, centered, applied = log.raw[a], log.centered[a], log.applied[a]
    sqrt2 = math.sqrt(2.0)

    # session 2: genuine 2.2 against enrollment stats (mu 2, mad 4/3)
    assert raw[0] == pytest.approx(0.2 / (4 / 3), rel=1e-12)
    assert centered[0] == pytest.approx((0.2 / (4 / 3) - 2.0) / sqrt2, rel=1e-12)
    assert applied[0]  # -1.308 <= -0.2
    # impostor 12.2 against the updated gallery {0,2,4,2.2}: (mu 2.05, mad 1.05)
    assert raw[1] == pytest.approx(10.15 / 1.05, rel=1e-12)
    assert not applied[1]

    # session 3: genuine 2.6 against (2.05, 1.05), applied, then impostor
    # 12.6 against the twice-updated gallery (mu 2.16, mad 0.928)
    assert raw[2] == pytest.approx(0.55 / 1.05, rel=1e-12)
    assert applied[2]
    assert raw[3] == pytest.approx(10.44 / 0.928, rel=1e-12)
    assert not applied[3]


def test_offline_hand_trace(trace_dataset, monkeypatch):
    galleries = recording_lanes(monkeypatch)
    result = run_experiment(trace_dataset, trace_config(Mode.OFFLINE))
    models = galleries(len(trace_dataset.users))
    sqrt2 = math.sqrt(2.0)
    log = result.log
    a = log.target == log.users.index("A")
    assert log.session[a].tolist() == [3, 3]
    raw, centered = log.raw[a], log.centered[a]

    # session 2 was consumed for update only: genuine 2.2 joined the
    # gallery, so session 3 is scored frozen against (mu 2.05, mad 1.05).
    assert log.genuine[a].tolist() == [True, False]
    assert raw[0] == pytest.approx(0.55 / 1.05, rel=1e-12)
    assert centered[0] == pytest.approx((0.55 / 1.05 - 2.0) / sqrt2, rel=1e-12)
    assert raw[1] == pytest.approx(10.55 / 1.05, rel=1e-12)
    assert centered[1] == pytest.approx((10.55 / 1.05 - 2.0) / sqrt2, rel=1e-12)

    # replay: the genuine query updates (applied recorded on its row);
    # the impostor is then re-scored against (mu 2.16, mad 0.928) and
    # stays out.
    assert log.applied[a].tolist() == [True, False]
    model = models[log.users.index("A")]
    assert np.allclose(model.mu, [2.16])
    assert np.allclose(model.mad, [0.928])
    # Two genuine updates of A: 2.2 in session 2, 2.6 in session 3, each first in its stream.
    updates = result.updates
    ours = updates["target"] == log.users.index("A")
    assert updates["session"][ours].tolist() == [2, 3]
    assert updates["position"][ours].tolist() == [0, 0]
    assert trace_dataset.feature_matrix[updates["row"][ours]].tolist() == [[2.2], [2.6]]
    assert result.gallery_size[0, :, log.users.index("A")].tolist() == [4, 5]


@pytest.mark.parametrize("mode", list(Mode))
def test_inclusion_array_reads_each_reference_after_each_session(trace_dataset, mode):
    # At a threshold of +inf every query joins the 3-vector enrollment
    # gallery: one genuine and one impostor per session, in both modes.
    result = run_experiment(trace_dataset, trace_config(mode, threshold=math.inf))
    assert result.inclusion.tolist() == [[[1 / 5, 1 / 5], [2 / 7, 2 / 7]]]
    # Without updates no impostor ever enters.
    result = run_experiment(trace_dataset, trace_config(mode, StrategyKind.NONE))
    assert result.inclusion.tolist() == [[[0.0, 0.0], [0.0, 0.0]]]


def test_offline_scoring_references_exclude_current_session_vectors(trace_dataset):
    # replay the offline protocol manually with library primitives and
    # assert the frozen-scoring pass never sees same-session vectors;
    # the records produced must match run_experiment exactly.
    config = trace_config(Mode.OFFLINE)
    result = run_experiment(trace_dataset, config)

    from tubench import centered_score, maybe_update

    manual = []
    users = trace_dataset.users
    for user_index, user in enumerate(users):
        model = enroll(user, trace_dataset.feature_matrix[trace_dataset.row_range(user, 1)])
        state = planned(
            trace_dataset, user, 2, config.stream, mix64(config.base_seed, 0, user_index, 2)
        )
        sources = [1] * len(model.vectors())  # each gallery entry's session, in gallery order
        while (query := next_query(state, model)) is not None:
            centered = centered_score(model, query.sample.features)
            if maybe_update(model, query, centered, config.strategy).applied:
                sources.append(query.sample.session)
        for session in (3,):
            state = planned(
                trace_dataset, user, session, config.stream,
                mix64(config.base_seed, 0, user_index, session),
            )
            assert len(sources) == len(model.vectors())
            assert all(source_session < session for source_session in sources)
            staged = []
            while (query := next_query(state, model)) is not None:
                raw = raw_score(model, query.sample.features)
                staged.append((query, raw, center(model, raw)))
            flags = [
                maybe_update(model, q, centered_score(model, q.sample.features), config.strategy).applied
                for q, _, _ in staged
            ]
            for (query, raw, centered_value), applied in zip(staged, flags):
                manual.append(
                    (user, session, query.sample.user_id, raw, centered_value, applied)
                )
    got = [
        (target, session, source, raw, centered, applied)
        for _, session, target, source, _, raw, centered, applied in log_rows(result.log)
    ]
    assert got == manual


def test_seed_derivation_separates_all_axes():
    seen = {
        mix64(base, repeat, user, session)
        for base in (0, 1)
        for repeat in (0, 1, 2)
        for user in (0, 1, 2)
        for session in (2, 3)
    }
    assert len(seen) == 2 * 3 * 3 * 2


# --- the per-query loops, kept as the reference for the batched session loop --


def _reference_stream(dataset, user, user_index, session, repeat, config):
    seed = mix64(config.base_seed, repeat, user_index, session)
    return planned(dataset, user, session, config.stream, seed)


class _Reference:
    """What a reference loop saw: its records, every applied update as
    (repeat, session, target index, stream position, dataset row), each
    final gallery with the (row, impostor) pairs of the updates it keeps,
    and per (repeat, session 2..S, user) the inclusion, the gallery size
    and the evictions so far, NaN-filled so that an entry left unset
    compares unequal.

    It keeps its own FIFO of each gallery's updates from what
    `maybe_update` reports (applied, was_impostor, evicted), so its
    inclusion reads neither the run's log nor the gallery's contents."""

    def __init__(self, dataset, config):
        shape = (config.repeats, dataset.num_sessions - 1, len(dataset.users))
        self.dataset, self.config = dataset, config
        self.records, self.events, self.galleries = [], [], {}
        self.inclusion, self.sizes, self.evictions = (np.full(shape, np.nan) for _ in range(3))

    def enroll(self, user):
        """A fresh reference of `user`, with an empty FIFO of its updates."""
        self.kept, self.evicted = [], 0
        vectors = self.dataset.feature_matrix[self.dataset.row_range(user, 1)]
        return enroll(user, vectors, eps=self.config.eps, capacity=self.config.strategy.capacity)

    def update(self, model, state, query, centered, repeat, session, user_index):
        outcome = maybe_update(model, query, centered, self.config.strategy)
        if outcome.applied:
            row = int(state.rows[query.stream_position])
            self.events.append((repeat, session, user_index, query.stream_position, row))
            self.kept.append((row, outcome.was_impostor))
        if outcome.evicted is not None:
            self.evicted += 1
            oldest, _ = self.kept.pop(0)
            assert outcome.evicted.tobytes() == self.dataset.feature_matrix[oldest].tobytes()
        return outcome.applied

    def measure(self, model, repeat, session, user_index):
        key = (repeat, session - 2, user_index)
        self.inclusion[key] = sum(impostor for _, impostor in self.kept) / len(model.vectors())
        self.sizes[key] = len(model.vectors())
        self.evictions[key] = self.evicted


def reference_online(dataset, config):
    """One next_query, raw_score and maybe_update per query; one record each."""
    seen = _Reference(dataset, config)
    for repeat in range(config.repeats):
        for user_index, user in enumerate(dataset.users):
            model = seen.enroll(user)
            for session in range(2, dataset.num_sessions + 1):
                state = _reference_stream(dataset, user, user_index, session, repeat, config)
                while (query := next_query(state, model)) is not None:
                    raw = raw_score(model, query.sample.features)
                    centered = center(model, raw)
                    applied = seen.update(model, state, query, centered, repeat, session, user_index)
                    seen.records.append(
                        ScoreRecord(repeat, session, user, query.sample.user_id,
                                    query.true_label, raw, centered, applied)
                    )
                seen.measure(model, repeat, session, user_index)
            seen.galleries[(repeat, user)] = (model, seen.kept)
    return seen


def reference_offline(dataset, config):
    """Session 2 for update only; later sessions scored frozen, then replayed."""
    seen = _Reference(dataset, config)
    for repeat in range(config.repeats):
        for user_index, user in enumerate(dataset.users):
            model = seen.enroll(user)
            state = _reference_stream(dataset, user, user_index, 2, repeat, config)
            while (query := next_query(state, model)) is not None:
                centered = centered_score(model, query.sample.features)
                seen.update(model, state, query, centered, repeat, 2, user_index)
            seen.measure(model, repeat, 2, user_index)
            for session in range(3, dataset.num_sessions + 1):
                state = _reference_stream(dataset, user, user_index, session, repeat, config)
                staged = []
                while (query := next_query(state, model)) is not None:
                    raw = raw_score(model, query.sample.features)
                    staged.append((query, raw, center(model, raw)))
                flags = [
                    seen.update(
                        model, state, query, centered_score(model, query.sample.features),
                        repeat, session, user_index,
                    )
                    for query, _, _ in staged
                ]
                for (query, raw, centered), applied in zip(staged, flags):
                    seen.records.append(
                        ScoreRecord(repeat, session, user, query.sample.user_id,
                                    query.true_label, raw, centered, applied)
                    )
                seen.measure(model, repeat, session, user_index)
            seen.galleries[(repeat, user)] = (model, seen.kept)
    return seen


def _hex_rows(rows):
    """Rows in `ScoreRecord` field order, with the scores as exact hex strings."""
    return [
        (repeat, session, target, source, label, float(raw).hex(), float(centered).hex(), applied)
        for repeat, session, target, source, label, raw, centered, applied in rows
    ]


def _assert_same_galleries(dataset, result, got, expected):
    """The run's final galleries `got` hold the reference loop's vectors and
    statistics, and the updates the run logged last for each are the ones
    the loop's FIFO kept, with the same impostor flags."""
    assert got.keys() == expected.keys()
    updates = result.updates
    for key, (model, kept) in expected.items():
        model = LaneView.of(model)
        assert got[key].vectors.tobytes() == model.vectors.tobytes(), key
        assert got[key].mu.tobytes() == model.mu.tobytes(), key
        assert got[key].mad.tobytes() == model.mad.tobytes(), key
        repeat, target = key[0], dataset.users.index(key[1])
        rows = updates["row"][(updates["repeat"] == repeat) & (updates["target"] == target)]
        rows = rows[rows.size - len(kept) :]
        assert rows.tolist() == [row for row, _ in kept], key
        assert (dataset.row_user[rows] != target).tolist() == [flag for _, flag in kept], key
        vectors = model.vectors[len(model.vectors) - len(kept) :]
        assert vectors.tobytes() == dataset.feature_matrix[rows].tobytes(), key


class LaneView(NamedTuple):
    """A copy of one lane's gallery vectors and statistics."""

    vectors: np.ndarray
    mu: np.ndarray
    mad: np.ndarray

    @classmethod
    def of(cls, store, lane=0):
        return cls(store.vectors(lane).copy(), store.mu[lane].copy(), store.mad[lane].copy())


def recording_lanes(monkeypatch):
    """Make runs stack their lane stores through a wrapper of
    `ReferenceLanes.stack`. Returns a function that, called after a run with
    the number of galleries it must have presented to, checks that number
    and returns every final gallery recorded since its last call, as a
    `LaneView`, in the order presented: repeat by repeat, users in order."""
    stores = []
    stack = ReferenceLanes.stack

    def recording(references):
        stores.append(stack(references))
        return stores[-1]

    def galleries(count):
        models = [LaneView.of(store, lane) for store in stores for lane in range(len(store.size))]
        stores.clear()
        assert len(models) == count
        return models

    monkeypatch.setattr(ReferenceLanes, "stack", recording)
    return galleries


def derived_evictions(dataset, result):
    """Per (repeat, session 2..S, user), the entries each FIFO gallery has
    evicted so far: its enrollment size plus its updates applied so far,
    less its gallery size."""
    updates = result.updates
    applied = np.zeros(result.gallery_size.shape, dtype=np.intp)
    np.add.at(applied, (updates["repeat"], updates["session"] - 2, updates["target"]), 1)
    enrolled = [len(dataset.row_range(user, 1)) for user in dataset.users]
    return np.asarray(enrolled) + applied.cumsum(axis=1) - result.gallery_size


SESSION_SIZE = 4  # genuine queries per session of `close_users`


def close_users(seed):
    """Users close enough that thresholds 2.0 and 50.0 admit impostors."""
    return generate(
        SynthConfig(4, 4, SESSION_SIZE, 2, base_spread=0.3,
                    drift_scale=0.05, noise_scale=0.3, seed=seed)
    )


@st.composite
def loop_configs(draw):
    mode = draw(st.sampled_from(list(Mode)))
    impostor_ratio = 0.5
    scripted = None
    global_order = draw(st.sampled_from(list(GlobalOrder)))
    if global_order is GlobalOrder.SCRIPTED:
        n_impostor = impostor_count(SESSION_SIZE, impostor_ratio)
        scripted = draw(st.permutations(
            [Label.GENUINE] * SESSION_SIZE + [Label.IMPOSTOR] * n_impostor
        ))
    stream = StreamConfig(
        impostor_ratio,
        global_order,
        draw(st.sampled_from(list(LocalOrder))),
        respect_chronology=draw(st.booleans()),
        impostor_session_policy=draw(st.sampled_from(list(SessionPolicy))),
        scripted=scripted,
    )
    strategy = UpdateStrategy(
        draw(st.sampled_from(list(StrategyKind))),
        threshold=draw(st.sampled_from([2.0, 50.0, math.inf])),
        capacity=draw(st.sampled_from([None, SESSION_SIZE, SESSION_SIZE + 2])),
    )
    config = ExperimentConfig(mode, stream, strategy, repeats=draw(st.integers(1, 2)),
                              base_seed=draw(st.integers(0, 2**32)))
    return close_users(draw(st.integers(0, 50))), config


def assert_matches_the_per_query_loop(dataset, config):
    """Run `config` both ways and compare everything bitwise; returns the
    run's result."""
    reference = reference_online if config.mode is Mode.ONLINE else reference_offline
    seen = reference(dataset, config)
    with pytest.MonkeyPatch.context() as monkeypatch:
        galleries = recording_lanes(monkeypatch)
        result = run_experiment(dataset, config)
    models = galleries(config.repeats * len(dataset.users))
    assert _hex_rows(log_rows(result.log)) == _hex_rows(astuple(r) for r in seen.records)
    assert result.inclusion.shape == seen.inclusion.shape
    assert result.inclusion.tobytes() == seen.inclusion.tobytes()
    keys = [(repeat, user) for repeat in range(config.repeats) for user in dataset.users]
    _assert_same_galleries(dataset, result, dict(zip(keys, models, strict=True)), seen.galleries)
    updates = result.updates
    columns = ("repeat", "session", "target", "position", "row")
    assert list(zip(*(updates[name].tolist() for name in columns))) == seen.events
    assert result.gallery_size.tolist() == seen.sizes.tolist()
    assert derived_evictions(dataset, result).tolist() == seen.evictions.tolist()
    return result


@settings(max_examples=120, deadline=None)
@given(loop_configs())
def test_session_loop_matches_the_per_query_loops_bitwise(case):
    assert_matches_the_per_query_loop(*case)


@pytest.mark.parametrize("local_order", list(LocalOrder))
@pytest.mark.parametrize("mode", list(Mode))
def test_inclusion_matches_the_per_query_loop_where_impostors_enter_and_leave(mode, local_order):
    # A lenient self-threshold on close users absorbs impostors, and a FIFO
    # two entries above the enrollment size evicts them again.
    config = ExperimentConfig(
        mode,
        StreamConfig(0.5, local_order=local_order),
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, 50.0, capacity=SESSION_SIZE + 2),
        repeats=2,
        base_seed=3,
    )
    dataset = close_users(5)
    result = assert_matches_the_per_query_loop(dataset, config)
    updates = result.updates
    assert np.any(dataset.row_user[updates["row"]] != updates["target"])
    assert derived_evictions(dataset, result).any()
    assert (result.inclusion > 0).any()


@pytest.mark.parametrize("mode", list(Mode))
def test_columnar_log_equals_the_log_built_from_its_records(mode):
    # A lenient self-threshold on close users absorbs impostors, so the
    # comparison covers impostor updates as well as genuine ones.
    config = ExperimentConfig(
        mode,
        StreamConfig(0.5, local_order=LocalOrder.CLOSEST_SAMPLE),
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, 50.0),
        repeats=2,
        base_seed=3,
    )
    log = run_experiment(close_users(5), config).log
    rebuilt = log_of([ScoreRecord(*row) for row in log_rows(log)], log.num_sessions, mode)
    assert rebuilt.users == log.users
    for name in ("repeat", "session", "target", "source", "raw", "centered", "applied"):
        assert getattr(rebuilt, name).tobytes() == getattr(log, name).tobytes(), name
    assert np.any(log.applied & ~log.genuine)
    assert log_rows(rebuilt) == log_rows(log)


QUERY_SIZE = 4  # genuine queries per session of `mixed_counts` when they are uniform


def mixed_counts(uniform_queries=False):
    """Five users whose enrollment sizes differ and, unless `uniform_queries`,
    whose query sessions hold 3 to 6 samples each, so one run plans
    sessions with different bound lists."""
    users, sessions, orders, features = [], [], [], []
    for u in range(5):
        order = 0
        for session in (1, 2, 3, 4):
            if session == 1:
                count = 3 + u
            else:
                count = QUERY_SIZE if uniform_queries else 3 + (2 * u + session) % 4
            for _ in range(count):
                users.append(f"u{u}")
                sessions.append(session)
                orders.append(order)
                features.append([u + 0.1 * order, u - 0.05 * order])
                order += 1
    return Dataset.from_columns(users, sessions, orders, np.array(features))


@pytest.mark.parametrize("local_order", list(LocalOrder))
@pytest.mark.parametrize("mode", list(Mode))
def test_ragged_lanes_match_the_per_query_loop_where_updates_apply_and_evict(mode, local_order):
    # Enrollment sizes 3 to 7 and session lengths 3 to 6 pad the lanes; a
    # lenient self-threshold applies some queries, impostors among them, and
    # a FIFO of 8 evicts updates for the users that enroll few vectors.
    dataset = mixed_counts()
    config = ExperimentConfig(
        mode,
        StreamConfig(0.3, local_order=local_order),
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, 2.0, capacity=8),
        repeats=2,
        base_seed=3,
    )
    sessions = range(2, dataset.num_sessions + 1)
    lengths = {len(dataset.row_range(user, s)) for user in dataset.users for s in sessions}
    assert lengths == {3, 4, 5, 6}
    result = assert_matches_the_per_query_loop(dataset, config)
    assert result.log.applied.any() and not result.log.applied.all()
    updates = result.updates
    assert np.any(dataset.row_user[updates["row"]] != updates["target"])
    assert derived_evictions(dataset, result).any()


@pytest.mark.parametrize("chronology", [True, False])
@pytest.mark.parametrize("policy", list(SessionPolicy))
@pytest.mark.parametrize("local_order", list(LocalOrder))
@pytest.mark.parametrize("global_order", list(GlobalOrder))
def test_plans_from_block_drawn_indices_equal_per_session_plans(
    monkeypatch, global_order, local_order, policy, chronology
):
    scripted = global_order is GlobalOrder.SCRIPTED  # one script fits one genuine count only
    dataset = mixed_counts(uniform_queries=scripted)
    script = (Label.IMPOSTOR, Label.GENUINE, Label.GENUINE, Label.IMPOSTOR, Label.GENUINE,
              Label.GENUINE)[: QUERY_SIZE + impostor_count(QUERY_SIZE, 0.3)]
    stream = StreamConfig(0.3, global_order, local_order, chronology, policy,
                          scripted=script if scripted else None)
    config = ExperimentConfig(Mode.ONLINE, stream, UpdateStrategy(StrategyKind.NONE),
                              repeats=2, base_seed=-(2**65) + 3)
    sessions = range(2, dataset.num_sessions + 1)
    targets = [(u, s) for u in dataset.users for s in sessions]
    bounds = {layout.bounds for layout in session_layouts(dataset, stream, targets)}
    if not scripted and (global_order is GlobalOrder.RANDOM or not chronology
                         or local_order is LocalOrder.TOTALLY_RANDOM):
        assert len(bounds) > 1  # the genuine count or the pool size enters the bounds

    plans = []

    def pool_of(layout):  # the candidates less the target's run
        start, stop = layout.edges[layout.run : layout.run + 2]
        return np.delete(layout.candidates, np.s_[start:stop])

    def recording_plan_session(*args):
        state = plan_session(*args)
        plans.append((state.rows.copy(), state.impostor.copy(), pool_of(state.layout)))
        return state

    monkeypatch.setattr(evaluator, "plan_session", recording_plan_session)
    run_experiment(dataset, config)
    expected = [
        (repeat, user_index, user, session)
        for repeat in range(config.repeats)
        for user_index, user in enumerate(dataset.users)
        for session in sessions
    ]
    assert len(plans) == len(expected)
    for (rows, impostor, pool), (repeat, user_index, user, session) in zip(plans, expected):
        seed = mix64(config.base_seed, repeat, user_index, session)
        state = planned(dataset, user, session, stream, seed)
        key = (repeat, user, session)
        assert impostor.tolist() == state.impostor.tolist(), key
        # closest-* impostor rows are chosen later, against the reference
        fixed = ~impostor if local_order in CLOSEST else slice(None)
        assert rows[fixed].tolist() == state.rows[fixed].tolist(), key
        assert pool.tolist() == pool_of(state.layout).tolist(), key
        # the pool is the other users' rows of the session, or of every session
        others = dataset.row_user != user_index
        if policy is SessionPolicy.SAME_SESSION:
            others &= dataset.row_session == session
        assert pool.tolist() == np.flatnonzero(others).tolist(), key


@pytest.mark.parametrize("repeats", [1, 3])
def test_a_run_lays_out_each_session_once(monkeypatch, repeats):
    made, converted, used = [], [], []
    layout_type, bounds_type = stream_module.SessionLayout, evaluator.BlockBounds

    def making_layout(*args):
        made.append(layout_type(*args))
        return made[-1]

    def converting_bounds(bounds):
        converted.append(bounds)
        return bounds_type(bounds)

    def recording_plan_session(layout, indices):
        used.append(layout)
        return plan_session(layout, indices)

    monkeypatch.setattr(stream_module, "SessionLayout", making_layout)
    monkeypatch.setattr(evaluator, "BlockBounds", converting_bounds)
    monkeypatch.setattr(evaluator, "plan_session", recording_plan_session)
    dataset = mixed_counts()
    config = ExperimentConfig(Mode.ONLINE, StreamConfig(0.3), UpdateStrategy(StrategyKind.NONE),
                              repeats, base_seed=5)
    run_experiment(dataset, config)
    assert len(made) == len(dataset.users) * (dataset.num_sessions - 1)
    assert len(converted) == 1
    # every repeat plans the same layouts, user-major
    assert [id(layout) for layout in used] == [id(layout) for layout in made] * repeats


def test_stream_faults_are_reported_before_enrollment_faults():
    # u0 cannot be enrolled (one session-1 sample); u1 has nothing in session 3.
    rows = [("u0", 1), ("u0", 2), ("u0", 3), ("u1", 1), ("u1", 1), ("u1", 2)]
    users, sessions = zip(*rows)
    dataset = Dataset.from_columns(users, sessions, range(len(rows)),
                                   np.arange(len(rows), dtype=float)[:, None])
    config = ExperimentConfig(Mode.ONLINE, StreamConfig(0.0), UpdateStrategy(StrategyKind.NONE))
    with pytest.raises(StreamError, match="user u1 has no samples in session 3"):
        run_experiment(dataset, config)


@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize(
    "enrolled, capacity, error, message",
    [
        ((2, 1, 1), None, EnrollmentError,
         "user u1: enrollment needs an (n >= 2, d) matrix, got shape (1, 1)"),
        ((2, 3, 4), 2, ConfigError, "gallery capacity 2 is below the enrollment size 3"),
    ],
    ids=["one-vector", "capacity"],
)
def test_the_first_user_that_cannot_enroll_fails_the_run_at_any_repeats(
    repeats, enrolled, capacity, error, message
):
    # u0 enrolls; u1 and u2 cannot, and the run names u1's fault only.
    rows = [(f"u{u}", 1) for u, n in enumerate(enrolled) for _ in range(n)]
    rows += [(f"u{u}", 2) for u in range(len(enrolled))]
    users, sessions = zip(*rows)
    dataset = Dataset.from_columns(users, sessions, range(len(rows)),
                                   np.arange(len(rows), dtype=float)[:, None])
    config = ExperimentConfig(Mode.ONLINE, StreamConfig(0.0),
                              UpdateStrategy(StrategyKind.NONE, capacity=capacity), repeats)
    with pytest.raises(error) as caught:
        run_experiment(dataset, config)
    assert str(caught.value) == message


@pytest.mark.parametrize("repeats", [1, 3])
def test_a_run_enrolls_each_user_once_and_presents_each_repeat_to_its_own_lanes(
    monkeypatch, repeats
):
    users, enrolled, states = [], [], []

    def state(model):
        return [model.gallery.tobytes(), model.mu.tobytes(), model.mad.tobytes()]

    def enrolling(user, *args, **kwargs):
        users.append(user)
        enrolled.append(enroll(user, *args, **kwargs))
        states.append(state(enrolled[-1]))
        return enrolled[-1]

    monkeypatch.setattr(evaluator, "enroll", enrolling)
    galleries = recording_lanes(monkeypatch)
    dataset = small_synth()
    config = ExperimentConfig(Mode.ONLINE, StreamConfig(0.3),
                              UpdateStrategy(StrategyKind.SELF_THRESHOLD, 1.0), repeats)
    result = run_experiment(dataset, config)
    models = galleries(len(dataset.users) * repeats)
    assert users == list(dataset.users)
    # Lane k of every repeat starts from user k's enrollment, kept first.
    for model, template in zip(models, enrolled * repeats, strict=True):
        assert model.vectors[: template.size[0]].tobytes() == template.vectors().tobytes()
    assert result.updates["row"].size  # updates were applied, to the lanes only
    assert [state(template) for template in enrolled] == states


@pytest.mark.parametrize("local_order", list(LocalOrder))
def test_only_closest_sessions_replan_after_an_update(monkeypatch, local_order):
    calls = []

    def counting_plan_rows(state, lanes, lane):
        calls.append(state)
        return stream_module.plan_rows(state, lanes, lane)

    monkeypatch.setattr(evaluator, "plan_rows", counting_plan_rows)
    config = ExperimentConfig(
        Mode.ONLINE,
        StreamConfig(0.5, local_order=local_order),
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, 50.0),
        repeats=2,
        base_seed=3,
    )
    dataset = close_users(5)
    log = run_experiment(dataset, config).log
    sessions = config.repeats * len(dataset.users) * (dataset.num_sessions - 1)
    if local_order in CLOSEST:
        assert len(calls) == sessions + np.count_nonzero(log.applied)
    else:
        assert len(calls) == sessions
    assert np.count_nonzero(log.applied) > sessions


@pytest.mark.parametrize("local_order", [LocalOrder.TOTALLY_RANDOM, LocalOrder.CLOSEST_IMPOSTOR])
def test_score_free_offline_sessions_refresh_once_unless_they_replan(monkeypatch, local_order):
    # Supervised at +inf reads no score: it applies every genuine query.
    plans, presenting, refreshes, enrollments = [], [], [], []

    def session_of(layout):
        return int(layout.dataset.row_session[layout.genuine.start])

    def recording_plan_session(layout, indices):
        plans.append((layout.target_user, session_of(layout)))
        return plan_session(layout, indices)

    def recording_plan_rows(state, lanes, lane):
        presenting.append(session_of(state.layout))  # every session plans before it refreshes
        return stream_module.plan_rows(state, lanes, lane)

    def recording_refresh(lanes, indices):
        if not plans:  # enrollment, before the first session is planned
            enrollments.append(len(lanes.size))
            return lanes_refresh(lanes, indices)
        # A repeat plans all its sessions before it presents the first.
        repeat = (len(plans) - 1) // (len(dataset.users) * len(sessions))
        refreshes.append((repeat, presenting[-1], indices.tolist()))
        return lanes_refresh(lanes, indices)

    lanes_refresh = ReferenceLanes.refresh
    monkeypatch.setattr(evaluator, "plan_session", recording_plan_session)
    monkeypatch.setattr(evaluator, "plan_rows", recording_plan_rows)
    monkeypatch.setattr(ReferenceLanes, "refresh", recording_refresh)
    dataset = small_synth(sessions=5)
    sessions = range(2, dataset.num_sessions + 1)
    config = ExperimentConfig(
        Mode.OFFLINE,
        StreamConfig(0.3, local_order=local_order),
        UpdateStrategy(StrategyKind.SUPERVISED, math.inf, capacity=6),
        repeats=2,
        base_seed=9,
    )
    log = run_experiment(dataset, config).log
    keys = [(r, u, s) for r in range(config.repeats) for u in dataset.users for s in sessions]
    assert plans == [(u, s) for _, u, s in keys]
    assert enrollments == [1] * len(dataset.users)  # one refresh per one-lane enrollment
    applied = {}
    for repeat, user, session in keys:
        if session == 2:  # unlogged: every genuine query is applied
            applied[repeat, user, session] = len(dataset.row_range(user, 2))
        else:
            rows = (log.repeat == repeat) & (log.target == log.users.index(user))
            count = int(np.count_nonzero(log.applied & rows & (log.session == session)))
            applied[repeat, user, session] = count
    # One refresh call per update round for all the lanes it updates: a
    # re-planning session has a round per applied query, any other one round.
    expected_calls = []
    for repeat in range(config.repeats):
        for session in sessions:
            counts = [applied[repeat, user, session] for user in dataset.users]
            if not (session == 2 and local_order in CLOSEST):
                counts = [min(count, 1) for count in counts]
            for round_ in range(1, max(counts) + 1):
                lanes = [lane for lane, count in enumerate(counts) if count >= round_]
                expected_calls.append((repeat, session, lanes))
    assert refreshes == expected_calls
    expected = []
    for repeat, user, session in keys:
        replans = session == 2 and local_order in CLOSEST
        count = applied[repeat, user, session]
        expected.append(count if replans else min(count, 1))
    assert all(expected)
    refreshed = [
        sum(dataset.users.index(user) in lanes
            for r, s, lanes in refreshes if (r, s) == (repeat, session))
        for repeat, user, session in keys
    ]
    assert refreshed == expected
