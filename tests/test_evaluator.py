import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubench import (
    ConfigError,
    Dataset,
    GlobalOrder,
    Label,
    LocalOrder,
    Mode,
    Origin,
    PartitionError,
    ReferenceModel,
    ScoreRecord,
    SessionPolicy,
    StrategyKind,
    StreamConfig,
    StreamError,
    UpdateStrategy,
    ExperimentConfig,
    center,
    centered_score,
    enroll,
    impostor_count,
    impostor_inclusion,
    maybe_update,
    next_query,
    partition_sessionless,
    plan_session,
    raw_score,
    run_experiment,
)
from tubench import evaluator, stream as stream_module, update as update_module
from tubench.rng import mix64
from tubench.stream import CLOSEST, session_layouts
from tubench.synthdata import SynthConfig, generate
from conftest import (
    dataset_of, log_columns, log_of, log_rows, make_sample, planned, sample_columns,
)

SCRIPTED = (Label.GENUINE, Label.IMPOSTOR)


def trace_config(mode, kind=StrategyKind.SELF_THRESHOLD, threshold=-0.2, repeats=1):
    stream = StreamConfig(
        impostor_ratio=0.5, global_order=GlobalOrder.SCRIPTED, scripted=SCRIPTED
    )
    return ExperimentConfig(
        mode=mode,
        stream=stream,
        strategy=UpdateStrategy(kind, update_threshold=threshold),
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


def test_offline_needs_at_least_three_sessions():
    dataset = small_synth(sessions=2)
    config = ExperimentConfig(
        Mode.OFFLINE, StreamConfig(impostor_ratio=0.3), UpdateStrategy(StrategyKind.NONE)
    )
    with pytest.raises(ConfigError, match="3 sessions"):
        run_experiment(dataset, config)


def test_runs_build_no_sample_views_and_evict_update_tags_oldest_first(monkeypatch):
    appended, evicted = [], []
    extend = ReferenceModel.extend

    def recording_extend(model, vectors, *sources):
        before = model._tags[model._enrolled :]
        gone = extend(model, vectors, *sources)
        # The gallery's updates were `before` + the new tags, less `gone` from the front.
        updates = gone + model._tags[model._enrolled :]
        assert updates[: len(before)] == before
        added = updates[len(before) :]
        assert len(added) == len(vectors)
        appended.extend((model, tag) for tag in added)
        evicted.extend((model, tag) for tag in gone)
        return gone

    monkeypatch.setattr(ReferenceModel, "extend", recording_extend)
    dataset = small_synth()  # built from columns
    for mode in Mode:
        appended.clear()
        evicted.clear()
        strategy = UpdateStrategy(StrategyKind.SUPERVISED, capacity=6)
        result = run_experiment(
            dataset, ExperimentConfig(mode, StreamConfig(impostor_ratio=0.3), strategy, 1, 2)
        )
        assert evicted, mode
        for model in result.final_models.values():
            added = [tag for owner, tag in appended if owner is model]
            gone = [tag for owner, tag in evicted if owner is model]
            assert gone == added[: len(gone)]
            kept = model._tags[4:]
            assert kept == added[len(gone) :]
            assert all(tag[1] == model.target_user for tag in added)
    assert "samples" not in dataset.__dict__


def test_online_single_user_scores_match_standalone_recomputation():
    # one user, no impostors, no updates: every logged score must equal
    # what a freestanding scorer computes over the same chronological
    # sample sequence against the frozen enrollment reference.
    samples = [make_sample("solo", 1, i, [float(i), 1.0]) for i in range(3)]
    samples += [make_sample("solo", s, 3 * (s - 1) + i, [0.5 * s + 0.1 * i, 1.0])
                for s in (2, 3) for i in range(3)]
    dataset = dataset_of(2, 3, tuple(samples))
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
    log = result.log
    for (repeat, user), model in result.final_models.items():
        rows = (log.repeat == repeat) & (log.target == log.users.index(user))
        applied = np.count_nonzero(log.applied[rows])
        inserted = sum(1 for origin in model.origins if origin is not Origin.ENROLLMENT)
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


def test_offline_hand_trace(trace_dataset):
    result = run_experiment(trace_dataset, trace_config(Mode.OFFLINE))
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
    model = result.final_models[(0, "A")]
    assert np.allclose(model.mu, [2.16])
    assert np.allclose(model.mad, [0.928])
    assert model.origins.count(Origin.GENUINE_UPDATE) == 2


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
        while (query := next_query(state, model)) is not None:
            maybe_update(model, query, centered_score(model, query.sample.features), config.strategy)
        for session in (3,):
            state = planned(
                trace_dataset, user, session, config.stream,
                mix64(config.base_seed, 0, user_index, session),
            )
            assert all(source_session < session for _, _, source_session in model._tags)
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


def _partition(samples, k):
    """`partition_sessionless` over the columns of sessionless samples."""
    user_ids, _, order_indices, features = sample_columns(samples, 1)
    return partition_sessionless(user_ids, order_indices, features, k)


def test_partition_even_split():
    samples = [make_sample("u", 1, i, [float(i)]) for i in range(10)]
    samples += [make_sample("v", 1, i, [float(i) + 50]) for i in range(10)]
    dataset = _partition(samples, 2)
    assert dataset.num_sessions == 2
    assert len(dataset.row_range("u", 1)) == 5
    assert len(dataset.row_range("u", 2)) == 5


def test_partition_remainder_goes_to_early_blocks():
    samples = [make_sample("u", 1, i, [float(i)]) for i in range(7)]
    dataset = _partition(samples, 3)
    sizes = [len(dataset.row_range("u", s)) for s in (1, 2, 3)]
    assert sizes == [3, 2, 2]


def test_partition_block_sizes_follow_divmod():
    for n in range(2, 25):
        samples = [make_sample("u", 1, i, [float(i)]) for i in range(n)]
        for k in range(2, n + 1):
            base, extra = divmod(n, k)
            dataset = _partition(samples, k)
            sizes = [len(dataset.row_range("u", s)) for s in range(1, k + 1)]
            assert sizes == [base + 1] * extra + [base] * (k - extra), (n, k)


def test_partition_preserves_chronology():
    rng = np.random.default_rng(2)
    samples = [
        make_sample("u", 1, i, [float(v)])
        for i, v in enumerate(rng.normal(size=11))
    ]
    dataset = _partition(samples[::-1], 4)  # blocks follow order_index, not row order
    for session in range(1, 4):
        left = dataset.row_order[dataset.row_range("u", session)].max()
        right = dataset.row_order[dataset.row_range("u", session + 1)].min()
        assert left < right
    for sample in dataset.samples:
        assert np.array_equal(sample.features, samples[sample.order_index].features)


def test_partition_errors_name_the_user():
    samples = [make_sample("tiny", 1, i, [0.0 + i]) for i in range(2)]
    with pytest.raises(PartitionError, match="tiny"):
        _partition(samples, 3)
    with pytest.raises(PartitionError, match="no samples"):
        _partition([], 2)
    with pytest.raises(ConfigError):
        _partition([make_sample("u", 1, 0, [0.0])], 1)


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


def _reference_enroll(dataset, user, config):
    return enroll(
        user,
        dataset.feature_matrix[dataset.row_range(user, 1)],
        eps=config.eps,
        capacity=config.strategy.capacity,
    )


def reference_online(dataset, config):
    """One next_query, raw_score and maybe_update per query; one record each."""
    records, final_models = [], {}
    inclusion = _inclusion_array(dataset, config)
    for repeat in range(config.repeats):
        for user_index, user in enumerate(dataset.users):
            model = _reference_enroll(dataset, user, config)
            for session in range(2, dataset.num_sessions + 1):
                state = _reference_stream(dataset, user, user_index, session, repeat, config)
                while (query := next_query(state, model)) is not None:
                    raw = raw_score(model, query.sample.features)
                    centered = center(model, raw)
                    outcome = maybe_update(model, query, centered, config.strategy)
                    records.append(
                        ScoreRecord(repeat, session, user, query.sample.user_id,
                                    query.true_label, raw, centered, outcome.applied)
                    )
                inclusion[repeat, session - 2, user_index] = impostor_inclusion(model)
            final_models[(repeat, user)] = model
    return records, inclusion, final_models


def reference_offline(dataset, config):
    """Session 2 for update only; later sessions scored frozen, then replayed."""
    records, final_models = [], {}
    inclusion = _inclusion_array(dataset, config)
    for repeat in range(config.repeats):
        for user_index, user in enumerate(dataset.users):
            model = _reference_enroll(dataset, user, config)
            state = _reference_stream(dataset, user, user_index, 2, repeat, config)
            while (query := next_query(state, model)) is not None:
                maybe_update(model, query, centered_score(model, query.sample.features), config.strategy)
            inclusion[repeat, 0, user_index] = impostor_inclusion(model)
            for session in range(3, dataset.num_sessions + 1):
                state = _reference_stream(dataset, user, user_index, session, repeat, config)
                staged = []
                while (query := next_query(state, model)) is not None:
                    raw = raw_score(model, query.sample.features)
                    staged.append((query, raw, center(model, raw)))
                flags = [
                    maybe_update(
                        model, query, centered_score(model, query.sample.features), config.strategy
                    ).applied
                    for query, _, _ in staged
                ]
                for (query, raw, centered), applied in zip(staged, flags):
                    records.append(
                        ScoreRecord(repeat, session, user, query.sample.user_id,
                                    query.true_label, raw, centered, applied)
                    )
                inclusion[repeat, session - 2, user_index] = impostor_inclusion(model)
            final_models[(repeat, user)] = model
    return records, inclusion, final_models


def _inclusion_array(dataset, config):
    """A NaN-filled (repeats, sessions 2..S, users) array, so that an entry
    left unset compares unequal."""
    return np.full((config.repeats, dataset.num_sessions - 1, len(dataset.users)), np.nan)


def _hex_rows(rows):
    """Rows in `ScoreRecord` field order, with the scores as exact hex strings."""
    return [
        (repeat, session, target, source, label, float(raw).hex(), float(centered).hex(), applied)
        for repeat, session, target, source, label, raw, centered, applied in rows
    ]


def _assert_same_galleries(got, expected):
    assert got.keys() == expected.keys()
    for key, model in expected.items():
        assert got[key].vectors.tobytes() == model.vectors.tobytes(), key
        assert got[key].origins == model.origins, key
        assert got[key].mu.tobytes() == model.mu.tobytes(), key
        assert got[key].mad.tobytes() == model.mad.tobytes(), key


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
        update_threshold=draw(st.sampled_from([2.0, 50.0, math.inf])),
        capacity=draw(st.sampled_from([None, SESSION_SIZE, SESSION_SIZE + 2])),
    )
    config = ExperimentConfig(mode, stream, strategy, repeats=draw(st.integers(1, 2)),
                              base_seed=draw(st.integers(0, 2**32)))
    return close_users(draw(st.integers(0, 50))), config


@settings(max_examples=120, deadline=None)
@given(loop_configs())
def test_session_loop_matches_the_per_query_loops_bitwise(case):
    dataset, config = case
    reference = reference_online if config.mode is Mode.ONLINE else reference_offline
    records, inclusion, final_models = reference(dataset, config)
    result = run_experiment(dataset, config)
    assert _hex_rows(log_rows(result.log)) == _hex_rows(astuple(r) for r in records)
    assert result.inclusion.shape == inclusion.shape
    assert result.inclusion.tobytes() == inclusion.tobytes()
    _assert_same_galleries(result.final_models, final_models)


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
    return Dataset.from_columns(2, 4, users, sessions, orders, np.array(features))


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

    def recording_plan_session(*args):
        state = plan_session(*args)
        pool = state.layout.candidates[state.alive]
        plans.append((state.rows.copy(), state.impostor.copy(), pool))
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
        assert pool.tolist() == state.layout.candidates[state.alive].tolist(), key
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
    dataset = Dataset.from_columns(1, 3, users, sessions, range(len(rows)),
                                   np.arange(len(rows), dtype=float)[:, None])
    config = ExperimentConfig(Mode.ONLINE, StreamConfig(0.0), UpdateStrategy(StrategyKind.NONE))
    with pytest.raises(StreamError, match="user u1 has no samples in session 3"):
        run_experiment(dataset, config)


@pytest.mark.parametrize("local_order", list(LocalOrder))
def test_only_closest_sessions_replan_after_an_update(monkeypatch, local_order):
    calls = []

    def counting_plan_rows(state, ref):
        calls.append(state)
        return stream_module.plan_rows(state, ref)

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
    plans, refreshes = [], []

    def recording_plan_session(layout, indices):
        session = int(layout.dataset.row_session[layout.genuine.start])
        plans.append((layout.target_user, session))
        return plan_session(layout, indices)

    def counting_refresh(ref):
        refreshes.append(len(plans) - 1)  # the session being presented
        return update_refresh(ref)

    update_refresh = update_module.refresh_statistics
    monkeypatch.setattr(evaluator, "plan_session", recording_plan_session)
    monkeypatch.setattr(update_module, "refresh_statistics", counting_refresh)
    dataset = small_synth(sessions=5)
    config = ExperimentConfig(
        Mode.OFFLINE,
        StreamConfig(0.3, local_order=local_order),
        UpdateStrategy(StrategyKind.SUPERVISED, math.inf, capacity=6),
        repeats=2,
        base_seed=9,
    )
    log = run_experiment(dataset, config).log
    sessions = range(2, dataset.num_sessions + 1)
    keys = [(r, u, s) for r in range(config.repeats) for u in dataset.users for s in sessions]
    assert plans == [(u, s) for _, u, s in keys]
    expected = []
    for repeat, user, session in keys:
        if session == 2:  # unlogged: every genuine query is applied
            applied = len(dataset.row_range(user, 2))
        else:
            rows = (log.repeat == repeat) & (log.target == log.users.index(user))
            applied = int(np.count_nonzero(log.applied & rows & (log.session == session)))
        replans = session == 2 and local_order in CLOSEST
        expected.append(applied if replans else min(applied, 1))
    assert all(expected)
    assert [refreshes.count(i) for i in range(len(keys))] == expected
