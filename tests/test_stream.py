import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubench import (
    GlobalOrder,
    Label,
    LocalOrder,
    QueryEvent,
    ReferenceLanes,
    SessionPolicy,
    StrategyKind,
    StreamConfig,
    StreamError,
    UpdateStrategy,
    ValidationError,
    centered_score,
    enroll,
    impostor_count,
    maybe_update,
    next_query,
    plan_session,
    session_layouts,
)
from tubench.stream import CLOSEST, _popped, plan_rows
from conftest import MaskedPool, SplitMix64, dataset_of, make_sample, planned


def grid_dataset(num_users=4, sessions=3, per_session=7, spacing=10.0):
    """Deterministic dataset: user k sits at (k*spacing, ...) with a small
    per-sample wiggle that makes every vector distinct."""
    samples = []
    for k in range(num_users):
        base = k * spacing
        for session in range(1, sessions + 1):
            for i in range(per_session):
                order = (session - 1) * per_session + i
                feats = [base + 0.01 * order, base - 0.01 * order]
                samples.append(make_sample(f"u{k}", session, order, feats))
    return dataset_of(tuple(samples))


def reference_for(dataset, user="u0"):
    return enroll(user, dataset.feature_matrix[dataset.row_range(user, 1)])


def drain(state, ref):
    events = []
    while (event := next_query(state, ref)) is not None:
        events.append(event)
    return events


def test_impostor_count_examples():
    assert impostor_count(7, 0.30) == 3
    assert impostor_count(5, 0.0) == 0
    assert impostor_count(5, 0.5) == 5
    assert impostor_count(20, 0.30) == 9


def test_stream_length_and_counts():
    dataset = grid_dataset()
    config = StreamConfig(impostor_ratio=0.30)
    state = planned(dataset, "u0", 2, config, seed=5)
    events = drain(state, reference_for(dataset))
    assert len(events) == 10  # G=7 genuine + I=3 impostors
    assert sum(1 for e in events if e.true_label is Label.GENUINE) == 7
    assert sum(1 for e in events if e.true_label is Label.IMPOSTOR) == 3
    assert [e.stream_position for e in events] == list(range(10))


def test_zero_ratio_gives_genuine_only_stream():
    dataset = grid_dataset()
    state = planned(dataset, "u0", 2, StreamConfig(impostor_ratio=0.0), seed=1)
    events = drain(state, reference_for(dataset))
    assert len(events) == 7
    assert all(e.true_label is Label.GENUINE for e in events)


def test_half_ratio_has_exact_label_multiset():
    dataset = grid_dataset(per_session=5)
    state = planned(dataset, "u0", 2, StreamConfig(impostor_ratio=0.5), seed=9)
    events = drain(state, reference_for(dataset))
    labels = [e.true_label for e in events]
    assert labels.count(Label.GENUINE) == 5
    assert labels.count(Label.IMPOSTOR) == 5


def test_insufficient_impostor_pool_is_an_error():
    dataset = grid_dataset(num_users=2, per_session=4)
    config = StreamConfig(impostor_ratio=0.6)  # needs 6, pool has 4
    with pytest.raises(StreamError, match="session 2"):
        planned(dataset, "u0", 2, config, seed=2)


def test_genuine_first_and_impostor_first_are_mirrors():
    dataset = grid_dataset()
    ref = reference_for(dataset)
    for seed in range(5):
        first = drain(
            planned(dataset, "u0", 2, StreamConfig(0.3, GlobalOrder.GENUINE_FIRST), seed),
            ref,
        )
        second = drain(
            planned(dataset, "u0", 2, StreamConfig(0.3, GlobalOrder.IMPOSTOR_FIRST), seed),
            ref,
        )
        assert [e.true_label for e in first] == [Label.GENUINE] * 7 + [Label.IMPOSTOR] * 3
        assert [e.true_label for e in second] == [e.true_label for e in first][::-1]


def test_scripted_order_is_followed_and_validated():
    dataset = grid_dataset()
    ref = reference_for(dataset)
    script = (
        Label.IMPOSTOR, Label.GENUINE, Label.GENUINE, Label.IMPOSTOR, Label.GENUINE,
        Label.GENUINE, Label.GENUINE, Label.IMPOSTOR, Label.GENUINE, Label.GENUINE,
    )
    config = StreamConfig(0.3, GlobalOrder.SCRIPTED, scripted=script)
    events = drain(planned(dataset, "u0", 2, config, seed=0), ref)
    assert tuple(e.true_label for e in events) == script

    short = StreamConfig(0.3, GlobalOrder.SCRIPTED, scripted=script[:4])
    with pytest.raises(ValidationError, match="scripted"):
        planned(dataset, "u0", 2, short, seed=0)
    with pytest.raises(ValidationError, match="scripted global order only"):
        StreamConfig(0.3, GlobalOrder.SCRIPTED)  # sequence missing


def test_scripted_label_strings_are_converted_and_need_the_scripted_order():
    dataset = grid_dataset()
    config = StreamConfig(0.3, GlobalOrder.SCRIPTED, scripted=[label.value for label in SCRIPT])
    assert config.scripted == SCRIPT
    assert all(type(label) is Label for label in config.scripted)
    events = drain(planned(dataset, "u0", 2, config, seed=0), reference_for(dataset))
    assert tuple(e.true_label for e in events) == SCRIPT
    with pytest.raises(ValidationError) as caught:
        StreamConfig(0.3, GlobalOrder.SCRIPTED, scripted=("genuine", "genuin"))
    assert caught.value.violations == [
        "scripted must be a list, each one of ['genuine', 'impostor'], got ('genuine', 'genuin')"
    ]
    for order in set(GlobalOrder) - {GlobalOrder.SCRIPTED}:
        with pytest.raises(ValidationError, match="scripted global order only"):
            StreamConfig(0.3, order, scripted=SCRIPT)


def test_chronology_gives_strictly_increasing_genuine_age():
    dataset = grid_dataset()
    ref = reference_for(dataset)
    for seed in range(10):
        events = drain(
            planned(dataset, "u0", 2, StreamConfig(0.3, respect_chronology=True), seed),
            ref,
        )
        ages = [e.sample.order_index for e in events if e.true_label is Label.GENUINE]
        assert ages == sorted(ages)
        assert len(set(ages)) == len(ages)


def test_shuffled_genuine_order_inverts_half_of_adjacent_pairs():
    dataset = grid_dataset(per_session=20)
    ref = reference_for(dataset)
    inverted = total = 0
    for seed in range(400):
        config = StreamConfig(0.0, respect_chronology=False)
        events = drain(planned(dataset, "u0", 2, config, seed), ref)
        ages = [e.sample.order_index for e in events]
        for a, b in zip(ages, ages[1:]):
            total += 1
            inverted += a > b
    assert abs(inverted / total - 0.5) < 0.05


def test_closest_sample_picks_minimal_centered_score():
    dataset = grid_dataset()
    ref = reference_for(dataset)  # u0 reference: other users at 10, 20, 30
    config = StreamConfig(0.3, GlobalOrder.IMPOSTOR_FIRST, LocalOrder.CLOSEST_SAMPLE)
    events = drain(planned(dataset, "u0", 2, config, seed=4), ref)
    impostors = [e for e in events if e.true_label is Label.IMPOSTOR]
    # brute force: u1's session-2 samples are the closest pool vectors,
    # and within u1 the wiggle makes later order_index slightly closer
    # on one axis but farther on the other; scores must be minimal picks.
    from tubench import centered_score

    pool = [dataset.samples[row] for u in ("u1", "u2", "u3") for row in dataset.row_range(u, 2)]
    scores = {(s.user_id, s.order_index): centered_score(ref, s.features) for s in pool}
    chosen = []
    remaining = dict(scores)
    for _ in range(3):
        best = min(remaining, key=lambda k: (remaining[k], k[0], k[1]))
        chosen.append(best)
        del remaining[best]
    assert [(e.sample.user_id, e.sample.order_index) for e in impostors] == chosen


def test_closest_sample_breaks_ties_lexicographically():
    # two impostors sit at identical positions: equal scores, u1 wins
    samples = []
    for user, base in (("a", 0.0), ("u1", 5.0), ("u2", 5.0)):
        samples.extend(
            make_sample(user, s, i, [base, base])
            for s in (1, 2)
            for i in ((s - 1),)
        )
    dataset = dataset_of(tuple(samples))
    ref = enroll("a", [[0.0, 0.0], [0.1, 0.1]])
    config = StreamConfig(0.5, GlobalOrder.IMPOSTOR_FIRST, LocalOrder.CLOSEST_SAMPLE)
    events = drain(planned(dataset, "a", 2, config, seed=0), ref)
    impostor = [e for e in events if e.true_label is Label.IMPOSTOR][0]
    assert impostor.sample.user_id == "u1"


def test_random_impostor_consumes_one_user_chronologically():
    dataset = grid_dataset(num_users=3, per_session=6)
    ref = reference_for(dataset)
    config = StreamConfig(0.5, GlobalOrder.IMPOSTOR_FIRST, LocalOrder.RANDOM_IMPOSTOR)
    events = drain(planned(dataset, "u0", 2, config, seed=13), ref)
    impostors = [e.sample for e in events if e.true_label is Label.IMPOSTOR]
    assert len(impostors) == 6
    # per-user runs are contiguous with strictly increasing order_index,
    # and a new impostor appears only once the previous one has no samples left
    runs = []
    for sample in impostors:
        if not runs or runs[-1][0] != sample.user_id:
            runs.append((sample.user_id, [sample.order_index]))
        else:
            runs[-1][1].append(sample.order_index)
    assert all(idx == sorted(idx) for _, idx in runs)
    assert len(runs) == len({user for user, _ in runs})  # no user appears twice
    assert len(runs[0][1]) == 6  # first impostor fully consumed


def test_closest_impostor_selects_nearest_user_first():
    dataset = grid_dataset(num_users=4, per_session=3)  # u1 at 10 is nearest to u0
    ref = reference_for(dataset)
    config = StreamConfig(0.5, GlobalOrder.IMPOSTOR_FIRST, LocalOrder.CLOSEST_IMPOSTOR)
    events = drain(planned(dataset, "u0", 2, config, seed=21), ref)
    impostors = [e.sample for e in events if e.true_label is Label.IMPOSTOR]
    assert [s.user_id for s in impostors] == ["u1", "u1", "u1"]
    assert [s.order_index for s in impostors] == sorted(s.order_index for s in impostors)


def test_closest_impostor_keeps_the_current_impostor_first_through_a_tie():
    dataset = grid_dataset(num_users=4, per_session=3)  # u2 at 20 is nearest to u3
    ref = reference_for(dataset, "u3")
    config = StreamConfig(0.5, GlobalOrder.IMPOSTOR_FIRST, LocalOrder.CLOSEST_IMPOSTOR)
    state = planned(dataset, "u3", 2, config, seed=0)
    first = next_query(state, ref)
    ref.center_m[0] = np.inf  # from here every row scores -inf, a tie u0 would win
    impostors = [e.sample for e in [first, *drain(state, ref)] if e.true_label is Label.IMPOSTOR]
    assert [s.user_id for s in impostors] == ["u2", "u2", "u2"]


def test_no_impostor_sample_repeats_within_a_session():
    dataset = grid_dataset(num_users=5, per_session=4)
    ref = reference_for(dataset)
    for order in LocalOrder:
        config = StreamConfig(0.5, GlobalOrder.RANDOM, order)
        events = drain(planned(dataset, "u0", 2, config, seed=31), ref)
        keys = [
            (e.sample.user_id, e.sample.session, e.sample.order_index)
            for e in events
            if e.true_label is Label.IMPOSTOR
        ]
        assert len(keys) == len(set(keys))


def test_same_session_policy_restricts_the_pool():
    dataset = grid_dataset(num_users=3, sessions=3)
    ref = reference_for(dataset)
    config = StreamConfig(0.4, impostor_session_policy=SessionPolicy.SAME_SESSION)
    events = drain(planned(dataset, "u0", 3, config, seed=3), ref)
    assert all(e.sample.session == 3 for e in events if e.true_label is Label.IMPOSTOR)

    sessions = set()
    for seed in range(30):
        cfg = StreamConfig(0.4, impostor_session_policy=SessionPolicy.ANY_SESSION)
        events = drain(planned(dataset, "u0", 3, cfg, seed), ref)
        sessions |= {e.sample.session for e in events if e.true_label is Label.IMPOSTOR}
    assert sessions - {3}  # other sessions do appear


def test_identical_seed_and_config_give_identical_streams():
    dataset = grid_dataset()
    ref = reference_for(dataset)
    config = StreamConfig(0.3, GlobalOrder.RANDOM, LocalOrder.TOTALLY_RANDOM)
    first = drain(planned(dataset, "u0", 2, config, seed=77), ref)
    second = drain(planned(dataset, "u0", 2, config, seed=77), ref)
    assert [(e.sample.user_id, e.sample.order_index, e.true_label) for e in first] == [
        (e.sample.user_id, e.sample.order_index, e.true_label) for e in second
    ]


def test_ratio_must_leave_room_for_genuine_queries():
    with pytest.raises(ValidationError):
        StreamConfig(impostor_ratio=1.0)
    with pytest.raises(ValidationError):
        StreamConfig(impostor_ratio=-0.1)


def test_plan_session_requires_genuine_material():
    dataset = grid_dataset(num_users=2)
    with pytest.raises(StreamError):
        planned(dataset, "u0", 9, StreamConfig(0.3), seed=0)


def reference_draws(dataset, target, session, config, seed, ref):
    """Test-only reference stream: the per-sample loops over a per-user
    dict pool that the row-array pool replaced. Random global order only.
    Yields (sample, label) and reads `ref` afresh at every draw."""
    genuine = [dataset.samples[row] for row in dataset.row_range(target, session)]
    rng = SplitMix64(seed)
    if not config.respect_chronology:
        rng.shuffle(genuine)
    n_impostor = impostor_count(len(genuine), config.impostor_ratio)
    labels = [Label.GENUINE] * len(genuine) + [Label.IMPOSTOR] * n_impostor
    rng.shuffle(labels)
    pool = {}
    for user in dataset.users:
        if user == target:
            continue
        if config.impostor_session_policy is SessionPolicy.SAME_SESSION:
            sessions = [session]
        else:
            sessions = range(1, dataset.num_sessions + 1)
        samples = [dataset.samples[row] for s in sessions for row in dataset.row_range(user, s)]
        if samples:
            pool[user] = samples

    def pop(user, index):
        sample = pool[user].pop(index)
        if not pool[user]:
            del pool[user]
        return sample

    current = None
    for label in labels:
        if label is Label.GENUINE:
            yield genuine.pop(0), label
            continue
        order = config.local_order
        if order is LocalOrder.TOTALLY_RANDOM:
            pick = rng.randbelow(sum(len(v) for v in pool.values()))
            for user in list(pool):
                if pick < len(pool[user]):
                    yield pop(user, pick), label
                    break
                pick -= len(pool[user])
        elif order is LocalOrder.CLOSEST_SAMPLE:
            best = min(
                (centered_score(ref, s.features), str(u), s.session, s.order_index, u, i)
                for u in pool
                for i, s in enumerate(pool[u])
            )
            yield pop(best[4], best[5]), label
        else:
            if current not in pool:
                users = sorted(pool, key=str)
                if order is LocalOrder.RANDOM_IMPOSTOR:
                    current = users[rng.randbelow(len(users))]
                else:
                    closest = {
                        u: min(centered_score(ref, s.features) for s in pool[u]) for u in users
                    }
                    current = min(users, key=lambda u: (closest[u], str(u)))
            yield pop(current, 0), label


def tie_heavy_dataset():
    """u1, u2 and u10 share every vector, and each user repeats two
    values, so closest-* draws tie often; as strings u10 < u11 < u2."""
    bases = {"u0": 0.0, "u1": 1.0, "u2": 1.0, "u10": 1.0, "u11": 1.5}
    samples = [
        make_sample(user, session, order, [base + 0.1 * (order % 2), base - 0.2 * (order % 2)])
        for user, base in bases.items()
        for session in (1, 2, 3)
        for order in range((session - 1) * 4, session * 4)
    ]
    return dataset_of(tuple(samples))


def emitted(events):
    return [(s.user_id, s.session, s.order_index, label) for s, label in events]


@pytest.mark.parametrize(
    "dataset, targets",
    [(grid_dataset(), ("u0", "u2")), (tie_heavy_dataset(), ("u0", "u10"))],
    ids=["grid", "tie-heavy"],
)
def test_row_pool_draws_match_the_reference_loops(dataset, targets):
    # Every draw absorbs the query, so the reference (and with it every
    # closest-* ranking) moves during the session.
    absorb_all = UpdateStrategy(StrategyKind.SELF_THRESHOLD, threshold=np.inf)

    def run(draws, target, ref):
        events = []
        for sample, label in draws:
            events.append((sample, label))
            query = QueryEvent(sample, target, label, len(events) - 1)
            maybe_update(ref, query, centered_score(ref, sample.features), absorb_all)
        return emitted(events)

    for order in LocalOrder:
        for policy in SessionPolicy:
            for seed in range(20):
                target = targets[seed % 2]
                session = 2 + seed % 2
                config = StreamConfig(
                    0.6, GlobalOrder.RANDOM, order, respect_chronology=seed % 3 != 0,
                    impostor_session_policy=policy,
                )
                state = planned(dataset, target, session, config, seed)
                fast_ref = enroll(target, dataset.feature_matrix[dataset.row_range(target, 1)])
                fast_draws = iter(lambda: next_query(state, fast_ref), None)
                fast = run(((e.sample, e.true_label) for e in fast_draws), target, fast_ref)
                slow_ref = enroll(target, dataset.feature_matrix[dataset.row_range(target, 1)])
                slow_draws = reference_draws(dataset, target, session, config, seed, slow_ref)
                assert fast == run(slow_draws, target, slow_ref), (order, policy, seed)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plan_rows_equals_the_masked_pool_oracle_at_every_cursor(data):
    # Three feature values per axis make scores tie often. From a drawn
    # cursor on, the lane may score every row -inf (center_m at +inf), or
    # NaN or +inf (inv_mad at +inf in one dimension, until an update
    # refreshes it: a row that meets mu there scores 0 * inf).
    num_users = data.draw(st.integers(3, 6), label="users")
    values = st.sampled_from([0.0, 0.5, 1.0])
    samples, order = [], 0
    for user in range(num_users):
        for session in (1, 2, 3):
            for _ in range(data.draw(st.integers(2 if session == 1 else 1, 4))):
                features = [data.draw(values), data.draw(values)]
                samples.append(make_sample(f"u{user}", session, order, features))
                order += 1
    dataset = dataset_of(tuple(samples))
    target = data.draw(st.integers(0, num_users - 1), label="target")
    session = data.draw(st.sampled_from([2, 3]), label="session")
    config = StreamConfig(
        data.draw(st.sampled_from([0.2, 0.4, 0.5]), label="ratio"),
        data.draw(st.sampled_from([o for o in GlobalOrder if o is not GlobalOrder.SCRIPTED])),
        data.draw(st.sampled_from(CLOSEST)),
        data.draw(st.booleans(), label="chronology"),
        data.draw(st.sampled_from(list(SessionPolicy))),
    )
    try:
        (layout,) = session_layouts(dataset, config, [(dataset.users[target], session)])
    except StreamError:  # the pool is too small for the impostor count
        return
    state = plan_session(layout, [data.draw(st.integers(0, n - 1)) for n in layout.bounds])
    expected, oracle = state.rows.copy(), MaskedPool(layout)
    lanes = ReferenceLanes.stack([reference_for(dataset, user) for user in dataset.users])
    distorted_from = data.draw(st.integers(0, state.rows.size), label="distorted from")
    distortion = data.draw(st.sampled_from([None, ("center_m", target), ("inv_mad", (target, 0))]))
    for cursor in range(state.rows.size + 1):
        if cursor == distorted_from and distortion:
            name, index = distortion
            getattr(lanes, name)[index] = np.inf
        oracle.commit(expected, state.impostor, cursor)
        state.cursor = cursor
        with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf score NaN
            planned_rows = plan_rows(state, lanes, target)
            oracle_rows = oracle.plan(expected, state.impostor, lanes, target)
        assert planned_rows.tobytes() == oracle_rows.tobytes(), cursor
        assert state.rows.tobytes() == expected.tobytes(), cursor
        if cursor < state.rows.size and data.draw(st.booleans(), label="update"):
            lanes.extend(target, dataset.feature_matrix[state.rows[cursor : cursor + 1]])
            lanes.refresh([target])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pool_pops_are_found_without_building_the_pool(data):
    size = data.draw(st.integers(0, 30))
    count = data.draw(st.integers(0, size))
    indices = [data.draw(st.integers(0, size - 1 - k)) for k in range(count)]
    pool = list(range(size))
    assert list(_popped(indices)) == [pool.pop(j) for j in indices]


def test_random_impostor_can_take_every_pool_user():
    # Six impostor queries need all three two-row impostors, so the last
    # user pick draws below 1: its word is consumed all the same.
    samples = [make_sample("t", 1, i, [0.0, 0.1 * i]) for i in range(3)]
    samples += [make_sample("t", 2, 3 + i, [0.0, 0.1 * i]) for i in range(6)]
    samples += [
        make_sample(user, session, 2 * (session - 1) + i, [5.0 + k, 0.1 * i])
        for k, user in enumerate(("a", "b", "c"))
        for session in (1, 2)
        for i in range(2)
    ]
    dataset = dataset_of(tuple(samples))
    for seed in range(10):
        config = StreamConfig(0.5, GlobalOrder.RANDOM, LocalOrder.RANDOM_IMPOSTOR)
        ref = reference_for(dataset, "t")
        fast = [(e.sample, e.true_label) for e in drain(planned(dataset, "t", 2, config, seed), ref)]
        assert {s.user_id for s, label in fast if label is Label.IMPOSTOR} == {"a", "b", "c"}
        assert emitted(fast) == emitted(reference_draws(dataset, "t", 2, config, seed, ref)), seed


def counted(values, taken):
    """Yield `values`, then one index more, recording each index taken."""
    for value in [*values, 0]:
        taken.append(value)
        yield value


SCRIPT = (
    Label.IMPOSTOR, Label.GENUINE, Label.GENUINE, Label.IMPOSTOR, Label.GENUINE,
    Label.GENUINE, Label.GENUINE, Label.IMPOSTOR, Label.GENUINE, Label.GENUINE,
)


@pytest.mark.parametrize("policy", list(SessionPolicy))
@pytest.mark.parametrize("chronology", [True, False])
@pytest.mark.parametrize("local_order", list(LocalOrder))
@pytest.mark.parametrize("global_order", list(GlobalOrder))
def test_a_planned_session_consumes_exactly_its_layout_bounds(
    global_order, local_order, chronology, policy
):
    # Each index at the top of its bound leaves every shuffle as it is and
    # pops the last pool row or user; so a bound that is off by one, out
    # of order or missing changes the plan or fails it.
    dataset = grid_dataset(num_users=5)
    config = StreamConfig(0.3, global_order, local_order, chronology, policy,
                          scripted=SCRIPT if global_order is GlobalOrder.SCRIPTED else None)
    for target, session in (("u0", 2), ("u3", 3)):
        (layout,) = session_layouts(dataset, config, [(target, session)])
        others = dataset.row_user != dataset.users.index(target)
        if policy is SessionPolicy.SAME_SESSION:
            others &= dataset.row_session == session
        pool = np.flatnonzero(others)
        runs = np.split(pool, np.flatnonzero(np.diff(dataset.row_user[pool])) + 1)
        for top in (True, False):
            taken = []
            indices = [n - 1 if top else 0 for n in layout.bounds]
            state = plan_session(layout, counted(indices, taken))
            impostor = state.impostor
            n_impostor = int(impostor.sum())
            assert (len(impostor) - n_impostor, n_impostor) == (7, 3)
            genuine = state.rows[~impostor].tolist()
            assert sorted(genuine) == list(dataset.row_range(target, session))
            unused = 0
            if local_order is LocalOrder.TOTALLY_RANDOM:
                expected = pool[::-1] if top else pool
                assert state.rows[impostor].tolist() == expected[:n_impostor].tolist()
            elif local_order is LocalOrder.RANDOM_IMPOSTOR:
                picked = runs[::-1] if top else runs
                expected = np.concatenate(picked)[:n_impostor]
                assert state.rows[impostor].tolist() == expected.tolist()
                used = np.unique(dataset.row_user[expected]).size
                unused = len(runs) - used  # picks the session did not need
            assert len(taken) == len(layout.bounds) - unused, (target, session, top)
            if top:
                assert genuine == sorted(genuine)
                if global_order is GlobalOrder.RANDOM:
                    assert impostor.tolist() == [False] * 7 + [True] * 3
