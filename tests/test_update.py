import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubench import (
    Label,
    QueryEvent,
    StrategyKind,
    UpdateStrategy,
    ValidationError,
    centered_score,
    enroll,
    impostor_inclusion,
    maybe_update,
)
from tubench.rng import SplitMix64
from tubench.update import accepts
from conftest import dataset_of, gallery_statistics, make_sample


ENROLLMENT = ((0.0, 0.0), (2.0, 2.0), (4.0, 4.0))


def fresh_ref(vectors=ENROLLMENT, capacity=None):
    return enroll("u", np.array(vectors, dtype=float), capacity=capacity)


def _bytes(vectors):
    return np.array(vectors, dtype=float).tobytes()


def query_for(source, feats, position=0, session=2, order=10):
    """A query of `source`'s features to the reference of user u."""
    label = Label.GENUINE if source == "u" else Label.IMPOSTOR
    sample = make_sample(source, session, order, feats)
    return QueryEvent(sample, "u", label, position)


def test_strategy_none_never_touches_the_gallery():
    ref = fresh_ref()
    before = ref.vectors().tolist()
    outcome = maybe_update(ref, query_for("u", [1.0, 1.0]), -5.0, UpdateStrategy(StrategyKind.NONE))
    assert outcome.applied is False and outcome.evicted is None
    assert ref.vectors().tolist() == before


def test_self_threshold_applies_on_close_impostor():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, threshold=-0.2)
    outcome = maybe_update(ref, query_for("imp", [2.0, 2.0]), -0.25, strategy)
    assert outcome.applied is True
    assert outcome.was_impostor is True
    # one of the gallery's 4 entries is the impostor's vector
    assert ref.vectors().tobytes() == _bytes([*ENROLLMENT, (2.0, 2.0)])


def test_an_accepted_query_of_the_wrong_width_fails_before_the_append():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SUPERVISED)  # accepts every genuine query
    with pytest.raises(ValidationError) as excinfo:
        maybe_update(ref, query_for("u", [1.0, 1.0, 1.0]), -5.0, strategy)
    assert str(excinfo.value) == "query shape (1, 3) != (k, reference dimension 2)"
    assert ref.vectors().tobytes() == _bytes(ENROLLMENT)
    assert ref.size.tolist() == [3]


def test_self_threshold_boundary_is_inclusive():
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, threshold=-0.2)
    ref = fresh_ref()
    assert maybe_update(ref, query_for("u", [2.0, 2.0]), -0.2, strategy).applied
    ref = fresh_ref()
    assert not maybe_update(ref, query_for("u", [2.0, 2.0]), -0.19, strategy).applied


def test_supervised_never_admits_impostors():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SUPERVISED, threshold=-0.2)
    outcome = maybe_update(ref, query_for("imp", [2.0, 2.0]), -10.0, strategy)
    assert outcome.applied is False
    assert outcome.was_impostor is True
    assert ref.vectors().tobytes() == _bytes(ENROLLMENT)


def test_supervised_accepts_all_genuine_at_infinite_threshold():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SUPERVISED)  # threshold +inf
    outcome = maybe_update(ref, query_for("u", [9.0, 9.0]), 50.0, strategy)
    assert outcome.applied and not outcome.was_impostor
    assert ref.vectors().tobytes() == _bytes([*ENROLLMENT, (9.0, 9.0)])


def test_supervised_still_gated_by_threshold():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SUPERVISED, threshold=-0.2)
    assert not maybe_update(ref, query_for("u", [9.0, 9.0]), 0.5, strategy).applied


def test_fifo_evicts_oldest_non_enrollment_entry():
    ref = fresh_ref(capacity=4)
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, math.inf, capacity=4)
    first = maybe_update(ref, query_for("u", [1.0, 1.0]), 0.0, strategy)
    assert first.applied and first.evicted is None
    second = maybe_update(ref, query_for("imp", [2.0, 2.0], position=1), 0.0, strategy)
    assert second.applied
    assert second.evicted.tobytes() == _bytes((1.0, 1.0))  # the older update, not enrollment
    assert ref.vectors().tobytes() == _bytes([*ENROLLMENT, (2.0, 2.0)])


def test_fifo_preserves_enrollment_under_long_sequences():
    ref = fresh_ref(capacity=5)
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, math.inf, capacity=5)
    rng = np.random.default_rng(1)
    for i in range(30):
        source = "u" if i % 3 else "imp"
        maybe_update(ref, query_for(source, rng.normal(size=2), position=i, order=10 + i), -1.0, strategy)
        assert len(ref.vectors()) <= 5
        assert ref.vectors()[:3].tobytes() == _bytes(ENROLLMENT)


def test_strategy_field_validation():
    with pytest.raises(ValidationError):
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, capacity=0)
    with pytest.raises(ValidationError):
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, threshold=math.nan)


def test_the_default_strategy_never_updates_and_has_no_score_gate():
    assert UpdateStrategy() == UpdateStrategy(StrategyKind.NONE, math.inf, None)
    assert UpdateStrategy().threshold == math.inf


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_a_null_threshold_is_no_score_gate(kind):
    assert UpdateStrategy(kind, None) == UpdateStrategy(kind, math.inf)
    assert UpdateStrategy(kind).threshold == math.inf


def test_a_nan_threshold_is_rejected_by_name():
    with pytest.raises(ValidationError, match="^threshold must not be NaN$"):
        UpdateStrategy(StrategyKind.SUPERVISED, math.nan)


def test_a_kind_given_by_value_is_converted():
    strategy = UpdateStrategy("supervised", 0.0)
    assert strategy == UpdateStrategy(StrategyKind.SUPERVISED, 0.0)
    assert strategy.kind is StrategyKind.SUPERVISED
    assert accepts(strategy, [-1.0, -1.0], [False, True]).tolist() == [True, False]


@pytest.mark.parametrize(
    "arguments, message",
    [
        (("bogus", 0.0), "kind must be one of ['none', 'supervised', 'self_threshold'], got 'bogus'"),
        ((StrategyKind.SUPERVISED, "x"), "threshold must be a number, got 'x'"),
        ((StrategyKind.SUPERVISED, None, "3"), "capacity must be an integer, got '3'"),
        ((StrategyKind.SUPERVISED, None, 2.0), "capacity must be an integer, got 2.0"),
        ((StrategyKind.SUPERVISED, True), "threshold must be a number, got True"),
        ((StrategyKind.SUPERVISED, None, True), "capacity must be an integer, got True"),
    ],
    ids=["kind", "threshold", "capacity-string", "capacity-float", "threshold-bool",
         "capacity-bool"],
)
def test_a_malformed_strategy_field_is_rejected_by_name(arguments, message):
    with pytest.raises(ValidationError) as caught:
        UpdateStrategy(*arguments)
    assert caught.value.violations == [message]


def test_bool_threshold_and_capacity_are_rejected_together():
    with pytest.raises(ValidationError) as caught:
        UpdateStrategy("supervised", True, True)
    assert caught.value.violations == [
        "threshold must be a number, got True", "capacity must be an integer, got True"
    ]
    assert UpdateStrategy("supervised", 1, np.int64(4)).capacity == 4


def test_update_outcome_consistency_is_validated():
    from tubench import UpdateOutcome

    with pytest.raises(ValidationError):
        UpdateOutcome(applied=False, evicted=np.array([1.0, 1.0]), was_impostor=False)


def two_users():
    """Users a and b, each with 3 enrollment rows and 2 rows in each of
    sessions 2 and 3: a's rows are 0-6, b's 7-13, in session order."""
    samples = [
        make_sample(user, session, order, [10.0 * index + order])
        for index, user in enumerate("ab")
        for session, count in ((1, 3), (2, 2), (3, 2))
        for order in range(count)
    ]
    return dataset_of(samples)


def updates_of(*entries):
    """An update log of (repeat, session, target, row) entries, in run order."""
    columns = np.array(entries, dtype=np.intp).reshape(-1, 4).T
    return dict(zip(("repeat", "session", "target", "row"), columns),
                position=np.zeros(len(entries), dtype=np.intp))


def test_inclusion_without_updates_is_zero():
    dataset = two_users()
    gallery_size = np.full((2, 2, 2), 3, dtype=np.intp)
    assert impostor_inclusion(dataset, updates_of(), gallery_size).tolist() == [[[0.0] * 2] * 2] * 2


def test_inclusion_counts_the_impostor_updates_each_fifo_gallery_keeps():
    # A capacity of 4 keeps one update beside each 3-row enrollment, so the
    # newest update evicts the one before it, across a session boundary too.
    dataset = two_users()
    updates = updates_of(
        (0, 2, 0, 10),  # a absorbs b's row ...
        (0, 3, 0, 5),  # ... which a's own next update evicts
        (0, 3, 1, 12),
        (0, 3, 1, 5),  # b keeps a's row, the newer of its two session-3 updates
        (1, 2, 1, 3),
        (1, 2, 1, 4),  # b keeps a's second row, and still does after session 3
    )
    gallery_size = np.array([[[4, 3], [4, 4]], [[3, 4], [3, 4]]], dtype=np.intp)
    inclusion = impostor_inclusion(dataset, updates, gallery_size)
    assert inclusion.tolist() == [[[1 / 4, 0.0], [0.0, 1 / 4]], [[0.0, 1 / 4], [0.0, 1 / 4]]]


def test_inclusion_of_unbounded_galleries_counts_every_impostor_update():
    # a holds 3 enrollment rows and b's 4 rows plus a's own 2 session-3 rows
    # by the end, 4 impostor entries among 9; b absorbs nothing.
    dataset = two_users()
    updates = updates_of((0, 2, 0, 10), (0, 2, 0, 11), (0, 3, 0, 12), (0, 3, 0, 5),
                         (0, 3, 0, 13), (0, 3, 0, 6))
    gallery_size = np.array([[[5, 3], [9, 3]]], dtype=np.intp)
    inclusion = impostor_inclusion(dataset, updates, gallery_size)
    assert inclusion.tolist() == [[[2 / 5, 0.0], [4 / 9, 0.0]]]


def test_scripted_updates_enter_the_gallery_in_order():
    # 4-sample enrollment, then 3 genuine-applied and 1 impostor-applied
    # updates: the gallery holds 8 entries, one of them the impostor's.
    enrollment = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
    ref = fresh_ref(vectors=enrollment)
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, math.inf)
    script = [("u", 0), ("imp", 1), ("u", 2), ("u", 3)]
    for source, position in script:
        features = [1.5 + position, 1.5]
        query = query_for(source, features, position=position, order=20 + position)
        outcome = maybe_update(ref, query, centered_score(ref, query.sample.features), strategy)
        assert outcome.applied and outcome.was_impostor is (source == "imp")
    updates = [[1.5 + position, 1.5] for _, position in script]
    assert ref.vectors().tobytes() == _bytes(enrollment + updates)


def test_self_threshold_is_label_blind():
    # flipping the ground-truth label changes was_impostor but never applied
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, threshold=0.0)
    rng = np.random.default_rng(5)
    stream = SplitMix64(17)
    for i in range(40):
        feats = rng.normal(loc=2.0, scale=2.0, size=2)
        centered_value = stream.random() * 2.0 - 1.0
        as_genuine = fresh_ref()
        out_g = maybe_update(as_genuine, query_for("u", feats), centered_value, strategy)
        as_impostor = fresh_ref()
        out_i = maybe_update(as_impostor, query_for("imp", feats), centered_value, strategy)
        assert out_g.applied == out_i.applied
        assert out_g.was_impostor is False and out_i.was_impostor is True


def test_supervised_galleries_hold_only_genuine_vectors_over_random_sequences():
    rng = np.random.default_rng(23)
    for trial in range(20):
        ref = fresh_ref()
        strategy = UpdateStrategy(
            StrategyKind.SUPERVISED, threshold=rng.uniform(-1.0, 5.0)
        )
        genuine = []  # the applied update vectors, in order
        for i in range(30):
            source = "u" if rng.random() < 0.5 else f"imp{trial}"
            query = query_for(source, rng.normal(size=2), position=i, order=5 + i)
            outcome = maybe_update(ref, query, centered_score(ref, query.sample.features), strategy)
            assert not (outcome.applied and outcome.was_impostor)
            if outcome.applied:
                genuine.append(query.sample.features)
        assert ref.vectors().tobytes() == _bytes([*ENROLLMENT, *genuine])


def test_strategy_none_keeps_gallery_bit_identical():
    rng = np.random.default_rng(29)
    ref = fresh_ref()
    before = ref.vectors().copy()
    for i in range(25):
        source = "u" if rng.random() < 0.5 else "imp"
        query = query_for(source, rng.normal(size=2), position=i, order=5 + i)
        maybe_update(ref, query, centered_score(ref, query.sample.features), UpdateStrategy(StrategyKind.NONE))
    assert ref.vectors().shape == before.shape
    for row, original in zip(ref.vectors(), before):
        assert np.array_equal(row, original)


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@settings(max_examples=80, deadline=None)
@given(
    enrolled=st.integers(2, 6),
    dimension=st.sampled_from([1, 2, 3, 31]),
    capacity_factor=st.one_of(st.none(), st.floats(1.0, 3.0)),
    steps=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
def test_fifo_gallery_matches_a_fresh_recompute_after_every_update(
    enrolled, dimension, capacity_factor, steps, seed
):
    rng = np.random.default_rng(seed)
    capacity = None if capacity_factor is None else int(enrolled * capacity_factor)
    ref = fresh_ref(vectors=rng.normal(size=(enrolled, dimension)), capacity=capacity)
    enrollment = ref.vectors().copy()
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, 0.0, capacity=capacity)
    updates = []  # expected update vectors, oldest first
    for i, (genuine, accept) in enumerate(steps):
        features = rng.normal(size=dimension) * 3.0
        source = "u" if genuine else "imp"
        query = query_for(source, features, position=i, session=2 + i, order=10 + i)
        outcome = maybe_update(ref, query, -1.0 if accept else 1.0, strategy)
        assert outcome.applied is accept
        assert outcome.was_impostor is not genuine
        if accept:
            updates.append(features)
        if capacity is not None and len(enrollment) + len(updates) > capacity:
            assert outcome.evicted.tobytes() == updates.pop(0).tobytes()
        else:
            assert outcome.evicted is None
        vectors = ref.vectors()
        assert len(vectors) == len(enrollment) + len(updates)
        assert vectors[: len(enrollment)].tobytes() == enrollment.tobytes()
        assert vectors[len(enrollment) :].tobytes() == b"".join(u.tobytes() for u in updates)
        mu, mad = gallery_statistics(vectors.copy(), ref.eps)
        assert np.array_equal(_bits(ref.mu[0]), _bits(mu))
        assert np.array_equal(_bits(ref.mad[0]), _bits(mad))
