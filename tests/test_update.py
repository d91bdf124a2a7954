import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubench import (
    Label,
    Origin,
    QueryEvent,
    StrategyKind,
    UpdateStrategy,
    ValidationError,
    centered_score,
    enroll,
    impostor_inclusion,
    maybe_update,
)
from tubench.matcher import gallery_statistics
from tubench.rng import SplitMix64
from conftest import make_sample


def fresh_ref(user="u", vectors=((0.0, 0.0), (2.0, 2.0), (4.0, 4.0)), capacity=None):
    return enroll(user, np.array(vectors, dtype=float), capacity=capacity)


def query_for(ref, source, feats, position=0, session=2, order=10):
    label = Label.GENUINE if source == ref.target_user else Label.IMPOSTOR
    sample = make_sample(source, session, order, feats)
    return QueryEvent(sample, ref.target_user, label, position)


def test_strategy_none_never_touches_the_gallery():
    ref = fresh_ref()
    before = ref.vectors.tolist()
    outcome = maybe_update(ref, query_for(ref, "u", [1.0, 1.0]), -5.0, UpdateStrategy(StrategyKind.NONE))
    assert outcome.applied is False and outcome.evicted is None
    assert ref.vectors.tolist() == before


def test_self_threshold_applies_on_close_impostor():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, update_threshold=-0.2)
    outcome = maybe_update(ref, query_for(ref, "imp", [2.0, 2.0]), -0.25, strategy)
    assert outcome.applied is True
    assert outcome.was_impostor is True
    assert ref.origins[-1] is Origin.IMPOSTOR_UPDATE
    assert impostor_inclusion(ref) == pytest.approx(1 / 4)


def test_self_threshold_boundary_is_inclusive():
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, update_threshold=-0.2)
    ref = fresh_ref()
    assert maybe_update(ref, query_for(ref, "u", [2.0, 2.0]), -0.2, strategy).applied
    ref = fresh_ref()
    assert not maybe_update(ref, query_for(ref, "u", [2.0, 2.0]), -0.19, strategy).applied


def test_supervised_never_admits_impostors():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SUPERVISED, update_threshold=-0.2)
    outcome = maybe_update(ref, query_for(ref, "imp", [2.0, 2.0]), -10.0, strategy)
    assert outcome.applied is False
    assert outcome.was_impostor is True
    assert impostor_inclusion(ref) == 0.0


def test_supervised_accepts_all_genuine_at_infinite_threshold():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SUPERVISED)  # threshold +inf
    assert maybe_update(ref, query_for(ref, "u", [9.0, 9.0]), 50.0, strategy).applied
    assert ref.origins[-1] is Origin.GENUINE_UPDATE


def test_supervised_still_gated_by_threshold():
    ref = fresh_ref()
    strategy = UpdateStrategy(StrategyKind.SUPERVISED, update_threshold=-0.2)
    assert not maybe_update(ref, query_for(ref, "u", [9.0, 9.0]), 0.5, strategy).applied


def test_fifo_evicts_oldest_non_enrollment_entry():
    ref = fresh_ref(capacity=4)
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, math.inf, capacity=4)
    first = maybe_update(ref, query_for(ref, "u", [1.0, 1.0]), 0.0, strategy)
    assert first.applied and first.evicted is None
    second = maybe_update(ref, query_for(ref, "imp", [2.0, 2.0], position=1), 0.0, strategy)
    assert second.applied
    assert second.evicted == (Origin.GENUINE_UPDATE, "u", 2)  # the older update, not enrollment
    assert ref.vectors[3:].tolist() == [[2.0, 2.0]]
    assert len(ref.vectors) == 4
    assert ref.origins.count(Origin.ENROLLMENT) == 3


def test_fifo_preserves_enrollment_under_long_sequences():
    ref = fresh_ref(capacity=5)
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, math.inf, capacity=5)
    rng = np.random.default_rng(1)
    for i in range(30):
        source = "u" if i % 3 else "imp"
        maybe_update(ref, query_for(ref, source, rng.normal(size=2), position=i, order=10 + i), -1.0, strategy)
        assert len(ref.vectors) <= 5
        assert ref.origins.count(Origin.ENROLLMENT) == 3


def test_strategy_field_validation():
    with pytest.raises(ValidationError):
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, capacity=0)
    with pytest.raises(ValidationError):
        UpdateStrategy(StrategyKind.SELF_THRESHOLD, update_threshold=math.nan)


def test_update_outcome_consistency_is_validated():
    from tubench import UpdateOutcome

    with pytest.raises(ValidationError):
        UpdateOutcome(applied=False, evicted=(Origin.GENUINE_UPDATE, "u", 2), was_impostor=False)


def test_inclusion_of_fresh_reference_is_zero():
    assert impostor_inclusion(fresh_ref()) == 0.0


def test_inclusion_simple_ratio():
    ref = fresh_ref(vectors=[[float(i), 0.0] for i in range(8)])
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, math.inf)
    maybe_update(ref, query_for(ref, "imp", [1.0, 1.0]), 0.0, strategy)
    maybe_update(ref, query_for(ref, "imp", [2.0, 1.0], position=1, order=11), 0.0, strategy)
    assert len(ref.vectors) == 10
    assert impostor_inclusion(ref) == pytest.approx(0.2)


def test_inclusion_after_scripted_sequence():
    # 4-sample enrollment, then 3 genuine-applied and 1 impostor-applied
    # updates: replaying by hand gives 1 impostor among 8 entries.
    ref = fresh_ref(vectors=[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, math.inf)
    script = [("u", 0), ("imp", 1), ("u", 2), ("u", 3)]
    for source, position in script:
        query = query_for(ref, source, [1.5, 1.5], position=position, order=20 + position)
        assert maybe_update(ref, query, centered_score(ref, query.sample.features), strategy).applied
    assert len(ref.vectors) == 8
    assert impostor_inclusion(ref) == pytest.approx(1 / 8)


def test_self_threshold_is_label_blind():
    # flipping the ground-truth label changes was_impostor but never applied
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, update_threshold=0.0)
    rng = np.random.default_rng(5)
    stream = SplitMix64(17)
    for i in range(40):
        feats = rng.normal(loc=2.0, scale=2.0, size=2)
        centered_value = stream.random() * 2.0 - 1.0
        as_genuine = fresh_ref()
        out_g = maybe_update(as_genuine, query_for(as_genuine, "u", feats), centered_value, strategy)
        as_impostor = fresh_ref()
        out_i = maybe_update(as_impostor, query_for(as_impostor, "imp", feats), centered_value, strategy)
        assert out_g.applied == out_i.applied
        assert out_g.was_impostor is False and out_i.was_impostor is True


def test_supervised_inclusion_stays_zero_over_random_sequences():
    rng = np.random.default_rng(23)
    for trial in range(20):
        ref = fresh_ref()
        strategy = UpdateStrategy(
            StrategyKind.SUPERVISED, update_threshold=rng.uniform(-1.0, 5.0)
        )
        for i in range(30):
            source = "u" if rng.random() < 0.5 else f"imp{trial}"
            query = query_for(ref, source, rng.normal(size=2), position=i, order=5 + i)
            maybe_update(ref, query, centered_score(ref, query.sample.features), strategy)
        assert impostor_inclusion(ref) == 0.0


def test_strategy_none_keeps_gallery_bit_identical():
    rng = np.random.default_rng(29)
    ref = fresh_ref()
    before = ref.vectors.copy()
    for i in range(25):
        source = "u" if rng.random() < 0.5 else "imp"
        query = query_for(ref, source, rng.normal(size=2), position=i, order=5 + i)
        maybe_update(ref, query, centered_score(ref, query.sample.features), UpdateStrategy(StrategyKind.NONE))
    assert ref.vectors.shape == before.shape
    for row, original in zip(ref.vectors, before):
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
    enrollment = ref.vectors.copy()
    strategy = UpdateStrategy(StrategyKind.SELF_THRESHOLD, 0.0, capacity=capacity)
    updates, tags = [], []  # expected update vectors and their tags, oldest first
    for i, (genuine, accept) in enumerate(steps):
        features = rng.normal(size=dimension) * 3.0
        source = "u" if genuine else "imp"
        query = query_for(ref, source, features, position=i, session=2 + i, order=10 + i)
        outcome = maybe_update(ref, query, -1.0 if accept else 1.0, strategy)
        assert outcome.applied is accept
        if accept:
            updates.append(features)
            origin = Origin.GENUINE_UPDATE if genuine else Origin.IMPOSTOR_UPDATE
            tags.append((origin, source, 2 + i))
        if capacity is not None and len(enrollment) + len(updates) > capacity:
            assert outcome.evicted == tags.pop(0)
            updates.pop(0)
        else:
            assert outcome.evicted is None
        vectors, origins = ref.vectors, ref.origins
        assert len(vectors) == len(origins) == len(enrollment) + len(updates)
        for row, origin, expected in zip(vectors, origins, enrollment):
            assert origin is Origin.ENROLLMENT
            assert np.array_equal(row, expected)
        cut = len(enrollment)
        for row, origin, expected in zip(vectors[cut:], origins[cut:], updates):
            assert origin is not Origin.ENROLLMENT
            assert np.array_equal(row, expected)
        mu, mad = gallery_statistics(vectors.copy(), ref.eps)
        assert np.array_equal(_bits(ref.mu), _bits(mu))
        assert np.array_equal(_bits(ref.mad), _bits(mad))
