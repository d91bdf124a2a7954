"""Per-session query stream construction.

A stream is configured along four axes: how many impostor queries
accompany the genuine ones (impostor ratio), how the two label kinds
interleave (global order), how individual impostor samples are picked
(local order), and whether genuine samples keep their chronological
order. Impostor samples are drawn without replacement; closest-* local
orders consult the evolving reference at draw time, which is why the
selector is stateful instead of a pre-materialized list.

The impostor pool is a set of `Dataset.rows`, in (user, session,
order_index) order, with an alive mask. A closest-* choice scores every
live row in one batched `centered_score` call and takes the first
minimum, so ties go to the lowest (user, session, order_index): once per
draw for `closest_sample`, once per new impostor for `closest_impostor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, Label, QueryEvent, Sample
from .errors import StreamError, ValidationError
from .matcher import ReferenceModel, centered_score
from .rng import SplitMix64


class GlobalOrder(str, Enum):
    GENUINE_FIRST = "genuine_first"
    IMPOSTOR_FIRST = "impostor_first"
    RANDOM = "random"
    SCRIPTED = "scripted"


class LocalOrder(str, Enum):
    TOTALLY_RANDOM = "totally_random"
    CLOSEST_SAMPLE = "closest_sample"
    RANDOM_IMPOSTOR = "random_impostor"
    CLOSEST_IMPOSTOR = "closest_impostor"


class SessionPolicy(str, Enum):
    SAME_SESSION = "same_session"
    ANY_SESSION = "any_session"


@dataclass(frozen=True)
class StreamConfig:
    """Full query-presentation configuration for one experiment."""

    impostor_ratio: float
    global_order: GlobalOrder = GlobalOrder.RANDOM
    local_order: LocalOrder = LocalOrder.TOTALLY_RANDOM
    respect_chronology: bool = True
    impostor_session_policy: SessionPolicy = SessionPolicy.SAME_SESSION
    seed: int = 0
    scripted: tuple[Label, ...] | None = None

    def __post_init__(self):
        problems = []
        if not 0.0 <= self.impostor_ratio < 1.0:
            problems.append(f"impostor_ratio must be in [0, 1), got {self.impostor_ratio}")
        if self.global_order is GlobalOrder.SCRIPTED and self.scripted is None:
            problems.append("scripted global order needs a label sequence")
        if self.scripted is not None:
            object.__setattr__(self, "scripted", tuple(self.scripted))
        if problems:
            raise ValidationError(problems)


def impostor_count(genuine_count: int, impostor_ratio: float) -> int:
    """Impostor queries needed so impostors make up ~ratio of the stream.

    Rounds half up so the count does not depend on the platform's
    round-to-even behavior.
    """
    return int(math.floor(genuine_count * impostor_ratio / (1.0 - impostor_ratio) + 0.5))


@dataclass(eq=False)
class StreamState:
    """Mutable cursor over one planned session stream."""

    target_user: str
    session: int
    labels: list[Label]
    genuine_queue: list[Sample]
    dataset: Dataset
    pool_rows: np.ndarray  # impostor pool: ascending indices into dataset.rows
    alive: np.ndarray  # per pool row, False once drawn
    local_order: LocalOrder
    rng: SplitMix64
    cursor: int = 0
    emitted: int = 0
    current_impostor: int | None = None  # position in dataset.users

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.labels)


def plan_session(
    dataset: Dataset,
    target_user: str,
    session: int,
    config: StreamConfig,
) -> StreamState:
    """Lay out the label sequence and sample pools for one session."""
    if session < 2:
        raise ValidationError(f"query sessions start at 2, got {session}")
    genuine = list(dataset.samples_for(target_user, session))
    if not genuine:
        raise StreamError(f"user {target_user} has no samples in session {session}")

    rng = SplitMix64(config.seed)
    if not config.respect_chronology:
        rng.shuffle(genuine)

    n_genuine = len(genuine)
    n_impostor = impostor_count(n_genuine, config.impostor_ratio)
    labels = _label_sequence(config, n_genuine, n_impostor, rng)

    in_pool = dataset.row_user != dataset.users.index(target_user)
    if config.impostor_session_policy is SessionPolicy.SAME_SESSION:
        in_pool &= dataset.row_session == session
    pool_rows = np.flatnonzero(in_pool)
    if pool_rows.size < n_impostor:
        raise StreamError(
            f"session {session}: impostor pool holds {pool_rows.size} samples, "
            f"need {n_impostor}"
        )
    return StreamState(
        target_user=target_user,
        session=session,
        labels=labels,
        genuine_queue=genuine,
        dataset=dataset,
        pool_rows=pool_rows,
        alive=np.ones(pool_rows.size, dtype=bool),
        local_order=config.local_order,
        rng=rng,
    )


def _label_sequence(
    config: StreamConfig, n_genuine: int, n_impostor: int, rng: SplitMix64
) -> list[Label]:
    if config.global_order is GlobalOrder.SCRIPTED:
        scripted = list(config.scripted)
        got_g = sum(1 for l in scripted if l is Label.GENUINE)
        got_i = len(scripted) - got_g
        if got_g != n_genuine or got_i != n_impostor:
            raise ValidationError(
                f"scripted sequence has {got_g} genuine / {got_i} impostor labels, "
                f"session needs {n_genuine} / {n_impostor}"
            )
        return scripted
    if config.global_order is GlobalOrder.GENUINE_FIRST:
        return [Label.GENUINE] * n_genuine + [Label.IMPOSTOR] * n_impostor
    if config.global_order is GlobalOrder.IMPOSTOR_FIRST:
        return [Label.IMPOSTOR] * n_impostor + [Label.GENUINE] * n_genuine
    labels = [Label.GENUINE] * n_genuine + [Label.IMPOSTOR] * n_impostor
    rng.shuffle(labels)
    return labels


def next_query(state: StreamState, current_ref: ReferenceModel) -> QueryEvent | None:
    """Emit the next query event, or None once the stream is exhausted."""
    if state.exhausted:
        return None
    label = state.labels[state.cursor]
    state.cursor += 1
    if label is Label.GENUINE:
        sample = state.genuine_queue.pop(0)
    else:
        sample = _draw_impostor(state, current_ref)
    event = QueryEvent(sample, state.target_user, label, state.emitted)
    state.emitted += 1
    return event


def _draw_impostor(state: StreamState, ref: ReferenceModel) -> Sample:
    live = np.flatnonzero(state.alive)
    if live.size == 0:
        raise StreamError(f"session {state.session}: impostor pool exhausted")
    rows = state.pool_rows[live]
    order = state.local_order

    def closest() -> int:  # argmin keeps the first minimum: the lowest row wins ties
        return int(np.argmin(centered_score(ref, state.dataset.feature_matrix[rows])))

    if order is LocalOrder.TOTALLY_RANDOM:
        pick = state.rng.randbelow(live.size)
    elif order is LocalOrder.CLOSEST_SAMPLE:
        pick = closest()
    else:
        # random_impostor / closest_impostor: stick with the current impostor
        # until that user's pool is exhausted, then pick the next one.
        owners = state.dataset.row_user[rows]
        if state.current_impostor not in owners:
            if order is LocalOrder.RANDOM_IMPOSTOR:
                users = np.unique(owners)
                state.current_impostor = int(users[state.rng.randbelow(users.size)])
            else:
                state.current_impostor = int(owners[closest()])
        pick = np.argmax(owners == state.current_impostor)  # their earliest live row
    state.alive[live[pick]] = False
    return state.dataset.rows[rows[pick]]
