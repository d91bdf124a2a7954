"""Per-session query stream construction.

A stream is configured along four axes: how many impostor queries
accompany the genuine ones (impostor ratio), how the two label kinds
interleave (global order), how individual impostor samples are picked
(local order), and whether genuine samples keep their chronological
order. Impostor samples are drawn without replacement.

A planned stream holds a row of `Dataset.feature_matrix` for every
query position. Genuine rows, and the impostor rows of the random local
orders, are fixed when the session is planned. The session's randomness
is one run of `randbelow` indices from the SplitMix64 stream of its
seed, with the bounds `draw_bounds` lists: the genuine shuffle, the
label shuffle, then the random impostor draws in position order. A run
draws the indices of many sessions in one block (`rng.block_randbelow`,
bit-equal to the scalar stream), and `plan_session` applies them with
list swaps and pops. The closest-* orders consult the evolving
reference: `plan_rows` chooses the impostors of the positions not yet
presented against a given reference, and `commit` marks positions as
presented, so a caller re-plans only after an update changes the
reference. The impostor pool is a set of rows, in (user, session,
order_index) order, with an alive mask. A closest-* plan scores every
live row in one batched `centered_score` call and ranks the rows by a
stable sort, so ties go to the lowest (user, session, order_index), as
repeatedly taking the first minimum would: `closest_sample` takes rows
in that ranking, `closest_impostor` takes users in the ranking of their
first-ranked row (the current impostor first), each user's rows in
ascending order.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .core import Dataset, Label, QueryEvent
from .errors import StreamError, ValidationError
from .matcher import ReferenceModel, centered_score
from .rng import block_randbelow


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


CLOSEST = (LocalOrder.CLOSEST_SAMPLE, LocalOrder.CLOSEST_IMPOSTOR)
"""The local orders that choose impostors against the evolving reference."""


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
    """One planned session stream and how much of it has been presented.

    `rows[k]` is the dataset row of query position k and `impostor[k]`
    whether it is an impostor query; positions before `cursor` have been
    presented.
    """

    target_user: str
    impostor: np.ndarray
    rows: np.ndarray
    dataset: Dataset
    pool_rows: np.ndarray  # impostor pool: ascending rows of dataset.feature_matrix
    alive: np.ndarray  # per pool row, False once presented
    local_order: LocalOrder
    cursor: int = 0
    current_impostor: int | None = None  # position in dataset.users


def _layout(dataset: Dataset, target_user: str, session: int, config: StreamConfig):
    """A session's genuine rows, its impostor count and its impostor pool, checked."""
    if session < 2:
        raise ValidationError(f"query sessions start at 2, got {session}")
    own = dataset.row_range(target_user, session)
    if not own:
        raise StreamError(f"user {target_user} has no samples in session {session}")
    n_impostor = impostor_count(len(own), config.impostor_ratio)
    if config.global_order is GlobalOrder.SCRIPTED:
        got_g = sum(1 for label in config.scripted if label is Label.GENUINE)
        got_i = len(config.scripted) - got_g
        if got_g != len(own) or got_i != n_impostor:
            raise ValidationError(
                f"scripted sequence has {got_g} genuine / {got_i} impostor labels, "
                f"session needs {len(own)} / {n_impostor}"
            )
    # Rows sort by (user, session): the target's rows are one run of the candidates.
    if config.impostor_session_policy is SessionPolicy.SAME_SESSION:
        candidates = dataset.session_rows[session]
        start, stop = np.searchsorted(candidates, [own.start, own.stop])
    else:
        candidates, user = np.arange(dataset.row_user.size), dataset.row_user[own.start]
        start, stop = np.searchsorted(dataset.row_user, [user, user + 1])
    pool_rows = np.concatenate([candidates[:start], candidates[stop:]])
    if pool_rows.size < n_impostor:
        raise StreamError(
            f"session {session}: impostor pool holds {pool_rows.size} samples, "
            f"need {n_impostor}"
        )
    return own, n_impostor, pool_rows


def draw_bounds(
    dataset: Dataset, target_user: str, session: int, config: StreamConfig
) -> list[int]:
    """The bounds of the `randbelow` draws that one session's stream consumes, in order.

    They are the genuine shuffle's (chronology off), the label shuffle's
    (random global order), then one per `totally_random` pool pop or
    `random_impostor` user pick; the picks are listed for every pool
    user, the most a session can take. Checks the session as
    `plan_session` does.
    """
    own, n_impostor, pool_rows = _layout(dataset, target_user, session, config)
    bounds: list[int] = []
    if not config.respect_chronology:
        bounds += range(len(own), 1, -1)
    if config.global_order is GlobalOrder.RANDOM:
        bounds += range(len(own) + n_impostor, 1, -1)
    if config.local_order is LocalOrder.TOTALLY_RANDOM:
        bounds += range(pool_rows.size, pool_rows.size - n_impostor, -1)
    elif config.local_order is LocalOrder.RANDOM_IMPOSTOR:
        bounds += range(np.unique(dataset.row_user[pool_rows]).size, 0, -1)
    return bounds


def plan_session(
    dataset: Dataset,
    target_user: str,
    session: int,
    config: StreamConfig,
    indices: list[int] | None = None,
) -> StreamState:
    """Lay out the label sequence, the genuine rows and the random draws of one session.

    `indices` are the session's `randbelow` draws for the bounds that
    `draw_bounds` lists, as a run draws them in blocks; without them the
    session draws its own from `config.seed`, through the same block draw.
    """
    if indices is None:
        bounds = draw_bounds(dataset, target_user, session, config)
        indices = block_randbelow([config.seed], [bounds])[0]
    own, n_impostor, pool_rows = _layout(dataset, target_user, session, config)
    n_genuine = len(own)
    draws = iter(indices)
    genuine = list(own)
    if not config.respect_chronology:
        _shuffle(genuine, draws)
    impostor = _impostor_flags(config, n_genuine, n_impostor, draws)
    rows = np.empty(impostor.size, dtype=np.intp)
    rows[~impostor] = genuine
    if config.local_order is LocalOrder.TOTALLY_RANDOM:
        rows[impostor] = pool_rows[_popped(islice(draws, n_impostor))]
    elif config.local_order is LocalOrder.RANDOM_IMPOSTOR:
        rows[impostor] = _random_impostor_rows(dataset.row_user, pool_rows, n_impostor, draws)
    return StreamState(
        target_user=target_user,
        impostor=impostor,
        rows=rows,
        dataset=dataset,
        pool_rows=pool_rows,
        alive=np.ones(pool_rows.size, dtype=bool),
        local_order=config.local_order,
    )


def _shuffle(items: list, draws) -> None:
    """`SplitMix64.shuffle`, Fisher-Yates, with its `randbelow` indices taken from `draws`."""
    for i, j in zip(range(len(items) - 1, 0, -1), draws):
        items[i], items[j] = items[j], items[i]


def _popped(indices) -> list[int]:
    """The original positions that successive ``items.pop(j)`` take, for j in
    `indices`, found without building the list: pop j takes the least
    position p with p == j + (taken positions at or below p)."""
    taken: list[int] = []  # ascending
    positions = []
    for j in indices:
        position = j
        while (moved := j + bisect_right(taken, position)) != position:
            position = moved
        insort(taken, position)
        positions.append(position)
    return positions


def _random_impostor_rows(row_user, pool_rows, count, draws) -> list[int]:
    """A random impostor's rows in ascending order, then another's, until `count`.

    Each impostor is drawn uniformly from the users still in the pool, in
    position order, at the draw that needs them.
    """
    owners = row_user[pool_rows]
    users = np.unique(owners).tolist()
    picked: list[int] = []
    while len(picked) < count:
        user = users.pop(next(draws))
        picked += pool_rows[owners == user].tolist()
    return picked[:count]


def _impostor_flags(config: StreamConfig, n_genuine: int, n_impostor: int, draws) -> np.ndarray:
    """Per query position, whether the global order puts an impostor there."""
    if config.global_order is GlobalOrder.SCRIPTED:
        flags = [label is Label.IMPOSTOR for label in config.scripted]
    elif config.global_order is GlobalOrder.IMPOSTOR_FIRST:
        flags = [True] * n_impostor + [False] * n_genuine
    else:
        flags = [False] * n_genuine + [True] * n_impostor
        if config.global_order is GlobalOrder.RANDOM:
            _shuffle(flags, draws)
    return np.array(flags, dtype=bool)


def plan_rows(state: StreamState, ref: ReferenceModel) -> np.ndarray:
    """The rows of the positions from the cursor on, as presented while `ref` holds.

    closest-* orders choose those positions' impostors against `ref`;
    the result is a view of `state.rows`.
    """
    ahead = state.rows[state.cursor :]
    if state.local_order not in CLOSEST:
        return ahead
    slots = state.impostor[state.cursor :]
    count = int(np.count_nonzero(slots))
    if count:
        live = state.pool_rows[state.alive]
        scores = centered_score(ref, state.dataset.feature_matrix[live])
        ranked = live[np.argsort(scores, kind="stable")]
        if state.local_order is LocalOrder.CLOSEST_IMPOSTOR:
            row_user = state.dataset.row_user
            owners = row_user[ranked]
            firsts = np.unique(owners, return_index=True)[1]
            rank = np.empty(len(state.dataset.users), dtype=np.intp)
            rank[owners[np.sort(firsts)]] = np.arange(firsts.size)
            if state.current_impostor is not None:
                rank[state.current_impostor] = -1
            ranked = live[np.argsort(rank[row_user[live]], kind="stable")]
        ahead[slots] = ranked[:count]
    return ahead


def commit(state: StreamState, count: int) -> None:
    """Mark the positions before `count` as presented: their impostors leave the pool."""
    presented = state.rows[state.cursor : count][state.impostor[state.cursor : count]]
    if presented.size:
        state.alive[np.searchsorted(state.pool_rows, presented)] = False
        state.current_impostor = int(state.dataset.row_user[presented[-1]])
    state.cursor = count


def next_query(state: StreamState, current_ref: ReferenceModel) -> QueryEvent | None:
    """Present the next query, planned against `current_ref`, or None after the last position."""
    if state.cursor >= state.rows.size:
        return None
    position = state.cursor
    row = plan_rows(state, current_ref)[0]
    commit(state, position + 1)
    label = Label.IMPOSTOR if state.impostor[position] else Label.GENUINE
    return QueryEvent(state.dataset.samples[row], state.target_user, label, position)
