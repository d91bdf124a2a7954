"""Per-session query stream construction.

A stream is configured along four axes: how many impostor queries
accompany the genuine ones (impostor ratio), how the two label kinds
interleave (global order), how individual impostor samples are picked
(local order), and whether genuine samples keep their chronological
order. Impostor samples are drawn without replacement.

A planned stream holds a row of `Dataset.feature_matrix` for every
query position. Genuine rows, and the impostor rows of the random local
orders, are fixed when the session is planned. A run lays out each
session once (`session_layouts`): its genuine rows, its impostor count,
its impostor pool as a cut of a shared candidate array, and the bounds
of its `randbelow` draws from the SplitMix64 stream of its seed: the
genuine shuffle, the label shuffle, then the random impostor draws in
position order. A run draws the indices of many sessions in one block
(`rng.block_randbelow`, bit-equal to the scalar stream), and
`plan_session` applies one session's indices with list swaps and pops.
The closest-* orders consult the evolving reference: `plan_rows`
chooses the impostors of the positions not yet presented against a
given reference, and `commit` marks positions as presented, so a caller
re-plans only after an update changes the reference. The impostor pool
is a set of rows, in (user, session, order_index) order, with an alive
mask. A closest-* plan scores every live row in one batched
`centered_score` call and ranks the rows by a stable sort, so ties go
to the lowest (user, session, order_index), as repeatedly taking the
first minimum would: `closest_sample` takes rows in that ranking,
`closest_impostor` takes users in the ranking of their first-ranked row
(the current impostor first), each user's rows in ascending order.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .core import Dataset, Label, QueryEvent, check_fields, shown
from .errors import StreamError, ValidationError
from .matcher import ReferenceModel, centered_score


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
    """Full query-presentation configuration for one experiment; the orders,
    the session policy and the scripted labels may be given by value."""

    impostor_ratio: float
    global_order: GlobalOrder = GlobalOrder.RANDOM
    local_order: LocalOrder = LocalOrder.TOTALLY_RANDOM
    respect_chronology: bool = True
    impostor_session_policy: SessionPolicy = SessionPolicy.SAME_SESSION
    scripted: tuple[Label, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        problems = []
        if not 0.0 <= self.impostor_ratio < 1.0:
            problems.append(f"impostor_ratio must be in [0, 1), got {shown(self.impostor_ratio)}")
        if (self.scripted is None) == (self.global_order is GlobalOrder.SCRIPTED):
            problems.append("scripted: a label sequence goes with the scripted global order only")
        if problems:
            raise ValidationError(problems)


def impostor_count(genuine_count: int, impostor_ratio: float) -> int:
    """Impostor queries needed so impostors make up ~ratio of the stream.

    Rounds half up so the count does not depend on the platform's
    round-to-even behavior.
    """
    return int(math.floor(genuine_count * impostor_ratio / (1.0 - impostor_ratio) + 0.5))


@dataclass(frozen=True, eq=False)
class SessionLayout:
    """What one (user, session) stream is planned from, fixed for a run.

    Its impostor pool is `candidates` (`Dataset.session_rows[session]`, or
    every row under `any_session`) less the target's run of it, rows
    [edges[run], edges[run + 1]). A run's layouts share `candidates` and
    its per-user run `edges`; `bounds` are the session's draw bounds."""

    dataset: Dataset
    target_user: str
    config: StreamConfig
    genuine: range  # the target's rows in the session
    n_impostor: int
    candidates: np.ndarray
    edges: list[int]
    run: int
    bounds: tuple[int, ...]


@dataclass(eq=False)
class StreamState:
    """One planned session stream and how much of it has been presented.

    `rows[k]` is the dataset row of query position k and `impostor[k]`
    whether it is an impostor query; positions before `cursor` have been
    presented.
    """

    layout: SessionLayout
    impostor: np.ndarray
    rows: np.ndarray
    alive: np.ndarray  # per layout candidate, True while it is in the pool
    cursor: int = 0
    current_impostor: int | None = None  # position in dataset.users


def session_layouts(dataset: Dataset, config: StreamConfig, targets) -> list[SessionLayout]:
    """The checked layout of each (user, session) in `targets`, in order. A
    session's draws are its genuine shuffle's (chronology off), its label
    shuffle's (random global order), then one per `totally_random` pool pop
    or `random_impostor` user pick, listed for every pool user."""
    same_session = config.impostor_session_policy is SessionPolicy.SAME_SESSION
    shared = {}  # per session, or 0 for every row: candidate rows, per-user run edges
    layouts = []
    for user, session in targets:
        if session < 2:
            raise ValidationError(f"query sessions start at 2, got {shown(session)}")
        own = dataset.row_range(user, session)
        if not own:
            raise StreamError(f"user {user} has no samples in session {session}")
        n_impostor = impostor_count(len(own), config.impostor_ratio)
        if config.global_order is GlobalOrder.SCRIPTED:
            got_g = sum(1 for label in config.scripted if label is Label.GENUINE)
            got_i = len(config.scripted) - got_g
            if got_g != len(own) or got_i != n_impostor:
                raise ValidationError(
                    f"scripted sequence has {got_g} genuine / {got_i} impostor labels, "
                    f"session needs {len(own)} / {n_impostor}"
                )
        if (key := session if same_session else 0) not in shared:
            rows = dataset.session_rows[key] if key else np.arange(dataset.row_user.size)
            owners = dataset.row_user[rows]
            shared[key] = rows, np.flatnonzero(np.diff(owners, prepend=-1, append=-1)).tolist()
        candidates, edges = shared[key]
        # Rows sort by (user, session): the target's rows are one run of the candidates.
        run = bisect_right(edges, int(np.searchsorted(candidates, own.start))) - 1
        pool_size = candidates.size - (edges[run + 1] - edges[run])
        if pool_size < n_impostor:
            raise StreamError(
                f"session {session}: impostor pool holds {pool_size} samples, need {n_impostor}"
            )
        bounds: list[int] = []
        if not config.respect_chronology:
            bounds += range(len(own), 1, -1)
        if config.global_order is GlobalOrder.RANDOM:
            bounds += range(len(own) + n_impostor, 1, -1)
        if config.local_order is LocalOrder.TOTALLY_RANDOM:
            bounds += range(pool_size, pool_size - n_impostor, -1)
        elif config.local_order is LocalOrder.RANDOM_IMPOSTOR:
            bounds += range(len(edges) - 2, 0, -1)
        layouts.append(SessionLayout(dataset, user, config, own, n_impostor, candidates, edges,
                                     run, tuple(bounds)))
    return layouts


def plan_session(layout: SessionLayout, indices) -> StreamState:
    """Lay out one session's label sequence, genuine rows and random draws
    from `indices`, its `randbelow` draws for `layout.bounds`."""
    config, n_impostor = layout.config, layout.n_impostor
    start, stop = layout.edges[layout.run : layout.run + 2]
    draws = iter(indices)
    genuine = list(layout.genuine)
    if not config.respect_chronology:
        _shuffle(genuine, draws)
    impostor = _impostor_flags(config, len(genuine), n_impostor, draws)
    rows = np.empty(impostor.size, dtype=np.intp)
    rows[~impostor] = genuine
    if config.local_order is LocalOrder.TOTALLY_RANDOM:
        picked = np.array(_popped(islice(draws, n_impostor)), dtype=np.intp)
        rows[impostor] = layout.candidates[picked + (picked >= start) * (stop - start)]
    elif config.local_order is LocalOrder.RANDOM_IMPOSTOR:
        # Whole users in ascending row order, each drawn from those left when needed.
        edges, picked = layout.edges, []
        runs = [k for k in range(len(edges) - 1) if k != layout.run]  # the pool users' runs
        while len(picked) < n_impostor:
            k = runs.pop(next(draws))
            picked += layout.candidates[edges[k] : edges[k + 1]].tolist()
        rows[impostor] = picked[:n_impostor]
    alive = np.ones(layout.candidates.size, dtype=bool)
    alive[start:stop] = False
    return StreamState(layout, impostor, rows, alive)


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
    layout = state.layout
    if layout.config.local_order not in CLOSEST:
        return ahead
    slots = state.impostor[state.cursor :]
    count = int(np.count_nonzero(slots))
    if count:
        live = layout.candidates[state.alive]
        scores = centered_score(ref, layout.dataset.feature_matrix[live])
        ranked = live[np.argsort(scores, kind="stable")]
        if layout.config.local_order is LocalOrder.CLOSEST_IMPOSTOR:
            row_user = layout.dataset.row_user
            owners = row_user[ranked]
            firsts = np.unique(owners, return_index=True)[1]
            rank = np.empty(len(layout.dataset.users), dtype=np.intp)
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
        state.alive[np.searchsorted(state.layout.candidates, presented)] = False
        state.current_impostor = int(state.layout.dataset.row_user[presented[-1]])
    state.cursor = count


def next_query(state: StreamState, current_ref: ReferenceModel) -> QueryEvent | None:
    """Present the next query, planned against `current_ref`, or None after the last position."""
    if state.cursor >= state.rows.size:
        return None
    position = state.cursor
    row = plan_rows(state, current_ref)[0]
    commit(state, position + 1)
    label = Label.IMPOSTOR if state.impostor[position] else Label.GENUINE
    return QueryEvent(state.layout.dataset.samples[row], state.layout.target_user, label, position)
