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
of its index draws from the SplitMix64 stream of its seed: the
genuine shuffle, the label shuffle, then the random impostor draws in
position order. A run draws the indices of many sessions in one block
(`rng.block_randbelow`, bit-equal to one draw at a time), and
`plan_session` applies one session's indices with list swaps and pops.
The closest-* orders consult the evolving reference: `plan_rows`
chooses the impostors of the positions from a stream's cursor on against
a given reference lane, so a caller re-plans only after an update
changes the reference. The pool is read off the presented rows: the
layout's candidates, in (user, session, order_index) order, less the
target's run and the impostors before the cursor. A closest-* plan
scores every pool row in one batched `centered_score` call. Ties go to
the lowest (user, session, order_index), as repeatedly taking the first
minimum would: `closest_sample` takes rows in a stable sort of their
scores, `closest_impostor` takes users by least score (the user of the
last impostor presented first), each user's rows in ascending order.
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
from .matcher import ReferenceLanes, centered_score


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
    presented. A closest-* impostor row from the cursor on holds until
    `plan_rows` plans it again.
    """

    layout: SessionLayout
    impostor: np.ndarray
    rows: np.ndarray
    cursor: int = 0


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
        picked = np.fromiter(_popped(islice(draws, n_impostor)), np.intp, n_impostor)
        rows[impostor] = layout.candidates[picked + (picked >= start) * (stop - start)]
    elif config.local_order is LocalOrder.RANDOM_IMPOSTOR:
        # Whole users in ascending row order, each drawn from those left when needed.
        edges, picked, users = layout.edges, [], _popped(draws)
        while len(picked) < n_impostor:
            k = next(users)
            k += k >= layout.run  # a pool user's run, skipping the target's
            picked += layout.candidates[edges[k] : edges[k + 1]].tolist()
        rows[impostor] = picked[:n_impostor]
    return StreamState(layout, impostor, rows)


def _shuffle(items: list, draws) -> None:
    """Fisher-Yates: each position i, from the last down, swaps with the next j <= i of `draws`."""
    for i, j in zip(range(len(items) - 1, 0, -1), draws):
        items[i], items[j] = items[j], items[i]


def _popped(indices):
    """The original positions that successive ``items.pop(j)`` take, for j in
    `indices` as they are read, found without building the list: pop j takes
    the least position p with p == j + (taken positions at or below p)."""
    taken: list[int] = []  # ascending
    for j in indices:
        position = j
        while (moved := j + bisect_right(taken, position)) != position:
            position = moved
        insort(taken, position)
        yield position


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


def plan_rows(state: StreamState, lanes: ReferenceLanes, lane: int) -> np.ndarray:
    """The rows of the positions from the cursor on, as presented while lane `lane` holds.

    closest-* orders choose those positions' impostors against that lane;
    the result is a view of `state.rows`.
    """
    cursor, layout = state.cursor, state.layout
    ahead = state.rows[cursor:]
    if layout.config.local_order not in CLOSEST:
        return ahead
    slots = state.impostor[cursor:]
    count = int(np.count_nonzero(slots))
    if count:
        presented = state.rows[:cursor][state.impostor[:cursor]]
        gone = np.searchsorted(layout.candidates, presented)
        start, stop = layout.edges[layout.run : layout.run + 2]
        live = np.delete(layout.candidates, np.r_[start:stop, gone])
        scores = centered_score(lanes, layout.dataset.feature_matrix[live], lane)
        if layout.config.local_order is LocalOrder.CLOSEST_SAMPLE:
            ranked = live[np.argsort(scores, kind="stable")]
        else:
            # Users by least score (fmin skips NaN, as the stable sort ranks it
            # last), the current impostor first, ties to the lower user.
            owners = layout.dataset.row_user[live]
            starts = np.flatnonzero(np.diff(owners, prepend=-1))
            current = owners[starts] == (layout.dataset.row_user[presented[-1]]
                                         if presented.size else -1)
            users = np.lexsort((np.fmin.reduceat(scores, starts), ~current))[:count]
            ends = np.append(starts[1:], live.size)
            ranked = np.concatenate([live[a:b] for a, b in zip(starts[users], ends[users])])
        ahead[slots] = ranked[:count]
    return ahead


def next_query(state: StreamState, current_ref: ReferenceLanes) -> QueryEvent | None:
    """Present the next query, planned against one-lane `current_ref`, or None at the end."""
    if state.cursor >= state.rows.size:
        return None
    position = state.cursor
    row = plan_rows(state, current_ref, 0)[0]
    state.cursor = position + 1
    label = Label.IMPOSTOR if state.impostor[position] else Label.GENUINE
    return QueryEvent(state.layout.dataset.samples[row], state.layout.target_user, label, position)
