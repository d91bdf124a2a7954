"""Session-loop orchestration: online and offline evaluation runs.

One loop serves both modes. Each (user, session) is laid out once per
run, before the first enrollment, and each user is enrolled once per
run. Each repeat plans every session from its layout and its block-drawn
indices, and presents each session by one `_present` call to all the
lanes of one `ReferenceLanes` stacked from the users' references. A lane
changes only where the update rule accepts a query; the queries after an
applied update are rescored, with one call for all the lanes an update
round changed.

Online, each query's score against the reference it meets is logged and
drives the update decision. A closest-* stream re-plans its impostors
only when it reaches an impostor slot with a reference that an update
has changed since its last plan. Offline, the logged scores are the
session-start scores against the frozen reference, and the same queries
are replayed for the update decisions. Session 2 is consumed for update
only (so offline runs yield one fewer per-session measure), and only it
re-plans closest-* impostors. Under a score-free rule (`none`, or a
threshold of +inf), an offline session that re-plans nothing applies its
accepted rows as one FIFO batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Mode, ScoreLog, check_fields, scored_sessions, shown
from .errors import ConfigError, ValidationError
from .matcher import EPSILON, ReferenceLanes, enroll
from .matcher import centered_score, raw_score  # noqa: F401  perfbench traces them here
from .rng import BlockBounds, block_mix64, block_randbelow
from .stream import CLOSEST, StreamConfig, plan_rows, plan_session, session_layouts
from .stream import next_query  # noqa: F401  perfbench traces it under this module
from .update import UpdateStrategy, accepts, impostor_inclusion, score_free
from .update import maybe_update  # noqa: F401  perfbench traces it under this module


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one evaluation run depends on; mode may be given by value.
    eps, the matcher's floor on every spread, must be finite and > 0."""

    mode: Mode
    stream: StreamConfig
    strategy: UpdateStrategy
    repeats: int = 1
    base_seed: int = 0
    eps: float = EPSILON

    def __post_init__(self):
        check_fields(self)
        problems = []
        if self.repeats < 1:
            problems.append(f"repeats must be >= 1, got {shown(self.repeats)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            problems.append(f"eps must be finite and > 0, got {shown(self.eps)}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True, eq=False)
class RunResult:
    """A run's score log plus the gallery-side measurements.

    `inclusion[r, s - 2, u]` and `gallery_size[r, s - 2, u]` are the
    impostor inclusion and entry count of the reference of `log.users[u]`
    in repeat r at the end of session s, for every session 2..S in which
    updates could occur. `updates` has one read-only column each of
    `repeat`, `session`, `target`, stream `position` and dataset `row`:
    one entry per applied update, in run order. `inclusion` is derived
    from `updates` and `gallery_size` (`update.impostor_inclusion`).
    """

    log: ScoreLog
    inclusion: np.ndarray
    gallery_size: np.ndarray
    updates: dict[str, np.ndarray]


def _present(lanes, dataset, states, rows, valid, strategy, replan, frozen):
    """Present stream `states[k]` to lane k, all lanes at once. Fills `rows`
    where `valid`; returns each query's raw and centered score and whether
    it updated its lane. Each round appends every lane's first accepted
    query from its cursor on, then refreshes and rescores the hit lanes in
    one call each. An update leaves a `replan` (closest-*) lane stale from
    its next impostor slot; a round in which it accepts nothing before the
    slot first re-plans and rescores it from there. A `frozen` (offline)
    presentation returns the session-start scores; if it re-plans nothing
    under a score-free rule, each lane's accepted rows enter as one FIFO
    batch, one refresh."""
    rows[valid] = np.concatenate([plan_rows(state, lanes, lane)
                                  for lane, state in enumerate(states)])
    impostor = np.zeros(valid.shape, dtype=bool)
    impostor[valid] = np.concatenate([state.impostor for state in states])
    queries = dataset.feature_matrix[rows]
    raw, centered = lanes.scores(queries)
    if frozen and not replan and score_free(strategy):
        applied = accepts(strategy, centered, impostor) & valid
        hit = np.flatnonzero(applied.any(axis=1))
        for lane in hit.tolist():
            lanes.extend(lane, queries[lane, applied[lane]])
        if hit.size:
            lanes.refresh(hit)
        return raw, centered, applied
    scores = (raw.copy(), centered.copy()) if frozen else (raw, centered)
    applied = np.zeros(valid.shape, dtype=bool)
    cursor = np.zeros(len(states), dtype=np.intp)
    positions = np.arange(valid.shape[1])
    stale = np.full(len(states), positions.size)  # first row planned for an older reference
    live = np.arange(len(states))  # the lanes whose scores changed last round

    def rescore(which):
        later = positions >= cursor[which, None]
        for scored, rescored in zip((raw, centered), lanes.scores(queries[which], which)):
            scored[which] = np.where(later, rescored, scored[which])

    while True:
        accepted = accepts(strategy, centered[live], impostor[live])
        accepted &= valid[live] & (positions >= cursor[live, None])
        if replan:  # a lane that accepts nothing before its stale rows re-plans them
            reached = live[~(accepted & (positions < stale[live, None])).any(axis=1)]
            if (reached := reached[stale[reached] < positions.size]).size:
                for lane in reached.tolist():
                    states[lane].cursor = done = int(stale[lane])
                    end = states[lane].rows.size
                    rows[lane, done:end] = plan_rows(states[lane], lanes, lane)
                    queries[lane, done:end] = dataset.feature_matrix[rows[lane, done:end]]
                rescore(reached)
                stale[reached] = positions.size
                continue  # and reads the round's acceptance again
        first = accepted.argmax(axis=1)
        hit = accepted[np.arange(live.size), first]
        live, first = live[hit], first[hit]
        if not live.size:
            break
        applied[live, first] = True
        cursor[live] = first + 1
        for lane, position in zip(live.tolist(), first.tolist()):
            lanes.extend(lane, queries[lane, position : position + 1])
        lanes.refresh(live)
        if replan:  # the rows from each updated lane's next impostor slot go stale
            ahead = impostor[live] & (positions >= cursor[live, None])
            stale[live] = np.where(ahead.any(axis=1), ahead.argmax(axis=1), positions.size)
        rescore(live)
    return (*scores, applied)


def run_experiment(dataset: Dataset, config: ExperimentConfig) -> RunResult:
    """Run every (repeat, user) through sessions 2..S in the configured mode."""
    online = config.mode is Mode.ONLINE
    if not online and dataset.num_sessions < 3:
        raise ConfigError(
            f"offline evaluation needs at least 3 sessions, dataset has {dataset.num_sessions}"
        )
    logged_sessions = scored_sessions(config.mode, dataset.num_sessions)
    users = dataset.users
    sessions = range(2, dataset.num_sessions + 1)
    closest = config.stream.local_order in CLOSEST
    layouts = session_layouts(dataset, config.stream, [(u, s) for u in users for s in sessions])
    bounds = BlockBounds([layout.bounds for layout in layouts])
    lengths = np.reshape([len(layout.genuine) + layout.n_impostor for layout in layouts],
                         (len(users), len(sessions)))
    valid = np.arange(lengths.max()) < lengths[..., None]  # per user, session, position
    try:
        gallery_size = np.empty((config.repeats, len(sessions), len(users)), dtype=np.intp)
        # Per repeat, user, session and position; padded positions read row 0.
        rows, raw, centered, applied = (np.zeros((config.repeats, *valid.shape), dtype)
                                        for dtype in (np.intp, float, float, bool))
    except (ValueError, MemoryError) as error:
        raise ConfigError(f"repeats {shown(config.repeats)} is too large to run: {error}") from None
    # Enrollment reads session 1, eps and the capacity only, so each user is
    # enrolled once and every repeat presents to its own lanes.
    templates = []
    for user in users:
        span = dataset.row_range(user, 1)
        templates.append(enroll(
            user,
            dataset.feature_matrix[span.start : span.stop],
            eps=config.eps,
            capacity=config.strategy.capacity,
        ))
    for repeat in range(config.repeats):
        # Every stream of the repeat in one block draw; seeds and layouts are user-major.
        seeds = block_mix64(config.base_seed, repeat, np.arange(len(users))[:, None], sessions)
        draws = block_randbelow(seeds.ravel(), bounds)
        states = [plan_session(*plan) for plan in zip(layouts, draws)]
        lanes = ReferenceLanes.stack(templates)
        for index, session in enumerate(sessions):
            # Offline, only the unlogged session 2 re-plans its closest-* impostors.
            replan = closest and (online or session not in logged_sessions)
            presented = _present(
                lanes, dataset, states[index :: len(sessions)], rows[repeat, :, index],
                valid[:, index], config.strategy, replan, frozen=not online,
            )
            for output, values in zip((raw, centered, applied), presented):
                output[repeat, :, index] = values
            gallery_size[repeat, index] = lanes.size
    log, updates = _tables(dataset, config.mode, valid, rows, raw, centered, applied)
    inclusion = impostor_inclusion(dataset, updates, gallery_size)
    return RunResult(log, inclusion, gallery_size, updates)


def _tables(dataset: Dataset, mode: Mode, valid, rows, raw, centered, applied):
    """The score log of the logged sessions and the applied-update columns,
    both in run order, read where `valid` from the run's padded (repeat,
    user, session, position) arrays."""
    presented = np.broadcast_to(valid, rows.shape)
    repeat, target, session, position = np.nonzero(presented)
    columns = dict(repeat=repeat, session=session + 2, target=target, position=position,
                   row=rows[presented])
    applied = applied[presented]
    logged = columns["session"] >= scored_sessions(mode, dataset.num_sessions).start
    log = ScoreLog(
        dataset.users,
        dataset.num_sessions,
        mode,
        *(columns[name][logged] for name in ("repeat", "session", "target")),
        dataset.row_user[columns["row"][logged]],
        *(scores[presented][logged] for scores in (raw, centered)),
        applied[logged],
    )
    updates = {name: column[applied] for name, column in columns.items()}
    for column in updates.values():
        column.flags.writeable = False
    return log, updates
