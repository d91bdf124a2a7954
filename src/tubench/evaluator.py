"""Session-loop orchestration: online and offline evaluation runs.

One loop serves both modes. Each (user, session) is laid out once per
run, before the first enrollment, and each user is enrolled once per
run. Each repeat plans every session from its layout and its block-drawn
indices, presents it by one `_present` call to the repeat's own copy of
the user's reference, and logs it if the mode logs it. The
reference changes only where the update rule accepts a query; the
queries after an applied update are rescored against it, with one
matrix call per reference state.

Online, each query's score against the reference it meets is logged and
drives the update decision, and closest-* orders re-plan their impostors
after each update. Offline, the logged scores are the session-start
scores against the frozen reference, and the same queries are replayed
for the update decisions. Session 2 is consumed for update only (so
offline runs yield one fewer per-session measure), and only it re-plans
closest-* impostors. Under a score-free rule (`none`, or a threshold of
+inf), an offline session that re-plans nothing applies its accepted
rows as one FIFO batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Mode, ScoreLog, check_fields, scored_sessions, shown
from .errors import ConfigError, ValidationError
from .matcher import EPSILON, center, enroll, raw_score
from .matcher import centered_score  # noqa: F401  perfbench traces it under this module
from .rng import BlockBounds, block_mix64, block_randbelow
from .stream import CLOSEST, StreamConfig, commit, plan_rows, plan_session, session_layouts
from .stream import next_query  # noqa: F401  perfbench traces it under this module
from .update import UpdateStrategy, accepts, apply_updates, impostor_inclusion, score_free
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


def _present(model, dataset, rows, impostor, strategy, stream=None, frozen=False):
    """Present the queries on `rows` to `model` in order, updating it where
    the strategy accepts one.

    Returns each query's raw and centered score and whether it updated
    the reference. After an applied update the later queries are rescored;
    a closest-* `stream` first commits the presented ones and re-plans the
    rest. A `frozen` (offline) presentation returns the session-start
    scores; if it re-plans nothing under a score-free rule, its accepted
    rows enter as one FIFO batch with one refresh.
    """
    queries = dataset.feature_matrix[rows]
    raw = raw_score(model, queries)
    centered = center(model, raw)
    if frozen and stream is None and score_free(strategy):
        applied = accepts(strategy, centered, impostor)
        if applied.any():
            apply_updates(model, queries[applied])
        return raw, centered, applied
    scores = (raw.copy(), centered.copy()) if frozen else (raw, centered)
    applied = np.zeros(rows.size, dtype=bool)
    done = 0
    while done < rows.size:
        accepted = accepts(strategy, centered[done:], impostor[done:])
        first = int(accepted.argmax())
        if not accepted[first]:
            break
        done += first
        apply_updates(model, queries[done : done + 1])
        applied[done] = True
        done += 1
        if stream is not None:
            commit(stream, done)
            rows[done:] = plan_rows(stream, model)
            queries[done:] = dataset.feature_matrix[rows[done:]]
        if done < rows.size:
            raw[done:] = raw_score(model, queries[done:])
            centered[done:] = center(model, raw[done:])
    return (*scores, applied)


def run_experiment(dataset: Dataset, config: ExperimentConfig) -> RunResult:
    """Run every (repeat, user) through sessions 2..S in the configured mode."""
    online = config.mode is Mode.ONLINE
    if not online and dataset.num_sessions < 3:
        raise ConfigError(
            f"offline evaluation needs at least 3 sessions, dataset has {dataset.num_sessions}"
        )
    logged_sessions = scored_sessions(config.mode, dataset.num_sessions)
    presented = []  # per session: repeat, session, target, rows, raw, centered, applied
    users = dataset.users
    sessions = range(2, dataset.num_sessions + 1)
    gallery_size = np.empty((config.repeats, len(sessions), len(users)), dtype=np.intp)
    closest = config.stream.local_order in CLOSEST
    layouts = session_layouts(dataset, config.stream, [(u, s) for u in users for s in sessions])
    bounds = BlockBounds([layout.bounds for layout in layouts])
    # Enrollment reads session 1, eps and the capacity only, so each user is
    # enrolled once and every repeat presents to its own copy.
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
        plans = zip(layouts, block_randbelow(seeds.ravel(), bounds))
        for user_index, template in enumerate(templates):
            model = template.copy()
            for session in sessions:
                state = plan_session(*next(plans))
                # Offline, only the unlogged session 2 re-plans its closest-* impostors.
                replan = closest and (online or session not in logged_sessions)
                rows = plan_rows(state, model)
                raw, centered, applied = _present(
                    model, dataset, rows, state.impostor, config.strategy,
                    state if replan else None, frozen=not online,
                )
                presented.append((repeat, session, user_index, rows, raw, centered, applied))
                gallery_size[repeat, session - 2, user_index] = len(model.vectors)
    log, updates = _tables(dataset, config.mode, logged_sessions, presented)
    inclusion = impostor_inclusion(dataset, updates, gallery_size)
    return RunResult(log, inclusion, gallery_size, updates)


def _tables(dataset: Dataset, mode: Mode, logged_sessions: range, presented: list[tuple]):
    """The score log of the logged sessions and the applied-update columns,
    both in run order, from one concatenation of every presented session."""
    repeat, session, target, rows, raw, centered, applied = zip(*presented) if presented else [()] * 7
    lengths = [len(r) for r in rows]

    def flat(parts, dtype=np.intp):
        return np.concatenate([np.empty(0, dtype), *parts])

    columns = dict(
        zip(("repeat", "session", "target"),
            (np.repeat(np.array(c, dtype=np.intp), lengths) for c in (repeat, session, target))),
        position=flat(map(np.arange, lengths)),
        row=flat(rows),
    )
    applied, logged = flat(applied, bool), columns["session"] >= logged_sessions.start
    log = ScoreLog(
        dataset.users,
        dataset.num_sessions,
        mode,
        *(columns[name][logged] for name in ("repeat", "session", "target")),
        dataset.row_user[columns["row"][logged]],
        *(flat(scores, float)[logged] for scores in (raw, centered)),
        applied[logged],
    )
    updates = {name: column[applied] for name, column in columns.items()}
    for column in updates.values():
        column.flags.writeable = False
    return log, updates
