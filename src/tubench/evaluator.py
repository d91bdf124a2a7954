"""Session-loop orchestration: online and offline evaluation runs.

One loop serves both modes: each session is planned, presented to the
user's reference by one `_present` call, and logged if the mode logs
it. The reference changes only where the update rule accepts a query;
the queries after an applied update are rescored against it, with one
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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Dataset, Mode, ScoreLog, scored_sessions
from .errors import ConfigError, PartitionError, ValidationError
from .matcher import EPSILON, ReferenceModel, center, enroll, raw_score
from .matcher import centered_score  # noqa: F401  perfbench traces it under this module
from .rng import block_mix64, block_randbelow
from .stream import CLOSEST, StreamConfig, commit, draw_bounds, plan_rows, plan_session
from .stream import next_query  # noqa: F401  perfbench traces it under this module
from .update import UpdateStrategy, accepts, apply_updates, impostor_inclusion, score_free
from .update import maybe_update  # noqa: F401  perfbench traces it under this module


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one evaluation run depends on."""

    mode: Mode
    stream: StreamConfig
    strategy: UpdateStrategy
    repeats: int = 1
    base_seed: int = 0
    eps: float = EPSILON

    def __post_init__(self):
        if self.repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {self.repeats}")


@dataclass(frozen=True, eq=False)
class RunResult:
    """A run's score log plus the gallery-side measurements.

    `inclusion[r, s - 2, u]` is the impostor inclusion of the reference of
    `log.users[u]` in repeat r at the end of session s, for every session
    2..S in which updates could occur; final_models keeps each (repeat,
    user) reference for provenance checks.
    """

    log: ScoreLog
    inclusion: np.ndarray
    final_models: Mapping[tuple[int, str], ReferenceModel]


def _apply(model, dataset, users, rows, impostor) -> None:
    """Insert the queries on `rows` into `model` as updates, in order, with
    their (origin, source user, source session) tags, and refresh it once."""
    apply_updates(
        model, dataset.feature_matrix[rows], [users[u] for u in dataset.row_user[rows].tolist()],
        dataset.row_session[rows].tolist(), impostor,
    )


def _present(model, dataset, users, rows, impostor, strategy, stream=None, frozen=False):
    """Present the queries on `rows` to `model` in order, updating it where
    the strategy accepts one; `users` is `dataset.users`, read once per run.

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
            _apply(model, dataset, users, rows[applied], impostor[applied])
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
        _apply(model, dataset, users, rows[done : done + 1], impostor[done : done + 1])
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
    logged = []  # per logged session: repeat, session, target, rows, raw, centered, applied
    final_models: dict[tuple[int, str], ReferenceModel] = {}
    users = dataset.users
    sessions = range(2, dataset.num_sessions + 1)
    inclusion = np.empty((config.repeats, len(sessions), len(users)))
    bounds = [draw_bounds(dataset, user, s, config.stream) for user in users for s in sessions]
    for repeat in range(config.repeats):
        # Every stream of the repeat in one block draw, user-major like the loop below.
        seeds = block_mix64(config.base_seed, repeat, np.arange(len(users))[:, None], sessions)
        draws = iter(block_randbelow(seeds.ravel(), bounds))
        for user_index, user in enumerate(users):
            span = dataset.row_range(user, 1)
            model = enroll(
                user,
                dataset.feature_matrix[span.start : span.stop],
                eps=config.eps,
                capacity=config.strategy.capacity,
            )
            for session in sessions:
                state = plan_session(dataset, user, session, config.stream, next(draws))
                # Offline, only the unlogged session 2 re-plans its closest-* impostors.
                replan = state.local_order in CLOSEST and (online or session not in logged_sessions)
                rows = plan_rows(state, model)
                raw, centered, applied = _present(
                    model, dataset, users, rows, state.impostor, config.strategy,
                    state if replan else None, frozen=not online,
                )
                if session in logged_sessions:
                    logged.append((repeat, session, user_index, rows, raw, centered, applied))
                inclusion[repeat, session - 2, user_index] = impostor_inclusion(model)
            final_models[(repeat, user)] = model
    return RunResult(_score_log(dataset, config.mode, logged), inclusion, final_models)


def _score_log(dataset: Dataset, mode: Mode, logged: list[tuple]) -> ScoreLog:
    """One columnar log from the logged sessions, in run order."""
    repeat, session, target, rows, raw, centered, applied = zip(*logged) if logged else [()] * 7
    lengths = [len(r) for r in rows]

    def flat(parts, dtype):
        return np.concatenate([np.empty(0, dtype), *parts])

    return ScoreLog.from_columns(
        dataset.users,
        dataset.num_sessions,
        mode,
        *(np.repeat(np.array(c, dtype=np.intp), lengths) for c in (repeat, session, target)),
        dataset.row_user[flat(rows, np.intp)],
        flat(raw, float),
        flat(centered, float),
        flat(applied, bool),
    )


def partition_sessionless(user_ids, order_indices, features, k: int) -> Dataset:
    """Split a sessionless collection, given as per-row columns and an
    (N, d) feature matrix, into k pseudo-sessions.

    Per user, rows are cut into k contiguous chronological blocks (by
    order_index) of near-equal size, earlier blocks taking the remainder;
    block b becomes session b + 1.
    """
    if k < 2:
        raise ConfigError(f"partition needs k >= 2, got {k}")
    if not len(user_ids):
        raise PartitionError("no samples to partition")
    users = sorted(set(user_ids), key=str)
    position = {user: i for i, user in enumerate(users)}
    codes = np.array([position[user] for user in user_ids], dtype=np.intp)
    order_col = np.asarray(order_indices, dtype=np.intp)
    counts = np.bincount(codes)
    short = np.flatnonzero(counts < k)
    if short.size:
        user = short[0]
        raise PartitionError(f"user {users[user]}: {counts[user]} samples cannot fill {k} sessions")
    order = np.lexsort((order_col, codes))  # stable: equal order_indices keep row order
    n = counts[codes[order]]
    rank = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    base, extra = n // k, n % k  # the first `extra` blocks take base + 1 rows
    block = np.maximum(rank // (base + 1), (rank - extra) // base)
    features = np.asarray(features, dtype=float)
    return Dataset.from_columns(
        features.shape[1], k, [users[c] for c in codes[order].tolist()], block + 1,
        order_col[order], features[order],
    )
