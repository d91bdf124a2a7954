"""Spans and counters taken from outside tubench.

The tracer replaces public functions at the names their callers look
them up under (``tubench.cli.write_table``, not ``tubench.ingest``), so
the program's source stays untouched. Each call becomes a span holding
its name, start, end, parent span and run id (the benchmark iteration).
Spans stay in memory, in flat arrays, until the run ends. Counts are
taken from the wrapped calls' arguments and return values.

A layer's self time is its spans' duration minus the part covered by
their direct child spans.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT_SPAN = "tubench.cli.main"

GENERATE = "tubench.cli.generate"
READ_DATASET = "tubench.cli.read_dataset"
WRITE_DATASET = "tubench.cli.write_dataset"
WRITE_TABLE = "tubench.cli.write_table"
RUN_EXPERIMENT = "tubench.cli.run_experiment"
COMPUTE_SCHEME = "tubench.cli.compute_scheme"
AGGREGATE = "tubench.cli.aggregate"
LOAD_CONFIG = "tubench.cli.load_config"
ENROLL = "tubench.evaluator.enroll"
RAW_SCORE = "tubench.evaluator.raw_score"
CENTERED_SCORE = "tubench.evaluator.centered_score"
MAYBE_UPDATE = "tubench.evaluator.maybe_update"
PLAN_SESSION = "tubench.evaluator.plan_session"
NEXT_QUERY = "tubench.evaluator.next_query"
INCLUSION = "tubench.evaluator.impostor_inclusion"
DRAW_SCORE = "tubench.stream.centered_score"
REFRESH = "tubench.update.refresh_statistics"
EER = "tubench.metrics.eer"
DATASET_BUILD = "tubench.core.Dataset.__post_init__"
USERS = "tubench.core.Dataset.users"
RECORD_BUILD = "tubench.core.ScoreRecord.__post_init__"
SCORELOG_BUILD = "tubench.core.ScoreLog.__post_init__"

TARGETS = (
    GENERATE, READ_DATASET, WRITE_DATASET, WRITE_TABLE, RUN_EXPERIMENT, COMPUTE_SCHEME,
    AGGREGATE, LOAD_CONFIG, ENROLL, RAW_SCORE, CENTERED_SCORE, MAYBE_UPDATE, PLAN_SESSION,
    NEXT_QUERY, INCLUSION, DRAW_SCORE, REFRESH, EER, DATASET_BUILD, USERS, RECORD_BUILD,
    SCORELOG_BUILD,
)
SPAN_NAMES = (ROOT_SPAN, *TARGETS)

#: Layer metrics that count work. For one workload and seed they must
#: come out the same on every iteration and every run.
COUNT_METRICS = (
    "synthdata.samples", "ingest.rows_read", "ingest.bytes_written",
    "core.users_calls", "core.records",
    "matcher.enroll_calls", "matcher.score_calls", "matcher.refresh_calls",
    "update.decisions", "update.applied_genuine", "update.applied_impostor",
    "update.evictions", "update.apply_ratio",
    "stream.plan_calls", "stream.queries_genuine", "stream.queries_impostor",
    "stream.scores_per_impostor_draw",
    "metrics.eer_calls",
)


def _count_samples(key):
    def hook(counts, result, args):
        counts[key] += len(result.samples)
    return hook


def _count_file_bytes(path_arg):
    def hook(counts, result, args):
        counts["ingest.bytes_written"] += os.path.getsize(args[path_arg])
    return hook


def _count_outcome(counts, outcome, args):
    if outcome.applied:
        counts["update.applied_impostor" if outcome.was_impostor else "update.applied_genuine"] += 1
    if outcome.evicted is not None:
        counts["update.evictions"] += 1


def _count_query(counts, event, args):
    if event is not None:
        counts[f"stream.queries_{event.true_label.value}"] += 1


_HOOKS = {
    GENERATE: _count_samples("synthdata.samples"),
    READ_DATASET: _count_samples("ingest.rows_read"),
    WRITE_DATASET: _count_file_bytes(1),
    WRITE_TABLE: _count_file_bytes(0),
    MAYBE_UPDATE: _count_outcome,
    NEXT_QUERY: _count_query,
}


def _owner(target: str):
    """The object holding the attribute a dotted target names, and that attribute."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise LookupError(f"trace target {target} not found")


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.run_ids = array("H")
        self.run_id = 0
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = SPAN_NAMES.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        run_ids, stack, counts = self.run_ids, self._stack, self.counts
        hook = _HOOKS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            run_ids.append(tracer.run_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result, args)
            return result

        return traced

    def install(self) -> None:
        for target in TARGETS:
            owner, attribute = _owner(target)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if isinstance(original, property):
                replacement = property(self._wrap(original.fget, target))
            else:
                replacement = self._wrap(original, target)
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self, run_id: int):
        """Wrap every target for one iteration, under a new run id."""
        self.run_id = run_id
        self.counts.clear()
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def root(self, fn):
        """``fn`` wrapped as the root span of one CLI command."""
        return self._wrap(fn, ROOT_SPAN)

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of the iteration recorded under ``run_id``."""
        runs = np.frombuffer(self.run_ids, dtype=np.uint16)
        picked = np.flatnonzero(runs == run_id)
        begin, end = int(picked[0]), int(picked[-1]) + 1
        names = np.frombuffer(self.name_ids, dtype=np.uint16)[begin:end]
        duration = (
            np.frombuffer(self.ends, dtype=np.int64)[begin:end]
            - np.frombuffer(self.starts, dtype=np.int64)[begin:end]
        ).astype(float) / 1e9
        parents = np.frombuffer(self.parents, dtype=np.int64)[begin:end]
        child = parents >= 0
        covered = np.bincount(parents[child] - begin, weights=duration[child], minlength=end - begin)
        width = len(SPAN_NAMES)
        calls = dict(zip(SPAN_NAMES, np.bincount(names, minlength=width).tolist()))
        self_s = dict(zip(SPAN_NAMES, np.bincount(names, duration - covered, width).tolist()))
        total_s = dict(zip(SPAN_NAMES, np.bincount(names, duration, width).tolist()))
        return _layers(calls, self_s, total_s, self.counts)

    def save(self, path: Path) -> None:
        """Write every span recorded in this run (numpy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name_ids, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            run_id=np.frombuffer(self.run_ids, dtype=np.uint16),
        )


def _layers(calls: dict, self_s: dict, total_s: dict, counts: Counter) -> dict[str, float]:
    scores = (RAW_SCORE, CENTERED_SCORE, DRAW_SCORE)
    decisions = calls[MAYBE_UPDATE]
    applied = counts["update.applied_genuine"] + counts["update.applied_impostor"]
    impostor_draws = counts["stream.queries_impostor"]
    return {
        "synthdata.generate_s": self_s[GENERATE],
        "synthdata.samples": counts["synthdata.samples"],
        "ingest.write_dataset_s": self_s[WRITE_DATASET],
        "ingest.read_dataset_s": self_s[READ_DATASET],
        "ingest.write_table_s": self_s[WRITE_TABLE],
        "ingest.rows_read": counts["ingest.rows_read"],
        "ingest.bytes_written": counts["ingest.bytes_written"],
        "core.dataset_build_s": self_s[DATASET_BUILD],
        "core.users_calls": calls[USERS],
        "core.users_s": self_s[USERS],
        "core.record_build_s": self_s[RECORD_BUILD],
        "core.records": calls[RECORD_BUILD],
        "core.scorelog_build_s": self_s[SCORELOG_BUILD],
        "matcher.enroll_calls": calls[ENROLL],
        "matcher.enroll_s": self_s[ENROLL],
        "matcher.score_calls": sum(calls[name] for name in scores),
        "matcher.score_s": sum(self_s[name] for name in scores),
        "matcher.refresh_calls": calls[REFRESH],
        "matcher.refresh_s": self_s[REFRESH],
        "update.decisions": decisions,
        "update.maybe_update_s": self_s[MAYBE_UPDATE],
        "update.inclusion_s": self_s[INCLUSION],
        "update.applied_genuine": counts["update.applied_genuine"],
        "update.applied_impostor": counts["update.applied_impostor"],
        "update.evictions": counts["update.evictions"],
        "update.apply_ratio": applied / decisions if decisions else 0.0,
        "stream.plan_calls": calls[PLAN_SESSION],
        "stream.plan_s": self_s[PLAN_SESSION],
        "stream.queries_genuine": counts["stream.queries_genuine"],
        "stream.queries_impostor": impostor_draws,
        "stream.next_query_s": self_s[NEXT_QUERY],
        "stream.scores_per_impostor_draw":
            calls[DRAW_SCORE] / impostor_draws if impostor_draws else 0.0,
        "evaluator.run_s": total_s[RUN_EXPERIMENT],
        "evaluator.self_s": self_s[RUN_EXPERIMENT],
        "metrics.eer_calls": calls[EER],
        "metrics.eer_s": self_s[EER],
        "metrics.scheme_s": self_s[COMPUTE_SCHEME],
        "metrics.aggregate_s": self_s[AGGREGATE],
        "cli.load_config_s": self_s[LOAD_CONFIG],
        "cli.self_s": self_s[ROOT_SPAN],
    }
