"""Batch experiment runner.

One JSON document describes one experiment (sections: dataset, matcher,
update, stream, evaluation, output). Every command writes a manifest
holding the fully resolved configuration next to its outputs, and
re-running from that manifest reproduces the outputs byte for byte.

Exit status: 0 success, 1 configuration/validation error, 2 runtime
metric/data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .core import REQUIRED, Label, Mode, ScoreLog, fields_of, scored_sessions, typed
from .errors import BenchError, ConfigError, MetricError, ValidationError
from .evaluator import ExperimentConfig, run_experiment
from .ingest import (
    ColumnMapping,
    csv_field,
    read_dataset,
    read_table,
    write_dataset,
    write_table,
)
from .matcher import EPSILON
from .metrics import Scheme, aggregate, compute_scheme, session_eers
from .stream import StreamConfig, impostor_count
from .synthdata import SynthConfig, generate
from .update import StrategyKind, UpdateStrategy

RESULT_FILES = ("scores.csv", "metrics.csv", "summary.csv", "inclusion.csv")

# Every config field, per section: (JSON type, default or REQUIRED). A type
# is int, float, str, bool, an Enum (a string out of its values), [T] (a list
# of T), each checked by `core.typed`, or dict (the section named by the
# field's dotted path). A missing or null field takes its default, which is
# resolved like a given value; a null default stays null. Sections that
# match a dataclass field for field are read from it.
FIELDS = {
    "dataset": {"path": (str, None), "synthetic": (dict, None), "mapping": (dict, {})},
    "dataset.synthetic": fields_of(SynthConfig),
    "dataset.mapping": fields_of(ColumnMapping),
    "matcher": {"epsilon": (float, EPSILON)},
    "update": fields_of(UpdateStrategy),
    "stream": fields_of(StreamConfig),
    "evaluation": {
        "mode": (Mode, Mode.ONLINE),
        "repeats": (int, ExperimentConfig.repeats),
        "base_seed": (int, ExperimentConfig.base_seed),
        "schemes": ([Scheme], list(Scheme)),
    },
    "output": {"label": (str, "experiment")},
}

def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _resolve(value, path: str, kind, default):
    """Type-check one field (its default when missing or null) and resolve it."""
    if value is None:
        if default is REQUIRED:
            raise _fail(path, "missing required field")
        value = default
        if value is None:
            return None
    if kind is dict:
        fields = FIELDS[path]
        if not isinstance(value, dict):
            raise _fail(path, "expected an object")
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise _fail(f"{path}.{unknown[0]}", "unknown field")
        return {
            key: _resolve(value.get(key), f"{path}.{key}", *field) for key, field in fields.items()
        }
    try:
        value = typed(kind, value)
    except TypeError as exc:
        raise _fail(path, f"expected {exc}") from None
    if isinstance(value, tuple):  # written in its JSON form, as is an Enum
        return [item.value if isinstance(item, Enum) else item for item in value]
    return value.value if isinstance(value, Enum) else value


def resolve_config(document: dict) -> dict:
    """Fill defaults and type-check a raw config document against FIELDS.

    The result is self-contained: feeding it back through this function
    is the identity, which is what makes manifests re-runnable.
    """
    sections = [name for name in FIELDS if "." not in name]
    if not isinstance(document, dict):
        raise _fail("config", "expected an object")
    unknown = sorted(set(document) - set(sections))
    if unknown:
        raise _fail(unknown[0], "unknown section")
    resolved = {name: _resolve(document.get(name), name, dict, {}) for name in sections}

    dataset, epsilon, update = resolved["dataset"], resolved["matcher"]["epsilon"], resolved["update"]
    if (dataset["synthetic"] is None) == (dataset["path"] is None):
        raise _fail("dataset", "needs exactly one of a 'synthetic' section and a 'path'")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise _fail("matcher.epsilon", "must be finite and > 0")
    if update["kind"] == StrategyKind.SELF_THRESHOLD.value and update["threshold"] is None:
        raise _fail("update.threshold", "required for self_threshold updating")
    schemes = resolved["evaluation"]["schemes"]
    for i, scheme in enumerate(schemes):
        if scheme in schemes[:i]:
            raise _fail("evaluation.schemes", f"'{scheme}' given twice")
    return resolved


def load_config(path) -> dict:
    """Parse and resolve a config file; manifests are accepted directly.

    A relative dataset path is pinned to an absolute one (relative to the
    config file), so the emitted manifest stays re-runnable from anywhere.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if isinstance(document, dict) and "artifact_version" in document and "config" in document:
        document = document["config"]
    resolved = resolve_config(document)
    dataset_path = resolved["dataset"]["path"]
    if dataset_path is not None and not Path(dataset_path).is_absolute():
        resolved["dataset"]["path"] = str((path.resolve().parent / dataset_path).resolve())
    return resolved


def _built(path: str, cls, fields: dict):
    """`cls(**fields)`, its `ValidationError` reported under the config section `path`."""
    try:
        return cls(**fields)
    except ValidationError as exc:
        raise _fail(path, str(exc)) from None


def _build_experiment(resolved: dict) -> tuple[ExperimentConfig, tuple[Scheme, ...]]:
    """The experiment and the EER schemes to report, checked against the synthetic shape."""
    evaluation = dict(resolved["evaluation"])
    schemes = tuple(map(Scheme, evaluation.pop("schemes")))
    experiment = _built("evaluation", ExperimentConfig, dict(
        stream=_built("stream", StreamConfig, resolved["stream"]),
        strategy=_built("update", UpdateStrategy, resolved["update"]),
        eps=resolved["matcher"]["epsilon"],
        **evaluation,
    ))
    synthetic = resolved["dataset"]["synthetic"] or {}
    if experiment.mode is Mode.OFFLINE and synthetic.get("num_sessions", 3) < 3:
        raise _fail("dataset.synthetic.num_sessions", "offline evaluation needs at least 3")
    if (experiment.strategy.capacity or math.inf) < synthetic.get("samples_per_session", 0):
        raise _fail("update.capacity", "below samples_per_session, the enrollment size")
    return experiment, schemes


def _load_dataset(resolved: dict):
    section = resolved["dataset"]
    if section["synthetic"] is not None:
        return generate(_built("dataset.synthetic", SynthConfig, section["synthetic"]))
    mapping = _built("dataset.mapping", ColumnMapping, section["mapping"])
    return read_dataset(Path(section["path"]), mapping)


def _write_manifest(path: Path, command: str, resolved: dict, outputs: list[str]) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": resolved,
        "outputs": outputs,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _score_lines(log: ScoreLog):
    """`lines(lo, hi)`, the scores.csv lines of log rows lo..hi-1: floats as
    repr, user ids quoted by csv once."""
    users = [csv_field(str(user)) for user in log.users]
    genuine, impostor = Label.GENUINE.value, Label.IMPOSTOR.value
    columns = (log.repeat, log.session, log.target, log.source, log.raw, log.centered, log.applied)

    def lines(lo: int, hi: int):
        for repeat, session, target, source, raw, centered, applied in zip(
            *(column[lo:hi].tolist() for column in columns)
        ):
            yield (
                f"{repeat},{session},{users[target]},{users[source]},"
                f"{genuine if target == source else impostor},"
                f"{raw!r},{centered!r},{'true' if applied else 'false'}\n"
            )

    return lines


@contextmanager
def _staging(target: Path):
    """A fresh directory beside `target`, removed with whatever is left in it.

    A command writes all its outputs there and only then moves them into
    place, the manifest last, so a failed command leaves no output file.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent))
    try:
        yield staging
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def cmd_generate(config_path, out_path) -> None:
    """Generate a synthetic dataset file plus its manifest."""
    resolved = load_config(config_path)
    if resolved["dataset"]["synthetic"] is None:
        raise ConfigError("dataset.synthetic: required by the generate command")
    _build_experiment(resolved)  # reject at once what `run` would reject from the manifest
    dataset = _load_dataset(resolved)
    out_path = Path(out_path)
    manifest_name = out_path.name + ".manifest.json"
    with _staging(out_path) as staging:
        write_dataset(dataset, staging / out_path.name)
        _write_manifest(staging / manifest_name, "generate", resolved, [out_path.name])
        for name in (out_path.name, manifest_name):
            os.replace(staging / name, out_path.parent / name)


def cmd_run(config_path, out_dir) -> None:
    """Run the configured experiment and write the result tables."""
    resolved = load_config(config_path)
    experiment, schemes = _build_experiment(resolved)
    dataset = _load_dataset(resolved)
    for session in scored_sessions(experiment.mode, dataset.num_sessions):
        genuine = np.bincount(dataset.row_user[dataset.session_rows[session]])
        if not any(impostor_count(int(n), experiment.stream.impostor_ratio) for n in genuine):
            raise MetricError(f"session {session}: no impostor queries, so no EER")
    result = run_experiment(dataset, experiment)
    log = result.log

    # Every table that can fail is computed before the first file is
    # written; the score lines cannot fail and are formatted while they are
    # written.
    eers = session_eers(log)
    tables = {scheme: compute_scheme(scheme, eers) for scheme in schemes}
    sessions = log.covered_sessions
    metric_rows = [
        [str(repeat_id), scheme.value, str(session), repr(value)]
        for row, repeat_id in enumerate(np.unique(log.repeat).tolist())
        for scheme in schemes
        for session, value in zip(sessions, tables[scheme][row].tolist())
    ]
    summary_rows = []
    for scheme in schemes:
        mean, std = aggregate(tables[scheme])
        summary_rows += (
            [scheme.value, str(session), repr(m), repr(sd)]
            for session, m, sd in zip(sessions, mean.tolist(), std.tolist())
        )
    inclusion_rows = [
        [str(repeat), str(session), repr(value)]
        for repeat, means in enumerate(result.inclusion.mean(axis=-1).tolist())
        for session, value in zip(range(2, dataset.num_sessions + 1), means)
    ]

    out_dir = Path(out_dir)
    with _staging(out_dir) as staging:
        write_table(
            staging / "scores.csv",
            ["repeat", "session", "target_user", "source_user", "label", "raw", "centered", "update_applied"],
            lines=_score_lines(log),
            count=len(log.raw),
        )
        write_table(staging / "metrics.csv", ["repeat", "scheme", "session", "eer"], metric_rows)
        write_table(
            staging / "summary.csv", ["scheme", "session", "mean_eer", "std_eer"], summary_rows
        )
        write_table(staging / "inclusion.csv", ["repeat", "session", "mean_inclusion"], inclusion_rows)
        _write_manifest(staging / "manifest.json", "run", resolved, list(RESULT_FILES))
        out_dir.mkdir(exist_ok=True)
        for name in (*RESULT_FILES, "manifest.json"):
            os.replace(staging / name, out_dir / name)


def _manifest_label(path: Path) -> str:
    """The run label a run manifest holds at config.output.label."""
    try:
        label = json.loads(path.read_text(encoding="utf-8"))["config"]["output"]["label"]
    except (ValueError, KeyError, TypeError):
        label = None
    if not isinstance(label, str):
        raise ConfigError(f"{path}: not a run manifest with a string config.output.label")
    return label


def cmd_report(in_dirs, out_path) -> None:
    """Merge summary tables from several runs into one long-format table."""
    rows, labelled = [], {}
    for directory in in_dirs:
        directory = Path(directory)
        summary_path = directory / "summary.csv"
        if not summary_path.exists():
            raise FileNotFoundError(f"{directory}: missing summary.csv")
        manifest_path = directory / "manifest.json"
        label = _manifest_label(manifest_path) if manifest_path.exists() else directory.name
        if label in labelled:
            raise ConfigError(
                f"{labelled[label]} and {directory}: both have the system label '{label}'"
            )
        labelled[label] = directory
        header, data = read_table(summary_path)
        expected = ["scheme", "session", "mean_eer", "std_eer"]
        if header != expected:
            raise ConfigError(f"{summary_path}: unexpected header {header}")
        for row_no, row in enumerate(data, start=2):
            try:
                int(row[1] if len(row) == len(expected) else "")
            except ValueError:
                raise ConfigError(
                    f"{summary_path}: row {row_no}: expected {len(expected)} fields with an"
                    f" integer session, got {row}"
                ) from None
            rows.append([label, *row])
    rows.sort(key=lambda r: (r[0], r[1], int(r[2])))
    header = ["system", "scheme", "session", "mean_eer", "std_eer"]
    with _staging(Path(out_path)) as staging:
        write_table(staging / "report.csv", header, rows)
        os.replace(staging / "report.csv", out_path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubench",
        description="Deterministic evaluation bench for template-updating verifiers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset file")
    gen.add_argument("--config", required=True, help="experiment config (JSON)")
    gen.add_argument("--out", required=True, help="dataset file to write")

    run = sub.add_parser("run", help="run an experiment and write result tables")
    run.add_argument("--config", required=True, help="experiment config or manifest (JSON)")
    run.add_argument("--out", required=True, help="output directory")

    rep = sub.add_parser("report", help="merge run summaries into one table")
    rep.add_argument(
        "--in", dest="in_dirs", required=True, action="append", help="result directory (repeatable)"
    )
    rep.add_argument("--out", required=True, help="combined table to write")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            cmd_generate(args.config, args.out)
        elif args.command == "run":
            cmd_run(args.config, args.out)
        else:
            cmd_report(args.in_dirs, args.out)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)  # an OSError is a runtime error
    return 0


def entry_point() -> None:
    raise SystemExit(main())
