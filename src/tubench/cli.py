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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import Label, Mode, ScoreLog, scored_sessions
from .errors import BenchError, ConfigError, MetricError
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
from .metrics import Scheme, aggregate, compute_scheme, inclusion_per_session
from .stream import GlobalOrder, LocalOrder, SessionPolicy, StreamConfig, impostor_count
from .synthdata import SynthConfig, generate
from .update import StrategyKind, UpdateStrategy

RESULT_FILES = ("scores.csv", "metrics.csv", "summary.csv", "inclusion.csv")


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _expect(value, path: str, kinds, what: str):
    if isinstance(value, bool) and bool not in (
        kinds if isinstance(kinds, tuple) else (kinds,)
    ):
        raise _fail(path, f"expected {what}")
    if not isinstance(value, kinds):
        raise _fail(path, f"expected {what}")
    return value


def _get(section: dict, root: str, key: str, kinds, what: str, default=None, required=False):
    path = f"{root}.{key}"
    if key not in section or section[key] is None:
        if required:
            raise _fail(path, "missing required field")
        return default
    return _expect(section[key], path, kinds, what)


def _section(document: dict, name: str) -> dict:
    value = document.get(name, {})
    if value is None:
        return {}
    return _expect(value, name, dict, "an object")


def _reject_unknown(section: dict, root: str, known: set[str]) -> None:
    unknown = set(section) - known
    if unknown:
        raise _fail(f"{root}.{sorted(unknown)[0]}", "unknown field")


def _resolve_synth(raw: dict) -> dict:
    root = "dataset.synthetic"
    resolved = {
        "num_users": _get(raw, root, "num_users", int, "an integer", required=True),
        "num_sessions": _get(raw, root, "num_sessions", int, "an integer", required=True),
        "samples_per_session": _get(
            raw, root, "samples_per_session", int, "an integer", required=True
        ),
        "dimension": _get(raw, root, "dimension", int, "an integer", required=True),
        "base_spread": float(_get(raw, root, "base_spread", (int, float), "a number", 1.0)),
        "drift_scale": float(_get(raw, root, "drift_scale", (int, float), "a number", 0.0)),
        "noise_scale": float(_get(raw, root, "noise_scale", (int, float), "a number", 0.1)),
        "seed": _get(raw, root, "seed", int, "an integer", 0),
    }
    _reject_unknown(raw, root, set(resolved))
    return resolved


def _resolve_mapping(raw: dict) -> dict:
    root = "dataset.mapping"
    _reject_unknown(raw, root, {"user_column", "session_column", "rep_column", "feature_columns"})
    features = raw.get("feature_columns")
    if features is not None:
        features = [
            _expect(name, f"{root}.feature_columns", str, "a string")
            for name in _expect(features, f"{root}.feature_columns", list, "a list")
        ]
    return {
        "user_column": _get(raw, root, "user_column", str, "a string", "user"),
        "session_column": _get(raw, root, "session_column", str, "a string", "session"),
        "rep_column": _get(raw, root, "rep_column", str, "a string", "rep"),
        "feature_columns": features,
    }


_ENUM_CHOICES = {
    "update.kind": [k.value for k in StrategyKind],
    "stream.global_order": [o.value for o in GlobalOrder],
    "stream.local_order": [o.value for o in LocalOrder],
    "stream.impostor_session_policy": [p.value for p in SessionPolicy],
    "evaluation.mode": [m.value for m in Mode],
}


def _enum_value(section: dict, root: str, key: str, default: str) -> str:
    value = _get(section, root, key, str, "a string", default)
    choices = _ENUM_CHOICES[f"{root}.{key}"]
    if value not in choices:
        raise _fail(f"{root}.{key}", f"must be one of {choices}")
    return value


def resolve_config(document: dict) -> dict:
    """Fill defaults and type-check a raw config document.

    The result is self-contained: feeding it back through this function
    is the identity, which is what makes manifests re-runnable.
    """
    _expect(document, "config", dict, "an object")
    known = {"dataset", "matcher", "update", "stream", "evaluation", "output"}
    unknown = set(document) - known
    if unknown:
        raise _fail(sorted(unknown)[0], "unknown section")

    dataset_raw = _section(document, "dataset")
    _reject_unknown(dataset_raw, "dataset", {"synthetic", "path", "mapping"})
    synth_raw = dataset_raw.get("synthetic")
    path = _get(dataset_raw, "dataset", "path", str, "a string")
    if synth_raw is None and path is None:
        raise _fail("dataset", "needs either a 'synthetic' section or a 'path'")
    dataset = {
        "synthetic": _resolve_synth(_expect(synth_raw, "dataset.synthetic", dict, "an object"))
        if synth_raw is not None
        else None,
        "path": path,
        "mapping": _resolve_mapping(_section(dataset_raw, "mapping")),
    }

    matcher_raw = _section(document, "matcher")
    _reject_unknown(matcher_raw, "matcher", {"epsilon"})
    matcher = {
        "epsilon": float(
            _get(matcher_raw, "matcher", "epsilon", (int, float), "a number", EPSILON)
        )
    }
    if not (math.isfinite(matcher["epsilon"]) and matcher["epsilon"] > 0):
        raise _fail("matcher.epsilon", "must be finite and > 0")

    update_raw = _section(document, "update")
    _reject_unknown(update_raw, "update", {"kind", "threshold", "capacity"})
    kind = _enum_value(update_raw, "update", "kind", StrategyKind.NONE.value)
    threshold = _get(update_raw, "update", "threshold", (int, float), "a number")
    if kind == StrategyKind.SELF_THRESHOLD.value and threshold is None:
        raise _fail("update.threshold", "required for self_threshold updating")
    update = {
        "kind": kind,
        "threshold": float(threshold) if threshold is not None else None,
        "capacity": _get(update_raw, "update", "capacity", int, "an integer"),
    }

    stream_raw = _section(document, "stream")
    _reject_unknown(
        stream_raw,
        "stream",
        {"impostor_ratio", "global_order", "local_order", "respect_chronology",
         "impostor_session_policy", "scripted"},
    )
    scripted = stream_raw.get("scripted")
    if scripted is not None:
        scripted = [
            _expect(label, "stream.scripted", str, "a label string")
            for label in _expect(scripted, "stream.scripted", list, "a list")
        ]
        bad = [l for l in scripted if l not in (Label.GENUINE.value, Label.IMPOSTOR.value)]
        if bad:
            raise _fail("stream.scripted", f"unknown label '{bad[0]}'")
    stream = {
        "impostor_ratio": float(
            _get(stream_raw, "stream", "impostor_ratio", (int, float), "a number", required=True)
        ),
        "global_order": _enum_value(stream_raw, "stream", "global_order", GlobalOrder.RANDOM.value),
        "local_order": _enum_value(
            stream_raw, "stream", "local_order", LocalOrder.TOTALLY_RANDOM.value
        ),
        "respect_chronology": _get(
            stream_raw, "stream", "respect_chronology", bool, "a boolean", True
        ),
        "impostor_session_policy": _enum_value(
            stream_raw, "stream", "impostor_session_policy", SessionPolicy.SAME_SESSION.value
        ),
        "scripted": scripted,
    }

    evaluation_raw = _section(document, "evaluation")
    _reject_unknown(evaluation_raw, "evaluation", {"mode", "repeats", "base_seed", "schemes"})
    schemes = evaluation_raw.get("schemes")
    if schemes is None:
        schemes = [s.value for s in Scheme]
    else:
        schemes = [
            _expect(name, "evaluation.schemes", str, "a scheme name")
            for name in _expect(schemes, "evaluation.schemes", list, "a list")
        ]
        for name in schemes:
            if name not in [s.value for s in Scheme]:
                raise _fail("evaluation.schemes", f"unknown scheme '{name}'")
    evaluation = {
        "mode": _enum_value(evaluation_raw, "evaluation", "mode", Mode.ONLINE.value),
        "repeats": _get(evaluation_raw, "evaluation", "repeats", int, "an integer", 1),
        "base_seed": _get(evaluation_raw, "evaluation", "base_seed", int, "an integer", 0),
        "schemes": schemes,
    }
    if evaluation["repeats"] < 1:
        raise _fail("evaluation.repeats", "must be >= 1")

    output_raw = _section(document, "output")
    _reject_unknown(output_raw, "output", {"label"})
    output = {"label": _get(output_raw, "output", "label", str, "a string", "experiment")}

    return {
        "dataset": dataset,
        "matcher": matcher,
        "update": update,
        "stream": stream,
        "evaluation": evaluation,
        "output": output,
    }


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if isinstance(document, dict) and "artifact_version" in document and "config" in document:
        document = document["config"]
    resolved = resolve_config(document)
    dataset_path = resolved["dataset"]["path"]
    if dataset_path is not None and not Path(dataset_path).is_absolute():
        resolved["dataset"]["path"] = str((path.resolve().parent / dataset_path).resolve())
    return resolved


def _build_stream_config(resolved: dict) -> StreamConfig:
    section = resolved["stream"]
    scripted = section["scripted"]
    return StreamConfig(
        impostor_ratio=section["impostor_ratio"],
        global_order=GlobalOrder(section["global_order"]),
        local_order=LocalOrder(section["local_order"]),
        respect_chronology=section["respect_chronology"],
        impostor_session_policy=SessionPolicy(section["impostor_session_policy"]),
        scripted=tuple(Label(l) for l in scripted) if scripted is not None else None,
    )


def _build_strategy(resolved: dict) -> UpdateStrategy:
    section = resolved["update"]
    threshold = section["threshold"]
    return UpdateStrategy(
        kind=StrategyKind(section["kind"]),
        update_threshold=threshold if threshold is not None else math.inf,
        capacity=section["capacity"],
    )


def _build_experiment(resolved: dict) -> ExperimentConfig:
    evaluation = resolved["evaluation"]
    return ExperimentConfig(
        mode=Mode(evaluation["mode"]),
        stream=_build_stream_config(resolved),
        strategy=_build_strategy(resolved),
        repeats=evaluation["repeats"],
        base_seed=evaluation["base_seed"],
        eps=resolved["matcher"]["epsilon"],
    )


def _load_dataset(resolved: dict):
    section = resolved["dataset"]
    if section["synthetic"] is not None:
        return generate(SynthConfig(**section["synthetic"]))
    mapping = ColumnMapping(
        user_column=section["mapping"]["user_column"],
        session_column=section["mapping"]["session_column"],
        rep_column=section["mapping"]["rep_column"],
        feature_columns=tuple(section["mapping"]["feature_columns"])
        if section["mapping"]["feature_columns"] is not None
        else None,
    )
    return read_dataset(Path(section["path"]), mapping)


def _write_manifest(path: Path, command: str, resolved: dict, outputs: list[str]) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": resolved,
        "outputs": outputs,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fmt(value: float) -> str:
    return repr(float(value))


def _score_lines(log: ScoreLog):
    """One scores.csv line per log row: floats as repr, user ids quoted by csv once."""
    users = [csv_field(str(user)) for user in log.users]
    genuine, impostor = Label.GENUINE.value, Label.IMPOSTOR.value
    for repeat, session, target, source, raw, centered, applied in zip(
        log.repeat.tolist(), log.session.tolist(), log.target.tolist(), log.source.tolist(),
        log.raw.tolist(), log.centered.tolist(), log.applied.tolist(),
    ):
        yield (
            f"{repeat},{session},{users[target]},{users[source]},"
            f"{genuine if target == source else impostor},"
            f"{raw!r},{centered!r},{'true' if applied else 'false'}\n"
        )


def cmd_generate(config_path, out_path) -> None:
    """Generate a synthetic dataset file plus its manifest."""
    resolved = load_config(config_path)
    if resolved["dataset"]["synthetic"] is None:
        raise ConfigError("dataset.synthetic: required by the generate command")
    dataset = generate(SynthConfig(**resolved["dataset"]["synthetic"]))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(dataset, out_path)
    _write_manifest(
        Path(str(out_path) + ".manifest.json"), "generate", resolved, [out_path.name]
    )


def cmd_run(config_path, out_dir) -> None:
    """Run the configured experiment and write the result tables."""
    resolved = load_config(config_path)
    experiment = _build_experiment(resolved)
    dataset = _load_dataset(resolved)
    for session in scored_sessions(experiment.mode, dataset.num_sessions):
        genuine = np.bincount(dataset.row_user[dataset.row_session == session])
        if not any(impostor_count(int(n), experiment.stream.impostor_ratio) for n in genuine):
            raise MetricError(f"session {session}: no impostor queries, so no EER")
    result = run_experiment(dataset, experiment)
    log = result.log

    # Every table that can fail is computed before the first file is
    # written, so a failed run leaves no result file behind. The score
    # lines cannot fail and are formatted while they are written.
    schemes = [Scheme(name) for name in resolved["evaluation"]["schemes"]]
    sessions = tuple(log.covered_sessions)
    vectors = {
        scheme: [compute_scheme(scheme, log.for_repeat(k)) for k in log.repeat_ids]
        for scheme in schemes
    }
    metric_rows = []
    for repeat_pos, repeat_id in enumerate(log.repeat_ids):
        for scheme in schemes:
            for session, value in zip(sessions, vectors[scheme][repeat_pos]):
                metric_rows.append([str(repeat_id), scheme.value, str(session), _fmt(value)])
    summary_rows = []
    for scheme in schemes:
        report = aggregate(scheme, vectors[scheme], sessions)
        for session, mean, std in zip(sessions, report.mean_per_slot, report.std_per_slot):
            summary_rows.append([scheme.value, str(session), _fmt(mean), _fmt(std)])
    inclusion_rows = [
        [str(rep), str(session), _fmt(value)]
        for (rep, session), value in inclusion_per_session(result.snapshots).items()
    ]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(
        out_dir / "scores.csv",
        ["repeat", "session", "target_user", "source_user", "label", "raw", "centered", "update_applied"],
        lines=_score_lines(log),
    )
    write_table(out_dir / "metrics.csv", ["repeat", "scheme", "session", "eer"], metric_rows)
    write_table(
        out_dir / "summary.csv", ["scheme", "session", "mean_eer", "std_eer"], summary_rows
    )
    write_table(out_dir / "inclusion.csv", ["repeat", "session", "mean_inclusion"], inclusion_rows)
    _write_manifest(out_dir / "manifest.json", "run", resolved, list(RESULT_FILES))


def cmd_report(in_dirs, out_path) -> None:
    """Merge summary tables from several runs into one long-format table."""
    rows = []
    for directory in in_dirs:
        directory = Path(directory)
        summary_path = directory / "summary.csv"
        if not summary_path.exists():
            raise FileNotFoundError(f"{directory}: missing summary.csv")
        manifest_path = directory / "manifest.json"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            label = manifest["config"]["output"]["label"]
        else:
            label = directory.name
        header, data = read_table(summary_path)
        expected = ["scheme", "session", "mean_eer", "std_eer"]
        if header != expected:
            raise ConfigError(f"{summary_path}: unexpected header {header}")
        for row in data:
            rows.append([label, *row])
    rows.sort(key=lambda r: (r[0], r[1], int(r[2])))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_table(out_path, ["system", "scheme", "session", "mean_eer", "std_eer"], rows)


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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry_point() -> None:
    raise SystemExit(main())
