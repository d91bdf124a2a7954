import copy
import functools
import json
import math
from collections import defaultdict
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tubench.cli import (
    FIELDS,
    REQUIRED,
    RESULT_FILES,
    _build_experiment,
    _load_dataset,
    cmd_generate,
    cmd_report,
    cmd_run,
    load_config,
    main,
    resolve_config,
)
from tubench.core import Label, Mode, ScoreLog
from tubench.errors import ConfigError, MetricError
from tubench import metrics
from tubench.evaluator import ExperimentConfig, run_experiment
from tubench.ingest import ColumnMapping, read_table, write_table
from tubench.metrics import Scheme
from tubench.stream import GlobalOrder, LocalOrder, SessionPolicy, StreamConfig
from tubench.synthdata import generate
from tubench.update import StrategyKind, UpdateStrategy
from conftest import fast_oracle_eer

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_CONFIG = {
    "dataset": {
        "synthetic": {
            "num_users": 5,
            "num_sessions": 4,
            "samples_per_session": 6,
            "dimension": 4,
            "base_spread": 1.0,
            "drift_scale": 0.06,
            "noise_scale": 0.2,
            "seed": 9,
        }
    },
    "update": {"kind": "self_threshold", "threshold": -0.2},
    "stream": {"impostor_ratio": 0.3},
    "evaluation": {"mode": "online", "repeats": 2, "base_seed": 3},
    "output": {"label": "sys-a"},
}


def write_config(path, patch=None, **top_level):
    document = copy.deepcopy(BASE_CONFIG)
    for section, values in (patch or {}).items():
        if values is None:
            document.pop(section, None)
        elif isinstance(values, dict):
            document.setdefault(section, {}).update(values)
        else:
            document[section] = values
    document.update(top_level)
    path.write_text(json.dumps(document, indent=2))
    return path


def read_bytes_map(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generate_writes_expected_row_count(tmp_path):
    config = write_config(
        tmp_path / "gen.json",
        patch={
            "dataset": {
                "synthetic": {
                    "num_users": 20,
                    "num_sessions": 8,
                    "samples_per_session": 20,
                    "dimension": 10,
                    "drift_scale": 0.08,
                    "noise_scale": 0.15,
                    "seed": 42,
                }
            }
        },
    )
    out = tmp_path / "data.csv"
    cmd_generate(config, out)
    header, rows = read_table(out)
    assert header[:3] == ["user", "session", "rep"]
    assert len(rows) == 20 * 8 * 20
    manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["config"]["dataset"]["synthetic"]["num_users"] == 20


def test_generate_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path / "gen.json")
    cmd_generate(config, tmp_path / "a.csv")
    cmd_generate(config, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_generate_requires_synth_section(tmp_path):
    config = write_config(
        tmp_path / "gen.json",
        patch={"dataset": {"synthetic": None, "path": "somewhere.csv"}},
    )
    with pytest.raises(ConfigError, match="synthetic"):
        cmd_generate(config, tmp_path / "x.csv")


def test_missing_required_field_is_named(tmp_path):
    document = copy.deepcopy(BASE_CONFIG)
    del document["dataset"]["synthetic"]["num_users"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ConfigError, match="num_users"):
        load_config(path)


def test_unknown_fields_are_rejected(tmp_path):
    path = write_config(tmp_path / "bad.json", patch={"stream": {"impostor_ration": 0.3}})
    with pytest.raises(ConfigError, match="impostor_ration"):
        load_config(path)


def test_resolved_sections_build_the_dataclasses(tmp_path, monkeypatch):
    config = write_config(
        tmp_path / "c.json",
        patch={
            "dataset": {
                "synthetic": None,
                "path": "d.csv",
                "mapping": {"user_column": "subject", "feature_columns": ["f1", "f2"]},
            },
            "matcher": {"epsilon": 0.5},
            "update": {"kind": "supervised", "threshold": None, "capacity": 4},
            "stream": {
                "global_order": "scripted",
                "scripted": ["impostor", "genuine"],
                "local_order": "closest_sample",
                "respect_chronology": False,
                "impostor_session_policy": "any_session",
            },
            "evaluation": {"mode": "offline", "schemes": ["pooled", "per_session"]},
        },
    )
    resolved = load_config(config)
    assert _build_experiment(resolved) == (
        ExperimentConfig(
            mode=Mode.OFFLINE,
            stream=StreamConfig(
                impostor_ratio=0.3,
                global_order=GlobalOrder.SCRIPTED,
                local_order=LocalOrder.CLOSEST_SAMPLE,
                respect_chronology=False,
                impostor_session_policy=SessionPolicy.ANY_SESSION,
                scripted=(Label.IMPOSTOR, Label.GENUINE),
            ),
            strategy=UpdateStrategy(StrategyKind.SUPERVISED, math.inf, 4),
            repeats=2,
            base_seed=3,
            eps=0.5,
        ),
        (Scheme.POOLED, Scheme.PER_SESSION),
    )
    calls = []
    monkeypatch.setattr("tubench.cli.read_dataset", lambda *args: calls.append(args))
    _load_dataset(resolved)
    assert calls == [
        (
            Path(resolved["dataset"]["path"]),
            ColumnMapping(user_column="subject", feature_columns=("f1", "f2")),
        )
    ]


def test_run_writes_all_result_files(tmp_path):
    config = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    cmd_run(config, out)
    for name in ("scores.csv", "metrics.csv", "summary.csv", "inclusion.csv", "manifest.json"):
        assert (out / name).exists()

    header, scores = read_table(out / "scores.csv")
    assert header == [
        "repeat", "session", "target_user", "source_user", "label", "raw", "centered", "update_applied",
    ]
    # R=2 repeats x 5 users x 3 query sessions x (6 genuine + 3 impostors)
    assert len(scores) == 2 * 5 * 3 * 9

    _, metrics = read_table(out / "metrics.csv")
    assert len(metrics) == 2 * 3 * 3  # repeats x schemes x sessions
    _, summary = read_table(out / "summary.csv")
    assert len(summary) == 3 * 3
    _, inclusion = read_table(out / "inclusion.csv")
    assert len(inclusion) == 2 * 3


def test_run_is_byte_deterministic_and_manifest_reruns(tmp_path):
    config = write_config(tmp_path / "run.json")
    first, second, third = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    cmd_run(config, first)
    cmd_run(config, second)
    assert read_bytes_map(first) == read_bytes_map(second)
    # the manifest alone reproduces the run byte for byte
    cmd_run(first / "manifest.json", third)
    assert read_bytes_map(first) == read_bytes_map(third)
    # re-running into an existing output directory, from its own manifest,
    # replaces every file with the same bytes and leaves nothing beside it
    cmd_run(first / "manifest.json", first)
    assert read_bytes_map(first) == read_bytes_map(second)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o1", "o2", "o3", "run.json"]


BASE_MANIFEST = """\
{
  "artifact_version": "0.1.0",
  "command": "run",
  "config": {
    "dataset": {
      "mapping": {
        "feature_columns": null,
        "rep_column": "rep",
        "session_column": "session",
        "user_column": "user"
      },
      "path": null,
      "synthetic": {
        "base_spread": 1.0,
        "dimension": 4,
        "drift_scale": 0.06,
        "noise_scale": 0.2,
        "num_sessions": 4,
        "num_users": 5,
        "samples_per_session": 6,
        "seed": 9
      }
    },
    "evaluation": {
      "base_seed": 3,
      "mode": "online",
      "repeats": 2,
      "schemes": [
        "per_session",
        "cumulative_mean",
        "pooled"
      ]
    },
    "matcher": {
      "epsilon": 1e-06
    },
    "output": {
      "label": "sys-a"
    },
    "stream": {
      "global_order": "random",
      "impostor_ratio": 0.3,
      "impostor_session_policy": "same_session",
      "local_order": "totally_random",
      "respect_chronology": true,
      "scripted": null
    },
    "update": {
      "capacity": null,
      "kind": "self_threshold",
      "threshold": -0.2
    }
  },
  "outputs": [
    "scores.csv",
    "metrics.csv",
    "summary.csv",
    "inclusion.csv"
  ]
}
"""


def test_base_config_manifest_bytes_are_pinned(tmp_path):
    cmd_run(write_config(tmp_path / "run.json"), tmp_path / "out")
    assert (tmp_path / "out" / "manifest.json").read_text(encoding="utf-8") == BASE_MANIFEST


def test_run_metrics_match_independent_oracle_over_scores(tmp_path):
    config = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    cmd_run(config, out)
    _, scores = read_table(out / "scores.csv")
    by_cell = defaultdict(lambda: ([], []))
    for repeat, session, _t, _s, label, _raw, centered, _u in scores:
        genuine, impostor = by_cell[(repeat, session)]
        (genuine if label == "genuine" else impostor).append(float(centered))
    _, metrics = read_table(out / "metrics.csv")
    checked = 0
    for repeat, scheme, session, value in metrics:
        if scheme != "per_session":
            continue
        expected = fast_oracle_eer(*by_cell[(repeat, session)])
        assert abs(float(value) - expected) < 1e-12
        checked += 1
    assert checked == 2 * 3


def test_runs_with_different_thresholds_differ(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_run(write_config(tmp_path / "a.json"), out_a)
    cmd_run(
        write_config(tmp_path / "b.json", patch={"update": {"threshold": -0.3}}),
        out_b,
    )
    assert (out_a / "scores.csv").read_bytes() != (out_b / "scores.csv").read_bytes()


def test_threshold_comparison_workflow(tmp_path):
    # the two-system comparison this bench exists for: same data and
    # seeds, two update thresholds, merged into one comparison table
    big_synth = {
        "num_users": 20, "num_sessions": 8, "samples_per_session": 20,
        "dimension": 10, "base_spread": 1.0, "drift_scale": 0.08,
        "noise_scale": 0.15, "seed": 42,
    }
    outs = {}
    for label, threshold in (("lenient", -0.2), ("strict", -0.3)):
        config = write_config(
            tmp_path / f"{label}.json",
            patch={
                "dataset": {"synthetic": big_synth},
                "update": {"threshold": threshold},
                "evaluation": {"repeats": 4},
                "output": {"label": label},
            },
        )
        outs[label] = tmp_path / label
        cmd_run(config, outs[label])
    assert (
        (outs["lenient"] / "summary.csv").read_bytes()
        != (outs["strict"] / "summary.csv").read_bytes()
    )
    combined = tmp_path / "comparison.csv"
    cmd_report(list(outs.values()), combined)
    _, rows = read_table(combined)
    assert {r[0] for r in rows} == {"lenient", "strict"}
    assert len(rows) == 2 * 3 * 7  # systems x schemes x sessions


def test_run_without_impostor_scores_fails_with_session(tmp_path, capsys):
    config = write_config(
        tmp_path / "r0.json",
        patch={"stream": {"impostor_ratio": 0.0}, "update": {"kind": "none", "threshold": None}},
    )
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "session 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()  # failed before the run


def test_metric_failure_leaves_no_result_file(tmp_path, capsys, monkeypatch):
    def failing_scheme(scheme, log):
        raise MetricError(f"{scheme.value}: forced failure")

    monkeypatch.setattr("tubench.cli.compute_scheme", failing_scheme)
    config = write_config(tmp_path / "ok.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "forced failure" in capsys.readouterr().err
    for name in (*RESULT_FILES, "manifest.json"):
        assert not (out / name).exists(), name


def test_write_failure_leaves_no_result_file_and_no_staging_directory(
    tmp_path, capsys, monkeypatch
):
    calls = []

    def failing_write_table(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 2:
            raise OSError("disk full")
        write_table(*args, **kwargs)

    monkeypatch.setattr("tubench.cli.write_table", failing_write_table)
    config = write_config(tmp_path / "ok.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert len(calls) == 2
    for name in (*RESULT_FILES, "manifest.json"):
        assert not (out / name).exists(), name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.json"]


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1e-6])
def test_epsilon_must_be_finite_and_positive(tmp_path, capsys, epsilon):
    config = write_config(tmp_path / "eps.json", patch={"matcher": {"epsilon": epsilon}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert "matcher.epsilon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"dataset": {"synthetic": None}}, "dataset"),
        ({"update": {"threshold": None}}, "update.threshold"),
        ({"evaluation": {"repeats": 0}}, "evaluation.repeats"),
    ],
)
def test_cross_field_rules_fail_naming_the_field(tmp_path, capsys, patch, path):
    config = write_config(tmp_path / "bad.json", patch=patch)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


def test_bad_stream_config_fails_before_the_dataset_is_built(tmp_path, capsys, monkeypatch):
    calls = []

    def recording_generate(config):
        calls.append(config)
        return generate(config)

    monkeypatch.setattr("tubench.cli.generate", recording_generate)
    config = write_config(tmp_path / "ratio.json", patch={"stream": {"impostor_ratio": 1.5}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert "impostor_ratio" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, path, value",
    [("offline", "dataset.synthetic.num_sessions", 2), ("online", "update.capacity", 5)],
)
def test_bad_run_shape_fails_before_the_dataset_is_built(
    tmp_path, capsys, monkeypatch, mode, path, value
):
    calls = []
    monkeypatch.setattr("tubench.cli.generate", calls.append)
    document = copy.deepcopy(BASE_CONFIG)
    document["evaluation"]["mode"] = mode
    *sections, field = path.split(".")
    functools.reduce(dict.__getitem__, sections, document)[field] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert calls == []
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 1
    good = write_config(tmp_path / "ok.json")
    assert main(["run", "--config", str(good), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("digits, named", [(401, "stream.impostor_ratio"), (4400, "big.json")])
def test_numbers_too_large_fail_naming_the_field_or_file(tmp_path, capsys, digits, named):
    # 401 digits parse as an int that float() cannot hold; past 4,300
    # digits json.loads itself refuses to convert the int.
    config = write_config(tmp_path / "big.json")
    text = config.read_text()
    assert '"impostor_ratio": 0.3' in text
    huge = '"impostor_ratio": 1' + "0" * (digits - 1)
    config.write_text(text.replace('"impostor_ratio": 0.3', huge))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_generate_write_failure_leaves_no_file_and_no_staging_directory(
    tmp_path, capsys, monkeypatch
):
    def failing_write_dataset(dataset, path):
        Path(path).write_text("user,session,rep\n")  # a partial file, then the disk fills
        raise OSError("disk full")

    monkeypatch.setattr("tubench.cli.write_dataset", failing_write_dataset)
    config = write_config(tmp_path / "gen.json")
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d.csv")]) == 2
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json"]


def test_run_from_dataset_file_and_manifest_rerun(tmp_path):
    # materialize the dataset, then run from the file; the manifest pins
    # an absolute dataset path so it reruns from any directory.
    gen_config = write_config(tmp_path / "gen.json")
    dataset_path = tmp_path / "materialized.csv"
    cmd_generate(gen_config, dataset_path)
    run_config = write_config(
        tmp_path / "run.json",
        patch={"dataset": {"synthetic": None, "path": "materialized.csv"}},
    )
    first, second = tmp_path / "f1", tmp_path / "f2"
    cmd_run(run_config, first)
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["dataset"]["path"] == str(dataset_path)
    cmd_run(first / "manifest.json", second)
    assert read_bytes_map(first) == read_bytes_map(second)
    # file-backed and in-memory synthetic datasets give identical scores
    direct = tmp_path / "direct"
    cmd_run(write_config(tmp_path / "direct.json"), direct)
    assert (direct / "scores.csv").read_bytes() == (first / "scores.csv").read_bytes()


def test_report_single_directory_identity(tmp_path):
    out = tmp_path / "out"
    cmd_run(write_config(tmp_path / "c.json"), out)
    combined = tmp_path / "combined.csv"
    cmd_report([out], combined)
    header, rows = read_table(combined)
    assert header == ["system", "scheme", "session", "mean_eer", "std_eer"]
    _, summary = read_table(out / "summary.csv")
    assert [r[1:] for r in rows] == sorted(summary, key=lambda r: (r[0], int(r[1])))
    assert {r[0] for r in rows} == {"sys-a"}


def test_report_merges_and_sorts(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_run(write_config(tmp_path / "ca.json"), out_a)
    cmd_run(
        write_config(
            tmp_path / "cb.json",
            patch={"update": {"threshold": -0.3}, "output": {"label": "sys-b"}},
        ),
        out_b,
    )
    combined = tmp_path / "combined.csv"
    cmd_report([out_b, out_a], combined)  # input order must not matter
    _, rows = read_table(combined)
    assert len(rows) == 2 * 9
    keys = [(r[0], r[1], int(r[2])) for r in rows]
    assert keys == sorted(keys)


def test_report_missing_summary_names_directory(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    code = main(["report", "--in", str(empty), "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "nothing" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", ["{not json", '{"config": {"dataset": {}}}'])
def test_report_bad_manifest_names_it(tmp_path, capsys, manifest):
    run = tmp_path / "run"
    run.mkdir()
    header = ["scheme", "session", "mean_eer", "std_eer"]
    write_table(run / "summary.csv", header, [["pooled", "2", "0.1", "0.0"]])
    (run / "manifest.json").write_text(manifest)
    code = main(["report", "--in", str(run), "--out", str(tmp_path / "c.csv")])
    assert code == 1
    assert str(run / "manifest.json") in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "row, bad",
    [
        (["pooled", "2", "0.1"], "short row"),
        (["pooled", "two", "0.1", "0.0"], "non-integer session"),
        (["pooled", "", "0.1", "0.0"], "empty session"),
        (["pooled", "2", "0.1", "0.0", "9"], "long row"),
    ],
)
def test_report_bad_summary_row_names_the_file_and_row(tmp_path, capsys, row, bad):
    run = tmp_path / "run"
    run.mkdir()
    header = ["scheme", "session", "mean_eer", "std_eer"]
    write_table(run / "summary.csv", header, [["pooled", "3", "0.1", "0.0"], row])
    code = main(["report", "--in", str(run), "--out", str(tmp_path / "c.csv")])
    assert code == 1, bad
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / 'summary.csv'}: row 3: "), bad
    assert "Traceback" not in err
    assert not (tmp_path / "c.csv").exists()


def test_report_on_a_summary_that_is_not_utf8_names_it(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "summary.csv").write_bytes(b"scheme,session,mean_eer,std_eer\npooled,2,0.1,\xff\n")
    code = main(["report", "--in", str(run), "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {run / 'summary.csv'}: not UTF-8 text\n"
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("where", ["header", "data row"])
def test_run_on_a_dataset_that_is_not_utf8_names_it(tmp_path, capsys, where):
    dataset = tmp_path / "data.csv"
    cmd_generate(write_config(tmp_path / "gen.json"), dataset)
    text = dataset.read_bytes()
    if where == "header":
        dataset.write_bytes(b"\xe9" + text)
    else:
        dataset.write_bytes(text + b"u999,1,0" + b",\xe9" * 4 + b"\n")
    config = write_config(tmp_path / "run.json", dataset={"path": str(dataset)})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {dataset}: not UTF-8 text\n"
    assert not out.exists()


def test_run_computes_each_eer_once_from_one_log(tmp_path, monkeypatch):
    calls = {"eer": 0, "log": 0}
    eer, build_log = metrics.eer, ScoreLog.__post_init__

    def counting_eer(genuine, impostor):
        calls["eer"] += 1
        return eer(genuine, impostor)

    def counting_build_log(log):
        calls["log"] += 1
        build_log(log)

    monkeypatch.setattr(metrics, "eer", counting_eer)
    monkeypatch.setattr(ScoreLog, "__post_init__", counting_build_log)
    cmd_run(write_config(tmp_path / "c.json"), tmp_path / "out")
    assert len(Scheme) == 3
    # BASE_CONFIG: 2 repeats x (3 covered sessions + 1 pooled), one log
    assert calls == {"eer": 2 * (3 + 1), "log": 1}


def test_inclusion_table_is_the_mean_over_users_of_the_run(tmp_path):
    # A lenient threshold on close users lets impostors into the galleries;
    # past 8 users numpy's mean sums pairwise.
    synthetic = {**BASE_CONFIG["dataset"]["synthetic"], "num_users": 12, "base_spread": 0.3}
    config = write_config(
        tmp_path / "c.json",
        patch={"update": {"threshold": 3.0}, "dataset": {"synthetic": synthetic}},
    )
    cmd_run(config, tmp_path / "out")
    resolved = load_config(config)
    dataset = _load_dataset(resolved)
    inclusion = run_experiment(dataset, _build_experiment(resolved)[0]).inclusion
    expected = [
        [str(repeat), str(session), repr(float(np.mean(inclusion[repeat, session - 2].tolist())))]
        for repeat in range(2)
        for session in range(2, 5)
    ]
    assert inclusion.any()
    assert read_table(tmp_path / "out" / "inclusion.csv")[1] == expected


def test_all_outputs_parse_as_tables(tmp_path):
    out = tmp_path / "out"
    cmd_run(write_config(tmp_path / "c.json"), out)
    for name in ("scores.csv", "metrics.csv", "summary.csv", "inclusion.csv"):
        header, rows = read_table(out / name)
        assert header and rows
        assert all(len(r) == len(header) for r in rows)


MISSING = object()


def _wrong_values(kind, default):
    """Values of the wrong JSON type, or outside the choices, for one FIELDS type."""
    if default is REQUIRED:
        yield "missing", MISSING
        yield "null", None
    if isinstance(kind, list):
        yield "not-a-list", "x"
        yield "list-of-numbers", [5]
        if issubclass(kind[0], Enum):
            yield "unknown-item", ["bogus"]
    elif issubclass(kind, Enum):
        yield "number", 5
        yield "unknown-choice", "bogus"
    elif kind in (int, float):
        yield "string", "1"
        yield "true", True
        if kind is int:
            yield "fraction", 1.5
    elif kind is bool:
        yield "number", 1
    else:  # str, dict
        yield "number", 5


def _field_faults():
    for section, fields in FIELDS.items():
        if "." not in section:
            yield pytest.param(section, 5, id=f"{section}=number")
        yield pytest.param(f"{section}.bogus", 1, id=f"{section}.bogus=unknown-field")
        for key, (kind, default) in fields.items():
            path = f"{section}.{key}"
            for name, value in _wrong_values(kind, default):
                yield pytest.param(path, value, id=f"{path}={name}")


@pytest.mark.parametrize("path, value", list(_field_faults()))
def test_each_field_fault_fails_naming_the_field(tmp_path, capsys, path, value):
    document = copy.deepcopy(BASE_CONFIG)
    *parents, key = path.split(".")
    section = document
    for name in parents:
        section = section.setdefault(name, {})
    if value is MISSING:
        del section[key]
    else:
        section[key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


_VALID = {
    int: st.integers(),
    float: st.floats() | st.integers(-(2**53), 2**53),
    str: st.text(max_size=6),
    bool: st.booleans(),
}
_CONSTRAINED = {
    "matcher.epsilon": st.floats(min_value=1e-300, allow_infinity=False) | st.integers(1, 10),
    "evaluation.repeats": st.integers(1, 20),
}


def _valid(path, kind):
    if path in _CONSTRAINED:
        return _CONSTRAINED[path]
    if kind is dict:
        required, optional = {}, {}
        for key, (field_kind, default) in FIELDS[path].items():
            value = _valid(f"{path}.{key}", field_kind)
            if default is REQUIRED:
                required[key] = value
            else:
                optional[key] = st.none() | value
        return st.fixed_dictionaries(required, optional=optional)
    if isinstance(kind, list):
        return st.lists(_valid(path, kind[0]), max_size=4)
    if issubclass(kind, Enum):
        return st.sampled_from([member.value for member in kind])
    return _VALID[kind]


_DOCUMENTS = st.fixed_dictionaries(
    {"dataset": _valid("dataset", dict), "stream": _valid("stream", dict)},
    optional={
        name: st.none() | _valid(name, dict)
        for name in FIELDS
        if "." not in name and name not in ("dataset", "stream")
    },
)


def _uncanonical_fields(values, section):
    """Dotted names of resolved values not of their section's canonical type."""
    for key, (kind, _) in FIELDS[section].items():
        value, path = values[key], f"{section}.{key}"
        if value is None:
            continue
        if kind is dict:
            yield from _uncanonical_fields(value, path)
        elif isinstance(kind, list):
            if type(value) is not list or any(type(item) is not str for item in value):
                yield path
        elif type(value) is not (str if issubclass(kind, Enum) else kind):
            yield path


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_resolve_config_is_idempotent(document):
    # the two cross-field rules the drawn fields can break
    dataset, update = document["dataset"], document.get("update") or {}
    if dataset.get("synthetic") is None and dataset.get("path") is None:
        dataset["path"] = "data.csv"
    assume(update.get("kind") != "self_threshold" or update.get("threshold") is not None)
    resolved = resolve_config(document)
    # numbers resolve to floats and choices to plain strings
    assert [path for name in resolved for path in _uncanonical_fields(resolved[name], name)] == []
    text = json.dumps(resolved, sort_keys=True)
    assert json.dumps(resolve_config(json.loads(text)), sort_keys=True) == text
    assert json.dumps(resolve_config(resolved), sort_keys=True) == text


_TYPE_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean", dict: "object"}


def _reference_row(path, kind, default):
    """The README config-reference row of one FIELDS entry."""
    item = kind[0] if isinstance(kind, list) else kind
    enum = issubclass(item, Enum)
    type_name = "string" if enum else _TYPE_NAMES[item]
    if isinstance(kind, list):
        type_name = f"list of {type_name}s"
    shown = "required" if default is REQUIRED else f"`{json.dumps(default)}`"
    choices = ", ".join(f"`{member.value}`" for member in item) if enum else ""
    return f"| `{path}` | {type_name} | {shown} | {choices} |"


def test_readme_config_reference_matches_fields():
    lines = README.read_text(encoding="utf-8").splitlines()
    for section, fields in FIELDS.items():
        for key, (kind, default) in fields.items():
            assert _reference_row(f"{section}.{key}", kind, default) in lines
