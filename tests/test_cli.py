import copy
import json
import math
from collections import defaultdict

import pytest

from tubench.cli import RESULT_FILES, cmd_generate, cmd_report, cmd_run, load_config, main
from tubench.errors import ConfigError, MetricError
from tubench.ingest import read_table
from tubench.synthdata import generate
from conftest import fast_oracle_eer

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


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1e-6])
def test_epsilon_must_be_finite_and_positive(tmp_path, capsys, epsilon):
    config = write_config(tmp_path / "eps.json", patch={"matcher": {"epsilon": epsilon}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert "matcher.epsilon" in capsys.readouterr().err
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


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 1
    good = write_config(tmp_path / "ok.json")
    assert main(["run", "--config", str(good), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


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


def test_all_outputs_parse_as_tables(tmp_path):
    out = tmp_path / "out"
    cmd_run(write_config(tmp_path / "c.json"), out)
    for name in ("scores.csv", "metrics.csv", "summary.csv", "inclusion.csv"):
        header, rows = read_table(out / name)
        assert header and rows
        assert all(len(r) == len(header) for r in rows)
