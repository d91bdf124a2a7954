"""The benchmark's tracer wraps tubench functions by name from outside
(`perfbench/tracing.py`). A rename or a moved import would break
`--trace 1` only when the benchmark runs, so the names are checked here,
without running a benchmark. So are the updates each benchmark workload
applies and the traced call counts CI pins, from the configs
`perfbench/workloads.py` makes."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tubench import evaluator, run_experiment, stream
from tubench.cli import _build_experiment, _load_dataset, resolve_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _current(owner, attribute):
    return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)


def test_every_trace_target_resolves(tracing):
    for target in tracing.TARGETS:
        owner, attribute = tracing._owner(target)
        if isinstance(owner, type):
            assert attribute in owner.__dict__, target
        else:
            assert callable(getattr(owner, attribute)), target


def test_install_wraps_and_uninstall_restores_every_target(tracing):
    originals = {target: _current(*tracing._owner(target)) for target in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert _current(*tracing._owner(target)) is not original, target
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _current(*tracing._owner(target)) is original, target


@pytest.mark.parametrize(
    "name, applied",
    [
        ("acceptance-online", 1660),
        ("cmu-offline-fifo", 51 * 7 * 50),  # every genuine query of sessions 2..8
        ("local-orders", 664),
    ],
)
def test_each_workload_applies_its_counted_updates_and_no_impostor(workloads, name, applied):
    workload = workloads.WORKLOADS[name]
    # cmu-offline-fifo runs on the CSV its generate config writes; the
    # synthetic section of that config draws the same dataset in memory.
    documents = [d for d in workload.configs(42).values() if d["dataset"].get("synthetic")]
    total = impostors = 0
    for document in documents:
        resolved = resolve_config(document)
        dataset = _load_dataset(resolved)
        updates = run_experiment(dataset, _build_experiment(resolved)[0]).updates
        total += updates["row"].size
        impostors += np.count_nonzero(dataset.row_user[updates["row"]] != updates["target"])
    assert (total, impostors) == (applied, 0)


@pytest.mark.parametrize(
    "name, counts",
    [
        ("acceptance-online", (20, 0, 1400)),
        ("cmu-offline-fifo", (51, 0, 357)),
        ("local-orders", (80, 588, 560)),
    ],
)
def test_each_workload_makes_the_traced_call_counts_ci_pins(workloads, monkeypatch, name, counts):
    # The traced benchmark run reports these as matcher.enroll_calls,
    # matcher.score_calls and stream.plan_calls; CI pins them.
    calls = {target: 0 for target in ("enroll", "centered_score", "plan_session")}

    def counting(module, target):
        original = getattr(module, target)

        def counted(*args, **kwargs):
            calls[target] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, target, counted)

    counting(evaluator, "enroll")
    counting(stream, "centered_score")
    counting(evaluator, "plan_session")
    for document in workloads.WORKLOADS[name].configs(42).values():
        if document["dataset"].get("synthetic"):
            resolved = resolve_config(document)
            run_experiment(_load_dataset(resolved), _build_experiment(resolved)[0])
    assert (calls["enroll"], calls["centered_score"], calls["plan_session"]) == counts
