"""The benchmark's tracer wraps tubench functions by name from outside
(`perfbench/tracing.py`). A rename or a moved import would break
`--trace 1` only when the benchmark runs, so the names are checked here,
without running a benchmark."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
