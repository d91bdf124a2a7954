"""The benchmark's workloads: configs made from a seed, one closed-loop
iteration through ``tubench.cli.main``, and the check of its outputs.

A workload is a fixed sequence of CLI commands (``generate`` / ``run``).
One iteration runs the whole sequence, each command starting only after
the previous one has returned. Configs are written once per benchmark
run; every iteration writes into the same output directory, which the
caller empties between iterations.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: The seed the committed output digests belong to.
DEFAULT_SEED = 42
#: ``--seed N`` sets the dataset seed to N and ``base_seed`` to N + this,
#: so the default seed 42 gives the documented defaults 42 / 1234.
BASE_SEED_OFFSET = 1234 - DEFAULT_SEED

RESULT_TABLES = ("scores.csv", "metrics.csv", "summary.csv", "inclusion.csv")
LOCAL_ORDERS = ("totally_random", "random_impostor", "closest_impostor", "closest_sample")
IMPOSTOR_RATIO = 0.30


def _synthetic(users: int, sessions: int, samples: int, dims: int, seed: int) -> dict:
    return {
        "num_users": users,
        "num_sessions": sessions,
        "samples_per_session": samples,
        "dimension": dims,
        "base_spread": 1.0,
        "drift_scale": 0.08,
        "noise_scale": 0.15,
        "seed": seed,
    }


def _experiment(dataset: dict, update: dict, local_order: str, mode: str, repeats: int,
                seed: int) -> dict:
    return {
        "dataset": dataset,
        "update": update,
        "stream": {
            "impostor_ratio": IMPOSTOR_RATIO,
            "global_order": "random",
            "local_order": local_order,
        },
        "evaluation": {"mode": mode, "repeats": repeats, "base_seed": seed + BASE_SEED_OFFSET},
    }


def _impostors(genuine: int) -> int:
    # Written out here rather than taken from tubench.stream, so that the
    # record-count check does not trust the code it checks.
    return int(math.floor(genuine * IMPOSTOR_RATIO / (1.0 - IMPOSTOR_RATIO) + 0.5))


@dataclass(frozen=True)
class Step:
    """One CLI command: ``tubench <command> --config <config> --out <out>``."""

    command: str
    config: str
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    #: Config documents by file name, made from the seed.
    configs: Callable[[int], dict[str, dict]]
    steps: tuple[Step, ...]
    #: Score records all ``run`` steps write together, worked out from the shape.
    records: int

    def write_configs(self, directory: Path, seed: int) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, document in self.configs(seed).items():
            (directory / name).write_text(json.dumps(document, indent=1), encoding="utf-8")

    def argv(self, directory: Path) -> list[list[str]]:
        return [
            [step.command, "--config", str(directory / step.config),
             "--out", str(directory / step.out)]
            for step in self.steps
        ]

    def checked_files(self) -> list[str]:
        """Output files whose bytes are checked, relative to the work directory."""
        files = []
        for step in self.steps:
            if step.command == "generate":
                files.append(step.out)
            else:
                files.extend(f"{step.out}/{table}" for table in RESULT_TABLES)
        return files

    def scores_files(self) -> list[str]:
        return [f"{step.out}/scores.csv" for step in self.steps if step.command == "run"]


def _acceptance_configs(seed: int) -> dict[str, dict]:
    return {
        "acceptance.json": _experiment(
            {"synthetic": _synthetic(20, 8, 20, 10, seed)},
            {"kind": "self_threshold", "threshold": -0.2},
            "totally_random", "online", 10, seed,
        )
    }


def _cmu_configs(seed: int) -> dict[str, dict]:
    update = {"kind": "supervised", "threshold": None, "capacity": 60}
    return {
        "cmu-generate.json": _experiment(
            {"synthetic": _synthetic(51, 8, 50, 31, seed)}, update,
            "totally_random", "offline", 1, seed,
        ),
        # The dataset path is relative to this config file, which sits in
        # the same directory as the generate step's output.
        "cmu-run.json": _experiment(
            {"path": "out/cmu.csv"}, update, "totally_random", "offline", 1, seed
        ),
    }


def _local_order_configs(seed: int) -> dict[str, dict]:
    return {
        f"{order}.json": _experiment(
            {"synthetic": _synthetic(20, 8, 20, 10, seed)},
            {"kind": "self_threshold", "threshold": -0.2},
            order, "online", 1, seed,
        )
        for order in LOCAL_ORDERS
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance-online",
            _acceptance_configs,
            (Step("run", "acceptance.json", "out/run"),),
            # users x online sessions 2..8 x (genuine + impostor) x repeats
            20 * 7 * (20 + _impostors(20)) * 10,
        ),
        Workload(
            "cmu-offline-fifo",
            _cmu_configs,
            (Step("generate", "cmu-generate.json", "out/cmu.csv"),
             Step("run", "cmu-run.json", "out/run")),
            # users x offline sessions 3..8 x (genuine + impostor) x 1 repeat
            51 * 6 * (50 + _impostors(50)),
        ),
        Workload(
            "local-orders",
            _local_order_configs,
            tuple(Step("run", f"{order}.json", f"out/{order}") for order in LOCAL_ORDERS),
            len(LOCAL_ORDERS) * 20 * 7 * (20 + _impostors(20)),
        ),
    )
}


def digests(directory: Path, files: list[str]) -> dict[str, str | None]:
    """sha256 of each file under ``directory``; None for a missing file."""
    found: dict[str, str | None] = {}
    for name in files:
        path = directory / name
        if not path.is_file():
            found[name] = None
            continue
        sha = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
        found[name] = sha.hexdigest()
    return found


def count_records(directory: Path, scores_files: list[str]) -> int:
    """Data rows over every scores.csv (one header line each)."""
    total = 0
    for name in scores_files:
        path = directory / name
        if path.is_file():
            with open(path, "rb") as handle:
                total += sum(1 for _ in handle) - 1
    return total


def output_problems(
    workload: Workload,
    exit_codes: list[int],
    records: int,
    found: dict[str, str | None],
    expected: dict[str, str] | None,
) -> list[str]:
    """Why one iteration failed; an empty list means it passed.

    ``expected`` holds the digests the outputs must match: the committed
    reference for the default seed, or the first iteration's digests for
    any other seed (None while there is no first iteration yet).
    """
    problems = [f"command {i + 1} exited {code}" for i, code in enumerate(exit_codes) if code]
    if records != workload.records:
        problems.append(f"{records} score records, expected {workload.records}")
    for name, digest in found.items():
        if digest is None:
            problems.append(f"{name}: missing")
        elif expected is not None and expected.get(name) != digest:
            problems.append(f"{name}: bytes differ from the expected output")
    return problems
