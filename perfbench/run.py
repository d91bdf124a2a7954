"""tubench benchmark: closed-loop runs of the ``generate`` / ``run`` CLI path.

One run (the form a benchmark driver uses)::

    python3 perfbench/run.py --workload acceptance-online --seed 42 --seconds 40 --trace 0

runs the workload's CLI commands in this process, one after another and
again and again for about ``--seconds`` seconds, checks every output and
prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics of BENCHMARK.json (``--trace 0``)
or its per-layer metrics (``--trace 1``).

Every workload, with a table of every metric by name and unit::

    python3 perfbench/run.py --all --seeds 1-10 [--trace 1] [--save set.json]

Whether two saved run sets agree within the bounds of BENCHMARK.json::

    python3 perfbench/run.py --compare a.json b.json

Re-record the committed output digests of the default seed, only when the
program's output contract changes on purpose::

    python3 perfbench/run.py --write-reference
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

#: Iterations every run makes, whatever ``--seconds`` says: enough for
#: quartiles, and for comparing a seed's output bytes across iterations.
MIN_ITERATIONS = 3
#: Fresh interpreters started per run to time set-up.
SETUP_PROBES = 7
#: Seconds between two speed probes during an untraced iteration.
PROBE_INTERVAL = 0.1


class BenchmarkError(Exception):
    """The benchmark cannot run here (not a failure of the program)."""


def import_cli():
    """Import ``tubench.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tubench" / "__init__.py").is_file():
        raise BenchmarkError(f"no tubench package under {SRC}")
    # One thread: keep numpy's BLAS from starting a pool.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of set-up, like the import below)
    import tubench.cli

    if Path(tubench.cli.__file__).resolve().parent != SRC / "tubench":
        raise BenchmarkError(f"imported tubench from {tubench.cli.__file__}, not {SRC}")
    return tubench.cli


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    """Facts the timings and the bit-exact outputs depend on."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def time_setup(workload, seed: int, work: Path) -> list[float]:
    """Seconds from starting a fresh interpreter until the workload could start."""
    times = []
    for probe in range(SETUP_PROBES):
        directory = work / f"setup-{probe}"
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", str(directory),
                "--workload", workload.name, "--seed", str(seed)]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        shutil.rmtree(directory)
    return times


class SpeedProbe:
    """Times a tiny fixed kernel every ``PROBE_INTERVAL`` seconds while a block runs.

    Shared machines change speed by a fifth or more within seconds and
    over minutes, and a run's wall time follows. The probe kernel slows
    down with the workload, so an iteration's wall time divided by the
    mean probe time during it measures the iteration's cost in units that
    do not depend on the machine's speed at the moment. The probe runs from
    a SIGALRM handler in the main thread, between two bytecodes of the
    workload, and touches nothing of tubench; its own time is subtracted.
    """

    def __init__(self):
        self.times: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_kernel()
        self.times.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.times.clear()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def cost(self, wall: float) -> float:
        """``wall`` less the probes' own time, in units of one probe."""
        if not self.times:
            raise BenchmarkError("no speed probe ran during the iteration")
        return (wall - sum(self.times)) / statistics.fmean(self.times)


def _probe_kernel() -> None:
    # About 2 ms of the mix the workloads spend their time in: small-array
    # numpy calls, Python float arithmetic and float formatting.
    import numpy as np

    vector = np.linspace(0.0, 1.0, 10)
    total = 0.0
    for i in range(150):
        total += float(np.mean(np.abs(vector - i) * 0.5))
        repr(total)


def run_iteration(main, workload, work: Path, probe: SpeedProbe | None = None
                  ) -> tuple[float, list[int]]:
    """One whole run of the workload: wall seconds and each command's exit code."""
    shutil.rmtree(work / "out", ignore_errors=True)
    gc.collect()
    codes = []
    with probe or contextlib.nullcontext():
        start = time.perf_counter()
        for argv in workload.argv(work):
            try:
                codes.append(main(argv))
            except Exception:  # a crash is a failed command, as it would be from a shell
                traceback.print_exc()
                codes.append(1)
        wall = time.perf_counter() - start
    return wall, codes


def flipped_byte_detected(workload, work: Path, expected: dict, seed: int) -> str | None:
    """Flip one byte in a copy of the outputs; the check must reject the copy.

    Returns the flipped file's name when the check caught it, else None.
    """
    files = workload.checked_files()
    name = files[seed % len(files)]
    copy = work / "flipped"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(work / "out", copy / "out")
    target = copy / name
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    found = workloads.digests(copy, files)
    records = workloads.count_records(copy, workload.scores_files())
    problems = workloads.output_problems(workload, [0] * len(workload.steps), records, found, expected)
    shutil.rmtree(copy)
    return name if problems else None


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the human-readable report lines."""
    from tracing import COUNT_METRICS, Tracer

    main = import_cli().main
    lines = [f"env {json.dumps(environment())}"]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup_times = [] if trace else time_setup(workload, seed, work)
    workload.write_configs(work, seed)

    expected = None
    if seed == workloads.DEFAULT_SEED:
        expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload.name]["sha256"]
    tracer = Tracer() if trace else None
    walls = {True: [], False: []}  # traced / untraced iteration wall seconds
    costs: list[float] = []  # untraced iteration wall time in probe units
    probe_times: list[float] = []
    layers: list[dict] = []
    failed = 0
    loop_times: list[float] = []
    begin = time.perf_counter()
    iteration = 0
    # Start another iteration only if even the slowest one so far would fit.
    while iteration < MIN_ITERATIONS or time.perf_counter() - begin + max(loop_times) <= seconds:
        loop_start = time.perf_counter()
        traced = trace and iteration % 2 == 0
        if traced:
            with tracer.installed(iteration):
                wall, codes = run_iteration(tracer.root(main), workload, work)
            layers.append(tracer.layer_metrics(iteration))
        elif trace:
            wall, codes = run_iteration(main, workload, work)
        else:
            probe = SpeedProbe()
            wall, codes = run_iteration(main, workload, work, probe)
            costs.append(probe.cost(wall))
            probe_times.extend(probe.times)
            wall -= sum(probe.times)
        walls[traced].append(wall)
        found = workloads.digests(work, workload.checked_files())
        records = workloads.count_records(work, workload.scores_files())
        problems = workloads.output_problems(workload, codes, records, found, expected)
        if problems:
            failed += 1
            print(f"iteration {iteration} failed: {'; '.join(problems)}", file=sys.stderr)
        elif expected is None:
            expected = found  # later iterations of this seed must repeat these bytes
        iteration += 1
        loop_times.append(time.perf_counter() - loop_start)

    correct = failed == 0
    if problems:
        lines.append("check self-test: skipped, the last iteration failed")
    elif flipped := flipped_byte_detected(workload, work, expected, seed):
        lines.append(f"check self-test: one flipped byte in {flipped} was caught")
    else:
        correct = False
        lines.append("check self-test: FAILED, a flipped output byte went unnoticed")

    if trace:
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name in COUNT_METRICS:
                if len(set(values)) != 1:
                    correct = False
                    lines.append(f"count {name} differs between iterations: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.traced_wall_s"] = statistics.median(walls[True])
        metrics["trace.untraced_wall_s"] = statistics.median(walls[False])
        metrics["trace.overhead_ratio"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
        tracer.save(OUT / f"spans-{workload.name}.npz")
        wanted = spec["per_layer"]
    else:
        cost = statistics.median(costs)
        wall_s = statistics.median(walls[False])
        metrics = {
            "wall_probes": cost,
            "records_per_kprobe": 1000.0 * workload.records / cost,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for label, values in (("wall_probes", costs), ("wall_s", walls[False]),
                              ("probe_s", probe_times), ("setup_s", setup_times)):
            q1, median, q3 = quartiles(values)
            lines.append(f"{label}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
        lines.append(f"records_per_s: {workload.records / wall_s:.1f}")
        wanted = spec["end_to_end"]
    shutil.rmtree(work, ignore_errors=True)

    attempted = iteration
    lines.append(
        f"{workload.name} seed {seed}: {attempted - failed} of {attempted} iterations passed, "
        f"error_rate {failed / attempted:.4f}, {workload.records} records each"
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, lines


def setup_probe(workload, seed: int, directory: Path) -> None:
    import_cli()
    workload.write_configs(directory, seed)


def write_reference() -> None:
    """Record each workload's output digests for the default seed, run twice."""
    main = import_cli().main
    reference = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS.values():
        work = WORK / f"reference-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        workload.write_configs(work, workloads.DEFAULT_SEED)
        seen = []
        for _ in range(2):
            _, codes = run_iteration(main, workload, work)
            found = workloads.digests(work, workload.checked_files())
            records = workloads.count_records(work, workload.scores_files())
            problems = workloads.output_problems(workload, codes, records, found, None)
            if problems:
                raise BenchmarkError(f"{workload.name}: {'; '.join(problems)}")
            seen.append(found)
        if seen[0] != seen[1]:
            raise BenchmarkError(f"{workload.name}: two runs wrote different bytes")
        reference["workloads"][workload.name] = {"records": workload.records, "sha256": seen[0]}
        shutil.rmtree(work)
        print(f"{workload.name}: {workload.records} records, {len(seen[0])} files")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_all(seeds: list[int], seconds: float, trace: bool, save: Path | None) -> int:
    """Run every workload once per seed, each in a fresh process, and tabulate."""
    spec = load_spec()
    import_cli()
    run_set = {"environment": environment(), "seconds": seconds, "trace": int(trace), "runs": {}}
    print(f"env {json.dumps(run_set['environment'])}")
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = run_set["runs"].setdefault(name, [])
        for seed in seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(int(trace))]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} seed {seed}: benchmark exited {done.returncode}", file=sys.stderr)
                runs.append({"seed": seed, "result": None})
                continue
            runs.append({"seed": seed, "result": json.loads(lines[-1])})
    print_run_set(run_set, spec)
    if save is not None:
        save.parent.mkdir(parents=True, exist_ok=True)
        save.write_text(json.dumps(run_set, indent=1) + "\n", encoding="utf-8")
        print(f"saved {save}")
    return 0 if all(_verdict(runs)[0] for runs in run_set["runs"].values()) else 1


def _verdict(runs: list[dict]) -> tuple[bool, str]:
    results = [run["result"] for run in runs]
    done = [r for r in results if r is not None]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    ok = len(done) == len(results) and all(r["correct"] for r in done)
    crashed = len(results) - len(done)
    text = (f"outputs {'correct' if ok else 'WRONG'}: {failed} of {attempted} iterations failed"
            f" (error_rate {failed / attempted if attempted else 1.0:.4f})"
            + (f", {crashed} runs crashed" if crashed else ""))
    return ok, text


def _values(runs: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["result"] is not None and metric in r["result"]["metrics"]]


def print_run_set(run_set: dict, spec: dict) -> None:
    section = spec["per_layer"] if run_set["trace"] else spec["end_to_end"]
    for name, runs in run_set["runs"].items():
        print(f"\n{name}: {len(runs)} runs, {_verdict(runs)[1]}")
        print(f"  {'metric':34} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14}")
        for metric in section:
            values = _values(runs, metric["name"])
            if values:
                q1, median, q3 = quartiles(values)
                print(f"  {metric['name']:34} {metric['unit']:8} {median:14.6g} {q1:14.6g} {q3:14.6g}")


def compare(path_a: Path, path_b: Path) -> int:
    """Say, for every workload and metric, whether two run sets agree."""
    spec = load_spec()
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    from tracing import COUNT_METRICS

    agree = True
    for name in a["runs"]:
        if name not in b["runs"]:
            print(f"{name}: only in {path_a}")
            agree = False
            continue
        runs_a, runs_b = a["runs"][name], b["runs"][name]
        print(f"\n{name}\n  A: {_verdict(runs_a)[1]}\n  B: {_verdict(runs_b)[1]}")
        agree &= _verdict(runs_a)[0] and _verdict(runs_b)[0]
        if a["trace"] and b["trace"]:
            by_seed_a = {r["seed"]: r["result"] for r in runs_a if r["result"]}
            for run in runs_b:
                result_a = by_seed_a.get(run["seed"])
                if result_a is None or run["result"] is None:
                    continue
                for metric in COUNT_METRICS:
                    va = result_a["metrics"][metric]["value"]
                    vb = run["result"]["metrics"][metric]["value"]
                    if va != vb:
                        agree = False
                        print(f"  count {metric} seed {run['seed']}: A {va} B {vb} DIFFER")
            continue
        for metric in spec["end_to_end"]:
            va, vb = _values(runs_a, metric["name"]), _values(runs_b, metric["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            spread = [(q3 - q1) / med for q1, med, q3 in (quartiles(va), quartiles(vb))]
            change = (mb - ma) / ma
            worse = change if metric["better"] == "lower" else -change
            ok = abs(change) <= metric["bound"]
            agree &= ok
            print(f"  {metric['name']:14} A {ma:.6g} B {mb:.6g} {metric['unit']:6}"
                  f" B {'worse' if worse > 0 else 'better'} by {abs(change):.1%}"
                  f" (bound {metric['bound']:.0%}), spread A {spread[0]:.1%} B {spread[1]:.1%}:"
                  f" {'agree' if ok else 'DISAGREE'}")
    print("\nrun sets agree" if agree else "\nrun sets DISAGREE")
    return 0 if agree else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, help="dataset seed; base_seed is seed + 1192")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--all", action="store_true", help="run every workload and tabulate")
    parser.add_argument("--seeds", default="42", help="with --all: seeds such as 1-10 or 3,5")
    parser.add_argument("--save", type=Path, help="with --all: write the run set here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two saved run sets")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-record the default seed's output digests")
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.write_reference:
            write_reference()
            return 0
        if args.all:
            seconds = args.seconds or load_spec()["run_seconds"]
            return run_all(_seeds(args.seeds), seconds, bool(args.trace), args.save)
        if args.workload not in workloads.WORKLOADS or args.seed is None:
            raise BenchmarkError(f"need --workload (one of {sorted(workloads.WORKLOADS)}) and --seed")
        workload = workloads.WORKLOADS[args.workload]
        if args.setup_probe:
            setup_probe(workload, args.seed, args.setup_probe)
            return 0
        if args.seconds is None:
            raise BenchmarkError("need --seconds")
        result, lines = measure(workload, args.seed, args.seconds, bool(args.trace), load_spec())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
