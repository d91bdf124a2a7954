"""Committed mutants that the tier-1 tests must kill.

Each mutant is one exact edit of one file under `src/tubench/` and the
tier-1 test ids that must fail under it. For each mutant the script
copies `src/`, `tests/`, `perfbench/`, `pyproject.toml` and `README.md`
into a temporary directory, applies the edit there, and runs only the
listed tests against that copy. The script fails if an edit no longer
applies (its text is not found exactly once in the file) or if a mutant
survives (one of its listed tests passes).

Run from anywhere, by hand or in CI:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # only the named mutants

pytest does not collect this file: its name does not match `test_*.py`.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/tubench
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must all fail


MUTANTS = (
    Mutant(
        "fifo-evicts-the-newest-update",
        "matcher.py",
        "        gallery[first:capacity] = updates[dropped:]\n",
        "        gallery[first:capacity] = updates[: len(updates) - dropped]\n",
        (
            "tests/test_matcher.py::test_extend_equals_a_loop_of_one_row_appends",
            "tests/test_matcher.py::test_one_row_past_the_capacity_evicts_the_oldest_update",
            "tests/test_update.py::test_fifo_evicts_oldest_non_enrollment_entry",
        ),
    ),
    Mutant(
        "extend-doubles-without-the-batch-end",
        "matcher.py",
        "            grow = min(max(2 * width, end), capacity) - width\n",
        "            grow = min(2 * width, capacity) - width\n",
        (
            "tests/test_matcher.py::test_lane_kernels_equal_the_single_reference_kernels_bitwise",
            "tests/test_matcher.py::test_extend_equals_a_loop_of_one_row_appends",
            "tests/test_matcher.py::test_a_capacity_no_gallery_reaches_allocates_as_an_unbounded_gallery",
            "tests/test_matcher.py::test_a_batch_that_lands_exactly_on_the_capacity_evicts_nothing",
            "tests/test_matcher.py::test_one_row_past_the_capacity_evicts_the_oldest_update",
        ),
    ),
    Mutant(
        "extend-grows-past-the-capacity",
        "matcher.py",
        "            grow = min(max(2 * width, end), capacity) - width\n",
        "            grow = max(2 * width, end) - width\n",
        (
            "tests/test_matcher.py::test_lanes_update_and_evict_without_touching_their_templates",
            "tests/test_matcher.py::test_lane_kernels_equal_the_single_reference_kernels_bitwise",
        ),
    ),
    Mutant(
        "closest-draws-take-the-last-minimum",
        "stream.py",
        '            ranked = live[np.argsort(scores, kind="stable")]\n',
        '            ranked = live[::-1][np.argsort(scores[::-1], kind="stable")]\n',
        (
            "tests/test_stream.py::test_closest_sample_breaks_ties_lexicographically",
            "tests/test_stream.py::test_row_pool_draws_match_the_reference_loops[tie-heavy]",
        ),
    ),
    Mutant(
        "closest-pools-keep-presented-impostors",
        "stream.py",
        "        live = np.delete(layout.candidates, np.r_[start:stop, gone])\n",
        "        live = np.delete(layout.candidates, np.r_[start:stop])\n",
        (
            "tests/test_stream.py::test_no_impostor_sample_repeats_within_a_session",
            "tests/test_stream.py::test_row_pool_draws_match_the_reference_loops[grid]",
            "tests/test_stream.py::test_row_pool_draws_match_the_reference_loops[tie-heavy]",
        ),
    ),
    Mutant(
        "closest-impostor-ranks-the-current-impostor-last",
        "stream.py",
        "            users = np.lexsort((np.fmin.reduceat(scores, starts), ~current))[:count]\n",
        "            users = np.lexsort((np.fmin.reduceat(scores, starts), current))[:count]\n",
        ("tests/test_stream.py::test_closest_impostor_selects_nearest_user_first",),
    ),
    Mutant(
        "block-normals-swap-cosine-and-sine",
        "rng.py",
        "    out[0::2] = radius * np.fromiter(map(math.cos, theta), np.float64, pairs)\n"
        "    out[1::2] = radius * np.fromiter(map(math.sin, theta), np.float64, pairs)\n",
        "    out[0::2] = radius * np.fromiter(map(math.sin, theta), np.float64, pairs)\n"
        "    out[1::2] = radius * np.fromiter(map(math.cos, theta), np.float64, pairs)\n",
        ("tests/test_synthdata.py::test_block_normals_equal_the_scalar_stream_bitwise",),
    ),
    Mutant(
        "scores-multiply-by-the-reciprocal-of-d",
        "matcher.py",
        "        ) / queries.shape[-1]\n",
        "        ) * (1.0 / queries.shape[-1])\n",
        (
            "tests/test_matcher.py::test_lane_kernels_equal_the_single_reference_kernels_bitwise",
            "tests/test_matcher.py::test_bare_reductions_equal_np_mean_bitwise",
        ),
    ),
    Mutant(
        "refresh-reduces-without-where",
        "matcher.py",
        "        mu = np.add.reduce(vectors, axis=1, where=held) / size\n"
        "        spread = np.add.reduce(np.abs(vectors - mu[:, None]), axis=1, where=held) / size\n",
        "        mu = np.add.reduce(vectors, axis=1) / size\n"
        "        spread = np.add.reduce(np.abs(vectors - mu[:, None]), axis=1) / size\n",
        ("tests/test_matcher.py::test_lane_kernels_equal_the_single_reference_kernels_bitwise",),
    ),
    Mutant(
        "refresh-reduces-gallery-rows-in-reverse",
        "matcher.py",
        "        mu = np.add.reduce(vectors, axis=1, where=held) / size\n",
        "        mu = np.add.reduce(vectors[:, ::-1], axis=1, where=held[:, ::-1]) / size\n",
        (
            "tests/test_matcher.py::test_lane_kernels_equal_the_single_reference_kernels_bitwise",
            "tests/test_update.py::test_fifo_gallery_matches_a_fresh_recompute_after_every_update",
        ),
    ),
    Mutant(
        "generate-adds-noise-before-ageing",
        "synthdata.py",
        "            np.add(ageing[:, None, :], noise, out=features[user_index])\n",
        "            np.add(base + noise, (elapsed * drift)[:, None, :], out=features[user_index])\n",
        ("tests/test_synthdata.py::test_generate_equals_the_per_sample_reference_bitwise",),
    ),
    Mutant(
        "eer-drops-the-total-tie-break",
        "metrics.py",
        "    best = np.lexsort((far + frr, np.abs(far - frr)))[0]\n",
        "    best = np.argmin(np.abs(far - frr))\n",
        (
            "tests/test_metrics.py::test_eer_matches_oracle_on_random_instances",
            "tests/test_acceptance.py::test_eer_equals_bruteforce_oracle_on_1000_instances",
        ),
    ),
    Mutant(
        "self-threshold-reads-the-label",
        "update.py",
        "    if strategy.kind is StrategyKind.SUPERVISED:\n",
        "    if strategy.kind is not StrategyKind.NONE:\n",
        (
            "tests/test_acceptance.py::test_self_update_absorbs_impostors_at_the_operating_threshold",
            "tests/test_cli.py::test_inclusion_table_is_the_mean_over_users_of_the_run",
            "tests/test_update.py::test_self_threshold_is_label_blind",
        ),
    ),
    Mutant(
        "supervised-ignores-the-label",
        "update.py",
        "        accept = accept & ~np.asarray(impostor)\n",
        "        accept = np.asarray(accept)\n",
        (
            "tests/test_acceptance.py::test_supervised_update_absorbs_no_impostor_at_the_operating_threshold",
            "tests/test_acceptance.py::test_supervised_updating_never_includes_impostors",
            "tests/test_update.py::test_supervised_never_admits_impostors",
        ),
    ),
    Mutant(
        "impostor-first-presents-genuine-queries-first",
        "stream.py",
        "        flags = [True] * n_impostor + [False] * n_genuine\n",
        "        flags = [False] * n_genuine + [True] * n_impostor\n",
        (
            "tests/test_acceptance.py::test_impostor_first_against_genuine_first_at_the_operating_threshold",
            "tests/test_stream.py::test_genuine_first_and_impostor_first_are_mirrors",
        ),
    ),
    Mutant(
        "run-writes-scores-before-the-metrics",
        "cli.py",
        "    eers = session_eers(log)\n",
        "    Path(out_dir).mkdir(exist_ok=True)\n"
        "    write_table(Path(out_dir) / \"scores.csv\", [\"repeat\"], lines=_score_lines(log),\n"
        "                count=len(log.raw))\n"
        "    eers = session_eers(log)\n",
        ("tests/test_cli.py::test_metric_failure_leaves_no_result_file",),
    ),
)


def mutate(copy: Path, mutant: Mutant) -> str | None:
    """Apply the mutant's edit in `copy`; a problem message if it does not apply."""
    path = copy / "src" / "tubench" / mutant.path
    source = path.read_text(encoding="utf-8")
    found = source.count(mutant.old)
    if found != 1:
        return f"its edit matches {found} places in src/tubench/{mutant.path}, not 1"
    path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def survivors(copy: Path, mutant: Mutant) -> list[str]:
    """The mutant's tests that pass against `copy`, or a note if none ran."""
    lines = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         *mutant.tests],
        cwd=copy, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, check=False,
    ).stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    if not failed and not any(" passed" in line for line in lines):
        return [f"no test ran: {lines[-1] if lines else 'no output'}"]
    return [test for test in mutant.tests if not any(f.startswith(test) for f in failed)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    names = parser.parse_args(argv).names
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    problems = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="tubench-mutant-") as temporary:
            copy = Path(temporary)
            for name in COPIED:
                source = ROOT / name
                if source.is_dir():
                    shutil.copytree(source, copy / name,
                                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
                else:
                    shutil.copy2(source, copy / name)
            problem = mutate(copy, mutant)
            if problem is None:
                alive = survivors(copy, mutant)
                problem = f"survives {', '.join(alive)}" if alive else None
        seconds = time.perf_counter() - started
        print(f"{'killed' if problem is None else 'FAILED'}  {mutant.name}  ({seconds:.1f} s)"
              + (f": {problem}" if problem else ""), flush=True)
        problems += problem is not None
    print(f"{problems} problem(s)" if problems else "every mutant killed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
