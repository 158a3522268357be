"""Steadiness check: run each workload N times and compare spreads to bounds.

    python3 perfbench/steady.py --runs 10 --sets 2     # every workload
    python3 perfbench/steady.py --runs 5 --workloads paper_queries
    python3 perfbench/steady.py --runs 2 --trace 1 --same-seed
    python3 perfbench/steady.py --runs 3 --held-out

Each run is ``perfbench/run.py`` in a fresh process for BENCHMARK.json's
``run_seconds``, with its own seed (1, 2, ...; ``--same-seed`` reuses
seed 1, ``--held-out`` uses the held-out seed for every run).  A set is
N runs of every workload; ``--sets 2`` makes a second set after the
first, with the same seeds.

For every end-to-end metric and set the command prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), the
quartile spread as a share of the median and that share against the
metric's bound.  With two or more sets it then prints each metric's
median per set and how much worse each later set's median is than the
first's, as a share of the first, against the bound.  The bounds in
BENCHMARK.json are set from this output.  With ``--trace 1`` it prints
the per-layer medians instead and whether each count repeated exactly
across all runs.

The exit code is 1 when a run is not correct, a spread or a gap between
set medians exceeds its bound, or the share of failed operations differs
between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            + completed.stderr[-2000:]
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile spread / median."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument(
        "--held-out",
        action="store_true",
        help="every run on the held-out seed",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    verdict = 0
    # results[workload][set] is the list of that set's run results.
    results: dict[str, list[list[dict]]] = {name: [] for name in workloads}
    for set_index in range(args.sets):
        for workload in workloads:
            runs = []
            for index in range(args.runs):
                if args.held_out:
                    seed = HELD_OUT_SEED
                else:
                    seed = DEFAULT_SEED + (0 if args.same_seed else index)
                result = run_once(workload, seed, spec["run_seconds"], args.trace)
                runs.append(result)
                values = " ".join(
                    f"{name}={metric['value']:.5g}"
                    for name, metric in result["metrics"].items()
                    if not args.trace
                )
                print(
                    f"set {set_index + 1} {workload} seed {seed}: "
                    f"correct {result['correct']} "
                    f"failed {result['failed']}/{result['attempted']} {values}",
                    flush=True,
                )
            results[workload].append(runs)
            if not all(r["correct"] for r in runs):
                verdict = 1
            print(f"set {set_index + 1} {workload}:")
            for metric in metrics:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, share = spread(values)
                if args.trace:
                    note = ""
                    if metric["unit"] == "count":
                        note = "repeats" if len(set(values)) == 1 else "varies"
                    print(f"  {name:<28} median {median:<12.6g} {note}")
                    continue
                bound = metric["bound"]
                flag = "ok" if share <= bound / 3 else (
                    "within bound" if share <= bound else "OVER BOUND"
                )
                if share > bound:
                    verdict = 1
                print(
                    f"  {name:<14} median {median:<10.5g} q1 {q1:<10.5g} "
                    f"q3 {q3:<10.5g} spread {share:6.2%} bound {bound:.2f} "
                    f"({share / bound:4.0%} of bound) {flag}",
                    flush=True,
                )

    for workload in workloads:
        runs = [r for set_runs in results[workload] for r in set_runs]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed shares {sorted(shares)}")
        if len(shares) > 1:
            verdict = 1
        if args.trace:
            for metric in metrics:
                if metric["unit"] != "count":
                    continue
                values = {r["metrics"][metric["name"]]["value"] for r in runs}
                if len(values) > 1:
                    print(f"  {metric['name']} varies across all runs: {sorted(values)}")
            continue
        if args.sets < 2:
            continue
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = [
                statistics.median(r["metrics"][name]["value"] for r in set_runs)
                for set_runs in results[workload]
            ]
            first = medians[0]
            sign = 1 if metric["better"] == "lower" else -1
            gaps = [sign * (median - first) / first for median in medians[1:]]
            worst = max(gaps)
            flag = "ok" if worst <= bound / 3 else (
                "within bound" if worst <= bound else "OVER BOUND"
            )
            if worst > bound:
                verdict = 1
            print(
                f"  {name:<14} set medians "
                + " ".join(f"{median:<10.5g}" for median in medians)
                + " worse by "
                + " ".join(f"{gap:+7.2%}" for gap in gaps)
                + f" bound {bound:.2f} {flag}"
            )
    return verdict


if __name__ == "__main__":
    sys.exit(main())
