"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload paper_queries --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The run sets the workload up, runs whole rounds of closed-loop
operations for ``--seconds`` seconds, checks every answer against the
benchmark's own model, and prints a per-run report followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it wraps each layer's entry points in spans
(``layers.py``), makes a fixed number of rounds for the requested
length so that its counts repeat exactly, and reports the per-layer
metrics; it writes its spans and the program's own trace reports
under ``.perfbench/traces/``.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import DEFAULT_SEED  # noqa: E402

#: Set-ups per untraced run (this process plus fresh probe processes);
#: ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Candidate tail percentiles, highest first.
TAILS = (0.999, 0.99, 0.95, 0.9, 0.75)


def tail(samples: list[float]):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` or ``None`` below forty samples,
    where such a percentile would be no tail.
    """
    count = len(samples)
    if count < 40:
        return None
    ordered = sorted(samples)
    for level in TAILS:
        if count * (1 - level) >= 10:
            return level, ordered[min(count - 1, int(level * count))]
    return None


def setup_probe(workload: str, seed: int) -> float:
    """Set the workload up in a fresh process; return its ``setup_s``."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def op_class(op) -> str:
    name = f"{op.kind}/{op.shape}" if op.shape else op.kind
    return f"{name}|{op.beside}" if op.beside else name


def report(name, seed, seconds, traced, ops, rounds, metrics) -> None:
    """The human-readable per-run report printed before the JSON line."""
    print(
        f"# workload {name}  seed {seed}  seconds {seconds}  "
        f"trace {int(traced)}  rounds {rounds}"
    )
    print(
        "# op class                   attempted  failed  samples   total_s    p50_ms  tail"
    )
    for kind in sorted({op_class(op) for op in ops}):
        group = [op for op in ops if op_class(op) == kind]
        samples = [op.seconds for op in group if op.ok]
        p50 = statistics.median(samples) * 1e3 if samples else float("nan")
        found = tail(samples)
        tail_text = (
            f"p{found[0] * 100:g} {found[1] * 1e3:.3f} ms"
            if found
            else "median only (fewer than 40 samples)"
        )
        print(
            f"# {kind:<26} {len(group):>9}  {len(group) - len(samples):>6}"
            f"  {len(samples):>7}  {sum(samples):>8.3f}  {p50:>8.3f}  {tail_text}"
        )
    collections = [generation["collections"] for generation in gc.get_stats()]
    print("# gc collections by generation: " + " ".join(map(str, collections)))
    for metric, (value, unit) in metrics.items():
        print(f"# metric {metric} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, query_p50

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")
    traced = bool(args.trace)
    recorder = None
    if traced:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)

    workload = WORKLOADS[args.workload](ROOT, args.seed, traced)
    if traced:
        # Checks are no timed op: what they cost the program (the
        # daemon's quiescent checks are queries) counts toward no layer.
        excluded = Counter()

        def snapshot() -> Counter:
            hits, misses = layers.cache_totals(workload.engine_session())
            return Counter(workload.counters()) + Counter(
                {"engine.cache_hits": hits, "engine.cache_misses": misses}
            )

        @contextlib.contextmanager
        def untimed():
            before = snapshot()
            with recorder.untimed():
                yield
            excluded.update(snapshot() - before)

        workload.untimed = untimed
    ops = []
    busy = 0.0
    rounds = 0
    try:
        workload.setup()
        setup_s = perf_counter() - PROCESS_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if traced:
            recorder.phase = "timed"
            before = snapshot()
            excluded.clear()
            fixed_rounds = max(
                1, round(args.seconds * workload.trace_rounds_per_second)
            )
        started = perf_counter()
        while True:
            round_ops, round_busy = workload.round()
            ops.extend(round_ops)
            busy += round_busy
            rounds += 1
            if traced:
                if rounds >= fixed_rounds:
                    break
            elif perf_counter() - started >= args.seconds:
                break
        if traced:
            recorder.phase = "after"
            counters_after = workload.counters()
            timed_counts = snapshot() - before - excluded
            program_reports = workload.trace_reports()
        else:
            peak_rss_mb = workload.peak_rss_mb()
        pool_started = workload.pool_started()
    finally:
        workload.close()
        if recorder is not None:
            recorder.restore()

    failed = sum(1 for op in ops if not op.ok)
    correct = failed == 0 and not pool_started
    if pool_started:
        print("# a worker pool was started: evaluation was not pinned to 1 worker")
    ops_per_s = len(ops) / busy
    if traced:
        queries = [op for op in ops if op.kind == "query" and op.server is not None]
        values = layers.per_layer_metrics(
            recorder,
            (timed_counts, counters_after),
            (timed_counts["engine.cache_hits"], timed_counts["engine.cache_misses"]),
            (
                [op.server for op in queries],
                [op.seconds - op.server for op in queries],
            ),
            ops_per_s,
        )
        trace_path = (
            ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        )
        layers.write_trace(trace_path, recorder, program_reports)
        print(f"# trace written to {trace_path.relative_to(ROOT)}")
    else:
        setups = [setup_s] + [
            setup_probe(args.workload, args.seed)
            for _ in range(SETUP_REPEATS - 1)
        ]
        print("# setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        values = {
            "setup_s": statistics.median(setups),
            "query_p50_ms": query_p50(ops) * 1e3,
            "update_p50_ms": statistics.median(
                op.seconds for op in ops if op.kind == "update" and op.ok
            ) * 1e3,
            "ops_per_s": ops_per_s,
            "peak_rss_mb": peak_rss_mb,
        }
    # BENCHMARK.json names every metric and its unit; a run reports
    # exactly that list.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if traced else "end_to_end"]
    }
    if set(units) != set(values):
        raise SystemExit(
            f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )
    metrics = {name: (values[name], units[name]) for name in units}
    report(args.workload, args.seed, args.seconds, traced, ops, rounds, metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
