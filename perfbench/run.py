"""End-to-end swarm benchmark: origin broadcast() to remote delivery
through the real node stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload mesh16-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload mesh16-steady --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --knee [--workload NAME]   # one-off rate sweep
    python3 perfbench/run.py --self-test                # checker self-test

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
run untraced and then with the span recorder installed, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when the correctness check
fails.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: journals and the span dump.
WORK_DIR = os.path.join(ROOT, ".perfbench_run")


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty list."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def slice_latencies(m) -> list:
    """The window's latency samples bucketed by due time into its slices."""
    buckets = [[] for _ in m.slices]
    for due, latency in m.report.latencies:
        for k, (start, end, _cpu, _count) in enumerate(m.slices):
            if start <= due < end:
                buckets[k].append(latency)
                break
    return [bucket for bucket in buckets if bucket]


def end_to_end(m) -> dict:
    """The user-visible metrics of one untraced measurement.  p99 latency
    is the median over the window's slices; the rest are taken over the
    whole window."""
    deliveries = max(m.deliveries, 1.0)
    buckets = slice_latencies(m)
    return {
        "setup_s": (statistics.median(m.setup_times), "s"),
        "deliveries_per_s": (m.deliveries / m.wall_seconds, "1/s"),
        "latency_p50_ms": (
            1000.0 * percentile([latency for _due, latency in m.report.latencies], 0.50), "ms"),
        "latency_p99_ms": (
            1000.0 * statistics.median(percentile(b, 0.99) for b in buckets), "ms"),
        "cpu_us_per_delivery": (1e6 * m.cpu_seconds / deliveries, "us"),
        "wire_bytes_per_delivery": (m.counter("repro_wire_bytes_sent_total") / deliveries, "B"),
        "datagrams_per_delivery": (
            m.counter("repro_wire_datagrams_sent_total") / deliveries, "count"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_details(m, label: str) -> None:
    report = m.report
    lags = m.generator_lag
    lag = f"{1000.0 * percentile(lags, 0.99):.3f} ms" if lags else "n/a (closed loop)"
    buckets = slice_latencies(m)
    pooled = [latency for _due, latency in report.latencies]
    print(f"[{label}] {m.workload.name}: window {m.wall_seconds:.3f} s, "
          f"{m.deliveries:.0f} remote deliveries, latency samples {len(pooled)}, "
          f"pooled p99 {1000.0 * percentile(pooled, 0.99):.3f} ms, "
          f"generator lag p99 {lag}")
    print(f"[{label}] per slice: samples {[len(b) for b in buckets]}, p99 ms "
          f"{[round(1000.0 * percentile(b, 0.99), 2) for b in buckets]}, cpu us/delivery "
          f"{[round(1e6 * cpu / max(count, 1), 1) for _s, _e, cpu, count in m.slices]}")
    print(f"[{label}] failed_share {report.failed_share:.6f} share "
          f"(eps_max ambiguous share {report.ambiguous_share:.6f}); {report.summary()}; "
          f"registry/callback delivered mismatch {m.registry_mismatch}; "
          f"set-ups {', '.join(f'{t:.3f}' for t in m.setup_times)} s")


def result_line(correct: bool, runs, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": sum(m.report.attempted for m in runs),
        "failed": sum(m.report.failed for m in runs),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    })


def is_correct(m) -> bool:
    return m.report.failed == 0 and m.registry_mismatch == 0 and len(m.report.latencies) > 0


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    from swarm import measure

    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, workload.name)
    try:
        m = asyncio.run(measure(workload, seed, seconds, work))
        print_details(m, "untraced")
        runs = [m]
        metrics = end_to_end(m)
        if trace:
            import spans

            traced, recorder = spans.traced_measure(workload, seed, seconds, work)
            print_details(traced, "traced")
            runs.append(traced)
            dump = os.path.join(WORK_DIR, f"spans-{workload.name}.tsv")
            written = recorder.write(dump)
            print(f"[traced] {written} window spans written to {os.path.relpath(dump, ROOT)}")
            metrics = spans.per_layer(m, traced, recorder)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:14.4f}  {unit}")
    correct = all(is_correct(r) for r in runs)
    print(result_line(correct, runs, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float,
                        help="override an open-loop workload's rate (exploration and the knee probe)")
    parser.add_argument("--knee", action="store_true",
                        help="one-off sweep of the offered rate (not part of per-PR runs)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the correctness checker's self-test and exit")
    args = parser.parse_args(argv)
    _import_program()
    from check import self_test
    from swarm import WORKLOADS

    self_test()
    if args.self_test:
        print("checker self-test passed")
        return 0
    if args.knee:
        from knee import sweep

        names = [args.workload] if args.workload else [
            name for name, w in WORKLOADS.items() if w.open_loop
        ]
        return sweep([WORKLOADS[name] for name in names], args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.rate is not None:
        if not workload.open_loop:
            parser.error(f"{workload.name} is a closed loop; --rate does not apply")
        workload = dataclasses.replace(workload, rate=args.rate)
    return run(workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
