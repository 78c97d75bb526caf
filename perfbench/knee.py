"""One-off knee probe: sweep the offered rate of each open-loop workload.

Not part of the per-PR runs.  For each workload the rate is multiplied
by the factors in :data:`FACTORS`, each trial a fresh benchmark process
with a :data:`PROBE_SECONDS` window, until p99 latency crosses the
workload's stated limit (``Workload.latency_limit_ms``) or the backlog
grows — remote deliveries per second fall below :data:`BACKLOG_SHARE`
of the offered rate x receivers.  The first such rate is the knee; the
table it prints, with the chosen rate's share of the knee, is recorded
in perfbench/README.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

FACTORS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
PROBE_SECONDS = 5.0
BACKLOG_SHARE = 0.95
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def trial(workload, rate: float, seed: int) -> dict:
    """One benchmark process at ``rate``; its end-to-end metrics."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload.name, "--rate", str(rate),
         "--seed", str(seed), "--seconds", str(PROBE_SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload.name} at {rate}/s printed nothing: {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    return metrics


def sweep(workloads, seed: int) -> int:
    for workload in workloads:
        print(f"{workload.name}: p99 limit {workload.latency_limit_ms:.0f} ms, "
              f"chosen rate {workload.rate:.1f}/s", flush=True)
        knee = None
        for factor in FACTORS:
            rate = workload.rate * factor
            m = trial(workload, rate, seed)
            delivered = m["deliveries_per_s"] / (rate * (workload.nodes - 1))
            print(f"  rate {rate:7.1f}/s  p50 {m['latency_p50_ms']:9.2f} ms  "
                  f"p99 {m['latency_p99_ms']:9.2f} ms  delivered {delivered:6.3f} of offered  "
                  f"cpu {m['cpu_us_per_delivery']:7.1f} us/delivery  failed {m['failed']}",
                  flush=True)
            if m["latency_p99_ms"] > workload.latency_limit_ms or delivered < BACKLOG_SHARE:
                knee = rate
                break
        if knee is None:
            print(f"{workload.name}: no knee up to {rate:.1f}/s")
        else:
            print(f"{workload.name}: knee at {knee:.1f}/s; the chosen "
                  f"{workload.rate:.1f}/s is {workload.rate / knee:.0%} of it")
    return 0
