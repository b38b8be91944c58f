"""One workload in one fresh, single-threaded interpreter (started by
run.py).

It sets the workload up, prints "ready", and waits for one line on stdin:
"stop" ends it there (a set-up-only run), "go" starts the measurement.
Untraced, it runs whole passes over the workload's operations, one at a
time, until it has made the workload's number of passes and the
operations have taken --seconds.  Each operation's latency is its median
over the passes, so that a burst of load from elsewhere on the machine
moves one sample and not the result, and every figure is computed over
the whole pass of these medians.  Traced, it
runs exactly one pass with every layer's public functions wrapped.  The
last line it prints is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import threading
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def one_pass(w, lat, tally, tracer=None) -> None:
    """Run every operation once; lat[i] collects the latencies of operation i."""
    for i, op in enumerate(w.ops):
        t0 = perf_counter()
        try:
            out = w.run(op)
        except Exception as e:  # the program failed on this operation
            lat[i].append(perf_counter() - t0)
            verdict = f"failed: {type(e).__name__}: {e}"
        else:
            lat[i].append(perf_counter() - t0)
            if tracer is not None:
                tracer.paused = True
            try:
                verdict = w.check(op, out)
            except ValueError as e:  # e.g. a countermodel that is no model
                verdict = f"the answer does not check: {e}"
            if tracer is not None:
                tracer.paused = False
        tally["attempted"] += 1
        if verdict.startswith("failed"):
            tally["failed"] += 1
            if verdict != "failed":
                print(verdict, file=sys.stderr)
        elif verdict != "ok":
            tally["wrong"] += 1
            print(f"wrong answer: {verdict}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    w = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        setup_stats, _ = tracer.take()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    # Move the set-up heap (inputs, warm caches) out of the collector's
    # reach: otherwise a full collection inside an operation walks it, and
    # which operation pays that pause (up to 19 ms on pipeline) depends on
    # the order of the pass.
    gc.freeze()

    lat = [array("d") for _ in w.ops]
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    if tracer is not None:
        one_pass(w, lat, tally, tracer)
        print(f"traced pass: {len(lat)} operations in {sum(map(sum, lat)):.3f} s",
              file=sys.stderr)
        stats, counts = tracer.take()
        tracer.uninstall()
        silent = [name for name in w.reached if tracing.stat(stats, name, "calls") == 0]
        if silent:
            print(f"traced run: no calls recorded for {', '.join(silent)}", file=sys.stderr)
            return 1
        metrics = tracing.per_layer(stats, counts, setup_stats)
    else:
        passes = 0
        while passes < w.passes or sum(map(sum, lat)) < args.seconds:
            one_pass(w, lat, tally)
            passes += 1
        typical = sorted(statistics.median(a) for a in lat)
        beyond = len(typical) - math.ceil(w.tail / 100 * len(typical))
        if beyond < 10:
            print(f"p{w.tail:g} has only {beyond} operations beyond it", file=sys.stderr)
            return 1
        metrics = {
            "ops_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(typical, 50) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": percentile(typical, w.tail) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    if threading.active_count() != 1:
        print("the workload started a thread", file=sys.stderr)
        return 1
    print(json.dumps({"correct": tally["wrong"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
