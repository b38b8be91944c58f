"""The benchmark's one command.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository; intcalc is imported from
its `src/`.  Each workload runs in a fresh interpreter (`worker.py`), one
at a time.  Untraced, the worker's set-up is timed from its start to its
"ready" line SETUP_RUNS times, the last of those workers is measured, and
`setup_s` is the median set-up time.  Traced (--trace 1), one worker runs
one pass with spans on and reports the per-layer metrics.  The last line
printed is the result as JSON, and the exit code is 0 when there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
SETUP_LIMIT_S = 60
RUN_LIMIT_S = 170

# One thread everywhere; and no bytecode files, so that the first run in a
# fresh checkout compiles as much at set-up as every later one.
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


class RunError(Exception):
    pass


def _ready(proc, limit: float) -> None:
    """Wait for the worker's "ready" line."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(limit):
            raise RunError(f"no ready line within {limit} s")
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RunError(f"worker set-up failed (exit code {proc.wait()})")


def _worker(args, command: str, limit: float):
    """(set-up seconds, worker stdout after the command)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **ENV})
    try:
        _ready(proc, SETUP_LIMIT_S)
        setup = perf_counter() - t0
        out, _ = proc.communicate(command + "\n", timeout=limit)
    except (RunError, subprocess.TimeoutExpired) as e:
        proc.kill()
        proc.wait()
        raise RunError(str(e)) from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return setup, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="decide, families, pipeline or oracle")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if args.trace:
            _, out = _worker(args, "go", RUN_LIMIT_S)
            result = json.loads(out.strip().splitlines()[-1])
        else:
            setups = [_worker(args, "stop", SETUP_LIMIT_S)[0] for _ in range(SETUP_RUNS - 1)]
            setup, out = _worker(args, "go", RUN_LIMIT_S)
            result = json.loads(out.strip().splitlines()[-1])
            setups.append(setup)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (RunError, ValueError, IndexError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
