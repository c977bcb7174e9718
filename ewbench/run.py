#!/usr/bin/env python3
"""Run one ewgame benchmark workload and print its metrics.

    python3 ewbench/run.py --workload {mc_stream,detect_sweep,sep_check} \\
        --seed N --seconds S --trace {0,1} [--scale F]

Run from anywhere; the ewgame sources are taken from src/ next to this
directory.  Every workload runs in fresh single-threaded worker processes
(BLAS thread variables pinned to 1).  SETUP_PROBES workers only set up, so
that setup_s is a median over several set-ups; one more sets up and then runs
the workload for S seconds as a closed loop with one client.

With --trace 0 the metrics are the end-to-end ones, measured untraced.  With
--trace 1 they are the per-layer ones from a traced run.  --scale shrinks
the workload's inputs (for smoke tests).  Human-readable lines come first;
the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 on a completed
run (check "correct"), 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_stream", "detect_sweep", "sep_check")
SETUP_PROBES = 8
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Every workload reports every end-to-end metric (name -> unit).  work_per_s
# counts the workload's own unit of work: rounds on mc_stream, states on
# detect_sweep, separable samples on sep_check.  ok_ratio is 1 - fail_ratio.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
              "work_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms"}


class RunError(Exception):
    pass


def _worker(args, extra, deadline):
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale)] + extra
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one ewgame benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        p.error("--seconds must be positive and --scale in (0, 1]")
    if not (ROOT / "src" / "ewgame" / "__init__.py").is_file():
        sys.stderr.write(f"ewgame sources not found under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_worker(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        result = _worker(args, [], deadline)
    except (RunError, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 2
    setups.append(result["setup_s"])
    measured = result["measured"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} scale {args.scale:g}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    failed, attempted = result["failed"], result["attempted"]
    if args.trace:
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        measured["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"timed operations {measured['ops_timed']}, set-ups {len(setups)}, "
              f"work unit {result['unit']}, fail_ratio {failed / attempted!r}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
