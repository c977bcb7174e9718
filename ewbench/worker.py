"""One benchmark process: set up a workload, run it, print the result.

Started by run.py with the BLAS thread variables pinned to 1.  Setup is
everything from process start to the first timed operation: interpreter
start, importing ewgame, generating inputs and references, and one untimed
pass over a tiny copy of the workload so that lazy set-up inside ewgame is
done.  With --setup-only the process stops there.

Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ewgame  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tracing import NULL_TRACER, MemoryProbe, Tracer, reduce_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARMUP_SCALE = 0.01
MAX_REPORTED_ERRORS = 3


class Runner:
    """Runs operations one after another (a closed loop with one client)
    and keeps the tally of attempted and failed operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def op(self, item, tracer):
        """Run and check one operation; return (latency_s, ok).

        The latency covers the calls into ewgame and the benchmark's glue,
        not the check.  An exception is a failed operation, not an abort.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                out = self.workload.run(item, tracer)
        except Exception:
            latency = time.perf_counter() - start
            self._fail(traceback.format_exc())
            return latency, False
        latency = time.perf_counter() - start
        if not self.workload.check(item, out):
            self._fail(f"output check failed for {item!r}\n")
            return latency, False
        return latency, True

    def cycle(self, tracer) -> float:
        """One pass over the workload's items; returns the summed latency."""
        return sum(self.op(item, tracer)[0] for item in self.workload.items)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            sys.stderr.write(message)


def timed_run(runner: Runner, seconds: float) -> dict:
    """Walk the items round robin until `seconds` have passed."""
    items = runner.workload.items
    latencies, work = [], 0
    start = time.perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        latency, ok = runner.op(item, NULL_TRACER)
        if ok:
            latencies.append(latency)
            work += runner.workload.work(item)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    lat_ms = np.asarray(latencies) * 1e3
    busy = sum(latencies)
    return {
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "work_per_s": work / busy if busy > 0 else 0.0,
        "op_p50_ms": float(np.percentile(lat_ms, 50)) if latencies else 0.0,
        "op_p95_ms": float(np.percentile(lat_ms, 95)) if latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_timed": len(latencies),
    }


def traced_run(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced cycles until `seconds` have passed,
    then make one more cycle with tracemalloc around run_game calls only."""
    tracer = Tracer()
    untraced = traced = 0.0
    cycles = 0
    start = time.perf_counter()
    while True:
        untraced += runner.cycle(NULL_TRACER)
        traced += runner.cycle(tracer)
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    memory = MemoryProbe()
    runner.cycle(memory)
    return reduce_trace(tracer, cycles, traced, untraced, memory)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ewgame": ewgame.__version__,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if Path(ewgame.__file__).resolve().parent != SRC / "ewgame":
        sys.stderr.write(f"imported ewgame from {ewgame.__file__}, not from {SRC}\n")
        return 2

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.scale)
    Runner(cls(args.seed, WARMUP_SCALE)).cycle(NULL_TRACER)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        runner = Runner(workload)
        run = traced_run if args.trace else timed_run
        result.update(measured=run(runner, args.seconds), attempted=runner.attempted,
                      failed=runner.failed, unit=cls.unit, env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
