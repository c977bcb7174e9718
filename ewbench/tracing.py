"""Spans recorded around the benchmark's calls into ewgame, and their
reduction to per-layer metrics.

Every call the benchmark makes into ewgame sits inside ``tracer.span(name)``.
The untraced runs pass ``NULL_TRACER``, whose span is one shared no-op
context manager, so end-to-end numbers carry no tracing cost.  A traced run
keeps its spans in memory and reduces them once, at the end.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

# Layer boundaries, named <module>.<function>[.<variant>].  The benchmark's
# own glue inside an operation (building a GameConfig or an RNG) is the self
# time of the root span "bench.op".
BOUNDARIES = (
    "serialize.parse_state_spec",
    "serialize.parse_witness_spec",
    "serialize.parse_pi_spec",
    "qcore.DensityMatrix",
    "game.honest_strategy.2q",
    "game.honest_strategy.3q",
    "game.classical_cheat_strategy",
    "game.run_game.stream",
    "game.run_game.records",
    "game.empirical_payoff",
    "game.exact_average_payoff",
    "witness.ppt_witness",
    "witness.expected_payoff",
    "witness.check_witness.2q",
    "witness.check_witness.3q",
    "tomography.accumulate",
    "tomography.reconstruct",
    "tomography.reconstruction_error",
    "bench.op",
)

# (suffix, unit, better) for the statistics every boundary reports.
BOUNDARY_STATS = (
    ("calls", "count", "lower"),
    ("self_s", "s", "lower"),
    ("share", "ratio", "lower"),
    ("p50_us", "us", "lower"),
    ("errors", "count", "lower"),
)

RUN_GAME_SPANS = ("game.run_game.stream", "game.run_game.records")
CHECK_SPANS = ("witness.check_witness.2q", "witness.check_witness.3q")

# Metrics derived from the counts recorded at a boundary.
DERIVED_STATS = tuple(
    [(f"{span}.{suffix}", unit, better)
     for span in RUN_GAME_SPANS
     for suffix, unit, better in (("rounds", "count", "higher"),
                                  ("ns_per_round", "ns", "lower"),
                                  ("bytes_per_round", "B", "lower"))]
    + [(f"{span}.{suffix}", unit, better)
       for span in CHECK_SPANS
       for suffix, unit, better in (("samples", "count", "higher"),
                                    ("us_per_sample", "us", "lower"))]
    + [("trace.overhead_s", "s", "lower")]
)

PER_LAYER = tuple(
    [(f"{b}.{suffix}", unit, better) for b in BOUNDARIES
     for suffix, unit, better in BOUNDARY_STATS]
    + list(DERIVED_STATS)
)


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer for timing runs: records nothing."""

    def span(self, name, **counts):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record)
        self.record[1] = perf_counter()

    def __exit__(self, exc_type, exc, tb):
        self.record[2] = perf_counter()
        self.record[4] = exc_type is not None
        self.tracer._stack.pop()
        return False


class Tracer:
    """Keeps one record [name, start, end, parent, error] per span.

    ``parent`` is the enclosing span's record, so all spans of one operation
    hang off its "bench.op" root.  Keyword counts given to ``span`` (rounds,
    samples) are summed per span name.
    """

    def __init__(self):
        self.records = []
        self.counts = defaultdict(Counter)
        self._stack = []

    def span(self, name, **counts):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, False]
        self.records.append(record)
        for key, value in counts.items():
            self.counts[name][key] += value
        return _Span(self, record)


class _MemorySpan:
    __slots__ = ("probe", "name", "rounds")

    def __init__(self, probe, name, rounds):
        self.probe = probe
        self.name = name
        self.rounds = rounds

    def __enter__(self):
        tracemalloc.start()

    def __exit__(self, *exc):
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.probe.peak_bytes[self.name] += peak
        self.probe.rounds[self.name] += self.rounds
        return False


class MemoryProbe:
    """Tracer for the memory pass: runs tracemalloc around each run_game
    call only, and sums the peak bytes each call allocated.

    tracemalloc must never be on during a timing run: left on for a whole
    detect_sweep run it slowed the run about eightfold.
    """

    def __init__(self):
        self.peak_bytes = Counter()
        self.rounds = Counter()

    def span(self, name, **counts):
        if name not in RUN_GAME_SPANS:
            return _NULL_SPAN
        return _MemorySpan(self, name, counts["rounds"])


def _p50_us(durations):
    return statistics.median(durations) * 1e6 if durations else 0.0


def reduce_trace(tracer: Tracer, cycles: int, traced_wall_s: float,
                 untraced_wall_s: float, memory: MemoryProbe) -> dict:
    """Per-layer metrics, each a per-cycle figure where it is a sum.

    A cycle is one pass over the workload's fixed list of operations, so
    calls, rounds, samples and errors per cycle repeat exactly for a fixed
    seed.  self_s is a span's duration minus the time its child spans cover;
    share is self time over the traced wall time.  trace.overhead_s is the
    traced wall time of a cycle minus the untraced one.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in tracer.records:
        if parent is not None:
            child_time[id(parent)] += end - start
    durations = defaultdict(list)
    self_time = defaultdict(float)
    errors = Counter()
    for record in tracer.records:
        name, start, end, _, error = record
        durations[name].append(end - start)
        self_time[name] += (end - start) - child_time[id(record)]
        errors[name] += error

    out = {}
    for b in BOUNDARIES:
        out[f"{b}.calls"] = len(durations[b]) / cycles
        out[f"{b}.self_s"] = self_time[b] / cycles
        out[f"{b}.share"] = self_time[b] / traced_wall_s if traced_wall_s > 0 else 0.0
        out[f"{b}.p50_us"] = _p50_us(durations[b])
        out[f"{b}.errors"] = errors[b] / cycles
    for span in RUN_GAME_SPANS:
        rounds = tracer.counts[span]["rounds"]
        out[f"{span}.rounds"] = rounds / cycles
        out[f"{span}.ns_per_round"] = self_time[span] / rounds * 1e9 if rounds else 0.0
        mem_rounds = memory.rounds[span]
        out[f"{span}.bytes_per_round"] = (memory.peak_bytes[span] / mem_rounds
                                          if mem_rounds else 0.0)
    for span in CHECK_SPANS:
        samples = tracer.counts[span]["samples"]
        out[f"{span}.samples"] = samples / cycles
        out[f"{span}.us_per_sample"] = self_time[span] / samples * 1e6 if samples else 0.0
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s) / cycles
    return out
