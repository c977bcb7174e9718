"""Tests of the benchmark itself.

    python3 -m pytest ewbench

Every named metric is reported on a tiny-size pass with no failed
operation, counts repeat exactly for a fixed seed, only ewgame API meant to
outlive the planned refactors is used, and a directory without the ewgame
sources gives no result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER, MemoryProbe, Tracer, reduce_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".errors", ".rounds", ".samples")


def _run(workload, trace, seed=3, bench_dir=HERE, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload, trace, seed=3):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _result(workload, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert [(k, v["unit"]) for k, v in res["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in SPEC[key]]
        if trace == 0:
            assert res["metrics"]["ok_ratio"]["value"] == 1.0
            assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload,used,unused", [
    ("mc_stream", ["game.run_game.stream", "game.honest_strategy.3q",
                   "game.classical_cheat_strategy"],
     ["game.run_game.records", "witness.check_witness.2q"]),
    ("detect_sweep", ["game.run_game.records", "witness.ppt_witness",
                      "tomography.reconstruct", "game.honest_strategy.3q"],
     ["game.run_game.stream", "witness.check_witness.3q"]),
    ("sep_check", ["witness.check_witness.2q", "witness.check_witness.3q"],
     ["game.run_game.stream", "game.run_game.records"]),
])
def test_counts_repeat_for_a_fixed_seed(workload, used, unused):
    first, second = (_result(workload, 1)["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second[k]["value"] for k in counts}
    assert all(counts[f"{b}.calls"] > 0 for b in used)
    assert all(counts[f"{b}.calls"] == 0 for b in unused)
    assert all(v == 0 for k, v in counts.items() if k.endswith(".errors"))


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


FORBIDDEN = [r"\bbackends\b", r"EWGAME_BACKEND", r"run_game3", r"honest_strategy3",
             r"expected_payoff3", r"\bworkers\s*=", r"\.responder\b", r"\bgame\._"]


def test_uses_only_stable_api():
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        for pattern in FORBIDDEN:
            assert not re.search(pattern, text), f"{path.name} matches {pattern}"


def test_fails_without_ewgame_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, bench_dir=tmp_path / HERE.name, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    op = ["bench.op", 0.0, 10.0, None, False]
    child = ["game.run_game.stream", 1.0, 7.0, op, False]
    tracer.records = [op, child]
    tracer.counts["game.run_game.stream"]["rounds"] = 1000
    out = reduce_trace(tracer, 1, 10.0, 9.0, MemoryProbe())
    assert out["bench.op.self_s"] == 4.0
    assert out["game.run_game.stream.self_s"] == 6.0
    assert out["game.run_game.stream.share"] == 0.6
    assert out["game.run_game.stream.ns_per_round"] == pytest.approx(6e6)
    assert out["trace.overhead_s"] == 1.0
