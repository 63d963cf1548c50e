"""Self-tests of the benchmark harness, with every workload at toy scale.

Run with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import rep
import run
import workloads
from spans import Spans, nesting_errors

TOY = 0.02
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run_cli(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", str(TOY)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workload_names_agree():
    assert NAMES == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(workload, trace, section):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_digest_follows_simulated_inputs(monkeypatch):
    # In-process repeats are safe for replay-scan only; lsm-host carries
    # process-global SST ids, which is why run.py uses fresh processes.
    first = rep.run_rep("replay-scan", 1, TOY)["digest"]
    assert rep.run_rep("replay-scan", 1, TOY)["digest"] == first
    assert rep.run_rep("replay-scan", 2, TOY)["digest"] != first
    monkeypatch.setattr(workloads, "REPLAY_QUEUE_DEPTH", 4)
    assert rep.run_rep("replay-scan", 1, TOY)["digest"] != first


def test_laps_line_up_across_repetitions():
    first = rep.run_rep("replay-scan", 1, TOY)["laps_s"]
    second = rep.run_rep("replay-scan", 1, TOY)["laps_s"]
    assert len(first) == len(second) > 2


def test_quiet_time_counts_each_lap_at_its_fastest():
    reps = [{"laps_s": [1.0, 4.0, 2.0]}, {"laps_s": [2.0, 3.0, 2.5]}]
    assert run.quiet_measure_s(reps) == 6.0


@pytest.mark.parametrize("workload", NAMES)
def test_spans_nest_under_their_parent(workload):
    records = rep.run_rep(workload, 1, TOY, spans=True)["spans"]
    assert nesting_errors(records) == []
    names = {r["name"] for r in records}
    assert {"bench.rep", "bench.setup", "bench.measure",
            "core.build_rig", "kvbench.execute"} <= names
    by_id = {r["id"]: r for r in records}
    for record in records:
        if record["name"] == "kvbench.execute":
            assert by_id[record["parent"]]["name"] == "bench.measure"
        if record["name"] == "core.build_rig":
            assert by_id[record["parent"]]["name"] == "bench.setup"


def test_nesting_errors_flags_a_stray_span():
    spans = Spans("w")
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    spans.records[1]["end"] = spans.records[0]["end"] + 1.0
    assert nesting_errors(spans.records) == ["span 1 lies outside parent 0"]


@pytest.mark.parametrize("workload", NAMES)
def test_self_fracs_sum_to_one(workload):
    plain = {**rep.run_rep(workload, 1, TOY, spans=True), "profiled": False}
    profiled = {**rep.run_rep(workload, 1, TOY, spans=True, profile=True),
                "profiled": True}
    metrics = run.per_layer([plain, profiled])
    fracs = [v for name, v in metrics.items() if name.endswith(".self_frac")]
    assert len(fracs) == len(run.PACKAGES) + 1
    assert sum(fracs) == pytest.approx(1.0, abs=1e-9)
    assert all(f >= 0.0 for f in fracs)
