"""Host-speed benchmark of the KV-SSD simulator: one workload, one run.

Repeats the workload's fixed, seeded cell -- set-up, then the measured
phase -- each time in a fresh interpreter, as many times as fill
``--seconds`` on the reference host (``rounds_for``).  Every repetition must reproduce
the same digest of simulated outputs, and, where one is recorded in
``baseline.json`` for this workload and seed, the recorded digest.

``--trace 0`` reports the end-to-end metrics: throughput of one
measured phase with each lap at its fastest over the repetitions (see
``quiet_measure_s``), and medians of set-up time and peak RSS.
``--trace 1`` alternates a plain repetition (benchmark spans only) with
a profiled one and reports the per-layer metrics; it also prints each
deterministic counter's change against the recorded count, and writes
the spans to ``.perfbench/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
the outputs are correct.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from profile_split import PACKAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("direct-io", "gc-collapse", "replay-scan", "lsm-host")

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "sim.events_per_op": "events/op",
    "sim.calls_per_event": "calls/event",
    "ftl.gc_runs": "count",
    "ftl.fg_gc_frac": "fraction",
    "ftl.waf": "ratio",
    "ftl.gc_valid_frac": "fraction",
    "ftl.stall_ms": "sim_ms",
    "ftl.drain_s": "s",
    "flash.reads_per_op": "reads/op",
    "flash.programs_per_op": "programs/op",
    "flash.erases_per_op": "erases/op",
    "kvftl.index_flash_reads_per_op": "reads/op",
    "kvftl.fast_fill_s": "s",
    "blockftl.prime_fill_s": "s",
    "hostkv.compactions": "count",
    "hostkv.block_cache_hit_frac": "fraction",
    "hostkv.prime_fill_s": "s",
    "nvme.commands_per_op": "commands/op",
    "kvbench.generate_s": "s",
    "kvbench.trace_read_s": "s",
    "kvbench.execute_s": "s",
    "core.build_rig_s": "s",
    **{f"{pkg}.self_frac": "fraction" for pkg in PACKAGES + ("other",)},
    **{f"{pkg}.calls_per_op": "calls/op" for pkg in PACKAGES},
    "bench.trace_overhead": "ratio",
    "bench.failed_op_frac": "fraction",
}

#: Span names whose summed duration is reported as ``<name>_s``.
SPAN_METRICS = (
    "ftl.drain", "kvftl.fast_fill", "blockftl.prime_fill", "hostkv.prime_fill",
    "kvbench.generate", "kvbench.trace_read", "kvbench.execute", "core.build_rig",
)

#: Host seconds one repetition takes on the reference host (a 2-vCPU
#: Xeon KVM guest) when nothing slows it; each workload is sized to it,
#: except gc-collapse at about 4 s.
REP_SECONDS = 2.5
#: A plain repetition that runs longer than this is killed (a profiled
#: one gets three times as long).
REP_TIMEOUT_S = 20.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_rep(workload: str, seed: int, scale: float, spans: bool,
            profile: bool) -> Dict[str, object]:
    """One repetition in a fresh interpreter; returns its report."""
    command = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
               "--scale", repr(scale)]
    if spans:
        command.append("--spans")
    if profile:
        command.append("--profile")
    timeout = REP_TIMEOUT_S * (3 if profile else 1)
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} repetition failed:\n{done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} repetition printed no report")
    return json.loads(lines[-1])


def rounds_for(seconds: float, trace: bool) -> int:
    """Rounds a run of ``seconds`` makes, whatever the host's speed.

    A round is one repetition untraced, and a spans-only plus a profiled
    repetition traced (profiling slows a repetition about threefold).
    The count is fixed rather than timed: ``quiet_measure_s`` takes each
    lap's fastest time, which falls as repetitions are added, so two runs
    compare like with like only if they make as many repetitions.
    """
    cost = REP_SECONDS * (4 if trace else 1)
    return max(1, round(seconds / cost))


def repetitions(workload: str, seed: int, seconds: float, scale: float,
                trace: bool) -> List[Dict[str, object]]:
    """The run's repetitions, in a fresh interpreter each."""
    modes = [(True, False), (True, True)] if trace else [(False, False)]
    reps: List[Dict[str, object]] = []
    for _ in range(rounds_for(seconds, trace)):
        for spans, profile in modes:
            report = run_rep(workload, seed, scale, spans, profile)
            report["profiled"] = profile
            reps.append(report)
    return reps


def load_baseline() -> Dict[str, object]:
    if not BASELINE.exists():
        return {}
    return json.loads(BASELINE.read_text(encoding="ascii"))


def check(workload: str, seed: int, scale: float,
          reps: List[Dict[str, object]], baseline: Dict[str, object]) -> List[str]:
    """Every reason the run's simulated outputs are not correct."""
    problems = []
    digests = sorted({rep["digest"] for rep in reps})
    if len(digests) != 1:
        problems.append(f"repetitions disagree: digests {digests}")
    laps = sorted({len(rep["laps_s"]) for rep in reps})
    if len(laps) != 1:
        problems.append(f"repetitions disagree: lap counts {laps}")
    recorded: Optional[str] = None
    if scale == 1.0:
        recorded = baseline.get("digests", {}).get(workload, {}).get(str(seed))
    if recorded is not None and recorded not in digests:
        problems.append(f"digest {digests[0]} differs from recorded {recorded}")
    failed = sum(rep["failed"] for rep in reps)
    if failed:
        problems.append(f"{failed} operations failed")
    return problems


def quiet_measure_s(reps: List[Dict[str, object]]) -> float:
    """Measured-phase time with the host's interruptions taken out.

    Every repetition of a run does the same work lap by lap (see
    ``workloads.Laps``), and a lap lasts a few milliseconds.  The host
    is shared: its speed swings by tens of percent from one second to
    the next, while the time of a lap it does not interrupt holds
    steady.  So each lap counts with its fastest time over the
    repetitions, and the sum is the time of one uninterrupted phase.
    """
    return sum(min(laps) for laps in zip(*(r["laps_s"] for r in reps)))


def end_to_end(reps: List[Dict[str, object]]) -> Dict[str, float]:
    """Throughput of an uninterrupted measured phase; medians of set-up
    and RSS over the repetitions."""
    return {
        "ops_per_s": reps[0]["completed"] / quiet_measure_s(reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in reps),
    }


def _span_total(rep: Dict[str, object], name: str) -> float:
    return sum(s["end"] - s["start"] for s in rep["spans"] if s["name"] == name)


def per_layer(reps: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics from a traced run's repetitions.

    Counters repeat exactly, so they come from the first repetition;
    span times are medians over the plain repetitions and profile
    fractions medians over the profiled ones.
    """
    plain = [r for r in reps if not r["profiled"]]
    profiled = [r for r in reps if r["profiled"]]
    c = plain[0]["counters"]
    ops = plain[0]["completed"]
    attempted = ops + plain[0]["failed"]
    calls = profiled[0]["profile"]["calls"]
    gc_runs = c["gc_runs"]
    lookups = c["cache_hits"] + c["cache_misses"]
    metrics = {
        "sim.events_per_op": c["events"] / ops,
        "sim.calls_per_event": profiled[0]["profile"]["total_calls"] / c["events"],
        "ftl.gc_runs": gc_runs,
        "ftl.fg_gc_frac": c["foreground_gc_runs"] / gc_runs if gc_runs else 0.0,
        "ftl.waf": (
            (c["host_write_bytes"] + c["gc_relocated_bytes"]) / c["host_write_bytes"]
            if c["host_write_bytes"] else 1.0
        ),
        "ftl.gc_valid_frac": (
            c["gc_relocated_bytes"] / c["gc_erased_bytes"] if c["gc_erased_bytes"] else 0.0
        ),
        "ftl.stall_ms": c["stall_us"] / 1000.0,
        "flash.reads_per_op": c["flash_reads"] / ops,
        "flash.programs_per_op": c["flash_programs"] / ops,
        "flash.erases_per_op": c["flash_erases"] / ops,
        "kvftl.index_flash_reads_per_op": c["index_flash_reads"] / ops,
        "hostkv.compactions": c["compactions"],
        "hostkv.block_cache_hit_frac": c["cache_hits"] / lookups if lookups else 0.0,
        "nvme.commands_per_op": c["commands"] / ops,
    }
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = statistics.median(_span_total(r, name) for r in plain)
    for pkg in PACKAGES + ("other",):
        metrics[f"{pkg}.self_frac"] = statistics.median(
            r["profile"]["self_s"][pkg] / sum(r["profile"]["self_s"].values())
            for r in profiled
        )
    for pkg in PACKAGES:
        metrics[f"{pkg}.calls_per_op"] = calls[pkg] / ops
    metrics["bench.trace_overhead"] = (
        statistics.median(r["measure_s"] for r in profiled)
        / statistics.median(r["measure_s"] for r in plain)
    )
    metrics["bench.failed_op_frac"] = plain[0]["failed"] / attempted
    return metrics


def counter_changes(workload: str, seed: int, rep: Dict[str, object],
                    baseline: Dict[str, object]) -> List[str]:
    """Each deterministic count against its recorded value, as a count."""
    recorded = baseline.get("counters", {}).get(workload)
    if not recorded or recorded["seed"] != seed:
        return [f"counters: none recorded for {workload} seed {seed}"]
    current = deterministic_counts(rep)
    return [
        f"counter {name}: {value} (recorded {recorded['counts'][name]}, "
        f"change {value - recorded['counts'][name]:+d})"
        for name, value in current.items()
    ]


def deterministic_counts(profiled_rep: Dict[str, object]) -> Dict[str, int]:
    """The counts a pure simulator speed-up may move: ops, engine events,
    and Python calls in total and per package."""
    profile = profiled_rep["profile"]
    counts = {
        "ops": profiled_rep["completed"],
        "sim.events": int(profiled_rep["counters"]["events"]),
        "calls": profile["total_calls"],
    }
    counts.update({f"{pkg}.calls": profile["calls"][pkg] for pkg in PACKAGES})
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (self-tests only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    baseline = load_baseline()
    try:
        reps = repetitions(args.workload, args.seed, args.seconds, args.scale,
                           bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = check(args.workload, args.seed, args.scale, reps, baseline)
    completed = sum(r["completed"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{completed} ops completed, {failed} failed")
    print(f"digest {args.workload} {args.seed} {reps[0]['digest']}")
    if args.trace:
        metrics, units = per_layer(reps), PER_LAYER
        profiled = next(r for r in reps if r["profiled"])
        for line in counter_changes(args.workload, args.seed, profiled, baseline):
            print(line)
        print("counts " + json.dumps(deterministic_counts(profiled)))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [{"profiled": r["profiled"], "spans": r["spans"]} for r in reps]
        ), encoding="ascii")
    else:
        metrics, units = end_to_end(reps), END_TO_END
        wall_s = sum(r["measure_s"] for r in reps)
        print(f"wall_ops_per_s {completed / wall_s} ops/s "
              f"(all repetitions, interruptions included)")
        print(f"failed_op_frac {failed / (completed + failed)} fraction")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": completed + failed,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
