"""One repetition of one workload: set up, run the measured phase, report.

``run.py`` starts each repetition in a fresh interpreter so that peak RSS
belongs to that repetition alone (memory grows across repetitions in one
process).  The result is one JSON object on the last line of stdout.

Usage::

    python3 perfbench/rep.py WORKLOAD SEED [--scale S] [--spans] [--profile]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from typing import Dict, List

import workloads
from profile_split import split_profile
from spans import Spans


def run_rep(name: str, seed: int, scale: float = 1.0, spans: bool = False,
            profile: bool = False) -> Dict[str, object]:
    """Set up and measure one repetition; returns the report dict."""
    setup_fn = workloads.WORKLOADS[name]
    recorder = Spans(name, enabled=spans)
    cell = None
    try:
        with recorder.span("bench.rep", name):
            started = time.perf_counter()
            with recorder.span("bench.setup"):
                cell = setup_fn(seed, scale, recorder)
            set_up = time.perf_counter()
            before = [workloads.rig_counters(rig) for rig in cell.rigs]
            profiler = cProfile.Profile() if profile else None
            laps = workloads.Laps()
            with recorder.span("bench.measure"):
                if profiler is not None:
                    profiler.enable()
                laps.mark()
                runs = cell.measure(laps)
                if profiler is not None:
                    profiler.disable()
            measured = time.perf_counter()
        after = [workloads.rig_counters(rig) for rig in cell.rigs]
        report = {
            "workload": name,
            "seed": seed,
            "setup_s": set_up - started,
            "measure_s": measured - set_up,
            "laps_s": laps.durations(),
            "completed": sum(run.completed_ops for run in runs),
            "failed": sum(run.failed_ops for run in runs),
            "digest": workloads.digest(runs, cell.rigs, before),
            "counters": _counter_deltas(cell.rigs, before, after),
            "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spans": recorder.records,
        }
        if profiler is not None:
            report["profile"] = split_profile(profiler)
        return report
    finally:
        workloads.cleanup(cell)


def _counter_deltas(rigs, before: List[dict], after: List[dict]) -> Dict[str, float]:
    """Measured-phase counter deltas summed over the workload's rigs."""
    total: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0) + value

    for rig, old, new in zip(rigs, before, after):
        for key in ("events", "commands", "compactions", "cache_hits", "cache_misses"):
            add(key, new[key] - old[key])
        stats = new["stats"].delta(old["stats"])
        for key in ("gc_runs", "foreground_gc_runs", "gc_relocated_bytes",
                    "flash_reads", "flash_programs", "flash_erases",
                    "index_flash_reads", "host_write_bytes"):
            add(key, getattr(stats, key))
        add("gc_erased_bytes", stats.gc_erased_blocks * workloads.block_bytes(rig))
        add("stall_us", stats.stall_time_us())
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    report = run_rep(args.workload, args.seed, args.scale, args.spans, args.profile)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
