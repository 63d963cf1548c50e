"""Run the benchmark over many seeds; report spreads and record a baseline.

Runs ``run.py`` once per seed on each workload (``--trace 0``, with the
``run_seconds`` of BENCHMARK.json), then prints for each end-to-end
metric the median, the quartiles and the quartile spread as a share of
the median, against the metric's bound.  Where ``baseline.json`` holds
a recorded median, the change against it is printed too.

``--write`` also makes one traced run per workload at the default seed
and writes ``baseline.json``: every seed's digest, the default seed's
deterministic counts and per-layer split, and the end-to-end quartiles.

Usage::

    python3 perfbench/record.py [--runs 10] [--first-seed 1]
        [--workloads NAME ...] [--write]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> Tuple[dict, List[str]]:
    """One benchmark run; returns its result object and printed lines."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1]), lines


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = json.loads(BASELINE.read_text(encoding="ascii")) if BASELINE.exists() else {}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in seeds:
            result, lines = run(workload, seed, spec["run_seconds"], 0)
            digest = next(line for line in lines if line.startswith("digest ")).split()[-1]
            baseline.setdefault("digests", {}).setdefault(workload, {})[str(seed)] = digest
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        recorded = baseline.get("end_to_end", {}).get(workload, {})
        summary = {}
        for name, series in values.items():
            stats = quartiles(series)
            summary[name] = {**stats, "runs": len(series), "values": series}
            verdict = "steady" if stats["spread"] < bounds[name] / 3 else "NOT STEADY"
            change = ""
            if name in recorded:
                change = f", median {stats['median'] / recorded[name]['median'] - 1:+.1%}" \
                         " vs recorded"
            print(f"  {name}: median {stats['median']:.4g} "
                  f"[{stats['q1']:.4g}, {stats['q3']:.4g}], spread "
                  f"{stats['spread']:.3f} (bound {bounds[name]}) {verdict}{change}")
        if args.write:
            baseline.setdefault("end_to_end", {})[workload] = summary
            result, lines = run(workload, DEFAULT_SEED, spec["run_seconds"], 1)
            counts = next(line for line in lines if line.startswith("counts "))
            baseline.setdefault("counters", {})[workload] = {
                "seed": DEFAULT_SEED, "counts": json.loads(counts[len("counts "):]),
            }
            baseline.setdefault("per_layer", {})[workload] = {
                name: metric["value"] for name, metric in result["metrics"].items()
            }
    if args.write:
        baseline["machine"] = {
            "date": time.strftime("%Y-%m-%d"),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        }
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                            encoding="ascii")
        print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
