"""Split a cProfile run's self time and calls by ``repro/<pkg>/`` package."""

from __future__ import annotations

import cProfile
import os
import pstats
from pathlib import Path
from typing import Dict

#: The ``repro/<pkg>/`` packages the measured phase runs in; every other
#: function (standard library, builtins, this harness, other repro
#: modules) falls in ``other``.
PACKAGES = (
    "sim", "ftl", "flash", "kvftl", "blockftl", "hostkv",
    "nvme", "api", "kvbench", "trace", "metrics",
)

_REPRO_DIR = str(Path(__file__).resolve().parent.parent / "src" / "repro") + os.sep


def package_of(filename: str) -> str:
    """The profile bucket for a function defined in ``filename``."""
    if not filename.startswith(_REPRO_DIR):
        return "other"
    head = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
    return head if head in PACKAGES else "other"


def split_profile(profile: cProfile.Profile) -> Dict[str, object]:
    """Self time and call counts aggregated by package.

    Calls count calls into a package's own functions.  Self time also
    charges each builtin or standard-library function to the package of
    its direct caller (``heapq`` under the engine is engine time), so the
    buckets partition the profiled time.
    """
    self_s = {pkg: 0.0 for pkg in PACKAGES + ("other",)}
    calls = {pkg: 0 for pkg in PACKAGES + ("other",)}
    total_calls = 0
    for func, (_cc, nc, tt, _ct, callers) in pstats.Stats(profile).stats.items():
        total_calls += nc
        owner = package_of(func[0])
        if owner != "other":
            self_s[owner] += tt
            calls[owner] += nc
            continue
        calls["other"] += nc
        charged = 0.0
        for caller, caller_stats in callers.items():
            share = caller_stats[2]
            self_s[package_of(caller[0])] += share
            charged += share
        self_s["other"] += tt - charged
    return {"self_s": self_s, "calls": calls, "total_calls": total_calls}
