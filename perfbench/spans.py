"""In-memory spans around the benchmark's calls into the simulator.

A span records one call the benchmark makes into a layer: its name, the
host-time interval it covered, the span that was open when it started
(its parent) and the workload it belongs to.  Spans live in a list until
the run ends, when the caller writes them out as JSON; nothing inside the
simulator is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional


class Spans:
    """Span recorder for one repetition of one workload.

    A disabled recorder hands out no-op context managers, so the
    untraced runs that produce the end-to-end metrics pay one attribute
    lookup per span site and nothing else.
    """

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.records: List[Dict[str, object]] = []
        self._open: List[int] = []

    def span(self, name: str, call: str = ""):
        """Context manager timing one call as span ``name``."""
        if not self.enabled:
            return nullcontext()
        return self._record(name, call or name)

    @contextmanager
    def _record(self, name: str, call: str) -> Iterator[None]:
        record: Dict[str, object] = {
            "id": len(self.records),
            "name": name,
            "call": call,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])  # type: ignore[arg-type]
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


def nesting_errors(records: List[Dict[str, object]]) -> List[str]:
    """Spans whose parent is missing or does not enclose them."""
    by_id: Dict[object, Dict[str, object]] = {r["id"]: r for r in records}
    errors = []
    for record in records:
        parent_id: Optional[object] = record["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(f"span {record['id']} names missing parent {parent_id}")
        elif not (
            parent["start"] <= record["start"]  # type: ignore[operator]
            and record["end"] <= parent["end"]  # type: ignore[operator]
            and parent["workload"] == record["workload"]
        ):
            errors.append(f"span {record['id']} lies outside parent {parent_id}")
    return errors
