"""The benchmark's four workloads, each a set-up step and a measured phase.

Every workload is closed loop at a fixed queue depth (the paper's KVbench
method) and is built only from the simulator's public entry points: the
``core.experiment`` rig builders, the untimed fills, the ``kvbench``
generators and trace I/O, and ``execute_workload``.  The seed picks the
generated inputs; the same seed always gives the same inputs and, the
simulator being deterministic, the same simulated outputs.

``scale`` multiplies operation counts (and the simulated-time limit) so
the self-tests can run each workload as a toy.  The benchmark itself
always runs at scale 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.experiment import (  # noqa: E402
    build_block_rig,
    build_kv_rig,
    build_lsm_rig,
    lab_geometry,
)
from repro.kvbench.generators import (  # noqa: E402
    ChurnSpec,
    ExpirySpec,
    ScanMixSpec,
    generate_churn,
    generate_expiry,
    generate_scan_mix,
)
from repro.kvbench.runner import RunResult, execute_workload  # noqa: E402
from repro.kvbench.traces import (  # noqa: E402
    TraceWorkload,
    merge_traces,
    read_trace,
    write_trace,
)
from repro.kvbench.workload import (  # noqa: E402
    Pattern,
    WorkloadSpec,
    generate_operations,
)
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec  # noqa: E402
from repro.kvftl.blob import blobs_per_page  # noqa: E402
from repro.kvftl.config import KVSSDConfig  # noqa: E402
from repro.kvftl.population import KeyScheme  # noqa: E402
from repro.units import MIB  # noqa: E402

from spans import Spans  # noqa: E402

#: Scratch space for files a workload writes (the replay trace).
OUT_DIR = ROOT / ".perfbench"

VALUE_BYTES = 4096
FILL_SCHEME = KeyScheme(prefix=b"fill", digits=12)
#: 16-byte keys, the paper's macro-benchmark key size.
PAPER_SCHEME = KeyScheme(prefix=b"key-", digits=12)
#: Simulated-time ceiling on a drain, as the figure cells use.
DRAIN_LIMIT_US = 600e6
#: Operations between two laps: a few host milliseconds of simulation.
LAP_OPS = 16


class Laps:
    """Host-time marks at fixed points of a measured phase's work.

    A mark is taken every ``LAP_OPS`` operations the closed loop takes
    from its stream, and after each step that is not an operation
    stream (a drain, a trace parse).  The simulator is deterministic, so
    lap ``i`` holds the same work in every repetition of a workload and
    seed, and laps of different repetitions can be compared one by one.
    """

    def __init__(self) -> None:
        self.marks: List[float] = []

    def mark(self) -> None:
        self.marks.append(time.perf_counter())

    def every(self, ops: Iterable) -> Iterator:
        """``ops``, marking before every ``LAP_OPS``-th one is taken."""
        for i, op in enumerate(ops):
            if i % LAP_OPS == 0:
                self.marks.append(time.perf_counter())
            yield op

    def durations(self) -> List[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


@dataclass
class Cell:
    """A set-up workload: the rigs it runs on and its measured phase."""

    rigs: List[object]
    #: Runs the measured phase, marking its laps.
    measure: Callable[[Laps], List[RunResult]]
    #: Files the set-up wrote, removed once the repetition ends.
    scratch: List[Path] = field(default_factory=list)


def _seeded(seed: int, stream: int) -> int:
    """Generator seed for input stream ``stream`` of benchmark seed ``seed``."""
    return seed * 1000 + stream


def _ops(spans: Spans, spec: WorkloadSpec) -> list:
    with spans.span("kvbench.generate", "generate_operations"):
        return list(generate_operations(spec))


def _execute(spans: Spans, laps: Laps, rig, adapter, ops, queue_depth: int,
             name: str, **kwargs) -> RunResult:
    with spans.span("kvbench.execute", "execute_workload"):
        result = execute_workload(rig.env, adapter, laps.every(ops),
                                  queue_depth=queue_depth, name=name, **kwargs)
    laps.mark()
    return result


def _drain(spans: Spans, laps: Laps, rig, target, span: str) -> None:
    with spans.span(span, f"{type(target).__name__}.drain"):
        process = rig.env.process(target.drain())
        rig.env.run_until_complete(process, limit=rig.env.now + DRAIN_LIMIT_US)
    laps.mark()


# ---------------------------------------------------------------------------
# direct-io: the fig4 / bench_engine cell at QD1 and QD64
# ---------------------------------------------------------------------------

DIRECT_OPS = 3000
DIRECT_BLOCKS_PER_PLANE = 64
DIRECT_QUEUE_DEPTHS = (1, 64)


def direct_io(seed: int, scale: float, spans: Spans) -> Cell:
    """Prefilled KV (55% of pages) and block (70%) devices, each running
    uniform 4 KiB updates then reads, at QD1 and at QD64."""
    n_ops = max(8, int(DIRECT_OPS * scale))
    rigs = []
    phases = []  # (rig, adapter, queue_depth, tag, [update ops, read ops])
    for queue_depth in DIRECT_QUEUE_DEPTHS:
        with spans.span("core.build_rig", "build_kv_rig"):
            kv = build_kv_rig(
                lab_geometry(DIRECT_BLOCKS_PER_PLANE),
                config=KVSSDConfig(index_dram_bytes=64 * MIB),
            )
        layout = kv.device.layout_for(FILL_SCHEME.key_bytes, VALUE_BYTES)
        per_page = kv.device.usable_page // layout.footprint_bytes
        pages = kv.device.free_block_count() * kv.device.array.geometry.pages_per_block
        kv_population = int(pages * 0.55) * per_page
        with spans.span("kvftl.fast_fill", "KVSSD.fast_fill"):
            kv.device.fast_fill(kv_population, VALUE_BYTES, FILL_SCHEME)

        with spans.span("core.build_rig", "build_block_rig"):
            block = build_block_rig(lab_geometry(DIRECT_BLOCKS_PER_PLANE))
        adapter = block.adapter(VALUE_BYTES)
        block_population = int(
            block.device.user_capacity_bytes * 0.7 // adapter.io_bytes
        )
        fill_units = block_population * adapter.io_bytes // block.device.map_unit
        with spans.span("blockftl.prime_fill", "BlockSSD.prime_sequential_fill"):
            block.device.prime_sequential_fill(min(fill_units, block.device.n_units))
        rigs += [kv, block]

        for tag, rig, dev_adapter, population, scheme in (
            ("kv", kv, kv.adapter, kv_population, FILL_SCHEME),
            ("blk", block, adapter, block_population, KeyScheme()),
        ):
            streams = [
                _ops(spans, WorkloadSpec(
                    n_ops=n_ops, op=op, pattern=Pattern.UNIFORM,
                    population=population, key_scheme=scheme,
                    value_bytes=VALUE_BYTES, seed=_seeded(seed, stream),
                ))
                for stream, op in ((1, "update"), (2, "read"))
            ]
            phases.append((rig, dev_adapter, queue_depth, tag, streams))

    def measure(laps: Laps) -> List[RunResult]:
        runs = []
        for rig, dev_adapter, queue_depth, tag, streams in phases:
            for op, ops in zip(("update", "read"), streams):
                runs.append(_execute(spans, laps, rig, dev_adapter, ops, queue_depth,
                                     f"direct.{tag}.qd{queue_depth}.{op}"))
                _drain(spans, laps, rig, rig.device, "ftl.drain")
        return runs

    return Cell(rigs, measure)


# ---------------------------------------------------------------------------
# gc-collapse: the fig6 kv-uniform cell
# ---------------------------------------------------------------------------

#: Half the fig6 device, so that a repetition takes a few host seconds;
#: GC still starts once the free space is written over.
GC_BLOCKS_PER_PLANE = 4
GC_FILL_FRACTION = 0.8
GC_QUEUE_DEPTH = 16
GC_STOP_US = 45e6


def gc_collapse(seed: int, scale: float, spans: Spans) -> Cell:
    """KV device filled to 80% of its physical page capacity, then
    uniform 4 KiB updates at QD16, stopped at 45 s of simulated time."""
    geometry = lab_geometry(GC_BLOCKS_PER_PLANE)
    with spans.span("core.build_rig", "build_kv_rig"):
        rig = build_kv_rig(geometry)
    # "80% full" is physical, as in Fig. 6: page capacity less the
    # allocation-stream and GC margin, at the packed blobs-per-page.
    per_page = blobs_per_page(
        FILL_SCHEME.key_bytes, VALUE_BYTES, geometry.page_bytes, rig.device.config
    )
    fill_blocks = rig.device.free_block_count() - (rig.device.config.stream_width + 16)
    fill_kvps = int(fill_blocks * geometry.pages_per_block * per_page * GC_FILL_FRACTION)
    with spans.span("kvftl.fast_fill", "KVSSD.fast_fill"):
        rig.device.fast_fill(fill_kvps, VALUE_BYTES, FILL_SCHEME)
    ops = _ops(spans, WorkloadSpec(
        n_ops=max(8, int(fill_kvps * 0.55 * scale)), op="update",
        pattern=Pattern.UNIFORM, population=fill_kvps, key_scheme=FILL_SCHEME,
        value_bytes=VALUE_BYTES, seed=_seeded(seed, 1),
    ))

    def measure(laps: Laps) -> List[RunResult]:
        return [_execute(spans, laps, rig, rig.adapter, ops, GC_QUEUE_DEPTH,
                         "gc.update", stop_after_us=GC_STOP_US * scale)]

    return Cell([rig], measure)


# ---------------------------------------------------------------------------
# replay-scan: the bench_replay cell, scaled up
# ---------------------------------------------------------------------------

REPLAY_POPULATION = 20480
REPLAY_BASE_OPS = 5000
REPLAY_TTL_OPS = 1500
#: QD1, not bench_replay's QD8: the trace is consistent only in order.
#: At QD8 a read and the expiry delete of its key can be in flight
#: together, and the delete may land first (seed 4 misses one read).
REPLAY_QUEUE_DEPTH = 1
REPLAY_BLOCKS_PER_PLANE = 32
SCAN_FRACTION = 0.15
SCAN_LENGTH = 16


def replay_scan(seed: int, scale: float, spans: Spans) -> Cell:
    """Churn + TTL-expiry + 15%-scan trace, written during set-up, then
    parsed with ``read_trace`` and replayed on a KV rig at QD1."""
    population = max(64, int(REPLAY_POPULATION * scale))
    base_ops = max(16, int(REPLAY_BASE_OPS * scale))
    ttl_ops = max(8, int(REPLAY_TTL_OPS * scale))
    with spans.span("core.build_rig", "build_kv_rig"):
        rig = build_kv_rig(
            lab_geometry(REPLAY_BLOCKS_PER_PLANE),
            config=KVSSDConfig(index_dram_bytes=64 * MIB),
        )
    with spans.span("kvftl.fast_fill", "KVSSD.fast_fill"):
        rig.device.fast_fill(population, VALUE_BYTES, FILL_SCHEME)
    with spans.span("kvbench.generate", "generate_churn+scan_mix+expiry"):
        churn = generate_churn(ChurnSpec(
            n_ops=base_ops // 2, population=population,
            working_set=max(1, population // 16),
            rotate_every_ops=max(1, base_ops // 10), value_bytes=VALUE_BYTES,
            key_scheme=FILL_SCHEME, seed=_seeded(seed, 1),
        ))
        scans = generate_scan_mix(ScanMixSpec(
            n_ops=base_ops // 2, population=population,
            scan_fraction=SCAN_FRACTION, scan_length=SCAN_LENGTH,
            value_bytes=VALUE_BYTES, key_scheme=FILL_SCHEME, seed=_seeded(seed, 2),
        ))
        expiry = generate_expiry(ExpirySpec(
            n_ops=ttl_ops, population=max(1, population // 8), ttl_us=20_000.0,
            value_bytes=VALUE_BYTES,
            interarrival_us=(base_ops // 2) * 100.0 / ttl_ops,
            key_scheme=KeyScheme(prefix=b"ttl-", digits=12), seed=_seeded(seed, 3),
        ))
        records = merge_traces(churn, scans, expiry)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"replay-{os.getpid()}.kvt.gz"
    with spans.span("kvbench.generate", "write_trace"):
        write_trace(str(path), records)

    def measure(laps: Laps) -> List[RunResult]:
        with spans.span("kvbench.trace_read", "read_trace"):
            parsed = read_trace(str(path))
        laps.mark()
        workload = TraceWorkload(parsed, key_scheme=FILL_SCHEME)
        driver = YCSBDriver(rig.adapter, YCSBSpec(
            workload="E", n_ops=len(parsed), population=population,
            key_scheme=FILL_SCHEME, value_bytes=VALUE_BYTES,
            scan_length=SCAN_LENGTH, seed=_seeded(seed, 4),
        ))
        runs = [_execute(spans, laps, rig, driver, workload.operations(),
                         REPLAY_QUEUE_DEPTH, "replay")]
        _drain(spans, laps, rig, rig.device, "ftl.drain")
        return runs

    return Cell([rig], measure, scratch=[path])


# ---------------------------------------------------------------------------
# lsm-host: the RocksDB stand-in on ext4 on a block device
# ---------------------------------------------------------------------------

LSM_PAIRS = 20_000
LSM_UPDATES = 5000
LSM_READS = 5000
LSM_QUEUE_DEPTH = 16


def lsm_host(seed: int, scale: float, spans: Spans) -> Cell:
    """20k x 4 KiB pairs primed at level 3, then uniform updates and
    reads at QD16; the working set far exceeds the 10 MB block cache."""
    pairs = max(64, int(LSM_PAIRS * scale))
    with spans.span("core.build_rig", "build_lsm_rig"):
        rig = build_lsm_rig(lab_geometry())
    entries = {PAPER_SCHEME.key_for(i): VALUE_BYTES for i in range(pairs)}
    with spans.span("hostkv.prime_fill", "LSMStore.prime_fill"):
        rig.store.prime_fill(entries, level=3)
    streams = [
        _ops(spans, WorkloadSpec(
            n_ops=max(8, int(n * scale)), op=op, pattern=Pattern.UNIFORM,
            population=pairs, key_scheme=PAPER_SCHEME, value_bytes=VALUE_BYTES,
            seed=_seeded(seed, stream),
        ))
        for stream, op, n in ((1, "update", LSM_UPDATES), (2, "read", LSM_READS))
    ]

    def measure(laps: Laps) -> List[RunResult]:
        runs = [_execute(spans, laps, rig, rig.adapter, streams[0], LSM_QUEUE_DEPTH,
                         "lsm.update")]
        _drain(spans, laps, rig, rig.store, "hostkv.drain")
        runs.append(_execute(spans, laps, rig, rig.adapter, streams[1], LSM_QUEUE_DEPTH,
                             "lsm.read"))
        return runs

    return Cell([rig], measure)


#: Workload name -> set-up function.  Why each workload is in the
#: benchmark is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Callable[[int, float, Spans], Cell]] = {
    "direct-io": direct_io,
    "gc-collapse": gc_collapse,
    "replay-scan": replay_scan,
    "lsm-host": lsm_host,
}


# ---------------------------------------------------------------------------
# Outputs: counters and the correctness digest
# ---------------------------------------------------------------------------


def rig_counters(rig) -> Dict[str, object]:
    """Snapshot of one rig's counters, for measured-phase deltas."""
    store = getattr(rig, "store", None)
    return {
        "events": rig.env.processed_events,
        "commands": rig.driver.commands_submitted,
        "stats": rig.device.stats.snapshot(),
        "compactions": getattr(store, "compactions_run", 0),
        "cache_hits": store.cache.hits if store is not None else 0,
        "cache_misses": store.cache.misses if store is not None else 0,
    }


def digest(runs: List[RunResult], rigs: List[object],
           before: List[Dict[str, object]]) -> str:
    """Hash of a measured phase's simulated outputs.

    Covers each run's completed/failed counts and per-op latency
    summaries, each rig's DeviceStats delta over the phase and its final
    simulated clock.  Engine-event and Python-call counts are left out,
    so a change that only speeds up the simulator keeps the digest.
    """
    outputs = {
        "runs": [
            {
                "name": run.latency.name,
                "completed": run.completed_ops,
                "failed": run.failed_ops,
                "latency": {
                    label: run.latency.summary(label).as_dict()
                    for label in run.latency.labels()
                },
            }
            for run in runs
        ],
        "rigs": [
            {
                "now_us": rig.env.now,
                "stats": asdict(rig.device.stats.delta(snap["stats"])),
            }
            for rig, snap in zip(rigs, before)
        ],
    }
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def block_bytes(rig) -> int:
    geometry = rig.device.array.geometry
    return geometry.pages_per_block * geometry.page_bytes


def cleanup(cell: Optional[Cell]) -> None:
    if cell is not None:
        for path in cell.scratch:
            path.unlink(missing_ok=True)
