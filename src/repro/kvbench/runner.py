"""Queue-depth workload runner and store adapters.

The runner plays an operation stream against any storage stack at a fixed
queue depth — the paper's asynchronous-I/O methodology ("KVPs are accessed
asynchronously", Sec. III).  ``queue_depth`` workers each hold one
operation in flight, sharing one stream, so device-side concurrency equals
the configured depth exactly.

Adapters translate :class:`~repro.kvbench.workload.Operation` items to
each stack's API:

* :class:`KVSSDAdapter` — SNIA KVS API on the KV device;
* :class:`HostStoreAdapter` — the RocksDB and Aerospike stand-ins;
* :class:`BlockAdapter` — raw block I/O with the same sizes and order
  (the paper's direct-I/O baseline: key index -> device offset).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Iterable, Iterator, Optional, Union

from repro.api.block import BlockDeviceAPI
from repro.api.kvs import KVStoreAPI
from repro.blockftl.device import BlockSSD
from repro.errors import DeviceError, WorkloadError
from repro.ftl.core import DeviceStats
from repro.hostkv.hashkv.store import HashKVStore
from repro.hostkv.lsm.store import LSMStore
from repro.kvbench.workload import Operation, OpType
from repro.metrics.bandwidth import BandwidthTracker
from repro.metrics.latency import LatencyRecorder
from repro.sim.engine import Environment, Event
from repro.units import align_up


class KVSSDAdapter:
    """Run operations through the SNIA KVS API."""

    def __init__(self, api: KVStoreAPI) -> None:
        self.api = api
        #: Underlying device, for uniform DeviceStats capture.
        self.device = api.device

    def execute(self, op: Operation) -> Generator[Event, None, int]:
        if op.op in (OpType.INSERT, OpType.UPDATE):
            yield from self.api.store(op.key, op.value_bytes)
            return len(op.key) + op.value_bytes
        if op.op is OpType.READ:
            value = yield from self.api.retrieve(op.key)
            return value
        if op.op is OpType.DELETE:
            yield from self.api.delete(op.key)
            return len(op.key)
        raise WorkloadError(f"unsupported op {op.op}")


class HostStoreAdapter:
    """Run operations through a host-side store (LSM or hash index).

    Both host stores expose the same ``put``/``get``/``delete``
    generators, so one adapter serves the RocksDB and Aerospike stand-ins.
    """

    def __init__(self, store: Union[LSMStore, HashKVStore], device: BlockSSD) -> None:
        self.store = store
        #: The block device under the store, for DeviceStats capture.
        self.device = device

    def execute(self, op: Operation) -> Generator[Event, None, int]:
        if op.op in (OpType.INSERT, OpType.UPDATE):
            yield from self.store.put(op.key, op.value_bytes)
            return len(op.key) + op.value_bytes
        if op.op is OpType.READ:
            value = yield from self.store.get(op.key)
            return value
        if op.op is OpType.DELETE:
            yield from self.store.delete(op.key)
            return len(op.key)
        raise WorkloadError(f"unsupported op {op.op}")


class BlockAdapter:
    """Run the same sizes and order as raw block I/O.

    Key index ``i`` maps to device offset ``i * slot`` where ``slot`` is
    the sector-aligned I/O size — the layout a direct-I/O benchmark uses.
    """

    def __init__(self, api: BlockDeviceAPI, io_bytes: int) -> None:
        if io_bytes < 1:
            raise WorkloadError(f"io size must be >= 1, got {io_bytes}")
        self.api = api
        #: Underlying device, for uniform DeviceStats capture.
        self.device = api.device
        self.io_bytes = align_up(io_bytes, api.device.config.sector_bytes)
        self.slots = api.device.user_capacity_bytes // self.io_bytes
        if self.slots < 1:
            raise WorkloadError("I/O size exceeds device capacity")

    def _offset(self, key_index: int) -> int:
        return (key_index % self.slots) * self.io_bytes

    def execute(self, op: Operation) -> Generator[Event, None, int]:
        offset = self._offset(op.key_index)
        if op.op in (OpType.INSERT, OpType.UPDATE):
            yield from self.api.write(offset, self.io_bytes)
            return self.io_bytes
        if op.op is OpType.READ:
            yield from self.api.read(offset, self.io_bytes)
            return self.io_bytes
        if op.op is OpType.DELETE:
            yield from self.api.deallocate(offset, self.io_bytes)
            return 0
        raise WorkloadError(f"unsupported op {op.op}")


@dataclass
class RunResult:
    """Everything a measured phase produced."""

    latency: LatencyRecorder
    bandwidth: BandwidthTracker
    started_us: float = 0.0
    finished_us: float = 0.0
    completed_ops: int = 0
    failed_ops: int = 0
    extras: dict = field(default_factory=dict)
    #: Device telemetry delta over the measured phase — the same
    #: DeviceStats struct regardless of which personality ran underneath.
    device_stats: Optional[DeviceStats] = None
    #: Per-op-type latency attribution (``LatencyBreakdown.summary()``)
    #: when the device ran with op tracing enabled; ``None`` otherwise.
    trace_summary: Optional[dict] = None

    @property
    def elapsed_us(self) -> float:
        return self.finished_us - self.started_us

    def throughput_kops(self) -> float:
        """Completed operations per millisecond of simulated time."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.completed_ops / (self.elapsed_us / 1000.0)


def drive_workload(
    env: Environment,
    adapter,
    operations: Iterable[Operation],
    queue_depth: int = 1,
    bandwidth_window_us: float = 50_000.0,
    name: str = "run",
    stop_after_us: float = float("inf"),
) -> Generator[Event, None, RunResult]:
    """Generator process executing ``operations`` at ``queue_depth``.

    Latencies are recorded under each operation's ``label`` (its op type
    for generated workloads); completions feed a windowed
    bandwidth tracker.  Failed operations (device errors, absent keys)
    are counted, not raised — a benchmark keeps going like fio does.
    ``stop_after_us`` bounds the measured phase in simulated time: once
    the deadline passes, workers stop taking new operations (a duration-
    bounded run, like fio's ``runtime=``), recorded in ``extras``.
    """
    if queue_depth < 1:
        raise WorkloadError(f"queue depth must be >= 1, got {queue_depth}")
    result = RunResult(
        latency=LatencyRecorder(name),
        bandwidth=BandwidthTracker(bandwidth_window_us, name),
        started_us=env.now,
    )
    deadline = env.now + stop_after_us
    device = getattr(adapter, "device", None)
    stats_before = device.stats.snapshot() if device is not None else None
    stream: Iterator[Operation] = iter(operations)

    def worker() -> Generator[Event, None, None]:
        for op in stream:
            if env.now >= deadline:
                result.extras["stopped_early"] = True
                return
            started = env.now
            try:
                nbytes = yield env.process(adapter.execute(op))
            except DeviceError:
                result.failed_ops += 1
                continue
            result.latency.record(env.now - started, op.label)
            result.bandwidth.record(env.now, nbytes or 0)
            result.completed_ops += 1

    workers = [
        env.process(worker(), name=f"{name}.w{i}") for i in range(queue_depth)
    ]
    yield env.all_of(workers)
    result.finished_us = env.now
    result.bandwidth.finish(env.now)
    if stats_before is not None:
        result.device_stats = device.stats.delta(stats_before)
    tracer = getattr(device, "tracer", None)
    if tracer is not None and tracer.enabled and tracer.wants("op"):
        from repro.metrics.attribution import LatencyBreakdown

        result.trace_summary = LatencyBreakdown.from_records(
            tracer.collector.records(),
            pid=tracer.pid,
            since_us=result.started_us,
            name=name,
        ).summary()
    return result


def execute_workload(
    env: Environment,
    adapter,
    operations: Iterable[Operation],
    queue_depth: int = 1,
    bandwidth_window_us: float = 50_000.0,
    name: str = "run",
    stop_after_us: float = float("inf"),
) -> RunResult:
    """Convenience wrapper: run :func:`drive_workload` to completion."""
    process = env.process(
        drive_workload(
            env,
            adapter,
            operations,
            queue_depth,
            bandwidth_window_us,
            name,
            stop_after_us,
        ),
        name=name,
    )
    return env.run_until_complete(process)
