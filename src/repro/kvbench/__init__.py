"""KVbench-style workload generation, adapters, runner, and reporting."""

from repro.kvbench.distributions import (
    ZipfianGenerator,
    sequential_indices,
    sliding_window_indices,
    uniform_indices,
    zipfian_indices,
)
from repro.kvbench.report import format_series, format_table, sparkline
from repro.kvbench.runner import (
    BlockAdapter,
    HostStoreAdapter,
    KVSSDAdapter,
    RunResult,
    drive_workload,
    execute_workload,
)
from repro.kvbench.workload import (
    Operation,
    OpType,
    Pattern,
    WorkloadSpec,
    generate_operations,
)
from repro.kvbench.ycsb import (
    YCSBDriver,
    YCSBOperation,
    YCSBSpec,
    generate_ycsb,
)

__all__ = [
    "BlockAdapter",
    "HostStoreAdapter",
    "KVSSDAdapter",
    "Operation",
    "OpType",
    "Pattern",
    "RunResult",
    "WorkloadSpec",
    "YCSBDriver",
    "YCSBOperation",
    "YCSBSpec",
    "ZipfianGenerator",
    "generate_ycsb",
    "drive_workload",
    "execute_workload",
    "format_series",
    "format_table",
    "generate_operations",
    "sequential_indices",
    "sliding_window_indices",
    "sparkline",
    "uniform_indices",
    "zipfian_indices",
]
