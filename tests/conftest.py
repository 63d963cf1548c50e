"""Shared pytest configuration plus the miniature figure-case registry.

The smoke suite (`test_figures_smoke.py`) and the golden suite
(`test_golden_figures.py`) exercise the same experiments at the same
miniature scale; before the registry each suite re-invoked the figure
functions with its own copy of the parameters, so the invocations
drifted apart and every run was paid twice.  A figure now registers here
once — ``run`` builds the mini result, ``metrics`` reduces it to the
flat dict the golden suite diffs — and :func:`figure_result` memoizes
the run so both suites share one execution per pytest session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Union

import pytest

from repro.core.figures import (
    cluster_rebalance_tail,
    fig2_end_to_end,
    fig3_index_occupancy,
    fig4_value_size_concurrency,
    fig5_packing_bandwidth,
    fig6_foreground_gc,
    fig7_space_amplification,
    fig8_key_size_bandwidth,
    replay_rotation,
    replay_ttl_scan_mix,
)
from repro.frontend.run import frontend_load_sweep
from repro.units import KIB

Metric = Union[int, float]


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from live runs instead of "
        "diffing against them",
    )


@pytest.fixture
def regen_golden(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--regen-golden"))


# -- miniature figure-case registry --------------------------------------


@dataclass(frozen=True)
class FigureCase:
    """One miniature figure run shared by the smoke and golden suites."""

    name: str
    #: Invoke the experiment at its smallest meaningful scale.
    run: Callable[[], Any]
    #: Reduce the result to the flat metric dict the golden suite diffs.
    metrics: Callable[[Any], Dict[str, Metric]]


FIGURE_CASES: Dict[str, FigureCase] = {}
_RESULTS: Dict[str, Any] = {}


def register_figure(
    name: str,
    run: Callable[[], Any],
    metrics: Callable[[Any], Dict[str, Metric]],
) -> None:
    if name in FIGURE_CASES:
        raise ValueError(f"figure case {name!r} registered twice")
    FIGURE_CASES[name] = FigureCase(name, run, metrics)


def figure_result(name: str) -> Any:
    """The memoized result of one registered miniature figure run."""
    if name not in _RESULTS:
        _RESULTS[name] = FIGURE_CASES[name].run()
    return _RESULTS[name]


# -- case definitions ----------------------------------------------------


def _fig2_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for system in ("kvssd", "rocksdb"):
        for phase in ("insert", "update", "read"):
            metrics[f"{system}.rand.{phase}_us"] = (
                result.latency_us[system]["rand"][phase]
            )
        metrics[f"{system}.cpu_us_per_op"] = result.cpu_us_per_op[system]
    metrics["rocksdb_over_kv.insert"] = (
        result.latency_us["rocksdb"]["rand"]["insert"]
        / result.latency_us["kvssd"]["rand"]["insert"]
    )
    return metrics


register_figure(
    "fig2",
    lambda: fig2_end_to_end(
        n_ops=250,
        queue_depth=8,
        systems=("kvssd", "rocksdb"),
        patterns=("seq", "rand"),
        blocks_per_plane=8,
    ),
    _fig2_metrics,
)


def _fig3_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {
        "low_kvps": result.low_kvps,
        "high_kvps": result.high_kvps,
    }
    for device in ("kv", "block"):
        for occupancy in ("low", "high"):
            for op in ("read", "write"):
                metrics[f"{device}.{occupancy}.{op}_us"] = (
                    result.latency_us[device][occupancy][op]
                )
    metrics["kv.read_degradation"] = (
        result.latency_us["kv"]["high"]["read"]
        / result.latency_us["kv"]["low"]["read"]
    )
    return metrics


register_figure(
    "fig3",
    lambda: fig3_index_occupancy(
        value_bytes=512,
        low_fraction=0.0005,
        high_fraction=0.5,
        measured_ops=200,
        blocks_per_plane=8,
    ),
    _fig3_metrics,
)


def _fig4_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for op in ("read", "write"):
        for qd in (1, 64):
            metrics[f"ratio.{op}.qd{qd}"] = result.ratio[op][qd][4096]
            metrics[f"kv.{op}.qd{qd}_us"] = (
                result.latency_us["kv"][op][qd][4096]
            )
    return metrics


register_figure(
    "fig4",
    lambda: fig4_value_size_concurrency(
        value_sizes=(4 * KIB,),
        queue_depths=(1, 64),
        n_ops=200,
        blocks_per_plane=8,
    ),
    _fig4_metrics,
)


def _fig5_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for size in (24 * KIB, 25 * KIB):
        metrics[f"kv.{size}.mib_s"] = result.kv_mib_s[size]
        metrics[f"block.{size}.mib_s"] = result.block_mib_s[size]
        metrics[f"kv.{size}.fragments"] = result.kv_fragments[size]
    return metrics


register_figure(
    "fig5",
    lambda: fig5_packing_bandwidth(
        value_sizes=(24 * KIB, 25 * KIB),
        n_ops=200,
        queue_depth=32,
        blocks_per_plane=8,
    ),
    _fig5_metrics,
)


def _fig6_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for scenario in ("kv-uniform", "rocksdb-uniform"):
        metrics[f"{scenario}.foreground_gc_runs"] = (
            result.foreground_gc_runs[scenario]
        )
        metrics[f"{scenario}.waf"] = result.stats_summary[scenario]["waf"]
        metrics[f"{scenario}.gc_moved_mib"] = (
            result.stats_summary[scenario]["gc_moved_mib"]
        )
        metrics[f"{scenario}.p99_us"] = (
            result.latency_summary[scenario]["p99"]
        )
        series = result.series[scenario]
        metrics[f"{scenario}.series_len"] = len(series)
        metrics[f"{scenario}.series_min"] = min(series)
        metrics[f"{scenario}.series_max"] = max(series)
    return metrics


register_figure(
    "fig6",
    lambda: fig6_foreground_gc(
        blocks_per_plane=4, scenarios=("kv-uniform", "rocksdb-uniform"),
    ),
    _fig6_metrics,
)


def _fig7_metrics(result: Any) -> Dict[str, Metric]:
    sizes = (50, 1024, 4096)
    metrics: Dict[str, Metric] = {
        "max_kvps_full_scale": result.max_kvps_full_scale,
        "rocksdb.sa": result.sa["rocksdb"][sizes[0]],
    }
    for size in sizes:
        metrics[f"kvssd.{size}.sa"] = result.sa["kvssd"][size]
        metrics[f"kvssd.{size}.analytic"] = result.kv_analytic[size]
        metrics[f"aerospike.{size}.sa"] = result.sa["aerospike"][size]
    return metrics


register_figure(
    "fig7",
    lambda: fig7_space_amplification(
        value_sizes=(50, 1024, 4096), kvps=3000, blocks_per_plane=8
    ),
    _fig7_metrics,
)


def _fig8_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for key_bytes in (16, 24):
        metrics[f"commands.k{key_bytes}"] = result.commands[key_bytes]
        for mode in ("sync", "async"):
            metrics[f"{mode}.k{key_bytes}.mib_s"] = (
                result.mib_s[mode][key_bytes]
            )
    metrics["cliff_ratio.sync"] = result.cliff_ratio("sync")
    metrics["cliff_ratio.async"] = result.cliff_ratio("async")
    return metrics


register_figure(
    "fig8",
    lambda: fig8_key_size_bandwidth(
        key_sizes=(16, 24), n_ops=400, blocks_per_plane=8
    ),
    _fig8_metrics,
)


#: Mini frontend sweep: one load on the device-bound plateau, one far
#: past saturation — enough to pin the knee shape without the full curve.
FRONTEND_MINI_LOADS = (16.0, 384.0)
FRONTEND_MINI_REQUESTS = 240


def _fig_frontend_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for cls in result.class_names:
        for load in result.loads_kops:
            tag = f"{cls}.{load:g}k"
            metrics[f"{tag}.p50_us"] = result.p50[cls][load]
            metrics[f"{tag}.p99_us"] = result.p99[cls][load]
            metrics[f"{tag}.p999_us"] = result.p999[cls][load]
            metrics[f"{tag}.queue_p99_us"] = result.queue_p99[cls][load]
            metrics[f"{tag}.shed_fraction"] = result.shed_fraction[cls][load]
            metrics[f"{tag}.violation_fraction"] = (
                result.violation_fraction[cls][load]
            )
    for load in result.loads_kops:
        metrics[f"throughput.{load:g}k"] = result.throughput_kops[load]
        metrics[f"mean_batch.{load:g}k"] = result.mean_batch[load]
    knee = result.knee_kops()
    metrics["knee_kops"] = -1.0 if knee is None else knee
    return metrics


register_figure(
    "fig_frontend",
    lambda: frontend_load_sweep(
        loads_kops=FRONTEND_MINI_LOADS,
        n_requests=FRONTEND_MINI_REQUESTS,
        blocks_per_plane=8,
    ),
    _fig_frontend_metrics,
)


#: Mini replay cases mirror the ``repro replay --smoke`` parameters, so
#: the goldens pin exactly what CI's smoke job executes.
REPLAY_MINI_ROTATES = (0, 64)
REPLAY_MINI_VARIANTS = ("plain", "ttl+scan")


def _fig_replay_rotation_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for device in ("kv", "block"):
        for rotate in REPLAY_MINI_ROTATES:
            tag = f"{device}.rot{rotate}"
            latency = result.latency_us[device][rotate]
            metrics[f"{tag}.mean_us"] = latency["mean"]
            metrics[f"{tag}.p99_us"] = latency["p99"]
            metrics[f"{tag}.p999_us"] = latency["p999"]
            metrics[f"{tag}.waf"] = result.stats_summary[device][rotate]["waf"]
            metrics[f"{tag}.completed"] = result.completed_ops[device][rotate]
        metrics[f"{device}.rotation_penalty"] = result.rotation_penalty(device)
    return metrics


register_figure(
    "fig_replay_rotation",
    lambda: replay_rotation(
        rotate_every=REPLAY_MINI_ROTATES,
        n_ops=200,
        population=512,
        working_set=64,
        blocks_per_plane=8,
    ),
    _fig_replay_rotation_metrics,
)


def _fig_replay_mix_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for variant in REPLAY_MINI_VARIANTS:
        latency = result.latency_us[variant]
        ops = result.ops[variant]
        buckets = result.buckets[variant]
        metrics[f"{variant}.p99_us"] = latency["p99"]
        metrics[f"{variant}.read_p99_us"] = latency["read_p99"]
        metrics[f"{variant}.read_p999_us"] = latency["read_p999"]
        metrics[f"{variant}.completed"] = ops["completed"]
        metrics[f"{variant}.failed"] = ops["failed"]
        metrics[f"{variant}.deletes"] = ops["deletes"]
        metrics[f"{variant}.scans"] = ops["scans"]
        metrics[f"{variant}.bucket_keys"] = buckets["keys"]
        metrics[f"{variant}.bucket_count"] = buckets["count"]
        metrics[f"{variant}.bucket_page_writes"] = buckets["page_writes"]
        metrics[f"{variant}.waf"] = result.stats_summary[variant]["waf"]
    metrics["tail_inflation.ttl+scan"] = result.tail_inflation("ttl+scan")
    return metrics


register_figure(
    "fig_replay_mix",
    lambda: replay_ttl_scan_mix(
        variants=REPLAY_MINI_VARIANTS,
        n_ops=200,
        population=400,
        ttl_ops=120,
        blocks_per_plane=8,
    ),
    _fig_replay_mix_metrics,
)


def _cluster_rebalance_tail_metrics(result: Any) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for phase, cell in result.phases.items():
        for stat in ("count", "mean", "p99", "p999"):
            metrics[f"{phase}.{stat}"] = cell[stat]
    metrics["drain_ops"] = result.drain_ops
    metrics["verify_checked"] = result.verify_checked
    metrics["router_share"] = result.router_share
    metrics["trace_spans"] = result.trace_spans
    for name, value in result.stats_summary.items():
        metrics[f"stats.{name}"] = value
    return metrics


register_figure(
    "cluster_rebalance_tail",
    # Four shards, one degraded mid-run: the window is short enough that
    # all four phases (pre, rebalance, post, drain) record latency.
    lambda: cluster_rebalance_tail(
        n_ops=200, population=400, rebalance_window_ops=100
    ),
    _cluster_rebalance_tail_metrics,
)
