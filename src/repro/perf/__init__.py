"""Simulator self-performance instrumentation.

Tools for measuring how fast the *simulator itself* runs (wall-clock),
as opposed to the simulated times it produces: per-phase wall timers,
engine/fluid/rate-model counter snapshots and a human-readable report.
Used by the ``--selfperf`` CLI flag, the perf ledger and the golden tests.
"""

from repro.perf.profiler import (
    SelfPerfProfiler,
    collect_cluster_counters,
    collect_counters,
    render_report,
)

__all__ = [
    "SelfPerfProfiler",
    "collect_cluster_counters",
    "collect_counters",
    "render_report",
]
