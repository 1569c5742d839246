"""Wall-clock profiler and counter snapshots for the simulation kernel.

The simulator's own speed is a first-class concern (ROADMAP: larger
sortbenchmark configs are gated on it), so the kernel layers expose
cheap always-on counters:

* :class:`repro.sim.engine.Engine` -- process steps, clock advances,
  timer events;
* :class:`repro.sim.fluid.FluidScheduler` -- ops added/completed,
  re-rate calls, ops re-rated, effective rate changes, and how each
  group solve was answered: ``vector_solves`` counts solves served
  through a group's rate table, the one rate memo
  (``vector_batch_size_avg`` is their mean op count), and
  ``scalar_fallbacks`` counts solves that had to call ``model.assign``
  because the model has no vector protocol (0 with
  ``REPRO_SIM_VECTOR=0``, where the protocol is off and every solve is
  one unmemoized ``model.assign`` waterfill);
* each device -- intervals observed and internal bytes moved.

This module is the one counter surface: every counter of a run is a key
of the flat dict :func:`collect_counters` (a
:class:`~repro.machine.Machine`) or :func:`collect_cluster_counters` (a
cluster) returns.  Kernel counters are unprefixed; the device block is
unprefixed for a machine and ``"<domain>."``-prefixed per shard; fault
ledgers are ``FaultStats.as_dict()`` flattened under ``fault_`` by the
same rule on both.  :class:`SelfPerfProfiler` adds per-phase wall
timers; :func:`render_report` formats both for humans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.cluster.cluster import ClusterFaultState


class SelfPerfProfiler:
    """Accumulating per-phase wall-clock timers.

    Usage::

        prof = SelfPerfProfiler()
        with prof.phase("generate"):
            ...
        with prof.phase("sort"):
            ...
        print(render_report(machine, prof))

    Re-entering a phase name accumulates into the same bucket; phase
    order of first entry is preserved in reports.  Re-entering a name
    while it is still open (recursive helpers sharing a bucket) is
    nesting-safe: only the outermost entry owns the timer, so the
    overlapped wall time is counted once instead of per nesting level.
    """

    def __init__(self):
        self.phases: Dict[str, float] = {}
        self._order: List[str] = []
        self._open_depth: Dict[str, int] = {}
        self._open_start: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        depth = self._open_depth.get(name, 0)
        self._open_depth[name] = depth + 1
        if depth == 0:
            self._open_start[name] = time.perf_counter()
        try:
            yield
        finally:
            self._open_depth[name] -= 1
            if self._open_depth[name] == 0:
                del self._open_depth[name]
                elapsed = time.perf_counter() - self._open_start.pop(name)
                if name not in self.phases:
                    self._order.append(name)
                    self.phases[name] = elapsed
                else:
                    self.phases[name] += elapsed

    @property
    def total_wall(self) -> float:
        return sum(self.phases.values())

    def ordered_phases(self) -> List[tuple]:
        return [(name, self.phases[name]) for name in self._order]


def collect_counters(machine) -> Dict[str, float]:
    """Snapshot every self-performance counter of a machine's kernel.

    With a fault injector installed (:meth:`Machine.install_faults`) the
    snapshot grows ``fault_*`` entries -- retries, backoff, crashes,
    salvaged-vs-redone recovery bytes -- so fault-injected runs report
    their robustness overhead alongside the kernel counters.
    """
    counters = _kernel_counters(machine.engine)
    _device_counters("", machine, counters)
    if machine.faults is not None:
        ClusterFaultState._flatten(
            "fault_", machine.faults.stats.as_dict(), counters
        )
    return counters


def _kernel_counters(engine) -> Dict[str, float]:
    """Engine and scheduler counters (exist once, even on a cluster)."""
    fluid = engine.fluid
    solves = fluid.vector_solves
    return {
        "sim_seconds": engine.now,
        "engine_steps": engine.steps,
        "clock_advances": engine.advances,
        "timer_events": engine.timer_events,
        "ops_added": fluid.ops_added,
        "ops_completed": fluid.ops_completed,
        "rerate_calls": fluid.rerate_calls,
        "ops_rerated": fluid.ops_rerated,
        "rate_changes": fluid.rate_changes,
        "vector_solves": solves,
        "vector_batch_size_avg": (
            (fluid.vector_ops_solved / solves) if solves else 0.0
        ),
        "scalar_fallbacks": fluid.scalar_fallbacks,
    }


def _device_counters(prefix: str, machine, out: Dict[str, float]) -> None:
    """One device's traffic counters, keys ``prefix + name`` (``""`` for
    a standalone machine, ``"<domain>."`` for a shard)."""
    out[f"{prefix}intervals_observed"] = len(machine.stats.timeline)
    out[f"{prefix}device_bytes_read"] = machine.stats.bytes_read_internal
    out[f"{prefix}device_bytes_written"] = machine.stats.bytes_written_internal


def collect_cluster_counters(cluster) -> Dict[str, float]:
    """Snapshot kernel + per-shard counters of a whole cluster.

    Kernel counters (engine/fluid/timers) exist once -- shards share one
    engine -- and appear unprefixed, exactly as in
    :func:`collect_counters`.  Per-shard device counters are
    namespaced ``"{domain}.{name}"`` (e.g. ``"shard0.device_bytes_read"``)
    so a flat snapshot stays collision-free across shards.
    """
    counters = _kernel_counters(cluster.engine)
    for shard in cluster.shards:
        _device_counters(f"{shard.domain}.", shard, counters)
    counters["ops_cancelled"] = cluster.engine.fluid.ops_cancelled
    counters["shuffle_bytes_network"] = (
        cluster.net_stats.bytes_total if cluster.net_stats is not None else 0.0
    )
    if cluster.faults is not None:
        # Includes shards_recovered / speculative_issues / speculative_wins
        # plus the per-shard injector ledgers.
        counters.update(cluster.faults.as_dict())
    return counters


def render_report(
    machine, profiler: Optional[SelfPerfProfiler] = None
) -> str:
    """Human-readable self-performance report for one machine run."""
    c = collect_counters(machine)
    lines = ["simulator self-performance"]
    lines.append(f"  simulated time : {c['sim_seconds']:.6f} s")
    lines.append(
        "  engine         : "
        f"{c['engine_steps']} steps, {c['clock_advances']} advances, "
        f"{c['timer_events']} timer events"
    )
    lines.append(
        "  fluid ops      : "
        f"{c['ops_added']} added, {c['ops_completed']} completed"
    )
    lines.append(
        "  re-rating      : "
        f"{c['rerate_calls']} calls, {c['ops_rerated']} op-rerates, "
        f"{c['rate_changes']} rate changes"
    )
    if c["vector_solves"]:
        lines.append(
            "  rate tables    : "
            f"{c['vector_solves']} solves, "
            f"avg batch {c['vector_batch_size_avg']:.1f}, "
            f"{c['scalar_fallbacks']} model.assign fallbacks"
        )
    lines.append(f"  intervals      : {c['intervals_observed']} observed")
    if "fault_ops_seen" in c:
        lines.append(
            "  faults         : "
            f"{int(c['fault_faults_injected'])} injected over "
            f"{int(c['fault_ops_seen'])} file ops, "
            f"{int(c['fault_crashes'])} crashes, "
            f"{int(c['fault_slow_windows'])} slow windows"
        )
        lines.append(
            "  retries        : "
            f"{int(c['fault_retries'])} retries "
            f"({c['fault_backoff_seconds']:.6f} s backoff), "
            f"{int(c['fault_retries_exhausted'])} exhausted, "
            f"{int(c['fault_torn_writes'])} torn writes "
            f"({int(c['fault_torn_bytes_discarded'])} B discarded)"
        )
        lines.append(
            "  recovery       : "
            f"{int(c['fault_recoveries'])} recoveries, "
            f"{int(c['fault_salvaged_bytes'])} B salvaged vs "
            f"{int(c['fault_redone_bytes'])} B redone"
        )
    if profiler is not None and profiler.phases:
        lines.append("  wall clock     :")
        for name, elapsed in profiler.ordered_phases():
            lines.append(f"    {name:12s} {elapsed:.3f} s")
        wall = profiler.total_wall
        if wall > 0:
            lines.append(
                "  throughput     : "
                f"{c['ops_completed'] / wall:,.0f} ops/s, "
                f"{c['sim_seconds'] / wall:.6f} sim-s per wall-s"
            )
    return "\n".join(lines)
