"""Crash / reboot / recover orchestration for fault-injected sorts.

:func:`run_with_faults` is the one-call entry point used by
:func:`repro.api.sort` and the chaos tests: install a
:class:`~repro.faults.plan.FaultPlan`, start the sort, and whenever a
:class:`~repro.errors.SimulatedCrash` unwinds the event loop, reboot
the owner (machine or cluster) and re-enter through the system's
``recover()`` path -- repeatedly, because recovery itself can crash if
the plan scripts several crash points.

The loop is bounded by ``max_recoveries``: a plan whose faults outpace
forward progress raises :class:`~repro.errors.RecoveryError` instead of
spinning forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.errors import RecoveryError, SimulatedCrash

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ShardedFile
    from repro.core.base import SortResult, SortSystem
    from repro.machine import Machine
    from repro.storage.file import SimFile

    from .plan import FaultPlan


@dataclass
class FaultRunReport:
    """What happened to one fault-injected sort, end to end."""

    #: Number of simulated crashes survived.
    crashes: int = 0
    #: Number of successful ``recover()`` re-entries (== crashes when the
    #: sort finally completed).
    recoveries: int = 0
    #: ``(at_time, at_op)`` of every crash, in order.
    crash_points: List[Tuple[float, int]] = field(default_factory=list)
    #: Snapshot of :class:`~repro.faults.injector.FaultStats` at the end.
    stats: dict = field(default_factory=dict)

    def summary(self) -> str:
        if not self.crashes:
            return "no crashes"
        pts = ", ".join(f"t={t:.4f}s/op {op}" for t, op in self.crash_points)
        return f"{self.crashes} crash(es) [{pts}], {self.recoveries} recovery(ies)"


def run_with_faults(
    system: "SortSystem",
    owner: Union["Machine", "Cluster"],
    input_file: Union["SimFile", "ShardedFile"],
    plan: Optional["FaultPlan"] = None,
    validate: bool = True,
    max_recoveries: int = 8,
) -> Tuple["SortResult", FaultRunReport]:
    """Drive ``system`` to completion under ``plan``, surviving crashes.

    ``owner`` is the run's machine, or its cluster for a sharded sort.
    With ``plan=None`` (or an already-installed injector) the existing
    owner state is used unchanged; passing a plan installs it first.
    Returns the final :class:`~repro.core.base.SortResult` together with
    a :class:`FaultRunReport`.  Non-crash faults (media errors past the
    retry budget, genuine ENOSPC) propagate to the caller -- only
    :class:`~repro.errors.SimulatedCrash` is survivable by design.

    On a cluster a crash raised by any shard's injector unwinds the
    whole shared event loop and names the dead shard (``crash.domain``):
    :meth:`~repro.cluster.cluster.Cluster.reboot` restarts it, resetting
    every survivor's volatile state too, and ``recover()`` salvages all
    manifest-covered partitions and re-executes only the lost work.
    """
    if plan is not None:
        owner.install_faults(plan)
    report = FaultRunReport()
    t0 = owner.now
    read0 = owner.stats.bytes_read_internal
    written0 = owner.stats.bytes_written_internal
    try:
        result = system.run(owner, input_file, validate=validate)
    except SimulatedCrash as crash:
        # The traceback's frames would keep the dead attempt alive.
        crash.__traceback__ = None
        result = _recover_loop(
            system, owner, input_file, crash, validate, max_recoveries, report
        )
        # The recovery result only timed its own segment; re-span it over
        # the whole workload (the clock and device stats survive reboots).
        result.total_time = owner.now - t0
        result.internal_read = owner.stats.bytes_read_internal - read0
        result.internal_written = owner.stats.bytes_written_internal - written0
    if owner.faults is not None:
        report.stats = owner.faults.as_dict()
    return result, report


#: The frozen ``benchmarks/ledger/workloads.py`` imports this name.
run_cluster_with_faults = run_with_faults


def _recover_loop(
    system, owner, input_file, crash, validate, max_recoveries, report
):
    while True:
        report.crashes += 1
        report.crash_points.append((crash.at_time, crash.at_op))
        if report.recoveries >= max_recoveries:
            raise RecoveryError(
                f"gave up after {max_recoveries} recovery attempts "
                f"({report.crashes} crashes)"
            ) from crash
        owner.reboot(crash.domain)
        if owner.faults is not None:
            owner.faults.note_recovery()
        report.recoveries += 1
        try:
            return system.recover(owner, input_file, validate=validate)
        except SimulatedCrash as next_crash:
            crash = next_crash.with_traceback(None)
