"""Runtime sim-sanitizer: deadlock naming, charge audit, determinism.

``SimSanitizer`` is the dynamic half of :mod:`repro.analysis` (the
static half is ``reprolint``).  It is strictly opt-in -- install it with
:meth:`repro.machine.Machine.install_sanitizer` or the CLI ``--sanitize``
flag -- and rides the probe bus (:mod:`repro.sim.probe`), so it costs
nothing when off and fault-free hot paths and BENCH fingerprints are
untouched.

Three checkers:

* **Waits-for deadlock diagnostics.**  The engine tracks which process
  is parked on which resource (semaphore / fluid op / sleep / join)
  from the bus's block and wake events.  When the event loop runs dry
  with blocked processes, the resulting
  :class:`~repro.errors.DeadlockError` names every stuck coroutine and
  the resource (with state: semaphore value, pending joins) it waits
  on, instead of reporting a bare count.

* **Charge accounting audit.**  Every byte a timed ``SimFile``
  operation moves must be charged to the device model (the bus's
  ``charge`` event, fired by ``Machine.io`` / ``io_raw``).  The auditor
  cross-checks the two layers synchronously (the storage layer announces
  the move, the machine must immediately charge the same byte count in
  the same direction) and tallies *raw* moves -- ``peek`` / ``poke`` while the
  engine has live processes and no ``SimFS.unaudited`` justification --
  as drift.  :meth:`SimSanitizer.check` raises
  :class:`~repro.errors.ChargeDriftError` on any discrepancy.

* **Determinism harness.**  With ``trace=True`` the sanitizer records
  the full event trace (op completions and process exits with exact
  float timestamps).  :func:`verify_determinism` runs a workload
  factory twice and diffs the traces, reporting the first divergence.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ChargeDriftError, DeterminismError
from repro.sim.probe import Probe, ProbeSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Process


# ----------------------------------------------------------------------
# Resource descriptions for the waits-for graph
# ----------------------------------------------------------------------


def describe_resource(resource: Any) -> str:
    """Human-readable state of whatever a process is parked on."""
    from repro.sim.engine import Join, ParallelOps, Sleep
    from repro.sim.fluid import FluidOp
    from repro.sim.primitives import Semaphore

    if isinstance(resource, Semaphore):
        name = f"{resource.name!r}, " if resource.name else ""
        return (
            f"Semaphore({name}count={resource._count}, "
            f"{len(resource._waiters)} waiter(s))"
        )
    if isinstance(resource, FluidOp):
        return repr(resource)
    if isinstance(resource, Sleep):
        return f"Sleep(dt={resource.dt})"
    if isinstance(resource, Join):
        names = ", ".join(t.name for t in resource.targets if not t.done)
        return f"Join(pending: {names or '<none>'})"
    if isinstance(resource, ParallelOps):
        return f"ParallelOps({len(resource.ops)} ops)"
    if isinstance(resource, (list, tuple)):
        # _issue_parallel registers the raw op list it was handed.
        return f"ParallelOps({len(resource)} ops)"
    return repr(resource)


# ----------------------------------------------------------------------
# Charge accounting
# ----------------------------------------------------------------------


class ChargeAuditor:
    """Cross-checks storage-layer byte moves against device charges."""

    def __init__(self):
        #: Per-direction bytes moved by timed SimFile operations.
        self.moved = {"read": 0, "write": 0}
        #: Per-direction user bytes charged by matching credits.
        self.charged = {"read": 0.0, "write": 0.0}
        #: Charges with no storage move attached (synthetic background /
        #: analytic ops issued straight through ``Machine.io``); legal.
        self.non_storage_charged = {"read": 0.0, "write": 0.0}
        #: Raw (peek/poke) moves seen mid-run without an
        #: ``SimFS.unaudited`` justification: ``(file, kind, nbytes)``.
        self.raw_moves: List[Tuple[str, str, int]] = []
        #: Exempted raw bytes, by justification reason.
        self.exempt_raw: Dict[str, int] = {}
        #: Hard accounting violations found as they happened.
        self.problems: List[str] = []
        self._pending: Optional[Tuple[str, int]] = None
        self._timed_depth = 0
        self._exempt_reasons: List[str] = []
        #: The live engine (set by :meth:`SimSanitizer.bind`).
        self.engine: Optional["Engine"] = None

    # -- storage-layer hooks (see repro.storage.file) -------------------
    def timed(self, direction: str, nbytes: int) -> "_TimedMove":
        """Scope one timed SimFile operation: announce the move and
        require the matching charge before the scope closes."""
        return _TimedMove(self, direction, int(nbytes))

    def note_raw(self, file_name: str, kind: str, nbytes: int) -> None:
        """A peek/poke outside any timed operation."""
        if self._timed_depth > 0:
            return  # data movement of the enclosing timed op, already audited
        if self.engine is None or not self.engine.running:
            return  # fixture / validation access outside the event loop
        if self._exempt_reasons:
            reason = self._exempt_reasons[-1]
            self.exempt_raw[reason] = self.exempt_raw.get(reason, 0) + int(nbytes)
            return
        self.raw_moves.append((file_name, kind, int(nbytes)))

    @contextmanager
    def exempt(self, reason: str):
        """Scope of one ``SimFS.unaudited`` justification."""
        self._exempt_reasons.append(reason or "unspecified")
        try:
            yield
        finally:
            self._exempt_reasons.pop()

    # -- machine-layer hook ----------------------------------------------
    def note_charge(self, direction: str, user_bytes: float, tag: str) -> None:
        if direction not in ("read", "write"):
            return
        pending = self._pending
        if pending is not None and pending[0] == direction:
            self._pending = None
            if float(pending[1]) != float(user_bytes):
                self.problems.append(
                    f"charge mismatch on {tag!r}: storage moved {pending[1]} B "
                    f"{direction} but {user_bytes:g} B were charged"
                )
            self.charged[direction] += float(user_bytes)
        else:
            if pending is not None:
                # A charge of the other direction interleaved; a timed
                # op never issues one, so the move went uncharged.
                self.problems.append(
                    f"storage moved {pending[1]} B {pending[0]} but the next "
                    f"charge was {direction!r} ({tag!r})"
                )
                self._pending = None
            self.non_storage_charged[direction] += float(user_bytes)

    # -- verdicts --------------------------------------------------------
    def drift_report(self) -> List[str]:
        """All accounting violations collected so far."""
        out = list(self.problems)
        if self._pending is not None:
            direction, nbytes = self._pending
            out.append(
                f"storage moved {nbytes} B {direction} with no charge recorded"
            )
        for file_name, kind, nbytes in self.raw_moves:
            out.append(
                f"raw uncharged {kind} of {nbytes} B on {file_name!r} mid-run "
                f"(use the timed SimFile APIs or SimFS.unaudited)"
            )
        return out

    def report(self) -> dict:
        return {
            "moved_read": self.moved["read"],
            "moved_write": self.moved["write"],
            "charged_read": self.charged["read"],
            "charged_write": self.charged["write"],
            "non_storage_charged_read": self.non_storage_charged["read"],
            "non_storage_charged_write": self.non_storage_charged["write"],
            "exempt_raw_bytes": dict(self.exempt_raw),
            "raw_uncharged_moves": len(self.raw_moves),
            "drift": self.drift_report(),
        }

    def check(self) -> None:
        """Raise :class:`ChargeDriftError` if any drift was observed."""
        drift = self.drift_report()
        if drift:
            raise ChargeDriftError(
                "charge accounting drift:\n  " + "\n  ".join(drift)
            )


class _TimedMove:
    """Context manager pairing one storage move with its charge."""

    __slots__ = ("_aud", "_direction", "_nbytes")

    def __init__(self, aud: ChargeAuditor, direction: str, nbytes: int):
        self._aud = aud
        self._direction = direction
        self._nbytes = nbytes

    def __enter__(self) -> None:
        aud = self._aud
        if aud._pending is not None:
            direction, nbytes = aud._pending
            aud.problems.append(
                f"storage moved {nbytes} B {direction} with no charge recorded"
            )
        aud._pending = (self._direction, self._nbytes)
        aud.moved[self._direction] += self._nbytes
        aud._timed_depth += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        aud = self._aud
        aud._timed_depth -= 1
        if exc_type is None and aud._pending is not None:
            direction, nbytes = aud._pending
            aud._pending = None
            aud.problems.append(
                f"storage moved {nbytes} B {direction} but the operation "
                f"completed without charging the device model"
            )
        elif exc_type is not None:
            # The op failed before charging (ENOSPC, crash); the bytes
            # never moved to completion either -- roll the move back.
            if aud._pending is not None:
                aud._pending = None
                aud.moved[direction := self._direction] -= self._nbytes


# ----------------------------------------------------------------------
# The sanitizer facade
# ----------------------------------------------------------------------


class SimSanitizer(Probe):
    """Opt-in runtime checker for a :class:`~repro.machine.Machine` or a
    whole :class:`~repro.cluster.Cluster` (one sanitizer watches the
    shared engine and audits every shard's storage layer: charge pairing
    is synchronous -- a timed op opens and closes its audit scope while
    being built -- so one auditor serves all shard filesystems without
    interleaving hazards).

    Parameters
    ----------
    trace:
        Record the full event trace (op completions, process exits) for
        determinism diffing.  Off by default: traces grow with the run.
    """

    def __init__(self, trace: bool = False):
        #: pid -> (process, resource, verb) for every parked process.
        self.waits: Dict[int, Tuple["Process", Any, str]] = {}
        self.trace: Optional[List[tuple]] = [] if trace else None
        self.auditor = ChargeAuditor()

    # -- installation ---------------------------------------------------
    def bind(self, probes: ProbeSet) -> None:
        """Follow the live engine; parked processes died with the old one."""
        self.auditor.engine = probes.engine
        self.waits.clear()

    def subscriptions(self):
        aud = self.auditor
        return [
            ("block", self.on_wait),
            ("wake", self.on_wake),
            ("op_done", self.on_op_complete),
            ("finish", self.on_proc_finish),
            ("cancelled", self.on_proc_cancel),
            ("deadlock_detail", self.deadlock_detail),
            ("raw_move", aud.note_raw),
            ("charge", aud.note_charge),
            ("move_scope", aud.timed),
            ("exempt_scope", aud.exempt),
        ]

    # -- engine hooks ----------------------------------------------------
    def on_wait(self, proc: "Process", resource: Any, verb: str = "wait") -> None:
        self.waits[proc.pid] = (proc, resource, verb)

    def on_wake(self, proc: "Process", _resource: Any = None) -> None:
        self.waits.pop(proc.pid, None)

    def on_op_complete(self, op, now: float) -> None:
        if self.trace is not None:
            self.trace.append(("op", now, op.kind, op.tag, op.work))

    def on_proc_finish(self, proc: "Process", now: float) -> None:
        if self.trace is not None:
            self.trace.append(("proc", now, proc.name))

    def on_proc_cancel(self, proc: "Process", now: float) -> None:
        """Final event for a coroutine torn down by ``cancel_tree``.

        A cancelled coroutine never resumes, so without this its
        waits-for entry would linger forever and any later deadlock
        diagnostic would name ghosts.
        """
        self.waits.pop(proc.pid, None)
        if self.trace is not None:
            self.trace.append(("cancel", now, proc.name))

    # -- deadlock diagnostics -------------------------------------------
    def blocked_table(self) -> List[str]:
        """One line per parked process: who waits on what."""
        lines = []
        for pid in sorted(self.waits):
            proc, resource, verb = self.waits[pid]
            lines.append(
                f"{proc.name} (pid {pid}) -> {verb} on "
                f"{describe_resource(resource)}"
            )
        return lines

    def deadlock_detail(self) -> str:
        """The waits-for graph, grouped per resource, cycle hints included."""
        if not self.waits:
            return "no parked processes were tracked"
        groups: List[Tuple[Any, List[str]]] = []
        index: Dict[int, int] = {}
        for pid in sorted(self.waits):
            proc, resource, verb = self.waits[pid]
            slot = index.get(id(resource))
            if slot is None:
                slot = index[id(resource)] = len(groups)
                groups.append((resource, []))
            groups[slot][1].append(f"{proc.name} (pid {pid}, {verb})")
        lines = ["waits-for graph:"]
        for resource, waiters in groups:
            lines.append(f"  {describe_resource(resource)}:")
            for w in waiters:
                lines.append(f"    <- {w}")
        return "\n".join(lines)

    # -- charge audit -----------------------------------------------------
    def audit_report(self) -> dict:
        return self.auditor.report()

    def check(self) -> None:
        """Raise on any accumulated charge-accounting drift."""
        self.auditor.check()

    # -- determinism -------------------------------------------------------
    def trace_digest(self) -> str:
        """SHA-256 over the exact event trace (requires ``trace=True``)."""
        if self.trace is None:
            raise ValueError("sanitizer was not created with trace=True")
        h = hashlib.sha256()
        for event in self.trace:
            h.update(repr(event).encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# Determinism harness
# ----------------------------------------------------------------------


class DeterminismReport:
    """Outcome of a :func:`verify_determinism` comparison."""

    def __init__(
        self,
        ok: bool,
        events: int,
        digests: List[str],
        divergence: Optional[dict] = None,
    ):
        self.ok = ok
        self.events = events
        self.digests = digests
        self.divergence = divergence

    def render(self) -> str:
        if self.ok:
            return (
                f"determinism: OK -- {self.events} trace events, "
                f"digest {self.digests[0][:16]}... identical across "
                f"{len(self.digests)} runs"
            )
        d = self.divergence or {}
        return (
            "determinism: FAILED -- traces diverge at event "
            f"{d.get('index')}:\n  run A: {d.get('a')}\n  run B: {d.get('b')}"
        )

    def raise_on_failure(self) -> None:
        if not self.ok:
            raise DeterminismError(self.render())


def diff_traces(a: List[tuple], b: List[tuple]) -> Optional[dict]:
    """First divergence between two event traces, or None if identical."""
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return {"index": i, "a": ea, "b": eb}
    if len(a) != len(b):
        i = min(len(a), len(b))
        return {
            "index": i,
            "a": a[i] if i < len(a) else "<run ended>",
            "b": b[i] if i < len(b) else "<run ended>",
        }
    return None


def verify_determinism(
    run_fn: Callable[[SimSanitizer], Any], runs: int = 2
) -> DeterminismReport:
    """Run ``run_fn`` ``runs`` times with tracing sanitizers, diff traces.

    ``run_fn(sanitizer)`` must build a *fresh* machine/workload each
    call and install the given sanitizer on it (everything that makes a
    run a run -- seeds, configs -- must come from its own closure, so
    two calls are two executions of the identical workload).
    """
    if runs < 2:
        raise ValueError("need at least two runs to compare")
    traces: List[List[tuple]] = []
    digests: List[str] = []
    for _ in range(runs):
        san = SimSanitizer(trace=True)
        run_fn(san)
        traces.append(san.trace or [])
        digests.append(san.trace_digest())
    for other in traces[1:]:
        divergence = diff_traces(traces[0], other)
        if divergence is not None:
            return DeterminismReport(False, len(traces[0]), digests, divergence)
    return DeterminismReport(True, len(traces[0]), digests)
