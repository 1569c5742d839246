"""The fault injector: wraps the storage layer, executes a FaultPlan.

The injector installs into a machine's filesystem
(:meth:`repro.machine.Machine.install_faults`); every *timed* SimFile
operation then consults it at issue time.  Three things can happen:

* **clean** -- the op's build closure runs and the plain fluid op is
  returned; with an empty plan this is the only path and the op stream
  is bit-identical to an injector-free run (zero overhead when idle).
* **fault** -- a :class:`~repro.faults.retry._RetryingIO` command is
  returned instead; transient faults retry with simulated-time backoff,
  permanent ones are thrown into the issuing simulated thread.
* **crash** -- :class:`~repro.errors.SimulatedCrash` is raised.  Before
  it propagates, every in-flight write is *torn*: only a 64-byte-aligned
  prefix proportional to the op's fluid progress survives (always
  strictly shorter than the full write); the rest of the target region
  is rolled back to its pre-image and any file extension is truncated.

Op indexing is global and monotonic across crash/reboot cycles, so an
``op:N`` trigger means the Nth timed file operation of the whole
workload, not of the current boot.  All randomness (probabilistic
faults, torn-prefix lengths, retry jitter) comes from one
``random.Random(plan.seed)`` stream, making the entire fault schedule
reproducible from the seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.device.profile import Pattern
from repro.errors import (
    MediaReadError,
    OutOfSpaceError,
    SimulatedCrash,
    TornWriteError,
    TransientDeviceError,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.retry import _RetryingIO

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.sim.fluid import FluidOp
    from repro.storage.file import SimFile

#: Persistence granularity for torn writes (cache-line flush unit).
_TEAR_ALIGN = 64


class FaultStats:
    """Counters accumulated by the injector across crashes and reboots."""

    def __init__(self):
        self.ops_seen = 0
        self.faults_injected = 0
        self.by_kind: Dict[str, int] = {}
        self.retries = 0
        self.backoff_seconds = 0.0
        self.exhausted = 0
        self.crashes = 0
        self.torn_writes = 0
        self.torn_bytes_discarded = 0
        self.slow_windows = 0
        self.recoveries = 0
        self.salvaged_bytes = 0
        self.redone_bytes = 0

    def note_fault(self, fault: BaseException) -> None:
        self.faults_injected += 1
        name = type(fault).__name__
        self.by_kind[name] = self.by_kind.get(name, 0) + 1

    def as_dict(self) -> dict:
        return {
            "ops_seen": self.ops_seen,
            "faults_injected": self.faults_injected,
            "by_kind": dict(self.by_kind),
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "retries_exhausted": self.exhausted,
            "crashes": self.crashes,
            "torn_writes": self.torn_writes,
            "torn_bytes_discarded": self.torn_bytes_discarded,
            "slow_windows": self.slow_windows,
            "recoveries": self.recoveries,
            "salvaged_bytes": self.salvaged_bytes,
            "redone_bytes": self.redone_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultStats({self.as_dict()})"


class _InflightWrite:
    """Pre-image of a write that may be torn by a crash."""

    __slots__ = ("op", "file", "offset", "nbytes", "pre", "old_size")

    def __init__(self, op, file, offset, nbytes, pre, old_size):
        self.op = op
        self.file = file
        self.offset = offset
        self.nbytes = nbytes
        self.pre = pre
        self.old_size = old_size


class FaultInjector:
    """Executes a :class:`~repro.faults.plan.FaultPlan` against a machine.

    ``count_only=True`` arms the injector purely as an op counter (used
    by the CLI's probe run to resolve ``crash@50%`` triggers): every op
    is counted and passed through untouched.
    """

    def __init__(self, plan: FaultPlan, count_only: bool = False):
        if plan.needs_probe and not count_only:
            raise ValueError(
                "plan has unresolved fractional triggers; call "
                "plan.resolve_fractions(total_ops) first"
            )
        self.plan = plan
        self.count_only = count_only
        self.stats = FaultStats()
        self.machine: Optional["Machine"] = None
        #: Global op index, monotone across crash/reboot cycles.
        self.op_index = 0
        self._rng = random.Random(plan.seed)
        self._inflight: Dict[int, _InflightWrite] = {}
        self._crash_op: List[FaultEvent] = []
        self._crash_time: List[FaultEvent] = []
        self._slow: List[FaultEvent] = []
        self._scripted: List[FaultEvent] = []
        self._prob: List[FaultEvent] = []
        for ev in plan.events:
            if ev.kind == "crash":
                (self._crash_time if ev.at_time is not None else self._crash_op).append(ev)
            elif ev.kind == "slow":
                self._slow.append(ev)
            elif ev.p is not None:
                self._prob.append(ev)
            else:
                self._scripted.append(ev)

    # ------------------------------------------------------------------
    @property
    def armed(self) -> bool:
        """False for an installed-but-empty injector: the storage layer
        then takes the exact fault-free fast path (zero overhead)."""
        return self.count_only or bool(self.plan.events)

    def note_recovery(self) -> None:
        """The harness rebooted the machine and is about to recover."""
        self.stats.recoveries += 1

    def as_dict(self) -> dict:
        """Counter snapshot for :class:`~repro.faults.harness.FaultRunReport`."""
        return self.stats.as_dict()

    @property
    def _crash_pending(self) -> bool:
        return any(
            not ev.fired for ev in self._crash_op
        ) or any(not ev.fired for ev in self._crash_time)

    def attach(self, machine: "Machine") -> None:
        """Install into ``machine`` (also re-arms timers after a reboot)."""
        self.machine = machine
        machine.fs.volume.injector = self
        engine = machine.engine
        now = engine.now
        for ev in self._crash_time:
            if ev.fired:
                continue
            if ev.at_time <= now:
                # A reboot carried the clock past this trigger without it
                # firing (it raced a sibling crash); retire it.
                ev.fired = True
                continue
            engine.call_at(ev.at_time, lambda ev=ev: self._crash_now(ev))
        for ev in self._slow:
            t0, t1 = ev.at_time, ev.at_time + ev.duration
            if now >= t1:
                continue
            if now >= t0:
                self._set_degrade(ev.factor)
            else:
                engine.call_at(
                    t0, lambda f=ev.factor: self._begin_slow_window(f)
                )
            engine.call_at(t1, lambda: self._set_degrade(1.0))

    # ------------------------------------------------------------------
    # Storage-layer entry points (see repro.storage.file.SimFile)
    # ------------------------------------------------------------------
    def issue_read(self, f: "SimFile", nbytes: int, tag: str, build):
        """Route one timed read.  ``build()`` constructs the charged op
        (and its payload) -- called once per attempt so retries show up
        in device stats and timelines."""
        idx = self._register_op("read")
        if self.count_only:
            return build()
        fault = self._fault_for("read", idx, 0, nbytes)
        if fault is None:
            return build()

        def attempt(k: int):
            fl = fault if k == 0 else self._fault_for("read", idx, k, nbytes)
            return build(), fl

        return _RetryingIO(
            self.machine.engine, self.plan.retry, self._rng, self.stats, attempt, tag
        )

    def issue_write(
        self, f: "SimFile", offset: int, arr: np.ndarray, tag: str, threads: int
    ):
        """Route one timed write; performs the data movement itself so
        faulted attempts can persist a prefix (torn) or nothing at all."""
        idx = self._register_op("write")
        n = int(arr.size)
        if self.count_only:
            return self._write_attempt(f, offset, arr, n, tag, threads, None)
        fault = self._fault_for("write", idx, 0, n)
        if fault is None:
            return self._write_attempt(f, offset, arr, n, tag, threads, None)

        def attempt(k: int):
            fl = fault if k == 0 else self._fault_for("write", idx, k, n)
            return self._write_attempt(f, offset, arr, n, tag, threads, fl), fl

        return _RetryingIO(
            self.machine.engine, self.plan.retry, self._rng, self.stats, attempt, tag
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register_op(self, direction: str) -> int:
        idx = self.op_index
        self.op_index += 1
        self.stats.ops_seen += 1
        for ev in self._crash_op:
            if not ev.fired and idx >= ev.at_op:
                self._crash_now(ev, idx)
        return idx

    def _fault_for(
        self, direction: str, idx: int, attempt: int, nbytes: int
    ) -> Optional[BaseException]:
        """Decide the fault for attempt ``attempt`` of op ``idx``.

        Scripted one-shot events fire on the first eligible attempt and
        are then retired (so retries succeed); ``enospc`` bursts cover a
        *window* of virtual indices ``[at_op, at_op+count)`` -- retries
        advance through the window (``idx + attempt``) and escape it.
        Probabilistic events re-roll on every attempt.
        """
        for ev in self._scripted:
            if ev.direction is not None and ev.direction != direction:
                continue
            if ev.kind == "enospc":
                if ev.at_op <= idx + attempt < ev.at_op + ev.count:
                    return OutOfSpaceError(
                        f"injected ENOSPC burst (op {idx}, attempt {attempt})",
                        requested=nbytes,
                        available=0,
                        transient=True,
                    )
                continue
            if ev.fired or idx < ev.at_op:
                continue
            if attempt == 0:
                ev.fired = True
                return self._make_fault(ev, idx, nbytes)
        for ev in self._prob:
            if ev.direction is not None and ev.direction != direction:
                continue
            if self._rng.random() < ev.p:
                return self._make_fault(ev, idx, nbytes)
        return None

    def _make_fault(self, ev: FaultEvent, idx: int, nbytes: int) -> BaseException:
        if ev.kind == "readerr":
            return MediaReadError(f"uncorrectable media error (read op {idx})")
        if ev.kind == "transient":
            return TransientDeviceError(f"transient device fault (op {idx})")
        if ev.kind == "torn":
            durable = self._tear_point(nbytes, self._rng.random())
            return TornWriteError(
                f"torn write (op {idx}): {durable} of {nbytes} B durable",
                durable_bytes=durable,
                expected_bytes=nbytes,
            )
        raise AssertionError(f"unexpected scripted kind {ev.kind!r}")

    @staticmethod
    def _tear_point(nbytes: int, fraction: float) -> int:
        """Aligned durable-prefix length, always strictly < ``nbytes``."""
        durable = int(fraction * nbytes) // _TEAR_ALIGN * _TEAR_ALIGN
        if durable >= nbytes:
            durable = max(0, (nbytes - 1) // _TEAR_ALIGN * _TEAR_ALIGN)
        return max(0, durable)

    def _write_attempt(
        self,
        f: "SimFile",
        offset: int,
        arr: np.ndarray,
        n: int,
        tag: str,
        threads: int,
        fault: Optional[BaseException],
    ) -> "FluidOp":
        """Data effects + charged op for one write attempt.

        Clean attempts persist everything (and register a pre-image while
        a crash is pending, so the write can be torn mid-flight).  Torn
        attempts persist only the fault's durable prefix.  Other faulted
        attempts (transient, ENOSPC) persist nothing.  Every attempt is
        charged for the full transfer -- the device worked on the request
        before the failure surfaced.
        """
        rec = None
        # The audit scope announces the attempt's full transfer: even torn
        # and failed attempts are charged for n bytes (the device worked
        # on the request before the failure surfaced).
        with f._audit("write", n):
            if fault is None:
                if self._crash_pending:
                    rec = _InflightWrite(None, f, offset, n, f.pre_image(offset, n), f.size)
                f.poke(offset, arr)
            elif isinstance(fault, TornWriteError):
                self.stats.torn_writes += 1
                self.stats.torn_bytes_discarded += n - fault.durable_bytes
                if fault.durable_bytes > 0:
                    f.poke(offset, arr[: fault.durable_bytes])
            op = f._machine_io("write", Pattern.SEQ, n, tag, threads=threads)
        if rec is not None:
            rec.op = op
            self._track(op, rec)
        return op

    def _track(self, op: "FluidOp", rec: _InflightWrite) -> None:
        self._inflight[op.seq] = rec
        orig = op.on_complete

        def done(o, _orig=orig, _seq=op.seq):
            self._inflight.pop(_seq, None)
            return _orig(o) if _orig is not None else o

        op.on_complete = done

    # ------------------------------------------------------------------
    # Crash machinery
    # ------------------------------------------------------------------
    def _crash_now(self, ev: FaultEvent, idx: int = -1) -> None:
        ev.fired = True
        engine = self.machine.engine
        engine.fluid.settle(engine.now)
        self._tear_inflight()
        self.stats.crashes += 1
        for emit in engine.probes.instant:
            emit("crash", cat="fault", track="faults", at_op=idx)
        domain = getattr(self.machine, "domain", None)
        raise SimulatedCrash(
            f"simulated crash at t={engine.now:.6f}s"
            + (f" (op {idx})" if idx >= 0 else "")
            + (f" on {domain}" if domain else ""),
            at_time=engine.now,
            at_op=idx,
            domain=domain,
        )

    def _tear_inflight(self) -> None:
        for _seq, rec in sorted(self._inflight.items()):
            self._tear(rec)
        self._inflight.clear()

    def clear_inflight(self) -> None:
        """Drop in-flight write tracking without tearing anything.

        Cluster reboot path: when a *sibling* shard crashes, this
        shard's tracked writes are treated as durable (the device had
        committed them when the shared engine unwound), so the records
        must not leak into the next boot's tear set.
        """
        self._inflight.clear()

    def forget_file(self, f) -> None:
        """Drop in-flight tracking for one file about to be deleted.

        Cancelled speculative work leaves nothing durable to tear: its
        partial files are scrubbed, and a crash after the scrub must not
        resurrect them via an orphaned tear record (which would truncate
        a dead file and corrupt the filesystem's used-byte accounting).
        """
        for seq in sorted(self._inflight):
            if self._inflight[seq].file is f:
                del self._inflight[seq]

    def _tear(self, rec: _InflightWrite) -> None:
        """Roll an in-flight write back to an aligned durable prefix."""
        op, f, n = rec.op, rec.file, rec.nbytes
        if op.work > 0:
            # An in-flight op's settled remainder lives in its group's
            # column; op.remaining reads it from there.
            progress = max(0.0, min(1.0, 1.0 - op.remaining / op.work))
        else:
            progress = 0.0
        durable = self._tear_point(n, progress)
        if rec.offset + n > rec.old_size:
            keep = max(rec.old_size, rec.offset + durable)
            if keep < f.size:
                f.truncate(keep)
        f.roll_back(rec.offset + durable, rec.pre[durable:])
        self.stats.torn_writes += 1
        self.stats.torn_bytes_discarded += n - durable

    # ------------------------------------------------------------------
    # Throughput-degradation windows
    # ------------------------------------------------------------------
    def _begin_slow_window(self, factor: float) -> None:
        self.stats.slow_windows += 1
        self._set_degrade(factor)

    def _set_degrade(self, factor: float) -> None:
        machine = self.machine
        machine.rate_model.degrade = factor
        machine.engine.fluid.invalidate_rates()
        for emit in machine.probes.instant:
            emit(
                "slow-window" if factor < 1.0 else "slow-window-end",
                cat="fault", track="faults", factor=factor,
            )
