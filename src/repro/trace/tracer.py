"""Sim-time structured tracing: spans, events, op attribution, counters.

A :class:`Tracer` is a :class:`~repro.sim.probe.Probe`: it installs on
a :class:`~repro.machine.Machine` (or a whole
:class:`~repro.cluster.Cluster`) through the probe bus, subscribing to
exactly the events its ``analyze`` flag calls for, so an
uninstalled tracer costs nothing and an installed one never changes
simulated results.

What gets recorded (all timestamps are *simulated* seconds):

* **Spans** -- named intervals with parent nesting, opened with
  :meth:`Tracer.span` (usually via :meth:`Machine.trace_span`): sort
  phases, per-chunk runs, merge passes, scheduler job queue/service.
* **Op records** -- one per :class:`~repro.sim.fluid.FluidOp` entering
  the scheduler: tag, device class (direction/pattern), user bytes,
  internal work, write/read amplification, the read-write interference
  multiplier in force at issue time, the issuing coroutine and the
  enclosing span -- so traffic rolls up by phase x device class x shard.
* **Instant events** -- faults, retries, backoff, crashes, slow
  windows, scheduler admissions.
* **Counter samples** -- read/write bandwidth and CPU cores per
  machine track (read off the rows the machine's ``DeviceStats``
  appends each settle epoch; the cluster's ``"net"`` track off
  ``InterconnectStats``), DRAM usage (the bus's ``dram_change`` event)
  and scheduler queue depth.

Op, wait and counter records are columns (:class:`OpLog`,
:class:`WaitLog`, :class:`CounterLog`): numbers in arrays, strings and
keys as references to one interned object each, a wait on an op as the
op's row.  ``Tracer.ops`` / ``.waits`` / ``.counters`` rebuild each row
as the dict or tuple readers index (:class:`~repro.sim.rows.RowView`).

Export formats live in :mod:`repro.trace.export`.
"""

from __future__ import annotations

import itertools
from array import array
from contextlib import contextmanager
from math import isnan
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.sim.fluid import (
    OBS_IO_READ,
    OBS_IO_WRITE,
    SHARED_GROUP,
    FluidOp,
    observer_code,
)
from repro.sim.probe import Probe, ProbeSet
from repro.sim.rows import RowView

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.sim.engine import Engine, Process


class Span:
    """One named sim-time interval; ``t1`` is ``None`` while open."""

    __slots__ = (
        "sid", "parent", "name", "cat", "track", "proc", "pid", "t0", "t1",
        "args",
    )

    def __init__(
        self,
        sid: int,
        parent: Optional[int],
        name: str,
        cat: str,
        track: str,
        proc: str,
        t0: float,
        args: Optional[dict],
        pid: Optional[int] = None,
    ):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        self.track = track
        self.proc = proc
        #: Owning engine pid (None for spans opened outside the engine
        #: and for retrospective spans); consumed by the critical-path
        #: analyzer, deliberately absent from :meth:`as_dict`.
        self.pid = pid
        self.t0 = t0
        self.t1: Optional[float] = None
        self.args = args

    @property
    def duration(self) -> Optional[float]:
        if self.t1 is None:
            return None
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "track": self.track,
            "proc": self.proc,
            "t0": self.t0,
            "t1": self.t1,
            "args": self.args,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.t1 is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {state})"


#: An op column entry with no value: ``t1`` while the op runs, an
#: ``interference`` never recorded.
_NONE = float("nan")


class OpLog(RowView):
    """Op records, one row per issued op (:meth:`Tracer.on_op_issue`).

    Row ``i`` is the dict ``{oid, tag, kind, track, proc, span, phase,
    t0, t1, work}`` (``oid`` is ``i + 1``), then ``direction, pattern,
    bytes, threads, amplification[, interference]`` for an I/O op or
    ``mode, cores`` for a CPU op.  Stored: the interned ``key`` tuple of
    a row's strings and small ints (``(tag, kind, track, proc)`` plus
    ``(direction, pattern, threads)`` or ``(mode, cores)``), its open
    :class:`Span`, and float columns; ``t1`` and ``interference`` hold
    NaN for None / absent, and ``amplification`` is ``work / bytes``
    computed again.
    """

    __slots__ = ("key", "span", "t0", "t1", "work", "bytes", "interference", "_keys")

    def __init__(self):
        self.key: list = []
        self.span: List[Optional[Span]] = []
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("d")
        self.bytes = array("d")
        self.interference = array("d")
        self._keys: dict = {}

    def __len__(self) -> int:
        return len(self.t0)

    def append(
        self, key: tuple, span: Optional[Span], t0: float, work: float,
        user: float, interference: float,
    ) -> int:
        """Record one issued op; returns its row."""
        row = len(self.t0)
        self.key.append(self._keys.setdefault(key, key))
        self.span.append(span)
        self.t0.append(t0)
        self.t1.append(_NONE)
        self.work.append(work)
        self.bytes.append(user)
        self.interference.append(interference)
        return row

    def _row(self, i: int) -> dict:
        tag, kind, track, proc, *klass = self.key[i]
        span = self.span[i]
        t1 = self.t1[i]
        work = self.work[i]
        rec = {
            "oid": i + 1,
            "tag": tag,
            "kind": kind,
            "track": track,
            "proc": proc,
            "span": None if span is None else span.sid,
            "phase": None if span is None else span.name,
            "t0": self.t0[i],
            "t1": None if isnan(t1) else t1,
            "work": work,
        }
        if len(klass) == 3:
            user = self.bytes[i]
            rec["direction"] = klass[0]
            rec["pattern"] = klass[1]
            rec["bytes"] = user
            rec["threads"] = klass[2]
            rec["amplification"] = (work / user) if user > 0 else 0.0
            interference = self.interference[i]
            if not isnan(interference):
                rec["interference"] = interference
        elif klass:
            rec["mode"], rec["cores"] = klass
        return rec

    def snapshot(self, i: int) -> dict:
        """What a wait on row ``i``'s op records of it."""
        t1 = self.t1[i]
        return _snapshot(self.key[i], None if isnan(t1) else t1)


def _snapshot(key: tuple, t1: Optional[float]) -> dict:
    """A wait's record of the op it waited on: the kind, track and
    direction of the op's record ``key`` (:meth:`Tracer._op_key`) and
    its finish time ``t1``."""
    snap = {"kind": key[1], "track": key[2], "t1": t1}
    if len(key) == 7:
        snap["direction"] = key[4]
    return snap


class WaitLog(RowView):
    """Closed wait records (:meth:`Tracer.wait_end`), in engine-event order.

    Row ``i`` is ``{pid, t0, t1, kind, reason, resource}`` plus what the
    process was parked on: ``op`` (``io``), ``members`` (``parallel``) or
    ``targets`` (``join``).  Stored: ``pid`` / ``t0`` / ``t1`` columns, the
    interned ``(kind, reason, resource)`` key, and the parked-on part as
    ``ref`` plus ``extra``:

    * ``io``: ``ref`` is the op's row of the :class:`OpLog` (its kind,
      track, direction and ``t1`` are there), or ``ref`` is -1 and
      ``extra`` the explicit snapshot of an op with no such row;
    * ``parallel``: ``ref`` is where the members' op rows start in
      ``members`` and ``extra`` how many there are, or ``ref`` is -1 and
      ``extra`` the list of explicit snapshots;
    * ``join``: ``extra`` is the list of joined pids.
    """

    __slots__ = ("_ops", "pid", "t0", "t1", "key", "ref", "extra", "members", "_keys")

    def __init__(self, ops: OpLog):
        self._ops = ops
        self.pid = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.key: list = []
        self.ref = array("q")
        self.extra: list = []
        self.members = array("q")
        self._keys: dict = {}

    def __len__(self) -> int:
        return len(self.t0)

    def record(self, pid: int, t0: float, t1: float, key: tuple, ref: int, extra) -> None:
        self.pid.append(pid)
        self.t0.append(t0)
        self.t1.append(t1)
        self.key.append(self._keys.setdefault(key, key))
        self.ref.append(ref)
        self.extra.append(extra)

    def _row(self, i: int) -> dict:
        kind, reason, resource = self.key[i]
        rec = {
            "pid": self.pid[i],
            "t0": self.t0[i],
            "t1": self.t1[i],
            "kind": kind,
            "reason": reason,
            "resource": resource,
        }
        ref = self.ref[i]
        extra = self.extra[i]
        if kind == "io":
            if ref >= 0:
                rec["op"] = self._ops.snapshot(ref)
            elif extra is not None:
                rec["op"] = extra
        elif kind == "parallel":
            if ref >= 0:
                snapshot = self._ops.snapshot
                rec["members"] = [snapshot(r) for r in self.members[ref:ref + extra]]
            elif extra is not None:
                rec["members"] = extra
        elif kind == "join" and extra is not None:
            rec["targets"] = extra
        return rec


class CounterLog(RowView):
    """Counter samples: ``(t, track, series, value)`` rows, stored as
    ``t`` and ``value`` columns plus the interned ``(track, series)``
    key."""

    __slots__ = ("t", "value", "key", "_keys")

    def __init__(self):
        self.t = array("d")
        self.value = array("d")
        self.key: list = []
        self._keys: dict = {}

    def __len__(self) -> int:
        return len(self.t)

    def append(self, t: float, skey: Tuple[str, str], value: float) -> None:
        self.t.append(t)
        self.value.append(value)
        self.key.append(self._keys.setdefault(skey, skey))

    def _row(self, i: int) -> Tuple[float, str, str, float]:
        track, series = self.key[i]
        return (self.t[i], track, series, self.value[i])


#: Block verbs of the engine's own commands; any other verb is a
#: primitive's (a semaphore's ``acquire``, a retry's ``retrying-io``).
_ENGINE_WAITS = frozenset(("io", "sleep", "join", "parallel"))


class Tracer(Probe):
    """Collects spans, op records, instants and counter samples.

    All identifiers (span/op ids) are allocated from per-tracer
    counters, never from the module-global :class:`FluidOp` sequence --
    the global sequence does not reset between runs in one process, so
    leaking it into exports would break byte-identical re-runs.

    ``analyze=True`` arms the blocked-reason hooks consumed by
    :mod:`repro.trace.analyze`: one *wait record* per blocking engine
    command (why each coroutine waited, and on what) and one *process
    record* per spawned coroutine.  Like every other hook these are
    observe-only -- simulated results are bit-identical either way.
    The flag is read when the tracer is installed (it decides which
    bus events it subscribes to), so set it before :meth:`install`.
    """

    #: Track key used for a standalone machine (cluster shards use
    #: their domain keys instead).
    MAIN_TRACK = "machine"

    def __init__(self, analyze: bool = False):
        self.analyze = analyze
        self.spans: List[Span] = []
        self.ops = OpLog()
        self.instants: List[dict] = []
        #: ``(t, track, series, value)`` rows, change-suppressed per
        #: ``(track, series)`` so constant stretches cost one sample.
        self.counters = CounterLog()
        #: Closed wait records (``analyze`` mode), in engine-event
        #: order: one per blocking command with a positive duration;
        #: see :meth:`wait_end` for the schema.
        self.waits = WaitLog(self.ops)
        #: Process lifecycle records (``analyze`` mode):
        #: ``{pid, name, parent, t0, t1}`` per spawned coroutine.
        self.procs: List[dict] = []
        self._sid = itertools.count(1)
        #: Per-process span stacks; key 0 is "outside the engine".
        self._stacks: Dict[int, List[Span]] = {}
        self._engine: Optional["Engine"] = None
        #: Track the owner's DRAM tracker reports on.
        self._dram_track = self.MAIN_TRACK
        #: Track key -> machine, for profile/host lookups at op issue.
        self._machines: Dict[str, "Machine"] = {}
        self._last_counter: Dict[Tuple[str, str], float] = {}
        #: Timestamp of the last *emitted* sample per (track, series);
        #: lets the root-span flush skip tracks already current.
        self._counter_t: Dict[Tuple[str, str], float] = {}
        self._proc_index: Dict[int, dict] = {}
        #: pid -> ``(t0, kind, reason, resource)`` of its open wait.
        self._open_waits: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (0.0 before any engine is attached)."""
        return self._engine.now if self._engine is not None else 0.0

    @property
    def _current(self) -> Optional["Process"]:
        """The process being stepped right now (the engine owns it)."""
        return self._engine.current if self._engine is not None else None

    def bind(self, probes: ProbeSet) -> None:
        """Attach to the owner's live engine.  After a reboot the engine,
        fluid scheduler and DRAM tracker are all fresh, so the counter
        samplers are registered again; recorded data survives."""
        self._engine = probes.engine
        owner = probes.owner
        if owner is None:
            return  # a bare engine: spans and ops, no counter tracks
        shards = getattr(owner, "shards", None)
        if shards is None:
            self._watch_machine(owner)
        else:
            # One tracer watches the shared engine: a counter track per
            # shard, aggregate interconnect bandwidth on "net", and the
            # cluster-wide DRAM pool on "cluster".
            self._dram_track = "cluster"
            for shard in shards:
                self._watch_machine(shard)
            if owner.net_stats is not None:
                probes.engine.fluid.interval_observers.append(
                    self._make_net_observer()
                )
        # Emit the initial level so the DRAM track exists even for runs
        # that never allocate (OnePass consults would_fit only).
        self._last_counter.pop((self._dram_track, "dram_used"), None)
        self._dram_change(owner.dram.used)

    def _watch_machine(self, shard: "Machine") -> None:
        """Register one machine's counter track (a standalone machine,
        or a cluster shard)."""
        key = shard.domain if shard.domain is not None else self.MAIN_TRACK
        self._machines[key] = shard
        shard.engine.fluid.interval_observers.append(
            self._make_interval_observer(shard, key)
        )

    def subscriptions(self):
        subs = [
            ("op_issue", self.on_op_issue),
            ("op_done", self.on_op_complete),
            ("dram_change", self._dram_change),
            ("instant", self.instant),
            ("counter", self.counter_sample),
            ("complete_span", self.add_complete_span),
            ("span_scope", self.span),
        ]
        if self.analyze:
            subs += [
                ("spawn", self.analyze_spawn),
                ("block", self.wait_begin),
                ("wake", self.wait_end),
                ("finish", self.analyze_finish),
                # Close any open wait record while blocked_on is still
                # set, then stamp the process's end time.
                ("cancel", self.wait_end),
                ("cancel", self.analyze_finish),
                ("dram_pressure", self._dram_pressure),
            ]
        return subs

    def _dram_change(self, used: int) -> None:
        self.counter_sample(self._dram_track, "dram_used", float(used))

    def _dram_pressure(self, requested: int, used: int) -> None:
        self.instant(
            "dram_pressure",
            cat="analyze",
            track=self._dram_track,
            requested=requested,
            used=used,
        )

    def _make_interval_observer(self, machine: "Machine", key: str):
        """One machine track's sampler: global interval observers run
        after the epoch's group observers, so it reads the ``(read_bw,
        write_bw, cores)`` fields of the row ``DeviceStats`` just
        appended, or zeros if the machine was idle.  A new row is told by
        the length of the flat timeline, not by its ``t0`` (a float
        compare of simulated times)."""
        data = machine.stats.timeline.data
        seen = len(data)

        def observe(t0: float, _t1: float, _ops: list) -> None:
            nonlocal seen
            if len(data) == seen:
                read_bw = write_bw = cores = 0.0
            else:
                seen = len(data)
                read_bw = data[-3]
                write_bw = data[-2]
                cores = data[-1]
            self.counter_sample(key, "read_bw", read_bw, t=t0)
            self.counter_sample(key, "write_bw", write_bw, t=t0)
            self.counter_sample(key, "cores", cores, t=t0)

        return observe

    def _make_net_observer(self):
        """The ``"net"`` track's sampler: ``InterconnectStats`` rows, read
        likewise, from the first flow to one zero after the last."""
        data = self._engine.probes.owner.net_stats.timeline.data
        seen = len(data)

        def observe(t0: float, _t1: float, _ops: list) -> None:
            nonlocal seen
            if len(data) != seen:
                seen = len(data)
                self.counter_sample("net", "net_bw", data[-1], t=t0)
            elif self._last_counter.get(("net", "net_bw")):
                self.counter_sample("net", "net_bw", 0.0, t=t0)

        return observe

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin_span(
        self,
        name: str,
        cat: str = "phase",
        track: Optional[str] = None,
        **args: Any,
    ) -> Span:
        proc = self._current
        key = proc.pid if proc is not None else 0
        stack = self._stacks.setdefault(key, [])
        parent = stack[-1] if stack else None
        if parent is None and key != 0:
            # A process with no open span of its own nests under the
            # innermost span opened outside the engine (the root sort
            # span), keeping the exported tree connected.
            main = self._stacks.get(0)
            if main:
                parent = main[-1]
        span = Span(
            sid=next(self._sid),
            parent=None if parent is None else parent.sid,
            name=name,
            cat=cat,
            track=track if track is not None else self.MAIN_TRACK,
            proc=proc.name if proc is not None else "main",
            t0=self.now,
            args=args or None,
            pid=proc.pid if proc is not None else None,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.t1 = self.now
        proc = self._current
        key = proc.pid if proc is not None else 0
        stack = self._stacks.get(key)
        if stack:
            if stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)
        if span.parent is None and key == 0 and not self._stacks.get(0):
            # The root span (e.g. ``sort:wiscsort``) just closed: emit a
            # terminal sample for every counter track.  Samples are
            # change-suppressed, so a track whose value went flat before
            # the end would otherwise stop short of the run's end time.
            self._flush_counters(span.t1)

    def _flush_counters(self, t: float) -> None:
        for skey in sorted(self._last_counter):
            last_t = self._counter_t.get(skey)
            if last_t is None or last_t < t:
                self._counter_t[skey] = t
                self.counters.append(t, skey, self._last_counter[skey])

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "phase",
        track: Optional[str] = None,
        **args: Any,
    ):
        """``with tracer.span("phase:runs"):`` -- sim-time scoped span."""
        s = self.begin_span(name, cat=cat, track=track, **args)
        try:
            yield s
        finally:
            self.end_span(s)

    def add_complete_span(
        self,
        name: str,
        t0: float,
        t1: float,
        cat: str = "phase",
        track: Optional[str] = None,
        proc: str = "main",
        parent: Optional[int] = None,
        **args: Any,
    ) -> Span:
        """Record a span with explicit endpoints (retrospective spans:
        scheduler queue/service intervals known only at completion)."""
        span = Span(
            sid=next(self._sid),
            parent=parent,
            name=name,
            cat=cat,
            track=track if track is not None else self.MAIN_TRACK,
            proc=proc,
            t0=t0,
            args=args or None,
        )
        span.t1 = t1
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Instants and counters
    # ------------------------------------------------------------------
    def instant(
        self,
        name: str,
        cat: str = "event",
        track: Optional[str] = None,
        **args: Any,
    ) -> None:
        proc = self._current
        self.instants.append(
            {
                "name": name,
                "cat": cat,
                "track": track if track is not None else self.MAIN_TRACK,
                "proc": proc.name if proc is not None else "main",
                "t": self.now,
                "args": args or None,
            }
        )

    def counter_sample(
        self, track: str, series: str, value: float, t: Optional[float] = None
    ) -> None:
        skey = (track, series)
        last = self._last_counter.get(skey)
        if last is not None and last == value:
            return
        self._last_counter[skey] = value
        t_sample = self.now if t is None else t
        self._counter_t[skey] = t_sample
        self.counters.append(t_sample, skey, value)

    # ------------------------------------------------------------------
    # Engine / fluid hooks (bus callbacks; see subscriptions)
    # ------------------------------------------------------------------
    def on_op_issue(self, op: "FluidOp", t_issue: float) -> None:
        """Fluid-scheduler hook: every op passes through exactly once.
        The op keeps ``(tracer, row)`` in ``_trace`` for its completion
        and for the wait records of processes parked on it."""
        proc = self._engine.current
        if proc is None:
            stack, name = self._stacks.get(0), "main"
        else:
            stack, name = self._stacks.get(proc.pid), proc.name
        key = self._op_key(op, name)
        user = 0.0
        interference = _NONE
        if len(key) == 7:  # an I/O op
            attrs = op.attrs
            user = float(attrs.get("user_bytes", 0.0))
            machine = self._machines.get(key[2])
            if machine is not None:
                interference = self._interference(machine, attrs, attrs.get("domain"))
        row = self.ops.append(
            key, stack[-1] if stack else None, t_issue, op.work, user, interference
        )
        op._trace = (self, row)

    def _op_key(self, op: "FluidOp", proc: Optional[str]) -> tuple:
        """An op record's strings and small ints: ``(tag, kind, track,
        proc)``, then ``(direction, pattern, threads)`` for an I/O op or
        ``(mode, cores)`` for a CPU op."""
        attrs = op.attrs
        kind = op.kind
        if attrs is None:
            return (op.tag, kind, self.MAIN_TRACK, proc)
        domain = attrs.get("domain")
        track = domain if domain is not None else self.MAIN_TRACK
        if kind == "io":
            pattern = attrs.get("pattern")
            return (
                op.tag, kind, track, proc, attrs["direction"],
                getattr(pattern, "value", pattern), attrs.get("threads", 1),
            )
        if kind == "cpu":
            return (
                op.tag, kind, track, proc, attrs.get("mode", "compute"),
                attrs.get("cores", 1),
            )
        return (op.tag, kind, track, proc)

    def _interference(self, machine: "Machine", attrs: dict, domain) -> float:
        """Read-write interference multiplier in force at issue time: the
        profile's curve over the opposite direction's threads in flight
        in the machine's resource group (as ``Machine.observe_engine``
        keys it), counted as :class:`~repro.device.device.BraidRateModel`
        counts them when capping per-op bandwidth."""
        reads = attrs["direction"] == "read"
        rival = OBS_IO_WRITE if reads else OBS_IO_READ
        threads = 0.0
        for other in self._engine.fluid.group_ops(
            SHARED_GROUP if domain is None else domain
        ):
            code = other._obs
            if code is None:
                code = observer_code(other)
            if code == rival:
                threads += other.attrs.get("threads", 1)
        interference = machine.profile.interference
        if reads:
            return interference.read_multiplier(threads)
        return interference.write_multiplier(threads)

    def on_op_complete(self, op: "FluidOp", t_done: float) -> None:
        trace = getattr(op, "_trace", None)
        if trace is not None and trace[0] is self:
            t1 = self.ops.t1
            row = trace[1]
            if isnan(t1[row]):  # not completed before
                t1[row] = t_done

    # No bus event calls the next two: benchmarks/ledger/trace.py times
    # them by name among the tracer's hooks, so they go with that list.
    def on_rerate(self, n_ops: int) -> None:
        """Fluid re-rate instant."""
        self.instants.append(
            {
                "name": "rerate",
                "cat": "sched",
                "track": "sched",
                "proc": "fluid",
                "t": self.now,
                "args": {"ops": n_ops},
            }
        )

    def sched_event(self, verb: str, proc: "Process", _detail: Any = None) -> None:
        """Engine scheduling instant."""
        self.instants.append(
            {
                "name": verb,
                "cat": "sched",
                "track": "sched",
                "proc": proc.name,
                "t": self.now,
                "args": None,
            }
        )

    # ------------------------------------------------------------------
    # Blocked-reason hooks (subscribed in ``analyze`` mode only)
    # ------------------------------------------------------------------
    def analyze_spawn(self, proc: "Process") -> None:
        """Record a process's birth; parent is the spawning coroutine
        (None for processes spawned from outside the engine)."""
        parent = self._current
        rec = {
            "pid": proc.pid,
            "name": proc.name,
            "parent": parent.pid if parent is not None else None,
            "t0": self.now,
            "t1": None,
        }
        self._proc_index[proc.pid] = rec
        self.procs.append(rec)

    def analyze_finish(self, proc: "Process", _now: Optional[float] = None) -> None:
        rec = self._proc_index.get(proc.pid)
        if rec is not None and rec["t1"] is None:
            rec["t1"] = self.now

    def wait_begin(self, proc: "Process", resource: Any, verb: str) -> None:
        """Open a wait record for ``proc`` at the current instant.

        The record's ``kind`` is the verb for the engine's own commands
        (``io`` / ``parallel`` / ``sleep`` / ``join``) and ``primitive``
        otherwise; for primitives ``reason`` carries the resource's
        blocked-reason tag (or the verb) and the resource's name is
        recorded.
        """
        if verb in _ENGINE_WAITS:
            kind, reason, name = verb, None, None
        else:
            kind = "primitive"
            reason = getattr(resource, "reason", None) or verb
            name = getattr(resource, "name", None) or None
        self._open_waits[proc.pid] = (self._engine.now, kind, reason, name)

    def wait_end(self, proc: "Process", _detail: Any = None) -> None:
        """Close ``proc``'s open wait record (no-op without one).

        Must run while ``proc.blocked_on`` is still set: the record
        keeps what the process was parked on -- the waited-for op's
        kind/track/direction/finish time (``io``), each member op's
        (``parallel``), or the joined pids (``join``).  An op is kept as
        its row when that row already says what a snapshot would, else
        as an explicit snapshot.  Zero-duration waits are dropped; they
        contribute nothing to any decomposition.
        """
        opened = self._open_waits.pop(proc.pid, None)
        if opened is None:
            return
        t0, kind, reason, name = opened
        t1 = self._engine.now
        if t1 <= t0:
            return
        blocked = proc.blocked_on
        ref, extra = -1, None
        if kind == "io" and isinstance(blocked, FluidOp):
            ref = self._op_row(blocked)
            if ref < 0:
                extra = _snapshot(self._op_key(blocked, None), blocked.finished_at)
        elif kind == "parallel" and isinstance(blocked, list):
            members = [op for op in blocked if isinstance(op, FluidOp)]
            rows = [self._op_row(op) for op in members]
            if -1 in rows:
                extra = [
                    _snapshot(self._op_key(op, None), op.finished_at) for op in members
                ]
            else:
                ref, extra = len(self.waits.members), len(rows)
                self.waits.members.extend(rows)
        elif kind == "join" and blocked is not None:
            targets = getattr(blocked, "targets", None)
            if targets is not None:
                extra = [t.pid for t in targets]
        self.waits.record(proc.pid, t0, t1, (kind, reason, name), ref, extra)

    def _op_row(self, op: FluidOp) -> int:
        """``op``'s row of :attr:`ops` if that row's ``t1`` is the op's
        finish time now (a finished op: the row no longer changes), else
        -1."""
        trace = getattr(op, "_trace", None)
        if trace is None or trace[0] is not self:
            return -1
        row = trace[1]
        same = self.ops.t1[row] == op.finished_at  # reprolint: disable=SIM004 -- the very value a snapshot would hold, not a time order
        return row if same else -1

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def end_time(self) -> float:
        """Latest timestamp recorded anywhere (used to close open spans
        at export time and to bound counter tracks)."""
        t = 0.0
        for span in self.spans:
            if span.t1 is not None and span.t1 > t:
                t = span.t1
            elif span.t0 > t:
                t = span.t0
        for done in self.ops.t1:
            if done > t:  # False for NaN (still running)
                t = done
        for ev in self.instants:
            if ev["t"] > t:
                t = ev["t"]
        if self.counters:
            last = self.counters.t[-1]
            if last > t:
                t = last
        return t

    def span_names(self) -> List[str]:
        """Distinct span names in first-appearance order."""
        seen: Dict[str, bool] = {}
        for span in self.spans:
            seen.setdefault(span.name, True)
        return list(seen)

    def rollup_rows(self) -> List[Tuple[str, str, str, str, float, float, int]]:
        """Traffic grouped by phase x device class x track.

        Returns ``(phase, tag, class, track, user_bytes, work, ops)``
        rows sorted by descending work -- the attribution table behind
        :func:`repro.trace.export.render_phase_rollup`.
        """
        acc: Dict[Tuple[str, str, str, str], List[float]] = {}
        for rec in self.ops:
            if rec["kind"] == "io":
                klass = f"{rec['direction']}/{rec['pattern']}"
            else:
                klass = f"cpu/{rec.get('mode', 'compute')}"
            gkey = (
                rec["phase"] if rec["phase"] is not None else "(unattributed)",
                rec["tag"] or "(untagged)",
                klass,
                rec["track"],
            )
            slot = acc.get(gkey)
            if slot is None:
                slot = [0.0, 0.0, 0]
                acc[gkey] = slot
            slot[0] += rec.get("bytes", 0.0)
            slot[1] += rec["work"]
            slot[2] += 1
        rows = [
            (phase, tag, klass, trk, vals[0], vals[1], vals[2])
            for (phase, tag, klass, trk), vals in sorted(acc.items())
        ]
        rows.sort(key=lambda r: (-r[5], r[0], r[1], r[2], r[3]))
        return rows
