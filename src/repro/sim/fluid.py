"""Fluid-flow work scheduling.

In-flight work items (:class:`FluidOp`) progress simultaneously at rates
assigned by a :class:`RateModel`.  Whenever the set of active ops changes,
the scheduler re-rates the affected ops and computes the next completion
time.  This is the standard processor-sharing "fluid" approximation used
by storage and network simulators: instead of modelling individual
requests, each op is a flow whose instantaneous rate depends on who else
is active.

Rate semantics: an op carries ``work`` in arbitrary units (bytes for I/O,
cpu-seconds for compute) and the model assigns a rate in units/second.
The model also exposes max-min *progressive filling* over shared
resources (see :class:`repro.device.host.HostModel`), but the kernel only
requires the ``assign`` callable.

Hot-path design (see DESIGN.md "Fluid core: one group, one storage"):

* **Resource groups** -- ops are partitioned by
  :meth:`RateModel.resource_key`; a membership change only re-rates the
  ops of a dirty group.  A group (:class:`_Group`) is five parallel,
  issue-ordered, hole-free Python lists -- ``ops / rem / rate / finish /
  sig`` -- so its ``ops`` column *is* the issue-ordered view interval
  observers of that resource receive (:meth:`FluidScheduler.observe_group`),
  a settle is one comprehension and a solve one walk over ``sig``.
* **Rate tables** -- when the model implements the vector protocol
  (:meth:`RateModel.vector_state` / :meth:`RateModel.vector_sig`) a
  group memoizes ``(state token, signature population) -> rate table``: one
  ``model.assign`` call per distinct population, a table walk per solve
  after that.  Models without the protocol get one ``model.assign`` call
  where the table lookup would be.  ``REPRO_SIM_VECTOR=0`` turns the
  protocol off for every model, which makes that the reference path the
  equivalence suites compare against.
* **Completion structure** -- no event heap: each group caches
  ``min(finish)``, the next event is the least of those and completion
  is the scan ``finish <= now``.  A constant-rate op's absolute finish
  time is invariant under settling, so a finish entry is only
  (re)computed when the op's rate actually changes.
* **Coalesced completions** -- all ops finishing at the same simulated
  instant pop in one call and are returned sorted by ``seq`` (the op's
  stable integer id) so waiters resume deterministically; see
  :meth:`FluidScheduler.pop_completed` for the ordering invariant.
  Zero-work ops never enter the active set at all.

Determinism invariants (asserted by
``tests/property/test_fluid_kernels.py`` at the scheduler and by
``tests/test_vector_equivalence.py`` on whole sorts):

1. rates come from ``model.assign`` floats (a table is filled by one
   assignment per signature population and reused, never re-derived);
2. settle debits are elementwise ``rem - rate * dt``; nothing that is
   accumulated is ever reduced across ops;
3. a finish time is ``now + rem / rate`` evaluated once, at the instant
   the rate changed, never on settle;
4. completions are collected per group in column (= issue) order and
   globally sorted by op id.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.probe import ProbeSet

#: Absolute work units (bytes / cpu-seconds) below which a *stalled*
#: (zero-rate) op is considered complete.  Completion is normally
#: event-driven -- an op finishes exactly when the clock reaches its
#: scheduled finish time -- so this only rescues ops whose rate dropped
#: to zero with nothing but floating-point residue left.  The threshold
#: is deliberately absolute: a relative threshold (fraction of original
#: work) would prematurely complete multi-GB ops with real bytes still
#: outstanding.
_EPSILON = 1e-12

#: Tolerance for comparing simulated-time instants.  Event times are
#: sums of float intervals, so exact ``==`` between independently
#: computed instants is schedule-dependent; reprolint rule SIM004
#: points offenders at these helpers.
_TIME_EPSILON = 1e-12

_INF = float("inf")


def time_eq(a: float, b: float, eps: float = _TIME_EPSILON) -> bool:
    """Whether two simulated-time instants coincide (within ``eps``)."""
    return abs(a - b) <= eps


def time_ne(a: float, b: float, eps: float = _TIME_EPSILON) -> bool:
    """Whether two simulated-time instants genuinely differ."""
    return abs(a - b) > eps


def vector_enabled(default: bool = True) -> bool:
    """Whether the kernel may use the models' vector protocol.

    Controlled by the ``REPRO_SIM_VECTOR`` environment variable
    (``0``/``false``/``off``/``no`` disable; unset means enabled).  Off
    means no rate tables: every solve is one ``model.assign`` call.
    Read dynamically so tests can flip paths per scheduler instance.
    """
    value = os.environ.get("REPRO_SIM_VECTOR")
    if value is None:
        return default
    return value.strip().lower() not in ("0", "false", "off", "no", "")


def remaining_work(op: "FluidOp") -> float:
    """The op's settled remaining work (alias of ``op.remaining``)."""
    return op.remaining


_op_counter = itertools.count()

_SEQ_KEY = attrgetter("seq")

#: Default resource-group key for models where all ops are coupled.
SHARED_GROUP = "*"


class FluidOp:
    """A unit of timed work processed by the fluid scheduler.

    Parameters
    ----------
    work:
        Total amount of work (bytes for I/O ops, cpu-seconds for compute
        ops).  Must be non-negative; zero-work ops complete immediately.
    kind:
        Free-form string consumed by the rate model, e.g. ``"io"`` or
        ``"cpu"``.
    tag:
        Category label used for statistics attribution (e.g. ``"RUN
        read"``).  Not interpreted by the kernel.
    attrs:
        Arbitrary attributes the rate model understands (direction,
        access pattern, host-traffic ratio, ...).  May be passed as a
        prebuilt dict (``attrs=...``) or as keyword arguments; ops with
        no attributes store ``None`` instead of allocating an empty
        dict -- rate models treat ``None`` as empty.

    Every op carries a stable integer id in ``seq`` (monotone in
    creation order, unique per process); completion batches and the
    issue-ordered observer view are ordered by it.
    """

    __slots__ = (
        "work",
        "kind",
        "tag",
        "attrs",
        "_remaining",
        "rate",
        "started_at",
        "finished_at",
        "seq",
        "_waiter",
        "on_complete",
        "_collector",
        "_sig",
        "_res_key",
        "_trace",
        "_vg",
        "_obs",
    )

    def __init__(
        self,
        work: float,
        kind: str,
        tag: str = "",
        attrs: Optional[dict] = None,
        **extra,
    ):
        if not 0 <= work < _INF:
            raise ValueError(f"FluidOp work must be finite and >= 0, got {work}")
        self.work = float(work)
        self.kind = kind
        self.tag = tag
        if attrs is None:
            attrs = extra if extra else None
        elif extra:
            attrs = {**attrs, **extra}
        self.attrs = attrs
        self._remaining = self.work
        self.rate = 0.0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.seq = next(_op_counter)
        self._waiter = None  # Process resumed on completion (set by Engine)
        self.on_complete: Optional[Callable[["FluidOp"], object]] = None
        #: Alternative completion sink used by parallel issues (see
        #: :class:`repro.sim.engine.ParallelOps`).
        self._collector: Optional[Callable[["FluidOp", object], None]] = None
        #: Rate-model scratch: rate signature, resource group.
        self._sig = None
        self._res_key = None
        #: Owning :class:`_Group` while the op is in flight, else None.
        self._vg = None
        #: Cached interval-observer classification (see
        #: :func:`observer_code`); shared by stats and tracer observers.
        self._obs = None

    @property
    def op_id(self) -> int:
        """Stable integer identity (alias of ``seq``)."""
        return self.seq

    @property
    def remaining(self) -> float:
        """Settled remaining work.

        While the op is in flight the authoritative value is its row of
        the owning group's ``rem`` column; the op's own copy is written
        when it leaves the group (completion or cancel).
        """
        group = self._vg
        if group is None:
            return self._remaining
        return group.rem[group.ops.index(self)]

    @remaining.setter
    def remaining(self, value: float) -> None:
        self._remaining = value

    @property
    def duration(self) -> float:
        """Elapsed simulated time, valid once the op has finished."""
        if self.started_at is None or self.finished_at is None:
            raise SimulationError("op has not completed yet")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FluidOp(kind={self.kind!r}, tag={self.tag!r}, "
            f"work={self.work:.3g}, remaining={self.remaining:.3g})"
        )


#: Interval-observer classification codes cached on ``op._obs`` so the
#: per-epoch observer callbacks (device stats, tracer counter tracks)
#: classify each op once instead of re-reading kind/attrs every
#: interval.  Purely a lookup cache: the accumulation arithmetic and its
#: order are unchanged.
OBS_IO_READ = 0
OBS_IO_WRITE = 1
OBS_CPU_COMPUTE = 2
OBS_CPU_COPY = 3
OBS_OTHER = 4
OBS_NET = 5


def observer_code(op: FluidOp) -> int:
    """Classify (and cache) an op for interval-observer accumulation."""
    kind = op.kind
    if kind == "io":
        code = (
            OBS_IO_READ
            if op.attrs["direction"] == "read"
            else OBS_IO_WRITE
        )
    elif kind == "cpu":
        attrs = op.attrs
        mode = "compute" if attrs is None else attrs.get("mode", "compute")
        code = OBS_CPU_COMPUTE if mode == "compute" else OBS_CPU_COPY
    elif kind == "net":
        code = OBS_NET
    else:
        code = OBS_OTHER
    op._obs = code
    return code


def predicted_finish(op: FluidOp) -> float:
    """The op's currently scheduled absolute finish time.

    ``inf`` while the op is stalled (rate 0) or not in flight.
    """
    group = op._vg
    if group is None:
        return _INF
    return group.finish[group.ops.index(op)]


class RateModel:
    """Assigns instantaneous rates to the set of active ops.

    Subclasses implement :meth:`assign`.  The kernel calls it every time
    the active-op population of a resource group changes; between calls
    rates are constant.

    Models may additionally opt into per-group rate tables by
    implementing :meth:`vector_state` and :meth:`vector_sig`; the
    contract is that ``assign`` must be *signature-pure*: two ops with
    equal ``vector_sig`` in the same population always receive the same
    rate, and rates depend on nothing but the signature multiset and
    the ``vector_state`` token.
    """

    def assign(self, ops: Iterable[FluidOp]) -> Dict[FluidOp, float]:
        raise NotImplementedError

    def resource_key(self, op: FluidOp):
        """Resource-group key: ops in different groups never interact.

        The default places every op in one shared group (safe for any
        model).  Models whose ops are independent can return per-op keys
        so a membership change re-rates only the affected ops.
        """
        return SHARED_GROUP

    def vector_state(self, key) -> Optional[object]:
        """Hashable token of all model state rates depend on, besides
        the group population -- e.g. a fault-degradation multiplier.

        Returning ``None`` (the default) means the model does not
        implement the protocol for this group: the scheduler then calls
        ``assign`` on every solve instead of memoizing rate tables.
        """
        return None

    def vector_sig(self, op: FluidOp):
        """Hashable per-op rate signature (see class docstring).

        Only called when :meth:`vector_state` returned a token.
        """
        raise NotImplementedError


class UniformRateModel(RateModel):
    """Trivial model: every op progresses at a fixed rate.

    Useful for kernel unit tests where device semantics are irrelevant.
    Ops are rate-independent, so each is its own resource group and a
    membership change never re-rates anyone else.
    """

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def assign(self, ops: Iterable[FluidOp]) -> Dict[FluidOp, float]:
        return {op: self.rate for op in ops}

    def resource_key(self, op: FluidOp):
        return op.seq


class NetLinkRateModel(RateModel):
    """Max-min fair interconnect: full-duplex per-endpoint links.

    Each flow (``kind="net"`` op) names a source and destination
    endpoint in ``attrs["src"]`` / ``attrs["dst"]`` and consumes
    bandwidth on two resources: the source's transmit link and the
    destination's receive link, each capped at ``link_bw`` bytes/s
    (full duplex -- tx and rx are independent).  Rates are assigned by
    progressive filling (the classic max-min water-fill, cf. the
    BRAID model's channel fill in :mod:`repro.device.device`):
    repeatedly find the most contended link, freeze its flows at an
    equal share, subtract, repeat.  *Incast* falls out naturally: N
    flows converging on one receiver each get ``link_bw / N`` unless
    an even tighter tx link caps them first.

    Deterministic: bottleneck ties break on sorted endpoint name and
    flows freeze in op-id order, so equal populations always produce
    identical float assignments.  The model does not implement the
    vector protocol (``vector_state`` -> None): a flow's rate depends
    on its endpoints' whole neighbourhood, not on a per-op signature,
    and shuffle fan-out is a handful of flows per epoch.
    """

    def __init__(self, link_bw: float = 12.5e9):
        if link_bw <= 0:
            raise ValueError(f"link_bw must be positive, got {link_bw}")
        #: Per-endpoint, per-direction link bandwidth in bytes/second
        #: (default 12.5e9 B/s = one 100 GbE port per shard).
        self.link_bw = float(link_bw)

    def assign(self, ops: Iterable[FluidOp]) -> Dict[FluidOp, float]:
        flows = sorted(ops, key=_SEQ_KEY)
        rates: Dict[FluidOp, float] = {}
        remaining: Dict[tuple, float] = {}
        counts: Dict[tuple, int] = {}
        flow_links: Dict[FluidOp, tuple] = {}
        for op in flows:
            attrs = op.attrs or {}
            links = []
            src = attrs.get("src")
            dst = attrs.get("dst")
            if src is not None:
                links.append(("tx", src))
            if dst is not None:
                links.append(("rx", dst))
            if not links:
                # Endpoint-less flow: uncontended, full line rate.
                rates[op] = self.link_bw
                continue
            flow_links[op] = tuple(links)
            for link in links:
                remaining.setdefault(link, self.link_bw)
                counts[link] = counts.get(link, 0) + 1
        unfrozen = [op for op in flows if op in flow_links]
        while unfrozen:
            # Bottleneck link: smallest equal share among contended
            # links; sorted() keys make float ties deterministic.
            share = _INF
            bottleneck = None
            for link in sorted(counts):
                n = counts[link]
                if n <= 0:
                    continue
                s = remaining[link] / n
                if s < share:
                    share = s
                    bottleneck = link
            if bottleneck is None:  # pragma: no cover - defensive
                break
            share = max(share, 0.0)
            still = []
            for op in unfrozen:
                if bottleneck in flow_links[op]:
                    rates[op] = share
                    for link in flow_links[op]:
                        remaining[link] -= share
                        counts[link] -= 1
                else:
                    still.append(op)
            unfrozen = still
        return rates


class _Group:
    """One resource group: five parallel, issue-ordered, hole-free columns.

    Row ``i`` of every column describes ``ops[i]``: settled remaining
    work, current rate, scheduled absolute finish time (``inf`` while
    stalled) and interned signature id.  Rows are kept in ascending op
    id, so ``ops`` is the issue-ordered list interval observers of this
    resource receive.  ``min_finish`` caches ``min(finish)``, which makes
    the engine's next-event query and the completion sweep O(1)
    comparisons between events.  Signature interning, the rate-table
    memo's contents and op linkage are the scheduler's.
    """

    __slots__ = (
        "key",
        "ops",
        "rem",
        "rate",
        "finish",
        "sig",
        "memo",
        "min_finish",
        "tabled",
    )

    #: Populations memoized per group before the table cache resets
    #: (prevents unbounded growth under adversarial churn; steady-state
    #: workloads cycle through a handful of populations).
    MEMO_LIMIT = 8192

    def __init__(self, key, tabled: bool):
        self.key = key
        #: Whether solves go through the rate-table memo (the model
        #: implements the vector protocol for this key).
        self.tabled = tabled
        #: (state token, signature population) -> rate table by signature id.
        self.memo: Dict[tuple, Dict[int, float]] = {}
        self.ops: List[FluidOp] = []
        self.rem: List[float] = []
        self.rate: List[float] = []
        self.finish: List[float] = []
        self.sig: List[int] = []
        self.min_finish = _INF

    def remove(self, rows: List[int]) -> None:
        """Close the given rows (ascending indices)."""
        finish = self.finish
        for i in reversed(rows):
            del self.ops[i], self.rem[i], self.rate[i], finish[i], self.sig[i]
        self.min_finish = min(finish) if finish else _INF

    def apply(self, new: Iterable[float], now: float) -> int:
        """Install per-row rates in place (one pass, ``new`` may be a
        lazy iterable), rescheduling the rows whose rate changed."""
        rate = self.rate
        ops = self.ops
        rem = self.rem
        finish = self.finish
        # Nearly every row changes: count the ones that do not.
        same = 0
        for i, r in enumerate(new):
            if r == rate[i]:
                same += 1
                continue
            rate[i] = r
            ops[i].rate = r
            if r > 0.0:
                finish[i] = now + rem[i] / r
            elif rem[i] <= _EPSILON:
                # Stalled with only float residue left: let it
                # complete now instead of deadlocking.
                finish[i] = now
            else:
                finish[i] = _INF
        changed = len(rate) - same
        if changed:
            self.min_finish = min(finish)
        return changed


def _reject_negative(group: _Group, lowest_rate: float) -> None:
    if lowest_rate < 0:
        raise SimulationError(
            f"model returned a negative rate for group {group.key!r}"
        )


class FluidScheduler:
    """Tracks active ops, advances their work, finds next completion.

    The owning :class:`~repro.sim.engine.Engine` drives this object:
    ``settle`` debits work done since the last settle, ``rerate`` asks the
    model for fresh rates for dirty resource groups, and
    ``next_completion`` reports when the earliest op will finish under
    current rates.
    """

    def __init__(
        self,
        model: RateModel,
        start_time: float = 0.0,
        vector: Optional[bool] = None,
        probes: Optional[ProbeSet] = None,
    ):
        self.model = model
        #: The owning engine's probe bus (a private empty one on a bare
        #: scheduler); see :mod:`repro.sim.probe`.
        self.probes = probes if probes is not None else ProbeSet()
        self.active: set[FluidOp] = set()
        self._last_settled = start_time
        self.dirty = False
        #: Observers called as fn(t0, t1, ops) once per constant-rate
        #: interval (settle epoch) with *every* active op, in issue
        #: order so float accumulations downstream are run-to-run
        #: deterministic.  They run after that epoch's group observers,
        #: so a statistics row a group observer appends is already
        #: there to read.  Observers of one resource subscribe with
        #: :meth:`observe_group` instead and skip the global view.
        self.interval_observers: list[Callable[[float, float, list], None]] = []
        self._group_observers: Dict[object, list] = {}
        #: Resource groups by key.  Tabled groups stay registered while
        #: empty (their rate-table memo is the point); the others are
        #: dropped by the rerate that finds them empty.
        self._groups: Dict[object, _Group] = {}
        self._dirty_keys: set = set()
        #: Issue-ordered list of all active ops, built on demand for
        #: ``interval_observers``; ``None`` after a membership change.
        self._ordered: Optional[list] = None
        #: Whether the models' vector protocol (rate tables) is used.
        self.vector = vector_enabled() if vector is None else bool(vector)
        #: Signature -> interned id, shared across groups.
        self._sig_ids: Dict[object, int] = {}
        # Self-performance counters (read by repro.perf).
        self.ops_added = 0
        self.ops_completed = 0
        self.ops_cancelled = 0
        self.rerate_calls = 0
        self.ops_rerated = 0
        self.rate_changes = 0
        self.vector_solves = 0
        self.vector_ops_solved = 0
        self.scalar_fallbacks = 0

    # ------------------------------------------------------------------
    def observe_group(self, key, observer: Callable[[float, float, list], None]) -> None:
        """Subscribe ``observer`` to one resource key.

        It is called as ``observer(t0, t1, ops)`` once per settle epoch
        in which the group has live ops, with the group's own
        issue-ordered ``ops`` column (not a copy: read it, don't keep it).
        """
        self._group_observers.setdefault(key, []).append(observer)

    def group_ops(self, key) -> list:
        """One resource group's live, issue-ordered ops (read, don't keep)."""
        group = self._groups.get(key)
        return group.ops if group is not None else []

    def add(self, op: FluidOp, now: float) -> None:
        for fn in self.probes.op_issue:
            # Single choke point: direct yields, ParallelOps members
            # and fault-retry re-issues all pass through here, and the
            # hook runs before the zero-work fast path so even 0-byte
            # ops get records.
            fn(op, now)
        op.started_at = now
        if op._remaining <= 0:
            # Zero-work op: mark complete instantly; caller handles wakeup.
            op.finished_at = now
            return
        model = self.model
        key = model.resource_key(op)
        op._res_key = key
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(
                key, self.vector and model.vector_state(key) is not None
            )
        sid = 0
        if group.tabled:
            sig = model.vector_sig(op)
            sig_ids = self._sig_ids
            sid = sig_ids.get(sig)
            if sid is None:
                sid = sig_ids[sig] = len(sig_ids)
        # Open the op's row: rate 0, nothing scheduled.
        ops = group.ops
        if ops and op.seq < ops[-1].seq:
            # Created before, issued after, a current member: rows stay
            # in op-id order, which is what "issue order" means here.
            i = bisect_left(ops, op.seq, key=_SEQ_KEY)
            ops.insert(i, op)
            group.rem.insert(i, op._remaining)
            group.rate.insert(i, 0.0)
            group.finish.insert(i, _INF)
            group.sig.insert(i, sid)
        else:
            ops.append(op)
            group.rem.append(op._remaining)
            group.rate.append(0.0)
            group.finish.append(_INF)
            group.sig.append(sid)
        op._vg = group
        self.active.add(op)
        self._ordered = None
        self._dirty_keys.add(key)
        self.dirty = True
        self.ops_added += 1

    def settle(self, now: float) -> None:
        """Debit work accomplished between the last settle and ``now``.

        Interval observers fire exactly once per settle epoch, each with
        an issue-ordered op list: group observers first, then the global
        ones (which may read what the former recorded; settling leaves
        every ``op.rate`` untouched).  The work debit itself is
        elementwise (``rem - rate * dt``).
        """
        self._settle(now, None)

    def settle_due(self, now: float) -> list[FluidOp]:
        """:meth:`settle` to ``now``, then :meth:`pop_completed`, with
        the groups holding due rows collected by the settle pass."""
        due: List[_Group] = []
        if not self._settle(now, due):
            due = [g for g in self._groups.values() if g.min_finish <= now]  # reprolint: disable=SIM003 -- batch is sorted by op id
        return self._pop(due, now)

    def _settle(self, now: float, due: Optional[List[_Group]]) -> bool:
        """The settle pass; appends groups with due rows to ``due``.
        Returns whether it visited every group."""
        t0 = self._last_settled
        dt = now - t0
        if dt < 0:
            raise SimulationError(f"time went backwards: {dt}")
        visited = dt > 0 and bool(self.active)
        if visited:
            # Groups never interact and each observer accumulates into
            # its own totals, so group order cannot reach any float.
            observers = self._group_observers
            for key, group in self._groups.items():
                ops = group.ops
                if ops:
                    for observer in observers.get(key, ()):
                        observer(t0, now, ops)
                    group.rem = [r - q * dt for r, q in zip(group.rem, group.rate)]
                    if due is not None and group.min_finish <= now:
                        due.append(group)
            if self.interval_observers:
                ops = self._ordered
                if ops is None:
                    ops = self._ordered = self._issue_ordered()
                for observer in self.interval_observers:
                    observer(t0, now, ops)
        self._last_settled = now
        return visited

    def _issue_ordered(self) -> list:
        """Every active op in issue order: the groups' columns, merged."""
        columns = [
            g.ops
            for g in self._groups.values()  # reprolint: disable=SIM003 -- sorted below
            if g.ops
        ]
        if len(columns) == 1:
            return columns[0]
        return sorted(itertools.chain.from_iterable(columns), key=_SEQ_KEY)

    def rerate(self, now: float) -> None:
        """Recompute rates for ops in dirty resource groups.

        Must be called with the scheduler settled to ``now``; completion
        times are derived from the settled remaining work.  Ops whose
        rate is unchanged keep their existing scheduled finish time (a
        constant-rate op's absolute finish time is settle-invariant).
        """
        self._rerate(now, None)

    def refresh(self, now: float) -> list[FluidOp]:
        """The engine's pass at an instant whose membership changed:
        :meth:`settle`, :meth:`rerate`, :meth:`pop_completed`.  Only a
        re-rated group can hold a due row -- every other group's were
        popped when the clock reached ``now`` -- unless the settle had
        time to debit, and then its pass collects them."""
        due: List[_Group] = []
        if now - self._last_settled:
            self._settle(now, due)
        self._rerate(now, due)
        return self._pop(due, now) if due else []

    def _rerate(self, now: float, due: Optional[List[_Group]]) -> None:
        """The re-rate pass; appends re-rated groups with due rows to
        ``due`` (once each)."""
        keys = self._dirty_keys
        if keys:
            self.rerate_calls += 1
            groups = self._groups
            n = 0
            # Dirty-key order cannot leak into results: groups never
            # interact, and completions are ordered by (time, op id).
            # Keys may mix types (shared "*" vs per-op ints), so sorted()
            # is not an option.
            for key in keys:  # reprolint: disable=SIM003 -- order-independent, see comment above
                group = groups.get(key)
                if group is not None:
                    n += self._solve(group, now)
                    if due is not None and group.min_finish <= now and group not in due:
                        due.append(group)
            keys.clear()
            if n:
                self.ops_rerated += n
                for fn in self.probes.rerate:
                    fn(n)
        self.dirty = False

    def _solve(self, group: _Group, now: float) -> int:
        """Re-rate one dirty group; returns how many ops it holds.

        Also the one place an untabled group is retired, since every
        membership change dirties its key and lands here.
        """
        n = len(group.ops)
        if not group.tabled:
            if not n:
                del self._groups[group.key]
                return 0
            if self.vector:
                self.scalar_fallbacks += 1
            rates = self.model.assign(group.ops)
            new = [rates.get(op, 0.0) for op in group.ops]
            _reject_negative(group, min(new))
            self.rate_changes += group.apply(new, now)
            return n
        if not n:
            return 0
        # The memo key is the live signature multiset: O(live rows),
        # never O(signatures the scheduler has seen).
        memo_key = (self.model.vector_state(group.key), tuple(sorted(group.sig)))
        table = group.memo.get(memo_key)
        if table is None:
            table = self._build_table(group, memo_key)
        self.vector_solves += 1
        self.vector_ops_solved += n
        self.rate_changes += group.apply(map(table.__getitem__, group.sig), now)
        return n

    def _build_table(self, group: _Group, memo_key: tuple) -> Dict[int, float]:
        """Memo miss: one model assignment fills the signature table."""
        assigned = self.model.assign(group.ops)
        table = {sid: assigned.get(op, 0.0) for op, sid in zip(group.ops, group.sig)}
        _reject_negative(group, min(table.values()))
        memo = group.memo
        if len(memo) >= _Group.MEMO_LIMIT:
            memo.clear()
        memo[memo_key] = table
        return table

    def _release(self, group: _Group, rows: List[int]) -> None:
        """Take rows out of a group: the teardown completion and cancel share."""
        ops = group.ops
        active = self.active
        for i in rows:
            op = ops[i]
            op._vg = None
            active.discard(op)
        group.remove(rows)
        self._ordered = None
        self._dirty_keys.add(group.key)
        self.dirty = True

    # ------------------------------------------------------------------
    def cancel_op(self, op: FluidOp) -> bool:
        """Withdraw an in-flight op without completing it.

        Used by speculative-execution loser cancellation
        (:meth:`repro.sim.engine.Engine.cancel_tree`).  The caller must
        settle the scheduler to the current instant first so the op's
        progress up to cancellation is debited and observed -- interval
        observers then account exactly the work that physically
        happened before the cancel, no more.  The op never reaches the
        completion queue: its row is closed and survivors' rates are
        recomputed at the next rerate (the freed bandwidth speeds them
        up from *now*, not retroactively).  Returns False if the op was
        not active (already completed or never issued).
        """
        group = op._vg
        if group is None:
            return False
        i = group.ops.index(op)
        op._remaining = group.rem[i]
        op.rate = 0.0
        self._release(group, [i])
        self.ops_cancelled += 1
        return True

    # ------------------------------------------------------------------
    def invalidate_rates(self) -> None:
        """Force a full re-rate at the next settle point.

        Used when the rate model's *global* state changes mid-run (e.g.
        a fault-injected throughput-degradation window opening or
        closing): every populated resource group is marked dirty so the
        next ``rerate`` call recomputes all active rates under the new
        model state.  Rate-table memos are keyed on the model's state
        token, so degraded windows never reuse healthy tables.
        """
        if self.active:
            self._dirty_keys.update(
                key for key, group in self._groups.items() if group.ops
            )
            self.dirty = True

    def pop_completed(self, now: float) -> list[FluidOp]:
        """Remove and return ops whose scheduled finish time has arrived.

        Ordering invariant (relied on by the engine's batch completion
        and documented by ``tests/sim/test_fluid_vector.py``): all ops
        finishing at (or before) ``now`` are coalesced into one batch
        and returned in ascending op id (``seq``) order -- *not* in
        group order -- so simultaneous completions resume their waiters
        deterministically.

        A tie-reordering probe (schedule fuzzing) deliberately permutes
        this same-instant completion batch *after* it leaves here: the
        engine shuffles the returned list before waking waiters, so
        correct workloads must not depend on the ``seq`` tie order.  The
        ascending-``seq`` contract above is the reproducible baseline,
        not a guarantee workloads may lean on.
        """
        return self._pop(
            [g for g in self._groups.values() if g.min_finish <= now],  # reprolint: disable=SIM003 -- batch is sorted by op id
            now,
        )

    def _pop(self, groups: List[_Group], now: float) -> list[FluidOp]:
        """Complete the rows of ``groups`` whose finish time has come."""
        done: list[FluidOp] = []
        for group in groups:
            ops = group.ops
            rows = [i for i, f in enumerate(group.finish) if f <= now]
            if not rows:
                continue
            for i in rows:
                op = ops[i]
                op._remaining = 0.0
                op.finished_at = now
                done.append(op)
            self._release(group, rows)
        if done:
            self.ops_completed += len(done)
            if len(done) > 1:
                done.sort(key=_SEQ_KEY)
        return done

    def next_completion(self, now: float) -> Optional[float]:
        """Earliest absolute time an active op completes, or ``None``.

        Ops with zero rate never complete on their own; if *every* active
        op is stalled the scheduler reports ``None`` and the engine will
        raise a deadlock error unless some other event intervenes.
        """
        best = _INF
        for group in self._groups.values():  # reprolint: disable=SIM003 -- min() is order-independent
            if group.min_finish < best:
                best = group.min_finish
        return best if best < _INF else None
