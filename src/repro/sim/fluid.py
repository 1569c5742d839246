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

Hot-path design (see DESIGN.md "Simulator core"):

* **Incremental re-rating** -- ops are partitioned into resource groups
  (:meth:`RateModel.resource_key`); a membership change only re-rates
  ops sharing a dirty group.  Models whose ops are fully coupled (the
  BRAID model: every op shares the host bus and cores) use a single
  shared group and degenerate to the classic full re-rate, but the
  model is then free to memoize whole assignments.
* **Vectorized groups** -- resource groups that reach
  ``vector_min_group`` live ops (and whose model implements the vector
  protocol, :meth:`RateModel.vector_state`/:meth:`RateModel.vector_sig`)
  are promoted to :class:`_VectorGroup`: contiguous numpy arrays of
  remaining work, current rate, predicted finish time and interned
  signature class, mirrored from the op objects.  Re-rating such a group
  is a handful of numpy calls -- a signature-population memo lookup, one
  table gather, one changed-mask -- instead of a per-op Python loop, and
  settling is two array operations.  Groups below the threshold (and any
  model without the protocol) keep the scalar path, so tiny workloads
  never pay array overhead.  ``REPRO_SIM_VECTOR=0`` disables promotion
  entirely.
* **Completion structure** -- scalar groups use a lazy-deletion heap of
  ``(finish_time, seq, version, op)`` entries; vector groups keep a
  per-group finish-time array whose running minimum replaces the heap
  top (argmin over predicted-finish arrays).  A constant-rate op's
  absolute finish time is invariant under settling, so entries are only
  (re)computed when an op's rate actually changes -- in both structures
  the finish float is the *same expression evaluated at the same
  instant* (``now + remaining / rate`` at rate-change time), which is
  what keeps the two paths bit-identical.
* **Coalesced completions** -- all ops finishing at the same simulated
  instant pop in one call and are returned sorted by ``seq`` (the op's
  stable integer id) so waiters resume deterministically; see
  :meth:`FluidScheduler.pop_completed` for the ordering invariant.
  Zero-work ops never enter the active set at all.

Determinism invariants the vector path preserves (asserted by the
equivalence suite in ``tests/test_vector_equivalence.py``):

1. rates come from the same ``model.assign`` floats (tables are built
   from one scalar assignment per signature population and reused);
2. settle debits are elementwise ``remaining -= rate * dt`` (numpy
   elementwise arithmetic is IEEE-identical to the scalar expression;
   no reductions are vectorized anywhere results are accumulated);
3. finish times are computed once per rate change, never recomputed on
   settle, with the scalar operand order;
4. completions are collected per group in array (= issue) order and
   globally sorted by op id, exactly like the heap path.
"""

from __future__ import annotations

import heapq
import itertools
import os
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.probe import ProbeSet

try:  # numpy is a hard dependency of the storage layer, but the kernel
    import numpy as _np  # degrades to the scalar path without it.
except ImportError:  # pragma: no cover - numpy is baked into the image
    _np = None

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
    """Whether the vectorized kernel paths are enabled.

    Controlled by the ``REPRO_SIM_VECTOR`` environment variable
    (``0``/``false``/``off``/``no`` disable; unset means enabled).  Read
    dynamically so tests can flip paths per scheduler instance.
    """
    if _np is None:
        return False
    value = os.environ.get("REPRO_SIM_VECTOR")
    if value is None:
        return default
    return value.strip().lower() not in ("0", "false", "off", "no", "")


def vector_min_group(default: int = 4) -> int:
    """Group-size threshold below which re-rating stays scalar.

    Override with ``REPRO_SIM_VECTOR_MIN_GROUP``; values < 2 are clamped
    (a singleton group gains nothing from arrays).
    """
    value = os.environ.get("REPRO_SIM_VECTOR_MIN_GROUP")
    if value is None:
        return default
    try:
        return max(2, int(value))
    except ValueError:
        return default


def remaining_work(op: "FluidOp") -> float:
    """The op's settled remaining work under either kernel path.

    While an op belongs to a vectorized group its authoritative
    remaining work lives in the group array (the per-op attribute is
    only synced at completion); scalar-path ops keep it on the object.
    External mid-flight readers (the fault injector's progress
    estimate) must use this helper instead of ``op.remaining``.
    """
    vg = op._vg
    if vg is None:
        return op.remaining
    return float(vg.rem[op._vi])


_op_counter = itertools.count()

_SEQ_KEY = attrgetter("seq")

#: Default resource-group key for models where all ops are coupled.
_SHARED_GROUP = "*"


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
        "remaining",
        "rate",
        "started_at",
        "finished_at",
        "seq",
        "_waiter",
        "on_complete",
        "_collector",
        "_sig",
        "_res_key",
        "_heap_ver",
        "_trace",
        "_finish",
        "_vg",
        "_vi",
        "_vsig",
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
        if work < 0:
            raise ValueError(f"FluidOp work must be >= 0, got {work}")
        self.work = float(work)
        self.kind = kind
        self.tag = tag
        if attrs is None:
            attrs = extra if extra else None
        elif extra:
            attrs = {**attrs, **extra}
        self.attrs = attrs
        self.remaining = self.work
        self.rate = 0.0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.seq = next(_op_counter)
        self._waiter = None  # Process resumed on completion (set by Engine)
        self.on_complete: Optional[Callable[["FluidOp"], object]] = None
        #: Alternative completion sink used by batched parallel issues
        #: (see :class:`repro.sim.engine.ParallelOps`).
        self._collector: Optional[Callable[["FluidOp", object], None]] = None
        #: Rate-model scratch: memoization signature, resource group.
        self._sig = None
        self._res_key = None
        #: Completion-heap entry version (stale entries are skipped).
        self._heap_ver = 0
        #: Scheduled absolute finish time of the live heap entry (used
        #: to transplant state when a group is promoted to vector form).
        self._finish = _INF
        #: Owning :class:`_VectorGroup` and row index, or ``None``/unset
        #: while the op is scalar-scheduled.
        self._vg = None
        #: Cached interval-observer classification (see
        #: :func:`observer_code`); shared by stats and tracer observers.
        self._obs = None

    @property
    def op_id(self) -> int:
        """Stable integer identity (alias of ``seq``)."""
        return self.seq

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
    """The op's currently scheduled absolute finish time (``inf`` if
    stalled), under either kernel path.

    Like :func:`remaining_work`, the authoritative value lives in the
    group array while the op is vector-scheduled.  Used by straggler
    detection (:meth:`FluidScheduler.predicted_horizon`): the fluid
    model already knows when every in-flight op will finish under
    current rates, so slowness is observable *before* wall-clock
    deadlines expire.
    """
    vg = op._vg
    if vg is None:
        return op._finish
    return float(vg.finish[op._vi])


class RateModel:
    """Assigns instantaneous rates to the set of active ops.

    Subclasses implement :meth:`assign`.  The kernel calls it every time
    the active-op population of a resource group changes; between calls
    rates are constant.

    Models may additionally opt into the vectorized group path by
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
        return _SHARED_GROUP

    def vector_state(self, key) -> Optional[object]:
        """Hashable token of all model state rates depend on, besides
        the group population -- e.g. a fault-degradation multiplier.

        Returning ``None`` (the default) means the model does not
        support the vectorized kernel path for this group and the
        scheduler keeps the scalar path.
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
    identical float assignments.  The model keeps the scalar kernel
    path (``vector_state`` -> None); shuffle fan-out is a handful of
    flows per epoch, far below vectorization's pay-off point.
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


class _VectorGroup:
    """Array-of-structs mirror of one promoted resource group.

    Rows are append-ordered (monotone op id), so array index order *is*
    issue order; completed rows become holes (``ops[i] is None``,
    ``rate == 0``, ``finish == inf``, signature id 0) and are compacted
    once they outnumber the live rows.  ``min_finish`` caches
    ``finish[:size].min()`` so the engine's next-event query and the
    completion sweep are O(1) comparisons between events.
    """

    __slots__ = (
        "key",
        "ops",
        "size",
        "n_live",
        "cap",
        "rem",
        "rate",
        "finish",
        "sig",
        "counts",
        "min_finish",
        "memo",
        "scratch",
    )

    #: Signature id 0 is reserved for holes; assignment tables always
    #: map it to rate 0.0 so dead rows never show up as rate changes.
    DEAD_SIG = 0

    #: Populations memoized per group before the table cache resets
    #: (prevents unbounded growth under adversarial churn; steady-state
    #: workloads cycle through a handful of populations).
    MEMO_LIMIT = 8192

    def __init__(self, key, cap: int = 16):
        self.key = key
        self.ops: List[Optional[FluidOp]] = []
        self.size = 0
        self.n_live = 0
        self.cap = cap
        self.rem = _np.zeros(cap)
        self.rate = _np.zeros(cap)
        self.finish = _np.full(cap, _INF)
        self.sig = _np.zeros(cap, dtype=_np.int64)
        #: Live-op count per signature id (indexable by sig id; the
        #: tuple of this list keys the assignment-table memo).
        self.counts: List[int] = [0]
        self.min_finish = _INF
        #: (state token, population tuple) -> rate table ndarray.
        self.memo: Dict[tuple, object] = {}
        #: Settle work buffer (holds rate*dt); contents are transient.
        self.scratch = _np.zeros(cap)

    def _grow(self) -> None:
        """Double capacity, compacting away holes when they dominate."""
        if self.size - self.n_live > self.n_live:
            self.compact()
            if self.size < self.cap:
                return
        new_cap = self.cap * 2
        for name in ("rem", "rate", "finish", "sig"):
            old = getattr(self, name)
            fresh = _np.full(new_cap, _INF) if name == "finish" else (
                _np.zeros(new_cap, dtype=old.dtype)
            )
            fresh[: self.size] = old[: self.size]
            setattr(self, name, fresh)
        self.scratch = _np.zeros(new_cap)
        self.cap = new_cap

    def compact(self) -> None:
        """Drop hole rows, preserving order (and thus issue order)."""
        live = [i for i, op in enumerate(self.ops) if op is not None]
        k = len(live)
        idx = _np.asarray(live, dtype=_np.int64)
        for name in ("rem", "rate", "finish", "sig"):
            arr = getattr(self, name)
            arr[:k] = arr[idx]
        self.finish[k : self.size] = _INF
        self.rate[k : self.size] = 0.0
        self.sig[k : self.size] = self.DEAD_SIG
        ops = [self.ops[i] for i in live]
        for j, op in enumerate(ops):
            op._vi = j
        self.ops = ops
        self.size = k


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
        #: interval (settle epoch), used by bandwidth timeline
        #: recorders.  Ops are passed in issue order so float
        #: accumulations downstream are run-to-run deterministic.
        self.interval_observers: list[Callable[[float, float, list], None]] = []
        #: Resource groups: key -> set of active ops sharing the key,
        #: or a :class:`_VectorGroup` once promoted.
        self._groups: Dict[object, object] = {}
        self._dirty_keys: set = set()
        #: Issue-ordered view of ``active``, maintained incrementally so
        #: settle need not sort every interval.  Appends keep it sorted
        #: (op seq numbers are monotone in practice); completions mark it
        #: stale and the next settle filters against ``active``.
        self._ordered: list[FluidOp] = []
        self._ordered_stale = False
        self._ordered_unsorted = False
        #: Lazy-deletion completion heap for scalar groups:
        #: (finish_time, seq, version, op).
        self._heap: list = []
        #: Vector-path configuration (see module docstring).
        self.vector = vector_enabled() if vector is None else (
            bool(vector) and _np is not None
        )
        self.vector_min_group = vector_min_group()
        #: Promoted groups (kept registered even when momentarily empty
        #: so steady-state workloads don't re-promote every phase).
        self._vgroups: List[_VectorGroup] = []
        #: Signature -> interned id, shared across groups (id 0 is the
        #: reserved hole marker).
        self._sig_ids: Dict[object, int] = {}
        #: Live ops currently in scalar (set-based) groups; lets settle
        #: skip the per-op debit loop entirely when everything active is
        #: vector-scheduled.
        self._scalar_live = 0
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
    def add(self, op: FluidOp, now: float) -> None:
        for fn in self.probes.op_issue:
            # Single choke point: direct yields, ParallelOps carriers
            # and fault-retry re-issues all pass through here, and the
            # hook runs before the zero-work fast path so even 0-byte
            # ops get records.
            fn(op, now)
        if op.remaining <= 0:
            # Zero-work op: mark complete instantly; caller handles wakeup.
            op.started_at = now
            op.finished_at = now
            return
        op.started_at = now
        self.active.add(op)
        ordered = self._ordered
        if ordered and op.seq < ordered[-1].seq:
            self._ordered_unsorted = True
        ordered.append(op)
        key = self.model.resource_key(op)
        op._res_key = key
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = {op}
            self._scalar_live += 1
        elif type(group) is _VectorGroup:
            self._vg_insert(group, op)
        else:
            group.add(op)
            self._scalar_live += 1
        self._dirty_keys.add(key)
        self.dirty = True
        self.ops_added += 1

    def settle(self, now: float) -> None:
        """Debit work accomplished between the last settle and ``now``.

        Interval observers fire exactly once per settle epoch with the
        full issue-ordered op list; the work debit itself is elementwise
        (``remaining -= rate * dt``) whether it runs over a group array
        or per op, so both paths produce identical floats.
        """
        dt = now - self._last_settled
        if dt < 0:
            raise SimulationError(f"time went backwards: {dt}")
        if dt > 0 and self.active:
            ops = self._ordered
            if self._ordered_stale:
                active = self.active
                ops = [op for op in ops if op in active]
                self._ordered = ops
                self._ordered_stale = False
            if self._ordered_unsorted:
                ops.sort(key=_SEQ_KEY)
                self._ordered_unsorted = False
            for observer in self.interval_observers:
                observer(self._last_settled, now, ops)
            for vg in self._vgroups:
                size = vg.size
                if size:
                    # Same elementwise multiply-then-subtract as the
                    # expression form; the persistent scratch buffer
                    # just avoids a fresh temporary per settle.
                    buf = vg.scratch[:size]
                    _np.multiply(vg.rate[:size], dt, out=buf)
                    vg.rem[:size] -= buf
            if self._scalar_live:
                for op in ops:
                    if op._vg is None:
                        op.remaining -= op.rate * dt
        self._last_settled = now

    def rerate(self, now: float) -> None:
        """Recompute rates for ops in dirty resource groups.

        Must be called with the scheduler settled to ``now``; completion
        times are derived from the settled ``remaining`` work.  Ops whose
        rate is unchanged keep their existing scheduled finish time (a
        constant-rate op's absolute finish time is settle-invariant).
        Dirty groups are solved per group: promoted groups through the
        vectorized table path, the rest through one scalar ``assign``
        call over all their ops (matching the pre-vector kernel
        exactly).
        """
        keys = self._dirty_keys
        if keys:
            self.rerate_calls += 1
            groups = self._groups
            model = self.model
            use_vector = self.vector
            min_group = self.vector_min_group
            affected: Iterable[FluidOp] = ()
            vgs: Iterable[_VectorGroup] = ()
            if len(groups) == 1 and next(iter(keys)) in groups:
                only_key, only = next(iter(groups.items()))
                if type(only) is _VectorGroup:
                    vgs = (only,)
                elif (
                    use_vector
                    and len(only) >= min_group
                    and model.vector_state(only_key) is not None
                ):
                    vgs = (self._promote(only_key, only),)
                else:
                    affected = self.active
                    if use_vector:
                        self.scalar_fallbacks += 1
            else:
                scalar_affected: List[FluidOp] = []
                vec_todo: List[_VectorGroup] = []
                # Dirty-key order cannot leak into results: the rate
                # model canonicalises assignment order by signature and
                # completions are ordered by (time, op id).  Keys may
                # mix types (shared "*" vs per-op ints), so sorted() is
                # not an option.
                for key in keys:  # reprolint: disable=SIM003 -- order-independent, see comment above
                    group = groups.get(key)
                    if group is None:
                        continue
                    if type(group) is _VectorGroup:
                        vec_todo.append(group)
                    elif group:
                        if (
                            use_vector
                            and len(group) >= min_group
                            and model.vector_state(key) is not None
                        ):
                            vec_todo.append(self._promote(key, group))
                        else:
                            scalar_affected.extend(group)
                            if use_vector:
                                self.scalar_fallbacks += 1
                affected = scalar_affected
                vgs = vec_todo
            keys.clear()
            n = 0
            for vg in vgs:
                n += self._vector_solve(vg, now)
            if affected:
                n += self._scalar_solve(affected, now)
            if n:
                self.ops_rerated += n
                for fn in self.probes.rerate:
                    fn(n)
        self.dirty = False

    def _scalar_solve(self, affected: Iterable[FluidOp], now: float) -> int:
        """The pre-vector per-op re-rate loop (small / opted-out groups)."""
        rates = self.model.assign(affected)
        heap = self._heap
        n = 0
        for op in affected:
            n += 1
            rate = rates.get(op, 0.0)
            if rate < 0:
                raise SimulationError(f"model returned negative rate for {op}")
            if rate != op.rate:
                op.rate = rate
                op._heap_ver += 1
                self.rate_changes += 1
                if rate > 0.0:
                    finish = now + op.remaining / rate
                    op._finish = finish
                    heapq.heappush(heap, (finish, op.seq, op._heap_ver, op))
                elif op.remaining <= _EPSILON:
                    # Stalled with only float residue left: let it
                    # complete now instead of deadlocking.
                    op._finish = now
                    heapq.heappush(heap, (now, op.seq, op._heap_ver, op))
                else:
                    op._finish = _INF
        return n

    # ------------------------------------------------------------------
    # Vectorized group machinery
    # ------------------------------------------------------------------
    def _promote(self, key, members: set) -> _VectorGroup:
        """Switch a scalar group to array form, transplanting live state.

        Rates, settled remaining work and the *already scheduled* finish
        times move over verbatim -- an op whose rate does not change in
        the very next solve must keep the finish float computed when its
        rate last changed, exactly as the heap entry would have.
        """
        ops = sorted(members, key=_SEQ_KEY)
        vg = _VectorGroup(key, cap=max(16, 2 * len(ops)))
        for op in ops:
            op._heap_ver += 1  # retire any live heap entries
            self._vg_insert(vg, op)
            i = op._vi
            vg.rate[i] = op.rate
            vg.finish[i] = op._finish
        vg.min_finish = float(vg.finish[: vg.size].min()) if vg.size else _INF
        self._groups[key] = vg
        self._vgroups.append(vg)
        self._scalar_live -= len(ops)
        return vg

    def _vg_insert(self, vg: _VectorGroup, op: FluidOp) -> None:
        sig = self.model.vector_sig(op)
        sig_ids = self._sig_ids
        sid = sig_ids.get(sig)
        if sid is None:
            sid = len(sig_ids) + 1  # 0 is the reserved hole marker
            sig_ids[sig] = sid
        i = vg.size
        if i == vg.cap:
            vg._grow()
            i = vg.size
        vg.ops.append(op)
        vg.rem[i] = op.remaining
        vg.rate[i] = 0.0
        vg.finish[i] = _INF
        vg.sig[i] = sid
        counts = vg.counts
        while len(counts) <= sid:
            counts.append(0)
        counts[sid] += 1
        vg.size = i + 1
        vg.n_live += 1
        op._vg = vg
        op._vi = i
        op._vsig = sid

    def _vector_solve(self, vg: _VectorGroup, now: float) -> int:
        """Re-rate one promoted group in a handful of numpy calls."""
        n = vg.n_live
        if n == 0:
            return 0
        token = self.model.vector_state(vg.key)
        key = (token, tuple(vg.counts))
        table = vg.memo.get(key)
        if table is None:
            table = self._vg_build_table(vg, key)
        self.vector_solves += 1
        self.vector_ops_solved += n
        size = vg.size
        cur = vg.rate[:size]
        new = table[vg.sig[:size]]
        idx = (new != cur).nonzero()[0]
        k = idx.size
        if k:
            self.rate_changes += k
            nr = new[idx]
            cur[idx] = nr
            rem = vg.rem[idx]
            if nr.min() > 0.0:
                fin = now + rem / nr
            else:
                pos = nr > 0.0
                fin = _np.full(k, _INF)
                fin[pos] = now + rem[pos] / nr[pos]
                fin[~pos & (rem <= _EPSILON)] = now
            vg.finish[idx] = fin
            vg.min_finish = float(vg.finish[:size].min())
            ops = vg.ops
            rate_list = nr.tolist()
            for j, i in enumerate(idx.tolist()):
                ops[i].rate = rate_list[j]
        return n

    def _vg_build_table(self, vg: _VectorGroup, key: tuple):
        """Memo miss: one scalar assignment fills the signature table."""
        ops = [op for op in vg.ops if op is not None]
        rates = self.model.assign(ops)
        table = _np.zeros(len(vg.counts))
        for op in ops:
            table[op._vsig] = rates.get(op, 0.0)
        if table.min() < 0:
            raise SimulationError(
                f"model returned a negative rate for group {vg.key!r}"
            )
        memo = vg.memo
        if len(memo) >= _VectorGroup.MEMO_LIMIT:
            memo.clear()
        memo[key] = table
        return table

    def _vg_pop(self, vg: _VectorGroup, now: float, done: List[FluidOp]) -> None:
        """Sweep one group's finished rows (array order = issue order)."""
        size = vg.size
        finish = vg.finish
        idx = (finish[:size] <= now).nonzero()[0]
        if not idx.size:
            return
        ops = vg.ops
        counts = vg.counts
        active = self.active
        rate = vg.rate
        sig = vg.sig
        for i in idx.tolist():
            op = ops[i]
            op.remaining = 0.0
            op.finished_at = now
            op._vg = None
            ops[i] = None
            counts[op._vsig] -= 1
            sig[i] = _VectorGroup.DEAD_SIG
            rate[i] = 0.0
            finish[i] = _INF
            active.discard(op)
            done.append(op)
        vg.n_live -= idx.size
        vg.min_finish = float(finish[:size].min())
        self._dirty_keys.add(vg.key)

    # ------------------------------------------------------------------
    def cancel_op(self, op: FluidOp) -> bool:
        """Withdraw an in-flight op without completing it.

        Used by speculative-execution loser cancellation
        (:meth:`repro.sim.engine.Engine.cancel_tree`).  The caller must
        settle the scheduler to the current instant first so the op's
        progress up to cancellation is debited and observed -- interval
        observers then account exactly the work that physically
        happened before the cancel, no more.  The op never reaches the
        completion queue: its group slot is freed, its heap entries are
        retired via the version counter, and survivors' rates are
        recomputed at the next rerate (the freed bandwidth speeds them
        up from *now*, not retroactively).  Returns False if the op was
        not active (already completed or never issued).
        """
        if op not in self.active:
            return False
        self.active.discard(op)
        self._ordered_stale = True
        vg = op._vg
        if vg is not None:
            # Mirror the completion sweep's row teardown (_vg_pop) --
            # minus the done-list append.
            i = op._vi
            vg.ops[i] = None
            vg.counts[op._vsig] -= 1
            vg.sig[i] = _VectorGroup.DEAD_SIG
            vg.rate[i] = 0.0
            vg.finish[i] = _INF
            vg.n_live -= 1
            vg.min_finish = (
                float(vg.finish[: vg.size].min()) if vg.size else _INF
            )
            op._vg = None
            self._dirty_keys.add(vg.key)
        else:
            op._heap_ver += 1  # retire live heap entries lazily
            self._scalar_live -= 1
            key = op._res_key
            group = self._groups.get(key)
            if group is not None and type(group) is not _VectorGroup:
                group.discard(op)
                if not group:
                    del self._groups[key]
                self._dirty_keys.add(key)
        op.rate = 0.0
        op._finish = _INF
        self.dirty = True
        self.ops_cancelled += 1
        return True

    def predicted_horizon(self, key) -> Optional[float]:
        """Latest finite scheduled finish time in one resource group.

        For a cluster shard domain this is "when does everything this
        shard currently has in flight drain, at current rates" -- the
        fluid model's native straggler signal.  Returns ``None`` when
        the group has no live ops or every live op is stalled.
        """
        group = self._groups.get(key)
        if group is None:
            return None
        best = None
        if type(group) is _VectorGroup:
            size = group.size
            if size:
                fin = group.finish[:size]
                live = fin[fin < _INF]
                if live.size:
                    best = float(live.max())
        else:
            for op in group:  # reprolint: disable=SIM003 -- max() is order-independent
                f = op._finish
                if f < _INF and (best is None or f > best):
                    best = f
        return best

    # ------------------------------------------------------------------
    def invalidate_rates(self) -> None:
        """Force a full re-rate at the next settle point.

        Used when the rate model's *global* state changes mid-run (e.g.
        a fault-injected throughput-degradation window opening or
        closing): every resource group is marked dirty so the next
        ``rerate`` call recomputes all active rates under the new model
        state.  Vector groups re-key their assignment-table memo on the
        model's state token, so degraded windows never reuse healthy
        tables.
        """
        self._dirty_keys.update(self._groups)
        if self._groups:
            self.dirty = True

    def pop_completed(self, now: float) -> list[FluidOp]:
        """Remove and return ops whose scheduled finish time has arrived.

        Ordering invariant (relied on by the engine's batch completion
        and documented by ``tests/sim/test_fluid_vector.py``): all ops
        finishing at (or before) ``now`` are coalesced into one batch
        and returned in ascending op id (``seq``) order -- *not* in heap
        or group order -- so simultaneous completions resume their
        waiters deterministically under either kernel path.

        A tie-reordering probe (schedule fuzzing) deliberately permutes
        this same-instant completion batch *after* it leaves here: the
        engine shuffles the returned list before waking waiters, so
        correct workloads must not depend on the ``seq`` tie order.  The
        ascending-``seq`` contract above is the reproducible baseline,
        not a guarantee workloads may lean on.
        """
        done: list[FluidOp] = []
        for vg in self._vgroups:
            if vg.min_finish <= now:
                self._vg_pop(vg, now, done)
        heap = self._heap
        while heap:
            t, _seq, ver, op = heap[0]
            if ver != op._heap_ver:
                heapq.heappop(heap)  # stale entry (rate changed / completed)
                continue
            if t > now:
                break
            heapq.heappop(heap)
            op._heap_ver += 1
            op.remaining = 0.0
            op.finished_at = now
            self.active.discard(op)
            self._scalar_live -= 1
            key = op._res_key
            group = self._groups.get(key)
            if group is not None and type(group) is not _VectorGroup:
                group.discard(op)
                if not group:
                    del self._groups[key]
                self._dirty_keys.add(key)
            done.append(op)
        if done:
            self.dirty = True
            self._ordered_stale = True
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
        best = None
        for vg in self._vgroups:
            m = vg.min_finish
            if m < _INF and (best is None or m < best):
                best = m
        heap = self._heap
        while heap:
            t, _seq, ver, op = heap[0]
            if ver != op._heap_ver:
                heapq.heappop(heap)
                continue
            if best is None or t < best:
                best = t
            break
        return best
