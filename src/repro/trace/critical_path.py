"""Critical-path extraction over analyze-mode trace records.

The engine advances simulated time only while *every* live process is
blocked, so a process's lifetime is tiled exactly by its wait records
(the gaps between them -- generator steps, fast-path acquires -- take
zero simulated time).  That invariant is what makes span decomposition
exact: given a phase span owned by process P, P's waits clipped to the
span tell where every simulated second went.

:class:`CriticalPath` indexes the records once and answers interval
queries:

* A wait on a fluid op is billed to the op's class: ``device_busy``
  for storage I/O (with a per-device ``track:direction`` blame key),
  ``net`` for interconnect transfers, ``cpu`` for compute/copy ops.
* A wait on a primitive is billed by its *blocked reason*: ``dram``
  becomes ``dram_stall``; everything else (``write-slot``,
  ``barrier``, sleeps) is ``queueing`` with the reason as
  the blame key.
* A ``Join`` wait descends into the last-finishing child and classifies
  *its* waits inside the window -- recursively, so nested fan-out
  (spawned writers joining sub-writers) resolves to leaf causes.  This
  is the critical-path choice: the last finisher is the binding
  constraint of the join.
* A ``ParallelOps`` wait is billed to its last-finishing op.

Whatever the walk cannot attribute (explicit cpu segments plus the
zero-measure scheduling gaps and float dust) is the phase's residual
``cpu`` component -- computed so the five components sum *exactly* to
the span duration (see :meth:`CriticalPath.decompose`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.tracer import Span, Tracer

#: Decomposition component keys, in the fixed summation order.
CATEGORIES = ("device_busy", "queueing", "dram_stall", "net", "cpu")

#: Recursion bound for join descent (spawn chains are shallow; this is
#: a safety net, not a tuning knob).
_MAX_DEPTH = 64


class Segment:
    """One attributed stretch of a decomposed interval."""

    __slots__ = ("category", "blame", "t0", "t1", "track", "direction")

    def __init__(
        self,
        category: str,
        blame: str,
        t0: float,
        t1: float,
        track: Optional[str] = None,
        direction: Optional[str] = None,
    ):
        self.category = category
        self.blame = blame
        self.t0 = t0
        self.t1 = t1
        self.track = track
        self.direction = direction

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment({self.category}, {self.blame!r}, "
            f"{self.duration:.6g}s)"
        )


class CriticalPath:
    """Interval decomposition over one tracer's analyze records."""

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer
        self._waits_by_pid: Dict[int, List[dict]] = {}
        for rec in tracer.waits:
            self._waits_by_pid.setdefault(rec["pid"], []).append(rec)
        self._procs: Dict[int, dict] = {rec["pid"]: rec for rec in tracer.procs}
        #: Processes spawned from outside the engine, in spawn order --
        #: the roots used for spans opened outside any process.
        self._root_procs: List[dict] = [
            rec for rec in tracer.procs if rec["parent"] is None
        ]

    # ------------------------------------------------------------------
    def segments_for_span(self, span: "Span") -> List[Segment]:
        """Leaf segments attributing ``span``'s interval."""
        t1 = span.t1 if span.t1 is not None else self.tracer.end_time()
        return self.segments_for_interval(span.pid, span.t0, t1)

    def segments_for_interval(
        self, pid: Optional[int], t0: float, t1: float
    ) -> List[Segment]:
        """Attribute ``[t0, t1]`` as seen by process ``pid``.

        ``pid=None`` means "outside the engine": the interval is
        decomposed through the root processes (parentless spawns) alive
        inside it, which tile it exactly for sequential ``Machine.run``
        calls.
        """
        out: List[Segment] = []
        if pid is None:
            for rec in self._root_procs:
                p_t1 = rec["t1"] if rec["t1"] is not None else t1
                lo = max(rec["t0"], t0)
                hi = min(p_t1, t1)
                if hi > lo:
                    self._walk_pid(rec["pid"], lo, hi, out, 0)
        else:
            self._walk_pid(pid, t0, t1, out, 0)
        return out

    # ------------------------------------------------------------------
    def _walk_pid(
        self, pid: int, t0: float, t1: float, out: List[Segment], depth: int
    ) -> None:
        for w in self._waits_by_pid.get(pid, ()):
            if w["t1"] <= t0:
                continue
            if w["t0"] >= t1:
                break  # waits are recorded in time order per pid
            lo = max(w["t0"], t0)
            hi = min(w["t1"], t1)
            if hi > lo:
                self._classify_wait(w, lo, hi, out, depth)

    def _classify_wait(
        self, w: dict, t0: float, t1: float, out: List[Segment], depth: int
    ) -> None:
        kind = w["kind"]
        if kind == "io":
            out.append(self._op_segment(w.get("op"), t0, t1))
        elif kind == "parallel":
            members = w.get("members") or ()
            last = None
            for snap in members:
                snap_t1 = snap["t1"] if snap["t1"] is not None else w["t1"]
                if last is None or snap_t1 > last[0]:
                    last = (snap_t1, snap)
            if last is None:
                out.append(Segment("cpu", "parallel", t0, t1))
            else:
                out.append(self._op_segment(last[1], t0, t1))
        elif kind == "sleep":
            out.append(Segment("queueing", "sleep", t0, t1))
        elif kind == "join":
            self._descend_join(w, t0, t1, out, depth)
        else:  # primitive
            reason = w.get("reason") or "wait"
            if reason == "dram":
                out.append(Segment("dram_stall", "dram", t0, t1))
            else:
                out.append(Segment("queueing", reason, t0, t1))

    def _op_segment(self, snap: Optional[dict], t0: float, t1: float) -> Segment:
        if snap is None:
            return Segment("device_busy", "unknown", t0, t1)
        kind = snap["kind"]
        track = snap.get("track")
        if kind == "cpu":
            return Segment("cpu", "cpu", t0, t1, track=track)
        if kind == "net":
            return Segment("net", "net", t0, t1, track="net")
        direction = snap.get("direction")
        blame = f"{track}:{direction}" if direction is not None else str(track)
        return Segment(
            "device_busy", blame, t0, t1, track=track, direction=direction
        )

    def _descend_join(
        self, w: dict, t0: float, t1: float, out: List[Segment], depth: int
    ) -> None:
        if depth >= _MAX_DEPTH:
            out.append(Segment("queueing", "join", t0, t1))
            return
        # The join's binding constraint is the last-finishing target
        # (ties break toward the first in target order, i.e. spawn
        # order -- deterministic either way).
        last: Optional[Tuple[float, int]] = None
        for pid in w.get("targets") or ():
            rec = self._procs.get(pid)
            if rec is None:
                continue
            p_t1 = rec["t1"] if rec["t1"] is not None else w["t1"]
            if last is None or p_t1 > last[0]:
                last = (p_t1, pid)
        if last is None:
            out.append(Segment("queueing", "join", t0, t1))
            return
        self._walk_pid(last[1], t0, t1, out, depth + 1)

    # ------------------------------------------------------------------
    def decompose(self, span: "Span") -> Tuple[Dict[str, float], List[Segment]]:
        """Decompose ``span`` into the five components plus its segments.

        The non-cpu components are direct sums over the attributed
        segments (in record order).  ``cpu`` is the residual -- explicit
        compute-op waits plus everything the walk cannot see (generator
        steps, fast-path acquires), all of which take zero simulated
        time except the compute ops -- adjusted so the left-to-right
        component sum reproduces the span duration *bit-exactly*.
        """
        t1 = span.t1 if span.t1 is not None else self.tracer.end_time()
        duration = t1 - span.t0
        segments = self.segments_for_interval(span.pid, span.t0, t1)
        comp = {c: 0.0 for c in CATEGORIES}
        for seg in segments:
            if seg.category != "cpu":
                comp[seg.category] += seg.duration
        others = (
            (comp["device_busy"] + comp["queueing"]) + comp["dram_stall"]
        ) + comp["net"]
        cpu = duration - others
        # Float fixup: force the canonical left-to-right sum to equal
        # the duration exactly (one correction step almost always
        # suffices; the loop is a guarantee, not a tuning pass).
        for _ in range(4):
            total = (
                (
                    (comp["device_busy"] + comp["queueing"])
                    + comp["dram_stall"]
                )
                + comp["net"]
            ) + cpu
            if total == duration:
                break
            cpu += duration - total
        comp["cpu"] = cpu
        return comp, segments


def blame_table(segments: List[Segment]) -> List[Tuple[str, str, float]]:
    """Aggregate segments into ``(category, blame, seconds)`` rows.

    Rows are sorted by descending seconds, then category/blame for
    deterministic ties.  Explicit cpu segments appear here even though
    the component table folds them into the residual.
    """
    acc: Dict[Tuple[str, str], float] = {}
    for seg in segments:
        key = (seg.category, seg.blame)
        acc[key] = acc.get(key, 0.0) + seg.duration
    rows = [(cat, blame, secs) for (cat, blame), secs in sorted(acc.items())]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows
