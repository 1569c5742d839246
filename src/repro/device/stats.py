"""Bandwidth/CPU timelines and per-tag traffic accounting.

A :class:`DeviceStats` instance registers as an interval observer on the
fluid scheduler: for every constant-rate interval it accumulates

* a bandwidth timeline ``(t0, t1, read_B/s, write_B/s, cores_used)``
  (the data behind the paper's Figs 5-6 resource-usage plots), one
  row per epoch in a flat float array (:class:`~repro.sim.rows.FloatRows`:
  40 bytes a row),
* internal device traffic per direction,
* per-tag totals: busy wall-clock (union of intervals where any op of
  the tag was active), internal traffic and first/last activity time.

User-byte counters per tag are credited by the machine when ops are
submitted (the observer only sees internal work).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.device.host import HostModel
from repro.sim.fluid import (
    OBS_CPU_COMPUTE,
    OBS_CPU_COPY,
    OBS_IO_READ,
    OBS_IO_WRITE,
    OBS_NET,
    observer_code,
)
from repro.sim.rows import FloatRows


@dataclass
class TagStats:
    """Aggregate statistics for one op tag (e.g. ``"RUN read"``)."""

    busy_time: float = 0.0
    internal_bytes: float = 0.0
    user_bytes: float = 0.0
    op_count: int = 0
    first_active: float = float("inf")
    last_active: float = 0.0
    #: Dominant direction/pattern of the tag's ops ("read"/"write" and
    #: "seq"/"rand"/"strided"); last submission wins, which is fine
    #: because tags are homogeneous by construction.
    direction: str = ""
    pattern: str = ""


class DeviceStats:
    """Collects timelines and per-tag aggregates for one machine run."""

    def __init__(self, host: HostModel):
        self.host = host
        #: ``(t0, t1, read_B/s, write_B/s, cores)`` rows.
        self.timeline = FloatRows(5)
        self.bytes_read_internal = 0.0
        self.bytes_written_internal = 0.0
        self.tags: Dict[str, TagStats] = defaultdict(TagStats)

    # ------------------------------------------------------------------
    def observe(self, t0: float, t1: float, ops: list) -> None:
        """Interval observer callback (registered on the fluid scheduler).

        Accumulator updates stay strictly per-op in the order given (the
        scheduler passes ops in issue order), so the float results are
        run-to-run deterministic.  The local copies of the running totals
        preserve the exact same sequence of additions as attribute
        updates would -- they only avoid repeated attribute lookups.
        """
        dt = t1 - t0
        if dt <= 0:
            return
        read_rate = 0.0
        write_rate = 0.0
        cores = 0.0
        read_internal = self.bytes_read_internal
        written_internal = self.bytes_written_internal
        io_cpu_bw = self.host.io_cpu_bw
        copy_bw = self.host.copy_bw_per_core
        tags = self.tags
        # Insertion-ordered (issue-order) rather than a set: string-set
        # iteration order depends on PYTHONHASHSEED, and determinism
        # here must not rely on the per-tag updates being independent.
        active_tags: dict = {}
        for op in ops:
            tag = op.tag
            if tag:
                active_tags[tag] = True
            # Cached classification code (direction/mode resolved once
            # per op); the per-code arithmetic repeats the attribute
            # branches exactly, so every float add happens in the same
            # order with the same operands.
            code = op._obs
            if code is None:
                code = observer_code(op)
            # Writes first: background writers make most of the ops.
            if code == OBS_IO_WRITE:
                rate = op.rate
                delta = rate * dt
                write_rate += rate
                written_internal += delta
                if tag:
                    tags[tag].internal_bytes += delta
                cores += rate / io_cpu_bw
            elif code == OBS_IO_READ:
                rate = op.rate
                delta = rate * dt
                read_rate += rate
                read_internal += delta
                if tag:
                    tags[tag].internal_bytes += delta
                cores += rate / io_cpu_bw
            elif code == OBS_CPU_COMPUTE:
                cores += op.rate
            elif code == OBS_CPU_COPY:
                cores += op.rate / copy_bw
        self.bytes_read_internal = read_internal
        self.bytes_written_internal = written_internal
        for tag in active_tags:
            stats = tags[tag]
            stats.busy_time += dt
            if t0 < stats.first_active:
                stats.first_active = t0
            if t1 > stats.last_active:
                stats.last_active = t1
        self.timeline.append((t0, t1, read_rate, write_rate, cores))

    # ------------------------------------------------------------------
    def credit_submission(
        self, tag: str, user_bytes: float, direction: str = "", pattern: str = ""
    ) -> None:
        """Record user payload for a submitted op (called by the machine)."""
        if not tag:
            return
        stats = self.tags[tag]
        stats.user_bytes += user_bytes
        stats.op_count += 1
        if direction:
            stats.direction = direction
        if pattern:
            stats.pattern = pattern

    # ------------------------------------------------------------------
    def tag_table(self) -> List[Tuple[str, TagStats]]:
        """Tags ordered by first activity, for phase-breakdown reports."""
        return sorted(self.tags.items(), key=lambda kv: (kv[1].first_active, kv[0]))

    def peak_read_bw(self) -> float:
        """Highest observed instantaneous read bandwidth."""
        return max(self.timeline.column(2), default=0.0)

    def peak_write_bw(self) -> float:
        """Highest observed instantaneous write bandwidth."""
        return max(self.timeline.column(3), default=0.0)

    def mean_cores(self) -> float:
        """Time-weighted average CPU cores in use."""
        total = 0.0
        weight = 0.0
        for t0, t1, _, _, cores in self.timeline:
            total += cores * (t1 - t0)
            weight += t1 - t0
        return total / weight if weight else 0.0

    def coarse_timeline(self, buckets: int = 40) -> List[Tuple[float, float, float, float]]:
        """Resample the timeline into ``buckets`` equal windows.

        Returns ``(t_mid, read_B/s, write_B/s, cores)`` rows, suitable
        for compact textual resource-usage plots.
        """
        if not self.timeline:
            return []
        start = self.timeline[0][0]
        end = self.timeline[-1][1]
        if end <= start:
            return []
        width = (end - start) / buckets
        acc = [[0.0, 0.0, 0.0] for _ in range(buckets)]
        for t0, t1, rbw, wbw, cores in self.timeline:
            lo = t0
            while lo < t1 - 1e-15:
                idx = min(buckets - 1, int((lo - start) / width))
                hi = min(t1, start + (idx + 1) * width)
                if hi <= lo:
                    # Floating point put ``lo`` exactly on (or a hair
                    # past) the bucket edge; step into the next bucket
                    # instead of spinning.
                    idx = min(buckets - 1, idx + 1)
                    hi = min(t1, start + (idx + 1) * width)
                    if hi <= lo:
                        break
                dt = hi - lo
                acc[idx][0] += rbw * dt
                acc[idx][1] += wbw * dt
                acc[idx][2] += cores * dt
                lo = hi
        rows = []
        for i, (r, w, c) in enumerate(acc):
            mid = start + (i + 0.5) * width
            rows.append((mid, r / width, w / width, c / width))
        return rows


class InterconnectStats:
    """Interval observer for the cluster interconnect.

    The network counterpart of :class:`DeviceStats`: registered once on
    the cluster's shared fluid scheduler, it accumulates only
    ``kind="net"`` flows (everything else belongs to a shard's
    DeviceStats) into

    * total bytes moved over the fabric,
    * a bandwidth timeline ``(t0, t1, aggregate_B/s)`` (flat, as
      :class:`DeviceStats` keeps its own),
    * per-tag totals (``"SHUFFLE net"`` vs recovery/speculation
      transfers) via the same :class:`TagStats` shape,
    * per-directed-link byte totals keyed ``(src, dst)`` -- the data
      behind incast diagnostics ("how much converged on shard3").
    """

    def __init__(self):
        self.bytes_total = 0.0
        self.timeline = FloatRows(3)
        self.tags: Dict[str, TagStats] = defaultdict(TagStats)
        self.link_bytes: Dict[Tuple[str, str], float] = {}

    def observe(self, t0: float, t1: float, ops: list) -> None:
        dt = t1 - t0
        if dt <= 0:
            return
        agg_rate = 0.0
        total = self.bytes_total
        tags = self.tags
        link_bytes = self.link_bytes
        active_tags: dict = {}
        for op in ops:
            code = op._obs
            if code is None:
                code = observer_code(op)
            if code != OBS_NET:
                continue
            rate = op.rate
            delta = rate * dt
            agg_rate += rate
            total += delta
            tag = op.tag
            if tag:
                active_tags[tag] = True
                tags[tag].internal_bytes += delta
            attrs = op.attrs or {}
            link = (attrs.get("src", "?"), attrs.get("dst", "?"))
            link_bytes[link] = link_bytes.get(link, 0.0) + delta
        if agg_rate == 0.0 and not active_tags:
            return  # epoch carried no network flows
        self.bytes_total = total
        for tag in active_tags:
            stats = tags[tag]
            stats.busy_time += dt
            if t0 < stats.first_active:
                stats.first_active = t0
            if t1 > stats.last_active:
                stats.last_active = t1
        self.timeline.append((t0, t1, agg_rate))

    def credit_submission(self, tag: str, user_bytes: float) -> None:
        """Record a submitted flow's payload (called by the cluster)."""
        if not tag:
            return
        stats = self.tags[tag]
        stats.user_bytes += user_bytes
        stats.op_count += 1

    def tag_table(self) -> List[Tuple[str, TagStats]]:
        return sorted(self.tags.items(), key=lambda kv: (kv[1].first_active, kv[0]))

    def peak_bw(self) -> float:
        return max(self.timeline.column(2), default=0.0)
