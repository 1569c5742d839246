"""Thread-scaling bandwidth curves and read-write interference.

A :class:`ScalingCurve` maps the number of concurrently active threads of
an access class to the *aggregate* bandwidth those threads achieve.  The
paper's device-constrained-concurrency property (D) is exactly the shape
of these curves: PMEM reads scale to the physical core count and then
flatten, while writes peak at a handful of threads and then *degrade*
("performing writes with the maximum number of threads can be ~2x slower
than peak write performance", Sec 2.3).

:class:`InterferenceModel` captures property (I): the read bandwidth
multiplier as a function of concurrently active writers (and the mostly
negligible converse effect).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence, Tuple


class ScalingCurve:
    """Piecewise-linear aggregate bandwidth as a function of thread count.

    Points are ``(threads, aggregate_bytes_per_second)`` pairs; queries
    between points interpolate linearly, queries beyond the last point
    hold its value.  Thread counts may be fractional during queries (the
    fluid model never asks below 1).
    """

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if not points:
            raise ValueError("curve needs at least one point")
        pts = sorted((float(t), float(bw)) for t, bw in points)
        if pts[0][0] < 1.0:
            raise ValueError("curves start at 1 thread")
        for _, bw in pts:
            if bw <= 0:
                raise ValueError("bandwidth must be positive")
        self._threads = [p[0] for p in pts]
        self._bandwidth = [p[1] for p in pts]
        self._points = tuple(pts)
        self._hash = hash(self._points)
        #: Interpolation memo -- thread counts repeat endlessly in steady
        #: state, and this sits inside the rate-assignment hot loop.
        self._memo: dict = {}

    def aggregate(self, threads: float) -> float:
        """Total bandwidth achieved by ``threads`` concurrent threads."""
        memo = self._memo
        cached = memo.get(threads)
        if cached is not None:
            return cached
        result = self._aggregate(threads)
        if len(memo) < 4096:
            memo[threads] = result
        return result

    def _aggregate(self, threads: float) -> float:
        if threads < 1.0:
            threads = 1.0
        ts, bws = self._threads, self._bandwidth
        if threads <= ts[0]:
            # Below the first point: scale down linearly from the
            # single-thread-equivalent value.
            return bws[0] * threads / ts[0]
        if threads >= ts[-1]:
            return bws[-1]
        i = bisect.bisect_right(ts, threads)
        t0, t1 = ts[i - 1], ts[i]
        b0, b1 = bws[i - 1], bws[i]
        frac = (threads - t0) / (t1 - t0)
        return b0 + frac * (b1 - b0)

    def per_thread(self, threads: float) -> float:
        """Fair-share bandwidth of one thread when ``threads`` are active."""
        threads = max(1.0, threads)
        return self.aggregate(threads) / threads

    @property
    def points(self) -> Tuple[Tuple[float, float], ...]:
        """The ``(threads, aggregate_bytes_per_second)`` pairs, sorted."""
        return self._points

    # A curve never changes after construction: equal points, equal curve.
    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalingCurve):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return self._hash

    @property
    def peak(self) -> float:
        """Best aggregate bandwidth across all thread counts."""
        return max(self._bandwidth)

    @property
    def peak_threads(self) -> float:
        """Smallest thread count achieving the peak bandwidth."""
        best = self.peak
        for t, bw in zip(self._threads, self._bandwidth):
            if bw >= best:
                return t
        raise AssertionError("unreachable")

    def scaled(self, factor: float) -> "ScalingCurve":
        """A copy with all bandwidths multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return ScalingCurve([(t, bw * factor) for t, bw in self.points])

    @classmethod
    def linear_to_saturation(
        cls, peak: float, saturation_threads: float, single_thread: float | None = None
    ) -> "ScalingCurve":
        """Linear ramp from one thread to a plateau (typical read curve)."""
        if single_thread is None:
            single_thread = peak / saturation_threads
        return cls([(1, single_thread), (saturation_threads, peak), (1024, peak)])

    @classmethod
    def peaked(
        cls,
        peak: float,
        peak_threads: float,
        tail: float,
        tail_threads: float,
        single_thread: float | None = None,
    ) -> "ScalingCurve":
        """Rise to a peak then degrade (typical PMEM write curve)."""
        if single_thread is None:
            single_thread = peak / peak_threads
        if tail_threads <= peak_threads:
            raise ValueError("tail_threads must exceed peak_threads")
        return cls(
            [
                (1, single_thread),
                (peak_threads, peak),
                (tail_threads, tail),
                (4096, tail),
            ]
        )

    @classmethod
    def flat(cls, bandwidth: float) -> "ScalingCurve":
        """Constant aggregate bandwidth regardless of thread count."""
        return cls([(1, bandwidth)])


@dataclass(frozen=True)
class InterferenceModel:
    """Read-write interference multipliers (BRAID property I).

    ``read_floor`` is the worst-case read-bandwidth fraction under heavy
    concurrent writes; ``read_slope`` controls how quickly each
    additional writer pushes reads toward the floor.  The paper quotes
    "up to 2x" read degradation for a handful of writers (Sec 2.3); the
    measurement studies it cites (Yang et al. FAST'20) show mixed
    read/write workloads collapsing further, and writes themselves also
    suffer under a mixed load (XPBuffer thrashing), so the defaults give
    writes a real penalty too.  Devices without property (I) use
    :meth:`none`.
    """

    read_floor: float = 0.35
    read_slope: float = 0.5
    write_floor: float = 0.5
    write_slope: float = 0.2

    def __post_init__(self):
        for name in ("read_floor", "write_floor"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {v}")

    def read_multiplier(self, writers: float) -> float:
        """Fraction of read bandwidth retained with ``writers`` active."""
        if writers <= 0:
            return 1.0
        return max(self.read_floor, 1.0 / (1.0 + self.read_slope * writers))

    def write_multiplier(self, readers: float) -> float:
        """Fraction of write bandwidth retained with ``readers`` active."""
        if readers <= 0:
            return 1.0
        return max(self.write_floor, 1.0 / (1.0 + self.write_slope * readers))

    @classmethod
    def none(cls) -> "InterferenceModel":
        """A device with no read-write interference (I = 0)."""
        return cls(read_floor=1.0, read_slope=0.0, write_floor=1.0, write_slope=0.0)
