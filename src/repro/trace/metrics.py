"""The bucketed :class:`Histogram` behind the service report's percentiles.

Counters are not kept here: every counter of a run is one key of the
flat dict :func:`repro.perf.collect_counters` /
:func:`repro.perf.collect_cluster_counters` return.  This module keeps
the one estimator a flat dict cannot hold, the percentile over a
distribution:

    >>> h = Histogram("job_latency_seconds", buckets=(1e-3, 1e-2))
    >>> h.observe(0.004)
    >>> h.percentile(99.0)
    0.004
"""

from __future__ import annotations

import math
from typing import Sequence

_DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0
)


class Histogram:
    """Cumulative-bucket histogram (Prometheus-style ``le`` buckets)."""

    __slots__ = ("name", "buckets", "counts", "total", "count", "vmin", "vmax")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = _DEFAULT_BUCKETS,
    ):
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} buckets must be sorted")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +inf overflow
        self.total = 0.0
        self.count = 0
        #: Exact observed extrema: tighten the percentile estimate's
        #: first/overflow buckets (a bucket edge never over-reports the
        #: true max, nor under-reports the true min).
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (0-100), interpolated in-bucket.

        Linear interpolation between bucket edges, clamped to the exact
        observed ``[vmin, vmax]`` so degenerate single-bucket and
        overflow cases stay honest.  Deterministic: the same observation
        sequence always reproduces the same float.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        cumulative = 0
        for i, edge in enumerate(self.buckets):
            n = self.counts[i]
            if n and cumulative + n >= rank:
                lo = self.buckets[i - 1] if i else self.vmin
                lo = max(lo, self.vmin)
                hi = min(edge, self.vmax)
                if hi <= lo:
                    return lo
                frac = (rank - cumulative) / n
                return lo + frac * (hi - lo)
            cumulative += n
        # Overflow bucket: between the last finite edge and the true max.
        lo = max(self.buckets[-1], self.vmin) if self.buckets else self.vmin
        n = self.counts[-1]
        if n == 0 or self.vmax <= lo:
            return self.vmax
        frac = (rank - cumulative) / n
        return lo + frac * (self.vmax - lo)
