"""Device profiles: the parameter bundle describing one BRAID device.

A profile answers two questions for every access the storage layer
issues:

1. *How much device work does it cost?*  (:meth:`DeviceProfile.io_work`
   returns internal traffic in bytes, applying granularity amplification
   for random accesses, and a calibrated gather-cost table for dense
   strided key reads.)
2. *How fast does that work drain?*  (the per-pattern scaling curves
   consumed by :class:`repro.device.device.BraidRateModel`.)

The strided-gather table deserves a note.  On real PMEM the effective
cost of gathering small keys at a fixed stride is an empirical quantity
-- it depends on XPLine buffering, CPU prefetching and load throughput in
ways no first-principles formula captures.  The paper's own methodology
is to *measure* the device with microbenchmarks and feed the results to
the thread-pool controller (Sec 3.8).  We do the same: the profile
carries a small ``(stride -> equivalent internal bytes per access)``
table calibrated so that the strided-vs-sequential ratios of Figs 5/9
hold, and interpolates between entries.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.device.curves import InterferenceModel, ScalingCurve
from repro.errors import ConfigError
from repro.units import ceil_div


class Pattern(enum.Enum):
    """Access pattern of an I/O request."""

    SEQ = "seq"
    RAND = "rand"
    STRIDED = "strided"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Default strided-gather calibration for PMEM-like devices, as
#: ``(stride_bytes, equivalent_internal_bytes_per_access)`` for a ~10B
#: access, charged against the random-read curve.  Derived from the
#: paper's reported strided-vs-sequential load ratios (Fig 9: ~1.2x at
#: V=50, ~1.5x at V=90, ~3x at V=502) against the 22.2 GB/s PMEM peaks.
DEFAULT_GATHER_TABLE: Tuple[Tuple[int, float], ...] = (
    (16, 17.0),
    (32, 27.0),
    (64, 44.0),
    (100, 67.0),
    (128, 76.0),
    (256, 111.0),
    (512, 171.0),
    (1024, 244.0),
    (2048, 317.0),
    (4096, 403.0),
)


@dataclass
class DeviceProfile:
    """All tunable characteristics of one byte-addressable storage device.

    Attributes
    ----------
    name:
        Human-readable identifier (used in reports).
    byte_addressable:
        BRAID property B.  When False the device amplifies every access
        to ``granularity`` (block-device behaviour).
    granularity:
        Internal media access unit in bytes (256 for Optane XPLines,
        4096 for block SSDs, 64 for the CXL-emulated devices).
    seq_read / rand_read / write:
        Thread-scaling curves per access class.  ``rand_read`` is the
        *granule-level* bandwidth at the reference access size (one
        granule); smaller accesses pay amplification via :meth:`io_work`.
    interference:
        Read-write interference multipliers (property I).
    gather_table:
        Optional strided-gather calibration (see module docstring).
        When None, strided accesses fall back to generic random-access
        amplification -- appropriate for block devices where a strided
        key read really does fetch whole blocks.
    capacity:
        Usable bytes on the device (files beyond this raise).
    """

    name: str
    byte_addressable: bool
    granularity: int
    seq_read: ScalingCurve
    rand_read: ScalingCurve
    write: ScalingCurve
    interference: InterferenceModel = field(default_factory=InterferenceModel)
    gather_table: Optional[Sequence[Tuple[int, float]]] = None
    capacity: int = 1 << 62
    #: Per-element access latency penalty (ns) paid by algorithms that
    #: chase pointers / compare elements *directly on the device* instead
    #: of staging data in DRAM (in-place sorting, Sec 2.4.1).  ~10x
    #: higher on PMEM than on DRAM.
    inplace_penalty_ns: float = 0.0
    #: Fixed per-access overhead of random reads on byte-addressable
    #: devices, as a fraction of one granule (see _random_access_cost).
    rand_overhead_fraction: float = 0.22

    def __post_init__(self):
        if self.granularity < 1:
            raise ConfigError("granularity must be >= 1")
        if self.capacity <= 0:
            raise ConfigError("capacity must be positive")
        if self.gather_table is not None:
            table = sorted((int(s), float(b)) for s, b in self.gather_table)
            if not table:
                raise ConfigError("gather_table may not be empty")
            self.gather_table = tuple(table)
        #: Work-cost memo -- request shapes repeat endlessly (fixed-size
        #: refills, write batches, key gathers), and this sits on the op
        #: construction hot path.
        self._work_memo: dict = {}

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    def io_work(
        self,
        pattern: Pattern,
        nbytes: int,
        accesses: int = 1,
        stride: int = 0,
    ) -> float:
        """Internal device traffic (bytes) for a request.

        ``nbytes`` is total user payload, ``accesses`` the number of
        distinct accesses it is split into (1 for a sequential scan, the
        record count for random value gathers), ``stride`` the distance
        between access start offsets for strided reads.
        """
        memo = self._work_memo
        # Keyed by the pattern's value: hashing the member itself is a
        # Python-level call.
        key = (pattern._value_, nbytes, accesses, stride)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = self._io_work(pattern, nbytes, accesses, stride)
        if len(memo) < 65536:
            memo[key] = result
        return result

    def _io_work(
        self,
        pattern: Pattern,
        nbytes: int,
        accesses: int = 1,
        stride: int = 0,
    ) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes == 0:
            return 0.0
        if accesses < 1:
            raise ValueError("accesses must be >= 1")
        g = self.granularity
        if pattern is Pattern.SEQ:
            # Sequential streams pay at most one granule of edge waste.
            return float(ceil_div(nbytes, g) * g)
        access_size = ceil_div(nbytes, accesses)
        if pattern is Pattern.RAND:
            return float(accesses * self._random_access_cost(access_size))
        if pattern is Pattern.STRIDED:
            return float(accesses * self._strided_access_cost(access_size, stride))
        raise ValueError(f"unknown pattern {pattern!r}")

    def _random_access_cost(self, access_size: int) -> float:
        """Internal bytes for one random access of this size.

        Byte-addressable devices pay a fixed per-access overhead of
        ``rand_overhead_fraction * granularity`` equivalent bytes (the
        partially-wasted granule fetch, pipelined across accesses).  The
        default fraction of 0.22 makes a 256 B random read on PMEM come
        out exactly 18% slower than sequential (Sec 2.3 R) when the
        random curve peaks at the sequential rate.  Block devices pay
        full block amplification -- the Sec 2.4.2 "40x = 4KB/100B"
        GraySort example.
        """
        g = self.granularity
        if self.byte_addressable:
            return access_size + self.rand_overhead_fraction * g
        return float(ceil_div(access_size, g) * g)

    def _strided_access_cost(self, access_size: int, stride: int) -> float:
        """Internal bytes for one access of a dense strided gather."""
        if stride <= 0:
            # Degenerate: treat as random.
            return self._random_access_cost(access_size)
        if self.gather_table is None:
            # No calibration: block-device style.  Accesses closer than a
            # granule share fetches; farther apart they pay full random
            # cost.
            if stride < self.granularity:
                # Every granule in the extent is touched exactly once, so
                # the amortised internal cost per access equals the stride.
                return float(max(stride, access_size))
            return self._random_access_cost(access_size)
        strides = [s for s, _ in self.gather_table]
        costs = [c for _, c in self.gather_table]
        base = 10.0  # table is calibrated for ~10B keys
        extra = max(0.0, access_size - base)
        if stride <= strides[0]:
            cost = costs[0] * stride / strides[0]
        elif stride >= strides[-1]:
            cost = costs[-1]
        else:
            i = bisect.bisect_right(strides, stride)
            s0, s1 = strides[i - 1], strides[i]
            c0, c1 = costs[i - 1], costs[i]
            cost = c0 + (c1 - c0) * (stride - s0) / (s1 - s0)
        return cost + extra

    def random_batch_work(self, sizes) -> float:
        """Internal traffic for a batch of random accesses (vectorised)."""
        import numpy as np

        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size == 0:
            return 0.0
        g = self.granularity
        if self.byte_addressable:
            return float(
                sizes.sum() + sizes.size * self.rand_overhead_fraction * g
            )
        return float(np.sum(((sizes - 1) // g + 1) * g))

    # ------------------------------------------------------------------
    # Rate lookup
    # ------------------------------------------------------------------
    def read_curve(self, pattern: Pattern) -> ScalingCurve:
        """Scaling curve applicable to a read of the given pattern."""
        if pattern is Pattern.SEQ:
            return self.seq_read
        return self.rand_read

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.name}: seq-read {self.seq_read.peak / 1e9:.1f}GB/s, "
            f"rand-read {self.rand_read.peak / 1e9:.1f}GB/s, "
            f"write {self.write.peak / 1e9:.1f}GB/s, "
            f"granule {self.granularity}B, "
            f"byte-addressable={self.byte_addressable}"
        )
