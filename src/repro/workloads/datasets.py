"""Dataset sizing helpers: map paper-scale workloads to simulation scale.

All experiments scale the paper's record counts by ``DEFAULT_SCALE``
(1/1000): a "40 GB" sortbenchmark input becomes 400k records / 40 MB.
Byte counts feed the device model identically at any scale, but not
every ratio is scale-free: ``repro.bench.claims.CLAIMS`` marks the rows that
are not (``scale_stable=False``).
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Records per paper-GB at full scale (sortbenchmark: 100 B records).
RECORDS_PER_GB_FULL = 10_000_000

#: The reproduction's default down-scaling of record counts.
DEFAULT_SCALE = 1_000


def sortbenchmark_records_for_gb(paper_gb: float, scale: int = DEFAULT_SCALE) -> int:
    """Scaled record count for a paper-sized sortbenchmark input."""
    if paper_gb <= 0:
        raise ConfigError("paper_gb must be positive")
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    return max(1, int(paper_gb * RECORDS_PER_GB_FULL) // scale)
