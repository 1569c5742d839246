"""Microbenchmark suite: probe a device for bandwidth scaling curves.

Rather than peeking at a profile's internal curves, the suite *measures*
the simulated device the same way the paper measures PMEM: issue a
fixed-size operation at a range of thread counts, record achieved
bandwidth, and pick the best pool size per access class.  This keeps the
thread-pool controller honest -- it works for any
:class:`~repro.device.profile.DeviceProfile` without knowing its
internals, exactly like the real controller works from HMAT-style
measurement data (Sec 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Tuple

from repro.device.host import HostModel
from repro.device.profile import DeviceProfile, Pattern
from repro.units import MiB

#: Thread counts probed per access class.
PROBE_THREADS: Tuple[int, ...] = (1, 2, 4, 5, 8, 12, 16, 24, 32, 48)

#: Payload per probe; large enough that fixed costs vanish.
PROBE_BYTES = 64 * MiB

#: Tolerance for "as good as peak" when choosing the smallest pool.
PEAK_TOLERANCE = 0.02


@dataclass(frozen=True)
class AccessClassResult:
    """Measured scaling of one access class (e.g. sequential reads)."""

    points: Tuple[Tuple[int, float], ...]  # (threads, achieved bytes/s)
    peak_bandwidth: float = field(init=False)
    #: Smallest thread count within tolerance of peak bandwidth.
    best_threads: int = field(init=False)

    def __post_init__(self):
        # Planning constants, asked for on every pool-size decision.
        peak = max(bw for _, bw in self.points)
        best = next(
            threads for threads, bw in self.points
            if bw >= peak * (1.0 - PEAK_TOLERANCE)
        )
        object.__setattr__(self, "peak_bandwidth", peak)
        object.__setattr__(self, "best_threads", best)


@dataclass(frozen=True)
class CalibrationResult:
    """Measured device behaviour consumed by the thread-pool controller."""

    device_name: str
    seq_read: AccessClassResult
    rand_read: AccessClassResult
    write: AccessClassResult

    def table(self) -> List[str]:
        """Human-readable calibration table (one line per probe)."""
        lines = [f"calibration for {self.device_name}:"]
        for label, result in (
            ("seq-read", self.seq_read),
            ("rand-read", self.rand_read),
            ("write", self.write),
        ):
            for threads, bw in result.points:
                lines.append(f"  {label:9s} t={threads:3d}  {bw / 1e9:7.2f} GB/s")
            lines.append(
                f"  {label:9s} -> pool={result.best_threads}, "
                f"peak={result.peak_bandwidth / 1e9:.2f} GB/s"
            )
        return lines


_CACHE: Dict[tuple, CalibrationResult] = {}

#: Every field the probes read (curves compare by their points).
_PROFILE_FIELDS = attrgetter(*(f.name for f in fields(DeviceProfile)))
_HOST_FIELDS = attrgetter(*(f.name for f in fields(HostModel)))


def calibrate_device(
    profile: DeviceProfile, host: HostModel, use_cache: bool = True
) -> CalibrationResult:
    """Measure ``profile`` with a throwaway machine per probe point.

    Results are cached by the (profile, host) field values: every run
    builds machines from fresh profile objects, and probing is pure.  A
    fresh, equal-valued object is the same key; a freed object's id can
    never alias another.
    """
    key = (type(profile), _PROFILE_FIELDS(profile), type(host), _HOST_FIELDS(host))
    cached = _CACHE.get(key) if use_cache else None
    if cached is not None:
        return cached
    result = CalibrationResult(
        device_name=profile.name,
        seq_read=_probe(profile, host, "read", Pattern.SEQ),
        rand_read=_probe(profile, host, "read", Pattern.RAND),
        write=_probe(profile, host, "write", Pattern.SEQ),
    )
    if use_cache:
        _CACHE[key] = result
    return result


def _probe(
    profile: DeviceProfile, host: HostModel, direction: str, pattern: Pattern
) -> AccessClassResult:
    from repro.machine import Machine  # local import: avoids module cycle

    points = []
    for threads in PROBE_THREADS:
        machine = Machine(profile=profile, host=host)

        def job():
            yield machine.io(
                direction,
                pattern,
                PROBE_BYTES,
                tag="calibrate",
                accesses=(PROBE_BYTES // profile.granularity)
                if pattern is Pattern.RAND
                else 1,
                threads=threads,
            )

        machine.run(job(), name=f"probe-{direction}-{pattern}-{threads}")
        elapsed = machine.now
        points.append((threads, PROBE_BYTES / elapsed if elapsed > 0 else 0.0))
    return AccessClassResult(points=tuple(points))
