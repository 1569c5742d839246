"""The BRAID rate model: active ops -> instantaneous rates.

Every fluid op is either:

* an **I/O op** (``kind="io"``): ``work`` is internal device traffic in
  bytes, attributes carry ``direction`` ("read"/"write"), ``pattern``
  (:class:`~repro.device.profile.Pattern`), ``threads`` (how many device
  threads the op represents -- a pooled gather issued by 16 reader
  threads is one op with ``threads=16``) and ``host_ratio`` (host-bus
  bytes moved per byte of device work).
* a **CPU op** (``kind="cpu"``): ``work`` is either cpu-seconds
  (``mode="compute"``) or bytes (``mode="copy"``), with a ``cores``
  parallelism cap.

Rate assignment happens in two stages:

1. *Device caps* (properties A, I, D): each I/O op's ceiling is its
   pattern curve evaluated at the total thread count of its direction,
   multiplied by the interference penalty from the opposite direction,
   and split proportionally to the op's thread weight.
2. *Host water-filling*: all ops then share the memory bus and CPU cores
   by normalised max-min progressive filling, so a device-fast op can
   still be host-bound (and vice versa).

Rates depend only on each op's *signature* -- (kind, direction, pattern,
threads, host_ratio) for I/O, (kind, mode, cores) for CPU -- never on
identity or remaining work.  :meth:`BraidRateModel.assign` runs the
waterfill in canonical signature order, so equal-signature ops are
interchangeable and one assignment is exact for every population with
the same signature multiset.  That is what lets the fluid scheduler's
per-group rate tables (:mod:`repro.sim.fluid`) memoize assignments; the
model itself keeps no cache.  See DESIGN.md "Fluid core".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.device.host import HostModel
from repro.device.profile import DeviceProfile, Pattern
from repro.sim.fluid import FluidOp, RateModel

_REL_EPS = 1e-9


def make_io_op(
    profile: DeviceProfile,
    direction: str,
    pattern: Pattern,
    nbytes: int,
    tag: str,
    accesses: int = 1,
    stride: int = 0,
    threads: int = 1,
    host_bytes: int | None = None,
) -> FluidOp:
    """Build a fluid op for one device request (or pooled request batch).

    ``host_bytes`` defaults to the user payload: every delivered byte
    crosses the memory bus once.  Strided key gathers deliver far fewer
    bytes than the device internally touches, which is exactly how
    key-value separation saves host-side work.
    """
    if direction not in ("read", "write"):
        raise ValueError(f"direction must be read/write, got {direction!r}")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    work = profile.io_work(pattern, nbytes, accesses=accesses, stride=stride)
    user = nbytes if host_bytes is None else host_bytes
    host_ratio = (user / work) if work > 0 else 0.0
    return FluidOp(
        work,
        kind="io",
        tag=tag,
        direction=direction,
        pattern=pattern,
        threads=threads,
        host_ratio=host_ratio,
        user_bytes=nbytes,
    )


class BraidRateModel(RateModel):
    """Implements the two-stage rate assignment described above."""

    def __init__(self, profile: DeviceProfile, host: HostModel):
        self.profile = profile
        self.host = host
        #: Global device-throughput multiplier in (0, 1].  The fault
        #: injector lowers it during transient-degradation windows
        #: (interference storms); it scales every I/O cap and is the
        #: vector state token, so rate tables built under another
        #: value are never reused.
        self.degrade = 1.0

    # ------------------------------------------------------------------
    @staticmethod
    def _signature(op: FluidOp) -> tuple:
        """Everything the rate computation reads from one op.

        Uses ``pattern.value`` (a string) rather than the enum so
        signatures of different ops sort under a total order.
        """
        attrs = op.attrs
        if op.kind == "io":
            return (
                "io",
                attrs["direction"],
                attrs["pattern"].value,
                attrs["threads"],
                attrs["host_ratio"],
            )
        if op.kind == "cpu":
            if attrs is None:
                return ("cpu", "compute", 1.0)
            return ("cpu", attrs.get("mode", "compute"), float(attrs.get("cores", 1)))
        return (op.kind,)

    def assign(self, ops: Iterable[FluidOp]) -> Dict[FluidOp, float]:
        pairs = []
        for op in ops:
            sig = op._sig
            if sig is None:
                sig = self._signature(op)
                op._sig = sig
            pairs.append((sig, op))
        # Canonical signature order: rates become independent of caller
        # iteration order (equal-signature ops are interchangeable), so
        # a group's rate table built from this pass is exact for any
        # population with the same signature multiset.
        pairs.sort(key=lambda p: p[0])
        return self._assign_ordered([op for _, op in pairs])

    # ------------------------------------------------------------------
    # Vectorized-kernel protocol (see RateModel): rates depend only on
    # the signature multiset and the degradation multiplier, so the
    # signature *is* the vector class and ``degrade`` is the state
    # token.  ``assign`` already canonicalises by signature, satisfying
    # the signature-purity contract.
    def vector_state(self, key):
        return self.degrade

    def vector_sig(self, op: FluidOp) -> tuple:
        sig = op._sig
        if sig is None:
            sig = self._signature(op)
            op._sig = sig
        return sig

    def _assign_ordered(self, ops: List[FluidOp]) -> Dict[FluidOp, float]:
        reads = [op for op in ops if op.kind == "io" and op.attrs["direction"] == "read"]
        writes = [op for op in ops if op.kind == "io" and op.attrs["direction"] == "write"]
        cpus = [op for op in ops if op.kind == "cpu"]

        n_read_threads = sum(op.attrs["threads"] for op in reads)
        n_write_threads = sum(op.attrs["threads"] for op in writes)

        entries: List[Tuple[FluidOp, float, Dict[str, float]]] = []
        for op in reads:
            cap = self._read_cap(op, n_read_threads, n_write_threads)
            entries.append((op, cap, self._io_coefs(op)))
        for op in writes:
            cap = self._write_cap(op, n_write_threads, n_read_threads)
            entries.append((op, cap, self._io_coefs(op)))
        for op in cpus:
            entries.append(self._cpu_entry(op))

        capacities = {"cpu": float(self.host.ncores), "bus": self.host.bus_bw}
        return _waterfill(entries, capacities)

    # ------------------------------------------------------------------
    def _read_cap(self, op: FluidOp, n_readers: float, n_writers: float) -> float:
        curve = self.profile.read_curve(op.attrs["pattern"])
        share = op.attrs["threads"] / max(1.0, n_readers)
        penalty = self.profile.interference.read_multiplier(n_writers)
        return curve.aggregate(n_readers) * share * penalty * self.degrade

    def _write_cap(self, op: FluidOp, n_writers: float, n_readers: float) -> float:
        curve = self.profile.write
        share = op.attrs["threads"] / max(1.0, n_writers)
        penalty = self.profile.interference.write_multiplier(n_readers)
        return curve.aggregate(n_writers) * share * penalty * self.degrade

    def _io_coefs(self, op: FluidOp) -> Dict[str, float]:
        return {
            "bus": op.attrs["host_ratio"],
            "cpu": 1.0 / self.host.io_cpu_bw,
        }

    def _cpu_entry(self, op: FluidOp) -> Tuple[FluidOp, float, Dict[str, float]]:
        attrs = op.attrs
        cores = 1.0 if attrs is None else float(attrs.get("cores", 1))
        mode = "compute" if attrs is None else attrs.get("mode", "compute")
        if mode == "compute":
            # work in cpu-seconds; rate is cores-worth of cpu-sec/s.
            return (op, cores, {"cpu": 1.0, "bus": 0.0})
        if mode == "copy":
            # work in bytes; each byte/s of copy consumes bus and cpu.
            cap = cores * self.host.copy_bw_per_core
            return (op, cap, {"cpu": 1.0 / self.host.copy_bw_per_core, "bus": 1.0})
        raise ValueError(f"unknown cpu op mode {mode!r}")


def _waterfill(
    entries: List[Tuple[FluidOp, float, Dict[str, float]]],
    capacities: Dict[str, float],
) -> Dict[FluidOp, float]:
    """Normalised max-min progressive filling.

    All ops raise a common normalised level ``lam`` in [0, 1]; an op's
    rate is ``lam * cap``.  When a shared resource saturates, its users
    freeze at the current level and the rest keep climbing.
    """
    rates: Dict[FluidOp, float] = {}
    active = [(op, cap, coefs) for op, cap, coefs in entries if cap > 0]
    for op, cap, _ in entries:
        if cap <= 0:
            rates[op] = 0.0
    remaining = dict(capacities)
    lam = 0.0
    while active:
        slopes = {
            res: sum(cap * coefs.get(res, 0.0) for _, cap, coefs in active)
            for res in remaining
        }
        step = 1.0 - lam
        for res, slope in slopes.items():
            if slope > 0:
                step = min(step, remaining[res] / slope)
        lam += step
        for res, slope in slopes.items():
            remaining[res] -= slope * step
        if lam >= 1.0 - _REL_EPS:
            for op, cap, _ in active:
                rates[op] = cap
            break
        saturated = [
            res
            for res in sorted(capacities)
            if remaining[res] <= _REL_EPS * max(capacities[res], 1.0)
        ]
        frozen = [
            e for e in active if any(e[2].get(res, 0.0) > 0 for res in saturated)
        ]
        if not frozen:
            # Numerical corner: freeze everything to guarantee progress.
            frozen = active
        for op, cap, _ in frozen:
            rates[op] = lam * cap
        active = [e for e in active if e[0] not in rates]
    return rates
