"""DRAM budget accounting.

The paper limits available DRAM (e.g. to 20 GB) to force WiscSort into
MergePass for large inputs (Sec 4.1).  Sort implementations consult this
tracker to size buffers and to choose between OnePass and MergePass.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import DramBudgetError
from repro.sim.probe import ProbeSet


class DramTracker:
    """Tracks DRAM allocations against an optional budget (bytes)."""

    def __init__(
        self, budget: Optional[int] = None, probes: Optional[ProbeSet] = None
    ):
        if budget is not None and budget <= 0:
            raise DramBudgetError("DRAM budget must be positive")
        self.budget = budget
        self.used = 0
        self.peak = 0
        #: The owner's probe bus: ``dram_change(used)`` fires after
        #: every allocate/free, ``dram_pressure(requested, used)``
        #: whenever :meth:`would_fit` rejects a reservation.
        self.probes = probes if probes is not None else ProbeSet()

    @property
    def available(self) -> Optional[int]:
        """Remaining bytes, or None when unconstrained."""
        if self.budget is None:
            return None
        return self.budget - self.used

    def would_fit(self, nbytes: int) -> bool:
        if self.budget is None:
            return True
        fits = self.used + nbytes <= self.budget
        if not fits:
            for fn in self.probes.dram_pressure:
                fn(nbytes, self.used)
        return fits

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise DramBudgetError("cannot allocate negative bytes")
        if not self.would_fit(nbytes):
            raise DramBudgetError(
                f"DRAM budget exceeded: used {self.used} + {nbytes} > {self.budget}"
            )
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        for fn in self.probes.dram_change:
            fn(self.used)

    def free(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self.used:
            raise DramBudgetError(f"invalid free of {nbytes} (used {self.used})")
        self.used -= nbytes
        for fn in self.probes.dram_change:
            fn(self.used)

    @contextmanager
    def reserve(self, nbytes: int) -> Iterator[None]:
        """Scoped allocation: frees on exit even if the body raises."""
        self.allocate(nbytes)
        try:
            yield
        finally:
            self.free(nbytes)
