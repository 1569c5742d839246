"""Bounded retries with simulated-time exponential backoff.

When the injector decides an operation will fault, the storage layer
returns a :class:`_RetryingIO` *command object* instead of a plain
:class:`~repro.sim.fluid.FluidOp`.  The issuing simulated thread yields
it exactly as it would yield the op; the engine recognises the
``_sim_execute`` protocol (direct yields) and the ``_collect_execute``
protocol (inside :class:`~repro.sim.engine.ParallelOps`), so no sort
code changes to become fault-aware.

Each attempt re-invokes the attempt factory, which rebuilds the fluid op
-- so every retry is charged to the device model and shows up in
bandwidth timelines -- and reports whether *this* attempt faults
(scripted faults fire a bounded number of times; probabilistic faults
re-roll per attempt).  Transient faults back off exponentially in
simulated time with seeded jitter; permanent faults and exhausted
budgets are thrown into the issuing thread as
:class:`~repro.errors.RetryExhaustedError` (or the fault itself).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.errors import FaultError, RetryExhaustedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultStats
    from repro.sim.engine import Engine, Process
    from repro.sim.fluid import FluidOp


@dataclass(frozen=True)
class RetryPolicy:
    """How the I/O layer responds to transient device faults.

    ``delay(attempt)`` for attempt k (1-based count of *completed*
    attempts) is ``base_delay * multiplier**(k-1)``, scaled by a seeded
    jitter factor in ``[1, 1+jitter)``.  Delays elapse in simulated
    time, so backoff is visible in run duration and timelines.
    """

    max_attempts: int = 4
    base_delay: float = 1e-4
    multiplier: float = 2.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.multiplier < 1.0 or self.jitter < 0:
            raise ValueError("invalid retry policy parameters")

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = self.base_delay * self.multiplier ** (attempt - 1)
        return base * (1.0 + self.jitter * rng.random())


#: An attempt factory: ``attempt(k)`` performs the data effects of the
#: k-th attempt (k starts at 0), returns the charged fluid op and the
#: fault this attempt suffers (``None`` = clean attempt).
AttemptFn = Callable[[int], Tuple["FluidOp", Optional[FaultError]]]


class _RetryingIO:
    """Engine command driving one logical I/O through fault retries."""

    __slots__ = (
        "_engine",
        "_policy",
        "_rng",
        "_stats",
        "_attempt_fn",
        "_tag",
        "_attempts",
        "_pending_fault",
        "_proc",
        "_callback",
    )

    def __init__(
        self,
        engine: "Engine",
        policy: RetryPolicy,
        rng: random.Random,
        stats: "FaultStats",
        attempt_fn: AttemptFn,
        tag: str,
    ):
        self._engine = engine
        self._policy = policy
        self._rng = rng
        self._stats = stats
        self._attempt_fn = attempt_fn
        self._tag = tag
        self._attempts = 0
        self._pending_fault: Optional[FaultError] = None
        self._proc: Optional["Process"] = None
        self._callback = None

    def __repr__(self) -> str:  # pragma: no cover - diagnostics aid
        return f"RetryingIO({self._tag!r}, attempt {self._attempts})"

    # -- engine command protocols --------------------------------------
    def _sim_execute(self, engine: "Engine", proc: "Process") -> None:
        """Direct ``yield simfile.read(...)`` path."""
        self._proc = proc
        engine.block(proc, self, "retrying-io")
        self._launch()

    def _collect_execute(self, engine: "Engine", callback) -> None:
        """ParallelOps path: deliver through ``callback(value=, exc=)``."""
        self._callback = callback
        self._launch()

    # -- attempt loop ---------------------------------------------------
    def _launch(self) -> None:
        op, fault = self._attempt_fn(self._attempts)
        self._attempts += 1
        self._pending_fault = fault
        # The attempt op always runs to completion (the device worked on
        # the request before the failure was observed), so even faulted
        # attempts consume simulated time and bandwidth.
        self._engine.issue_op(op, self._op_done)

    def _op_done(self, op: "FluidOp") -> None:
        fault = self._pending_fault
        self._pending_fault = None
        if fault is None:
            value = op.on_complete(op) if op.on_complete is not None else op
            self._deliver(value)
            return
        self._stats.note_fault(fault)
        emitters = self._engine.probes.instant
        for emit in emitters:
            emit(
                "fault", cat="fault", track="faults",
                kind=type(fault).__name__, tag=self._tag,
                attempt=self._attempts, transient=fault.transient,
            )
        if fault.transient and self._attempts < self._policy.max_attempts:
            delay = self._policy.delay(self._attempts, self._rng)
            self._stats.retries += 1
            self._stats.backoff_seconds += delay
            for emit in emitters:
                emit(
                    "retry", cat="fault", track="faults",
                    tag=self._tag, attempt=self._attempts, backoff=delay,
                )
            self._engine.call_at(self._engine.now + delay, self._launch)
            return
        if fault.transient:
            self._stats.exhausted += 1
            fault = RetryExhaustedError(
                f"{self._tag}: gave up after {self._attempts} attempts "
                f"({fault})",
                attempts=self._attempts,
                last_fault=fault,
            )
        self._fail(fault)

    # -- completion delivery -------------------------------------------
    def _deliver(self, value) -> None:
        if self._callback is not None:
            self._callback(value=value)
        else:
            self._engine.resume(self._proc, value)

    def _fail(self, exc: FaultError) -> None:
        if self._callback is not None:
            self._callback(exc=exc)
        else:
            self._engine.resume(self._proc, exc=exc)
