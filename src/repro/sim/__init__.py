"""Discrete-event simulation kernel.

The kernel provides generator-based cooperative "simulated threads"
(:class:`~repro.sim.engine.Process`), an event loop
(:class:`~repro.sim.engine.Engine`), a semaphore
(:mod:`repro.sim.primitives`) and a fluid-flow work scheduler
(:mod:`repro.sim.fluid`) that turns resource-sharing descriptions into
completion times.

Device- and host-specific rate logic lives in :mod:`repro.device`; the
kernel only knows about abstract :class:`~repro.sim.fluid.FluidOp` work
items and an injected :class:`~repro.sim.fluid.RateModel`.
"""

from repro.sim.engine import Engine, Process, Sleep, Spawn, Join, Now
from repro.sim.fluid import (
    FluidOp,
    FluidScheduler,
    RateModel,
    UniformRateModel,
    time_eq,
    time_ne,
)
from repro.sim.primitives import Semaphore

__all__ = [
    "Engine",
    "Process",
    "Sleep",
    "Spawn",
    "Join",
    "Now",
    "FluidOp",
    "FluidScheduler",
    "RateModel",
    "UniformRateModel",
    "time_eq",
    "time_ne",
    "Semaphore",
]
