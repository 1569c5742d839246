"""The synchronisation primitive for simulated threads: a semaphore.

A :class:`Semaphore` is bound to an :class:`~repro.sim.engine.Engine`
at construction.  ``acquire`` returns a command object that must be
``yield``-ed from a process; ``release`` is an ordinary method call.

Example::

    slot = Semaphore(engine, count=2)

    def worker():
        yield slot.acquire()        # at most two workers hold a slot
        ...
        slot.release()
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class _AcquireCommand:
    __slots__ = ("sem",)

    def __init__(self, sem: "Semaphore"):
        self.sem = sem

    def _sim_execute(self, engine, proc) -> None:
        if self.sem._count > 0:
            self.sem._count -= 1
            for fn in engine.probes.acquire:
                # Fast-path acquire never passes through block/resume;
                # the prior releaser's edge lives in the resource clock.
                fn(proc, self.sem)
            proc._resume_value = None
            engine._ready.append(proc)
        else:
            engine.block(proc, self.sem, "acquire")
            self.sem._waiters.append(proc)


class Semaphore:
    """Counting semaphore.

    ``yield sem.acquire()`` blocks while the count is zero;
    ``sem.release()`` is a plain call and wakes one waiter if any.
    """

    def __init__(
        self,
        engine,
        count: int = 1,
        name: str = "",
        reason: Optional[str] = None,
    ):
        if count < 0:
            raise ValueError("semaphore count must be >= 0")
        self._engine = engine
        self._count = count
        self.name = name
        #: Blocked-reason tag read by the trace analyzer when a process
        #: parks here (e.g. ``"write-slot"``, ``"dram"``); observe-only.
        self.reason = reason
        self._waiters: deque = deque()

    @property
    def value(self) -> int:
        return self._count

    def acquire(self) -> _AcquireCommand:
        return _AcquireCommand(self)

    def release(self) -> None:
        for fn in self._engine.probes.release:
            # Release edge: the releaser's clock flows into the
            # semaphore so any later acquirer is ordered after it.
            fn(self)
        # Skip waiters cancelled while parked (Engine.cancel_tree leaves
        # them in the deque); handing the slot to one would lose it.
        while self._waiters:
            proc = self._waiters.popleft()
            if proc.done:
                continue
            self._engine.resume(proc, None)
            return
        self._count += 1
