"""Synchronisation primitives for simulated threads.

All primitives are bound to an :class:`~repro.sim.engine.Engine` at
construction.  Blocking operations return command objects that must be
``yield``-ed from a process; non-blocking operations (``release``,
``try_get``) are ordinary method calls.

Example::

    barrier = Barrier(engine, parties=4)

    def worker():
        ...
        yield barrier.wait()        # rendezvous with the other workers
        ...
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.errors import SimulationError


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


class _BarrierCommand:
    __slots__ = ("barrier",)

    def __init__(self, barrier: "Barrier"):
        self.barrier = barrier

    def _sim_execute(self, engine, proc) -> None:
        bar = self.barrier
        bar._arrived += 1
        if bar._arrived == bar.parties:
            # Last arrival releases everyone; the barrier is cyclic.
            bar._arrived = 0
            bar.generation += 1
            for fn in engine.probes.acquire:
                # The last arriver inherits every earlier arrival's
                # clock (merged into the barrier at block time); the
                # resumes below then propagate it to all waiters,
                # giving the all-to-all rendezvous ordering.
                fn(proc, bar)
            waiters, bar._waiters = bar._waiters, []
            for waiter in waiters:
                engine.resume(waiter, None)
            proc._resume_value = None
            engine._ready.append(proc)
        else:
            engine.block(proc, bar, "wait")
            bar._waiters.append(proc)


class Barrier:
    """Cyclic barrier for a fixed number of parties."""

    def __init__(
        self,
        engine,
        parties: int,
        name: str = "",
        reason: Optional[str] = "barrier",
    ):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self._engine = engine
        self.parties = parties
        self.name = name
        #: Blocked-reason tag for the trace analyzer (see Semaphore).
        self.reason = reason
        self.generation = 0
        self._arrived = 0
        self._waiters: list = []

    def wait(self) -> _BarrierCommand:
        return _BarrierCommand(self)


class _PutCommand:
    __slots__ = ("queue", "item")

    def __init__(self, queue: "SimQueue", item: Any):
        self.queue = queue
        self.item = item

    def _sim_execute(self, engine, proc) -> None:
        q = self.queue
        if q.maxsize is not None and len(q._items) >= q.maxsize:
            # block() tells probes the verb ("put"), so the item keeps
            # its producer edge even though delivery happens later from
            # another step.
            engine.block(proc, q, "put")
            q._put_waiters.append((proc, self.item))
            return
        for fn in engine.probes.release:
            # Put edge: the producer's clock flows into the queue so
            # whoever gets the item is ordered after the put.
            fn(q)
        q._deliver(engine, self.item)
        proc._resume_value = None
        engine._ready.append(proc)


class _GetCommand:
    __slots__ = ("queue",)

    def __init__(self, queue: "SimQueue"):
        self.queue = queue

    def _sim_execute(self, engine, proc) -> None:
        q = self.queue
        if q._items:
            item = q._items.popleft()
            for fn in engine.probes.acquire:
                # Fast-path get: inherit the producers' edges from the
                # queue's resource clock (no block/resume happened).
                fn(proc, q)
            q._refill(engine)
            proc._resume_value = item
            engine._ready.append(proc)
        else:
            engine.block(proc, q, "get")
            q._get_waiters.append(proc)


class SimQueue:
    """Bounded FIFO queue between simulated threads.

    ``yield q.put(item)`` blocks when full; ``yield q.get()`` blocks when
    empty.  ``maxsize=None`` means unbounded.
    """

    def __init__(
        self,
        engine,
        maxsize: Optional[int] = None,
        name: str = "",
        reason: Optional[str] = None,
    ):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1 or None")
        self._engine = engine
        self.maxsize = maxsize
        self.name = name
        #: Blocked-reason tag for the trace analyzer (see Semaphore).
        self.reason = reason
        self._items: deque = deque()
        self._get_waiters: deque = deque()
        self._put_waiters: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> _PutCommand:
        return _PutCommand(self, item)

    def get(self) -> _GetCommand:
        return _GetCommand(self)

    def try_get(self) -> Any:
        """Non-blocking get; raises if the queue is empty."""
        if not self._items:
            raise SimulationError("try_get on empty SimQueue")
        item = self._items.popleft()
        for fn in self._engine.probes.acquire:
            fn(self._engine.current, self)
        self._refill(self._engine)
        return item

    def _deliver(self, engine, item: Any) -> None:
        """Hand ``item`` to a blocked getter, or store it.

        Getters cancelled while parked are skipped, never handed an
        item (it would vanish with them).
        """
        while self._get_waiters:
            proc = self._get_waiters.popleft()
            if proc.done:
                continue
            engine.resume(proc, item)
            return
        self._items.append(item)

    def _refill(self, engine) -> None:
        """After a slot freed, admit one blocked putter (if any).

        A putter cancelled while parked never delivered its item; drop
        it and offer the slot to the next one.
        """
        while self._put_waiters:
            proc, item = self._put_waiters.popleft()
            if proc.done:
                continue
            self._deliver(engine, item)
            engine.resume(proc, None)
            return
