"""Generator-based discrete-event engine.

Simulated threads are plain Python generators that ``yield`` command
objects; the engine interprets each command, blocks or resumes the
process, and advances the simulated clock.  Supported commands:

* :class:`~repro.sim.fluid.FluidOp` -- timed work; resumes when complete
  with the op itself (or the value of ``op.on_complete(op)`` if set).
* :class:`Sleep` -- resume after a fixed simulated delay.
* :class:`Spawn` -- create a child process; resumes immediately with the
  new :class:`Process`.
* :class:`Join` -- wait for one process or a list of processes; resumes
  with the result (or list of results).
* :class:`ParallelOps` -- issue several ops at the same instant and
  resume with their results once all complete; avoids spawning a child
  process per op.
* :class:`Now` -- resumes immediately with the current simulated time.
* any object exposing ``_sim_execute(engine, process)`` -- used by the
  synchronisation primitives in :mod:`repro.sim.primitives`.

The engine is single-threaded and deterministic: ready processes run in
FIFO order and ties in event time break by insertion sequence.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.fluid import FluidOp, FluidScheduler, RateModel
from repro.sim.probe import ProbeSet

SimGenerator = Generator[Any, Any, Any]

_INF = float("inf")


class Sleep:
    """Command: suspend the issuing process for ``dt`` simulated seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if not 0.0 <= dt < _INF:
            raise ValueError(f"Sleep duration must be finite and >= 0, got {dt}")
        self.dt = dt


class Spawn:
    """Command: create a child process running ``gen``."""

    __slots__ = ("gen", "name")

    def __init__(self, gen: SimGenerator, name: str = ""):
        self.gen = gen
        self.name = name


class Join:
    """Command: block until the target process(es) finish.

    Resumes with the single result when joining one process, or a list
    of results (in argument order) when joining an iterable.
    """

    __slots__ = ("targets", "single")

    def __init__(self, targets: "Process | Iterable[Process]"):
        if isinstance(targets, Process):
            self.targets = [targets]
            self.single = True
        else:
            self.targets = list(targets)
            self.single = False


class Now:
    """Command: resume immediately with the current simulated time."""

    __slots__ = ()


class ParallelOps:
    """Command: run several ops concurrently, resume with all results.

    Semantically identical to spawning one child process per op and
    joining them -- all ops enter the fluid scheduler at the same
    simulated instant either way -- but costs one engine command instead
    of ``2n + 1``.  Resumes with the list of per-op completion values in
    argument order.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: Iterable[FluidOp]):
        self.ops = list(ops)

    def _sim_execute(self, engine: "Engine", proc: "Process") -> None:
        engine._issue_parallel(self.ops, proc)


class _ParallelJoin:
    """Where the members of one :class:`ParallelOps` deliver: results
    in argument order, resuming the process once all have arrived, or
    with the first failure (later deliveries are then ignored)."""

    __slots__ = ("engine", "proc", "results", "pending", "failed")

    def __init__(self, engine: "Engine", proc: "Process", n: int):
        self.engine = engine
        self.proc = proc
        self.results: list[Any] = [None] * n
        self.pending = n
        self.failed = False

    def op_done(self, i: int, op: FluidOp) -> None:
        """Collector of fluid member ``i``."""
        self.deliver(i, op.on_complete(op) if op.on_complete is not None else op)

    def deliver(
        self, i: int, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        """Result (or failure) of member ``i``; a command's callback."""
        if exc is not None:
            if not self.failed:
                self.failed = True
                self.engine.resume(self.proc, exc=exc)
            return
        self.results[i] = value
        self.pending -= 1
        if not self.pending and not self.failed:
            self.engine.resume(self.proc, self.results)


class Process:
    """A simulated thread of control wrapping a generator."""

    __slots__ = (
        "gen",
        "name",
        "pid",
        "done",
        "result",
        "cancelled",
        "children",
        "blocked_on",
        "_callbacks",
        "_resume_value",
        "_resume_exc",
    )

    def __init__(self, gen: SimGenerator, name: str, pid: int):
        self.gen = gen
        self.name = name
        self.pid = pid
        self.done = False
        self.result: Any = None
        #: True when torn down by :meth:`Engine.cancel_tree` (the done
        #: flag is also set; result stays None).
        self.cancelled = False
        #: Processes spawned *by* this process (Spawn command), so a
        #: cancellation can take down the whole subtree.
        self.children: list["Process"] = []
        #: What the process currently waits on, maintained by the
        #: engine at every block site: a FluidOp, the list of FluidOps
        #: of a ParallelOps, a Sleep/Join command, or a primitive
        #: resource.  None while ready/running.  Lets ``cancel_tree``
        #: withdraw in-flight work and fix blocked-process accounting.
        self.blocked_on: Any = None
        self._callbacks: list[Callable[["Process"], None]] = []
        self._resume_value: Any = None
        self._resume_exc: Optional[BaseException] = None

    def add_done_callback(self, fn: Callable[["Process"], None]) -> None:
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, pid={self.pid}, {state})"


class Engine:
    """The event loop: owns the clock, ready queue and fluid scheduler."""

    def __init__(
        self,
        rate_model: RateModel,
        start_time: float = 0.0,
        probes: Optional[ProbeSet] = None,
    ):
        #: ``start_time`` supports post-crash reboots: the replacement
        #: engine continues the simulated clock of its predecessor.
        self.now = start_time
        #: The probe bus (see :mod:`repro.sim.probe`): every hook site
        #: below loops over one of its per-event callback tuples, empty
        #: when nobody listens.  A reboot passes the owner's set on so
        #: installed probes follow the replacement engine.
        self.probes = probes if probes is not None else ProbeSet()
        self.probes.engine = self
        #: The process whose generator is executing right now (None
        #: between steps): probes attribute spans, op issues, storage
        #: accesses and primitive releases to it.
        self.current: Optional[Process] = None
        self.fluid = FluidScheduler(
            rate_model, start_time=start_time, probes=self.probes
        )
        self._ready: deque[Process] = deque()
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._pids = itertools.count(1)
        self._blocked = 0
        #: Every process not yet finished or cancelled, as the keys of a
        #: dict: its order is spawn order, which :meth:`close` keeps.
        self._live: dict[Process, None] = {}
        #: True while ``run`` / ``run_until`` is executing; raw storage
        #: access outside the loop (fixtures, post-run validation) is
        #: legitimate and the charge auditor ignores it.
        self.running = False
        # Self-performance counters (read by repro.perf).
        self.steps = 0
        self.advances = 0
        self.timer_events = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def spawn(self, gen: SimGenerator, name: str = "") -> Process:
        """Register ``gen`` as a new ready process."""
        proc = Process(gen, name or f"proc-{next(self._pids)}", next(self._pids))
        self._live[proc] = None
        self._ready.append(proc)
        for fn in self.probes.spawn:
            fn(proc)  # the spawner, if any, is self.current
        return proc

    def resume(
        self,
        proc: Process,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Make a blocked process ready again (used by primitives).

        When ``exc`` is given the process is resumed by *throwing* the
        exception into its generator at the suspended ``yield`` -- the
        retry layer uses this to escalate permanent device faults into
        the issuing simulated thread.
        """
        if proc.done:
            # A cancelled (or already finished) process: its blocked
            # accounting was settled at cancellation time, and late
            # wakeups from in-flight callbacks must not revive it.
            return
        for fn in self.probes.resume:
            # Before blocked_on clears: listeners snapshot what the
            # process was parked on (the waker is self.current).
            fn(proc, proc.blocked_on)
        proc.blocked_on = None
        self._blocked -= 1
        proc._resume_value = value
        proc._resume_exc = exc
        self._ready.append(proc)

    def issue_op(self, op: FluidOp, collector: Callable[[FluidOp], None]) -> None:
        """Issue a fluid op outside any process context.

        ``collector(op)`` runs when the op completes; used by command
        objects (retrying I/O) that manage their own completion logic.
        """
        op._collector = collector
        self.fluid.add(op, self.now)
        if op.finished_at is not None:
            # Zero-work op completed instantly.
            self._complete_op(op)

    def block(
        self, proc: Optional[Process] = None, resource: Any = None, verb: str = "wait"
    ) -> None:
        """Account for a process that a primitive has parked.

        Callers pass the parked process and the resource it waits on so
        probes can maintain waits-for graphs, wait records and clocks;
        both are optional and unused otherwise.
        """
        self._blocked += 1
        if proc is not None:
            proc.blocked_on = resource if resource is not None else verb
            for fn in self.probes.block_primitive:
                fn(proc, resource, verb)

    def call_at(self, t: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute simulated time ``t``."""
        if not self.now <= t < _INF:
            if t < self.now:
                raise SimulationError(f"cannot schedule in the past ({t} < {self.now})")
            raise SimulationError(f"cannot schedule at a non-finite time ({t})")
        heapq.heappush(self._heap, (t, next(self._seq), fn))

    def cancel_tree(self, root: Process) -> int:
        """Cancel ``root`` and every process it (transitively) spawned.

        The speculative-execution primitive: when two redundant tasks
        race, the first completion wins and the loser's whole subtree is
        withdrawn at the current instant.  The scheduler is settled
        first, so work the losers performed *up to now* is fully charged
        and observed; only their future work disappears.  For each live
        process in the subtree: its in-flight fluid ops are withdrawn
        (:meth:`FluidScheduler.cancel_op`), its blocked-process
        accounting is reversed, its generator is closed (running
        ``finally`` blocks), and it finishes with result ``None`` --
        done-callbacks (Join waiters) still fire, so a joiner of a
        cancelled process resumes with None rather than deadlocking.
        Processes parked on primitives stay in the waiter queues; the
        primitives skip done processes on wakeup.  Deterministic: the
        subtree is walked in spawn order and op teardown follows it.

        Returns the number of processes actually cancelled.
        """
        self.fluid.settle(self.now)
        cancelled = 0
        stack = [root]
        while stack:
            proc = stack.pop()
            # Children are appended in spawn order; extending first
            # keeps the walk covering processes spawned before this
            # step regardless of proc's own state.
            stack.extend(reversed(proc.children))
            if proc.done:
                continue
            proc.cancelled = True
            for fn in self.probes.cancel:
                fn(proc, self.now)  # while blocked_on is still set
            blocked = proc.blocked_on
            proc.blocked_on = None
            if blocked is not None:
                self._blocked -= 1
                if isinstance(blocked, FluidOp):
                    blocked._waiter = None
                    blocked._collector = None
                    self.fluid.cancel_op(blocked)
                elif isinstance(blocked, list):
                    for op in blocked:
                        if isinstance(op, FluidOp):
                            op._waiter = None
                            op._collector = None
                            self.fluid.cancel_op(op)
            del self._live[proc]
            try:
                proc.gen.close()
            except Exception:
                pass  # a finally block misbehaving must not stop teardown
            proc._finish(None)
            # Cancellation is a final event like StopIteration, so
            # probes can retire per-process state (waits-for entries,
            # vector clocks) for coroutines that will never resume.
            for fn in self.probes.cancelled:
                fn(proc, self.now)
            cancelled += 1
        return cancelled

    def close(self) -> None:
        """Tear down every live process, in spawn order, for a reboot.

        What :meth:`cancel_tree` does, minus the charging: nothing is
        settled or withdrawn and no probe hears it, because the engine
        itself is being discarded.  Every process is marked done first,
        so a ``finally`` block waking another finds it dead; then each
        generator is closed, running its ``finally`` blocks now instead
        of whenever the cyclic GC reaches them.
        """
        live, self._live = self._live, {}
        for proc in live:
            proc.done = True
        for proc in live:
            blocked, proc.blocked_on = proc.blocked_on, None
            for op in blocked if isinstance(blocked, list) else (blocked,):
                if isinstance(op, FluidOp):
                    op._waiter = op._collector = None
            proc._callbacks.clear()
            try:
                proc.gen.close()
            except Exception:
                pass  # a finally block misbehaving must not stop teardown

    def run(self) -> float:
        """Run until no work remains; returns the final simulated time."""
        self._loop(None)
        if self._blocked:
            raise DeadlockError(
                f"simulation ended with {self._blocked} blocked process(es)"
                + self._deadlock_detail()
            )
        return self.now

    def run_until(self, proc: Process) -> Any:
        """Run until ``proc`` finishes, even if other work remains.

        Used when perpetual background processes (multi-tenant clients)
        share the engine: the clock stops advancing the moment the
        watched process completes, and in-flight background ops are
        simply abandoned.  Raises if the engine runs dry first.
        """
        self._loop(proc)
        return proc.result

    def run_process(self, gen: SimGenerator, name: str = "") -> Any:
        """Spawn ``gen``, run to completion, return its result."""
        proc = self.spawn(gen, name)
        self.run()
        if not proc.done:
            raise SimulationError(f"{proc!r} did not finish")
        return proc.result

    def _deadlock_detail(self) -> str:
        """Probe-supplied waits-for graph as an error-message suffix.

        With no listener, points at the ``--sanitize`` flag instead.
        """
        details = [fn() for fn in self.probes.deadlock_detail]
        if not details:
            return " (run with --sanitize for a waits-for graph)"
        return "\n" + "\n".join(details)

    # ------------------------------------------------------------------
    # Event loop internals
    # ------------------------------------------------------------------
    def _loop(self, until: Optional[Process]) -> None:
        """The event loop: step every ready process, then settle the
        current instant (re-rate, wake what completed), then advance the
        clock; until nothing remains or ``until`` has finished."""
        ready = self._ready
        fluid = self.fluid
        probes = self.probes
        step = self._step
        complete = self._complete_op
        self.running = True
        try:
            while until is None or not until.done:
                if probes.pick_ready is None:
                    while ready:
                        step(ready.popleft())
                else:
                    self._drain_picked()
                if until is not None and until.done:
                    break
                if fluid.dirty:
                    # Every op finishing at this instant, coalesced in
                    # ascending op id; completing them in that order
                    # keeps waiter wakeups deterministic under both
                    # kernel paths.
                    done = fluid.refresh(self.now)
                    if done:
                        shuffle = probes.shuffle_ties
                        if shuffle is not None and len(done) > 1:
                            # Any delivery order of ops finishing at the
                            # same instant is a legal schedule.
                            shuffle(done)
                        for op in done:
                            complete(op)
                        continue
                if not self._advance():
                    if until is not None:
                        raise DeadlockError(
                            f"engine ran out of events before {until!r} finished"
                            + self._deadlock_detail()
                        )
                    break
        finally:
            self.running = False

    def _drain_picked(self) -> None:
        """Drain the ready queue in the order an active probe picks.

        The probe reorders ties: step the ready process it picks instead
        of the FIFO head (any choice is a legal schedule).  The rotate
        dance pops index i and restores the relative order of the rest,
        so one pick permutes without reshuffling the deque.
        """
        pick = self.probes.pick_ready
        ready = self._ready
        while ready:
            n = len(ready)
            i = pick(n) if n > 1 else 0
            if i:
                ready.rotate(-i)
            proc = ready.popleft()
            if i:
                ready.rotate(i)
            self._step(proc)

    def _advance(self) -> bool:
        """Advance the clock to the next event; False when nothing remains."""
        fluid = self.fluid
        t_fluid = fluid.next_completion(self.now)
        t_heap = self._heap[0][0] if self._heap else None
        if t_fluid is None and t_heap is None:
            if fluid.active:
                raise DeadlockError(
                    "all in-flight ops are stalled at rate 0 and no timed "
                    "events remain" + self._deadlock_detail()
                )
            return False
        if t_heap is None or (t_fluid is not None and t_fluid <= t_heap):
            target = t_fluid
        else:
            target = t_heap
        if not self.now <= target < _INF:
            raise SimulationError(
                f"next event time {target} is not a finite instant at or "
                f"after now ({self.now})"
            )
        self.now = target
        self.advances += 1
        done = fluid.settle_due(target)
        shuffle = self.probes.shuffle_ties
        if shuffle is not None and len(done) > 1:
            shuffle(done)
        for op in done:
            self._complete_op(op)
        while self._heap and self._heap[0][0] <= self.now + 1e-15:
            _, _, item = heapq.heappop(self._heap)
            self.timer_events += 1
            if isinstance(item, Process):
                if item.done:
                    # Cancelled while sleeping; accounting already
                    # settled by cancel_tree.
                    continue
                for fn in self.probes.timer:
                    fn(item, item.blocked_on)
                item.blocked_on = None
                self._blocked -= 1
                self._ready.append(item)
            else:
                item()
        return True

    def _complete_op(self, op: FluidOp) -> None:
        for fn in self.probes.op_done:
            fn(op, self.now)
        collector = op._collector
        if collector is not None:
            op._collector = None
            collector(op)
            return
        proc = op._waiter
        op._waiter = None
        value = op.on_complete(op) if op.on_complete is not None else op
        if proc is not None:
            self.resume(proc, value)

    def _issue_parallel(self, ops: list, proc: Process) -> None:
        """Add ``ops`` to the fluid scheduler at the current instant and
        park ``proc`` until every one has completed.

        Besides plain :class:`FluidOp` items, the list may contain
        command objects exposing ``_collect_execute(engine, callback)``
        (the fault layer's retrying I/O): they run concurrently with the
        fluid ops and deliver their result through the callback.  The
        first command that fails resumes ``proc`` with the exception;
        stragglers complete harmlessly afterwards.
        """
        if not ops:
            proc._resume_value = []
            self._ready.append(proc)
            return
        fluid_items = [(i, op) for i, op in enumerate(ops) if isinstance(op, FluidOp)]
        self._blocked += 1
        for fn in self.probes.block_parallel:
            # Before the ops issue: a zero-work op can resume the
            # process from inside the issue loop below.
            fn(proc, ops, "parallel")
        join = _ParallelJoin(self, proc, len(ops))
        proc.blocked_on = [op for _i, op in fluid_items]
        add, now = self.fluid.add, self.now
        for i, op in fluid_items:
            op._collector = partial(join.op_done, i)
            add(op, now)
            if op.finished_at is not None:
                # Zero-work op completed instantly.
                self._complete_op(op)
        if len(fluid_items) < len(ops):
            for i, item in enumerate(ops):
                if not isinstance(item, FluidOp):
                    item._collect_execute(self, partial(join.deliver, i))

    def _step(self, proc: Process) -> None:
        if proc.done:
            return  # cancelled while sitting in the ready queue
        self.steps += 1
        # Span, op-issue, storage-access and release hooks fire
        # synchronously while the generator executes and belong to this
        # process; cleared again below so callbacks running between
        # steps (timers, retry re-issues) are never misattributed.
        self.current = proc
        try:
            value, proc._resume_value = proc._resume_value, None
            exc, proc._resume_exc = proc._resume_exc, None
            try:
                if exc is not None:
                    command = proc.gen.throw(exc)
                else:
                    command = proc.gen.send(value)
            except StopIteration as stop:
                del self._live[proc]
                for fn in self.probes.finish:
                    fn(proc, self.now)
                proc._finish(stop.value)
                return
            if isinstance(command, FluidOp):
                # The common command, dispatched here.
                command._waiter = proc
                proc.blocked_on = command
                self._blocked += 1
                for fn in self.probes.block_io:
                    fn(proc, command, "io")
                self.fluid.add(command, self.now)
                if command.finished_at is not None:
                    # Zero-work op completed instantly.
                    self._complete_op(command)
            else:
                self._dispatch(command, proc)
        finally:
            self.current = None

    def _dispatch(self, command: Any, proc: Process) -> None:
        """Every command but a :class:`FluidOp` (see :meth:`_step`)."""
        if isinstance(command, Sleep):
            proc.blocked_on = command
            self._blocked += 1
            for fn in self.probes.block_sleep:
                fn(proc, command, "sleep")
            heapq.heappush(self._heap, (self.now + command.dt, next(self._seq), proc))
        elif isinstance(command, Spawn):
            child = self.spawn(command.gen, command.name)
            proc.children.append(child)
            proc._resume_value = child
            self._ready.append(proc)
        elif isinstance(command, Join):
            self._join(command, proc)
        elif isinstance(command, Now):
            proc._resume_value = self.now
            self._ready.append(proc)
        elif hasattr(command, "_sim_execute"):
            command._sim_execute(self, proc)
        else:
            raise SimulationError(
                f"{proc!r} yielded an unsupported command: {command!r}"
            )

    def _join(self, command: Join, proc: Process) -> None:
        pending = [t for t in command.targets if not t.done]
        if not pending:
            results = [t.result for t in command.targets]
            proc._resume_value = results[0] if command.single else results
            self._ready.append(proc)
            return
        proc.blocked_on = command
        self._blocked += 1
        for fn in self.probes.block_join:
            fn(proc, command, "join")
        remaining = {"n": len(pending)}

        def on_done(_finished: Process) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                results = [t.result for t in command.targets]
                self.resume(proc, results[0] if command.single else results)

        for target in pending:
            target.add_done_callback(on_done)
