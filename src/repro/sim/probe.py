"""The probe bus: one event vocabulary between the kernel and its observers.

Every hook site in the engine, fluid scheduler, primitives, storage
layer and DRAM tracker -- and every trace-emit site above them -- is one
loop over one tuple of this module's :class:`ProbeSet`::

    for fn in self.probes.op_done:
        fn(op, now)

The tuples are compiled when a probe is installed or rebound, from what
each :class:`Probe` declares in :meth:`Probe.subscriptions`; an event
nobody listens to is the empty tuple, so the off path costs one
attribute load and the kernel never names an observer.  Callbacks run in
install order, and probes are observe-only: they never read each other
and never change a simulated result -- except through the one *active*
capability, :attr:`Probe.reorders_ties` (the schedule permuter), which
at most one installed probe may hold.  The set lives on what survives a
reboot (``Machine`` / ``Cluster``); see :meth:`ProbeSet.rebind`.
"""

from __future__ import annotations

from contextlib import ExitStack, nullcontext
from typing import Any, Callable, Iterable, Tuple

from repro.errors import ConfigError

#: The fixed vocabulary: ``event -> callback signature``.  *Notify*
#: events ignore return values; ``*_scope`` events take context-manager
#: factories (composed by :func:`scope`); ``deadlock_detail`` is a query.
EVENTS = {
    # engine -- process lifecycle
    "spawn": "(proc)",
    "block_io": "(proc, op, 'io')",
    "block_sleep": "(proc, sleep, 'sleep')",
    "block_join": "(proc, join, 'join')",
    "block_parallel": "(proc, ops, 'parallel')",
    "block_primitive": "(proc, resource, verb) via Engine.block",
    "resume": "(proc, resource) Engine.resume, blocked_on still set",
    "timer": "(proc, sleep) sleep expiry, blocked_on still set",
    "finish": "(proc, now)",
    "cancel": "(proc, now) before teardown, blocked_on still set",
    "cancelled": "(proc, now) after teardown and done-callbacks",
    "deadlock_detail": "() -> str",
    # fluid scheduler
    "op_issue": "(op, now)",
    "op_done": "(op, now)",
    # the semaphore's fast paths (no block/resume)
    "acquire": "(proc, resource)",
    "release": "(resource)",
    # storage
    "file_span": "(file, kind, offset, nbytes)",
    "file_batch": "(file, kind, starts, sizes)",
    "raw_move": "(file_name, kind, nbytes)",
    "charge": "(direction, user_bytes, tag)",
    "move_scope": "(direction, nbytes) -> context manager",
    "exempt_scope": "(reason) -> context manager",
    # DRAM tracker
    "dram_change": "(used)",
    "dram_pressure": "(requested, used)",
    # emit side (faults, cluster, service, scheduler)
    "instant": "(name, cat=, track=, **args)",
    "counter": "(track, series, value, t=None)",
    "complete_span": "(name, t0, t1, cat=, track=, proc=, **args)",
    "span_scope": "(name, cat=, track=, **args) -> context manager",
}

#: Shorthands a subscription may name instead of listing members.
GROUPS = {
    "block": tuple(event for event in EVENTS if event.startswith("block_")),
    "wake": ("resume", "timer"),
}

_NO_SCOPE = nullcontext()


def scope(factories: Tuple[Callable, ...], *args: Any, **kwargs: Any):
    """One context manager over every listener of a ``*_scope`` event."""
    if not factories:
        return _NO_SCOPE
    if len(factories) == 1:
        return factories[0](*args, **kwargs)
    stack = ExitStack()
    for factory in factories:
        stack.enter_context(factory(*args, **kwargs))
    return stack


class Probe:
    """Base class of everything that rides the bus."""

    #: The active capability: this probe's ``pick(n)`` / ``shuffle(items)``
    #: choose among same-instant ties (every choice is a legal schedule).
    reorders_ties = False

    def install(self, owner):
        """Install on a ``Machine`` / ``Cluster`` (anything with ``.probes``)."""
        return owner.probes.install(self)

    def bind(self, probes: "ProbeSet") -> None:
        """(Re)attach to ``probes.engine`` / ``probes.owner``.  Runs at
        install and after every reboot: volatile per-engine state resets
        here, recorded findings survive."""

    def subscriptions(self) -> Iterable[Tuple[str, Callable]]:
        """``(event or group, bound callback)`` pairs, in call order."""
        return ()


class ProbeSet:
    """Installed probes plus one compiled callback tuple per event."""

    def __init__(self, owner=None):
        #: The ``Machine`` / ``Cluster`` this set belongs to (``None`` on
        #: a bare engine).
        self.owner = owner
        #: The live engine; every ``Engine`` registers itself here.
        self.engine = None
        self.probes: list = []
        self._compile()

    def install(self, probe: Probe) -> Probe:
        if probe.reorders_ties and self.pick_ready is not None:
            raise ConfigError("only one installed probe may reorder ties")
        self.probes.append(probe)
        probe.bind(self)
        self._compile()
        return probe

    def rebind(self) -> None:
        """Called once by the owner's ``reboot``, after the replacement
        engine registered itself here and the owner rewired the rest."""
        for probe in self.probes:
            probe.bind(self)
        self._compile()

    def _compile(self) -> None:
        table: dict = {event: [] for event in EVENTS}
        self.pick_ready = self.shuffle_ties = None
        for probe in self.probes:
            # Callbacks are whatever the *instance* resolves right now,
            # so method shims installed from outside are honoured.
            for event, fn in probe.subscriptions():
                for name in GROUPS.get(event, (event,)):
                    table[name].append(fn)
            if probe.reorders_ties:
                self.pick_ready, self.shuffle_ties = probe.pick, probe.shuffle
        for event, fns in table.items():
            setattr(self, event, tuple(fns))
