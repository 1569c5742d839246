"""Declarative fault schedules and the ``--faults`` spec mini-language.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultEvent`\\ s.
Events come in three trigger flavours:

* **op-indexed** (``at_op``): fires at the Nth timed file operation the
  injector sees (reads and writes share one counter).  Events whose
  direction does not match op N fire at the first eligible op after N.
* **timed** (``at_time``): fires at an absolute simulated time
  (crashes, throughput-degradation windows).
* **probabilistic** (``p``): an independent seeded coin flip per
  eligible op.

``crash@50%`` carries a *fractional* trigger that must be resolved
against a probe run's total op count before the plan can arm (see
:meth:`FaultPlan.resolve_fractions`); the CLI does this automatically.

Spec grammar (comma-separated, whitespace ignored)::

    crash@op:1234        crash at file-op index 1234
    crash@t:0.005        crash at simulated time 0.005 s
    crash@50%            crash at 50% of the fault-free run's op count
    readerr@op:N         uncorrectable MediaReadError at/after op N
    readerr@p:0.001      each read fails permanently with prob. 0.001
    transient@op:N       one transient failure at/after op N (retried)
    transient@p:0.01     each op fails transiently with prob. 0.01
    torn@op:N            write at/after op N persists only a prefix
    enospc@op:N+K        writes at ops [N, N+K) raise ENOSPC (transient)
    slow@t:T+D:xF        device rates x F during [T, T+D)
    seed:S               RNG seed for probabilities / jitter / tear points

Any event token may carry a ``shardN:`` prefix (``shard1:crash@50%``,
``shard0:slow@t:0.1+0.2:x0.25``) restricting it to one cluster shard;
untargeted tokens apply to every shard (:meth:`Cluster.install_faults`
slices the plan per shard via :meth:`FaultPlan.for_shard`; a standalone
machine ignores the field).  :func:`repro.api.sort` rejects a target the
run does not have (:meth:`FaultPlan.require_domains`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.errors import ConfigError
from repro.faults.retry import RetryPolicy

#: Event kinds and the op direction they apply to (None = any).
_KIND_DIRECTION = {
    "crash": None,
    "readerr": "read",
    "transient": None,
    "torn": "write",
    "enospc": "write",
    "slow": None,
}


@dataclass
class FaultEvent:
    """One scheduled fault.  See the module docstring for semantics."""

    kind: str
    at_op: Optional[int] = None
    at_time: Optional[float] = None
    at_frac: Optional[float] = None
    p: Optional[float] = None
    #: ``slow`` window length (seconds) / ``enospc`` burst length (ops).
    duration: float = 0.0
    count: int = 1
    #: ``slow`` throughput multiplier.
    factor: float = 1.0
    #: Cluster shard domain the event targets (None = every shard).
    shard: Optional[str] = None
    #: Set once a one-shot event has fired (survives reboots).
    fired: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KIND_DIRECTION:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        triggers = [
            t for t in (self.at_op, self.at_time, self.at_frac, self.p)
            if t is not None
        ]
        if len(triggers) != 1:
            raise ConfigError(
                f"{self.kind} event needs exactly one trigger "
                f"(at_op / at_time / at_frac / p)"
            )
        # The injector schedules only these pairings; any other would
        # index an absent trigger mid-run.
        if (self.p is not None and self.kind in ("crash", "enospc")) or (
            self.at_time is not None and self.kind not in ("crash", "slow")
        ):
            raise ConfigError(
                f"{self.kind} events take no "
                f"{'p:' if self.p is not None else 't:'} trigger"
            )
        # Triggers that could never fire (or would fire at op 0).
        if self.at_time is not None and self.at_time < 0:
            raise ConfigError(f"time must be >= 0, got {self.at_time}")
        if self.at_op is not None and self.at_op < 0:
            raise ConfigError(f"op index must be >= 0, got {self.at_op}")
        if self.count < 1:
            raise ConfigError(f"burst length must be >= 1, got {self.count}")
        if self.p is not None and not (0.0 <= self.p <= 1.0):
            raise ConfigError(f"probability must be in [0, 1], got {self.p}")
        if self.at_frac is not None and not (0.0 < self.at_frac <= 1.0):
            raise ConfigError(f"fraction must be in (0, 1], got {self.at_frac}")
        if self.kind == "slow" and self.at_time is None:
            raise ConfigError("slow windows need a t: trigger")
        if self.kind == "slow" and self.duration <= 0:
            raise ConfigError(
                f"slow window duration must be positive, got {self.duration}"
            )
        if self.factor <= 0:
            raise ConfigError(
                f"slow factor must be positive, got {self.factor}"
            )

    @property
    def direction(self) -> Optional[str]:
        """Op direction the event applies to (None = any)."""
        return _KIND_DIRECTION[self.kind]


@dataclass
class FaultPlan:
    """A seeded schedule of faults plus the retry policy for transients."""

    events: List[FaultEvent] = field(default_factory=list)
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise ConfigError(f"not a FaultEvent: {ev!r}")

    @property
    def empty(self) -> bool:
        return not self.events

    @property
    def needs_probe(self) -> bool:
        """True while any event still carries an unresolved ``at_frac``."""
        return any(ev.at_frac is not None for ev in self.events)

    @property
    def has_crash(self) -> bool:
        return any(ev.kind == "crash" for ev in self.events)

    def require_domains(self, domains: Sequence[str]) -> None:
        """Reject ``shardN:`` targets outside the run's fault ``domains``."""
        unknown = sorted(
            {ev.shard for ev in self.events if ev.shard is not None}
            - set(domains)
        )
        if unknown:
            raise ConfigError(
                f"fault plan targets {', '.join(unknown)}, but the run's "
                f"fault domains are: "
                f"{', '.join(domains) or 'none (one device takes no shardN: prefix)'}"
            )

    def resolve_fractions(self, total_ops: int) -> "FaultPlan":
        """Turn ``crash@50%``-style fractions into concrete op indices.

        ``total_ops`` is the file-op count of a fault-free probe run of
        the same workload.  Returns a new plan; the original is
        unmodified.
        """
        if total_ops < 1:
            raise ConfigError("total_ops must be >= 1 to resolve fractions")
        events = []
        for ev in self.events:
            if ev.at_frac is not None:
                at_op = min(total_ops - 1, max(0, int(ev.at_frac * total_ops)))
                events.append(replace(ev, at_frac=None, at_op=at_op))
            else:
                events.append(replace(ev))
        return FaultPlan(events=events, seed=self.seed, retry=self.retry)

    def for_shard(self, domain: str) -> "FaultPlan":
        """Sub-plan for one cluster shard: events targeting ``domain``
        plus all untargeted events.

        Events are copied (``fired`` state included), so each shard's
        injector consumes its own one-shot events independently; an
        untargeted ``slow@`` window therefore degrades *every* shard.
        The sub-plan keeps the parent's seed -- per-shard RNG streams
        diverge anyway because each injector sees a different op stream.
        """
        events = [
            replace(ev)
            for ev in self.events
            if ev.shard is None or ev.shard == domain
        ]
        return FaultPlan(events=events, seed=self.seed, retry=self.retry)


_TOKEN = re.compile(r"^(?P<kind>[a-z]+)@(?P<trigger>.+)$")
_SHARD_PREFIX = re.compile(r"^(?P<shard>shard\d+):(?P<rest>.+)$")


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below, like the nan float() accepts
    if not math.isfinite(value):
        raise ConfigError(f"bad {what} in fault spec: {text!r}")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad {what} in fault spec: {text!r}") from None


def _parse_event(token: str) -> FaultEvent:
    m = _TOKEN.match(token)
    if m is None:
        raise ConfigError(
            f"bad fault token {token!r} (expected kind@trigger, e.g. crash@50%)"
        )
    kind, trigger = m.group("kind"), m.group("trigger")
    if kind == "slow":
        # slow@t:T+D:xF
        m2 = re.match(r"^t:(?P<t>[^+]+)\+(?P<d>[^:]+):x(?P<f>.+)$", trigger)
        if m2 is None:
            raise ConfigError(
                f"bad slow window {token!r} (expected slow@t:T+D:xF)"
            )
        return FaultEvent(
            kind="slow",
            at_time=_parse_float(m2.group("t"), "time"),
            duration=_parse_float(m2.group("d"), "duration"),
            factor=_parse_float(m2.group("f"), "factor"),
        )
    if trigger.endswith("%"):
        frac = _parse_float(trigger[:-1], "percentage") / 100.0
        return FaultEvent(kind=kind, at_frac=frac)
    if trigger.startswith("op:"):
        body = trigger[3:]
        if "+" in body:
            at, burst = body.split("+", 1)
            return FaultEvent(
                kind=kind,
                at_op=_parse_int(at, "op index"),
                count=_parse_int(burst, "burst length"),
            )
        return FaultEvent(kind=kind, at_op=_parse_int(body, "op index"))
    if trigger.startswith("t:"):
        return FaultEvent(kind=kind, at_time=_parse_float(trigger[2:], "time"))
    if trigger.startswith("p:"):
        return FaultEvent(kind=kind, p=_parse_float(trigger[2:], "probability"))
    raise ConfigError(f"bad fault trigger {trigger!r} in {token!r}")


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a comma-separated fault spec string into a :class:`FaultPlan`."""
    events: List[FaultEvent] = []
    plan_seed = seed
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        if token.startswith("seed:"):
            plan_seed = _parse_int(token[5:], "seed")
            continue
        shard = None
        m = _SHARD_PREFIX.match(token)
        if m is not None:
            shard, token = m.group("shard"), m.group("rest")
        ev = _parse_event(token)
        if shard is not None:
            ev = replace(ev, shard=shard)
        events.append(ev)
    return FaultPlan(events=events, seed=plan_seed)
