"""A multi-device cluster: N shards on one shared simulation engine.

Each shard is an ordinary :class:`~repro.machine.Machine` joined to the
cluster's engine through a :class:`~repro.sim.domains.DomainRouter`: the
shard's ops are stamped with its domain key and rated against its own
:class:`~repro.device.device.BraidRateModel`, so devices never interfere
with each other (one NUMA socket per device, as on the paper's testbed)
while everything shares one simulated clock.

Homogeneous clusters share a single profile object and host model across
shards, so the thread-pool controller's calibration cache is hit once
per cluster rather than once per shard.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import SortConfig
from repro.device.host import HostModel
from repro.device.profile import DeviceProfile
from repro.device.stats import InterconnectStats, TagStats
from repro.errors import ConfigError
from repro.machine import Machine, ProbeHost
from repro.records.format import RecordFormat
from repro.records.gensort import DatasetRecipe
from repro.registry import get_profile
from repro.sim.domains import DomainRouter
from repro.sim.engine import Engine, SimGenerator
from repro.sim.fluid import FluidOp, NetLinkRateModel
from repro.sim.primitives import Semaphore
from repro.sim.probe import ProbeSet
from repro.storage.dram import DramTracker
from repro.storage.file import SimFile

#: Reserved DomainRouter key for the interconnect resource; shard
#: domains are ``"shard{i}"`` so the name can never collide.
NET_DOMAIN = "net"

#: Default per-endpoint link bandwidth: one 100 GbE port per shard.
DEFAULT_LINK_BW = 12.5e9


class ClusterStats:
    """Aggregate read-only statistics view over all shard devices.

    Duck-types the slice of :class:`~repro.device.stats.DeviceStats`
    that :meth:`repro.core.base.SortSystem._drive_and_harvest` consumes.
    Per-tag aggregates merge shard tables in shard order (deterministic
    float summation); ``busy_time`` sums *device*-busy seconds across
    shards, so overlapping shards legitimately report more busy time
    than wall clock.
    """

    def __init__(self, shards: Sequence[Machine]):
        self._shards = shards

    @property
    def bytes_read_internal(self) -> float:
        return sum(m.stats.bytes_read_internal for m in self._shards)

    @property
    def bytes_written_internal(self) -> float:
        return sum(m.stats.bytes_written_internal for m in self._shards)

    @property
    def tags(self) -> dict:
        merged: dict = {}
        for shard in self._shards:
            for tag, s in shard.stats.tags.items():
                agg = merged.get(tag)
                if agg is None:
                    agg = TagStats()
                    merged[tag] = agg
                agg.busy_time += s.busy_time
                agg.internal_bytes += s.internal_bytes
                agg.user_bytes += s.user_bytes
                agg.op_count += s.op_count
                if s.first_active < agg.first_active:
                    agg.first_active = s.first_active
                if s.last_active > agg.last_active:
                    agg.last_active = s.last_active
                if s.direction:
                    agg.direction = s.direction
                if s.pattern:
                    agg.pattern = s.pattern
        return merged

    def tag_table(self) -> List[Tuple[str, TagStats]]:
        # Tag name breaks first_active ties, keeping the order total
        # when several tags start at the same instant.
        return sorted(self.tags.items(), key=lambda kv: (kv[1].first_active, kv[0]))


class ClusterFaultState:
    """Cluster-wide fault-injection state: one injector per shard.

    Duck-types the slice of :class:`~repro.faults.injector.FaultInjector`
    that result harvesting consumes (``.stats``), aggregates the
    per-shard injectors behind one facade, and carries the cluster-level
    robustness counters (`shards_recovered`, speculation outcomes)
    surfaced by ``--selfperf``.
    """

    def __init__(self, plan):
        from repro.faults.injector import FaultStats

        self.plan = plan
        #: domain -> FaultInjector (installed via Machine.install_faults).
        self.injectors: Dict[str, object] = {}
        #: Cluster-level ledger: recovery counts and salvage accounting
        #: credited by the harness / result harvesting.
        self.stats = FaultStats()
        self.count_only = False
        self.shards_recovered = 0
        self.speculative_issues = 0
        self.speculative_wins = 0

    @property
    def armed(self) -> bool:
        return any(inj.armed for inj in self.injectors.values())  # reprolint: disable=SIM003 -- any() is order-independent

    def ops_seen(self) -> Dict[str, int]:
        """Per-shard op counts (count-only probe results)."""
        return {dom: inj.stats.ops_seen for dom, inj in self.injectors.items()}

    def note_recovery(self) -> None:
        """The harness rebooted the crashed shard and is about to recover."""
        self.stats.recoveries += 1
        self.shards_recovered += 1

    def as_dict(self) -> Dict[str, float]:
        """Flat counter snapshot: cluster ledger + per-shard injectors."""
        out: Dict[str, float] = {}
        self._flatten("cluster.fault_", self.stats.as_dict(), out)
        out["shards_recovered"] = self.shards_recovered
        out["speculative_issues"] = self.speculative_issues
        out["speculative_wins"] = self.speculative_wins
        for dom in sorted(self.injectors):
            stats = self.injectors[dom].stats
            self._flatten(f"{dom}.fault_", stats.as_dict(), out)
        return out

    @staticmethod
    def _flatten(prefix: str, stats: dict, out: Dict[str, float]) -> None:
        for k, v in stats.items():
            if isinstance(v, dict):
                for k2 in sorted(v):
                    out[f"{prefix}{k}.{k2}"] = v[k2]
            else:
                out[f"{prefix}{k}"] = v


class Cluster(ProbeHost):
    """N device shards behind one engine, one clock and one DRAM pool.

    ``profiles`` takes one entry per shard -- a profile name from the
    registry or a :class:`~repro.device.profile.DeviceProfile` -- for
    heterogeneous clusters (e.g. 2x pmem + 2x bd-device).  Without it,
    ``shards`` homogeneous shards share a single default-pmem profile.
    The cluster duck-types the machine surface sort systems harvest
    (``now`` / ``stats`` / ``faults`` / ``run``), so a
    :class:`~repro.cluster.sharded.ShardedWiscSort` runs on it through
    the ordinary :meth:`~repro.core.base.SortSystem.run` entry point.
    """

    _span_track = "cluster"

    def __init__(
        self,
        shards: int = 2,
        profiles: Optional[Sequence[Union[str, DeviceProfile]]] = None,
        profile: Optional[DeviceProfile] = None,
        host: Optional[HostModel] = None,
        dram_budget: Optional[int] = None,
        config: Optional[SortConfig] = None,
        link_bw: Optional[float] = DEFAULT_LINK_BW,
    ):
        if profiles is not None:
            resolved = [
                get_profile(p)() if isinstance(p, str) else p for p in profiles
            ]
        else:
            if shards < 1:
                raise ConfigError("a cluster needs at least one shard")
            shared = profile if profile is not None else get_profile("pmem")()
            resolved = [shared] * shards
        if not resolved:
            raise ConfigError("a cluster needs at least one shard")
        self.router = DomainRouter()
        #: One probe bus for the whole cluster; every shard (including
        #: ones admitted later) rides it through the shared engine.
        self.probes = ProbeSet(self)
        self.engine = Engine(self.router, probes=self.probes)
        self.host = host if host is not None else HostModel()
        self.dram = DramTracker(dram_budget, self.probes)
        self.config = config if config is not None else SortConfig()
        self.shards: List[Machine] = [
            Machine(
                profile=prof,
                host=self.host,
                engine=self.engine,
                domain=f"shard{i}",
                dram=self.dram,
            )
            for i, prof in enumerate(resolved)
        ]
        #: Interconnect rate model (max-min fair full-duplex links) and
        #: its byte/timeline recorder.  ``link_bw=None`` disables the
        #: network entirely: cross-shard transfers then cost nothing,
        #: matching pre-interconnect builds.
        if link_bw is not None:
            self.network: Optional[NetLinkRateModel] = NetLinkRateModel(link_bw)
            self.router.add_domain(NET_DOMAIN, self.network)
            self.net_stats: Optional[InterconnectStats] = InterconnectStats()
            self.engine.fluid.observe_group(NET_DOMAIN, self.net_stats.observe)
        else:
            self.network = None
            self.net_stats = None
        self.stats = ClusterStats(self.shards)
        #: Installed :class:`ClusterFaultState` (see
        #: :meth:`install_faults`); None matches the machine surface
        #: result harvesting expects.
        self.faults: Optional[ClusterFaultState] = None

    # ------------------------------------------------------------------
    def run(self, gen: SimGenerator, name: str = "cluster-main"):
        """Run a root process on the shared engine; returns its result."""
        proc = self.engine.spawn(gen, name)
        return self.engine.run_until(proc)

    @property
    def now(self) -> float:
        return self.engine.now

    def semaphore(
        self, count: int = 1, name: str = "", reason: Optional[str] = None
    ) -> Semaphore:
        return Semaphore(self.engine, count, name=name, reason=reason)

    # ------------------------------------------------------------------
    # Interconnect
    # ------------------------------------------------------------------
    def net_op(
        self, src: str, dst: str, nbytes: float, tag: str = "NET xfer"
    ) -> FluidOp:
        """A timed transfer of ``nbytes`` from shard ``src`` to ``dst``.

        Charged against both endpoints' links by the max-min fair
        :class:`~repro.sim.fluid.NetLinkRateModel`; yield it (typically
        inside a :class:`~repro.sim.engine.ParallelOps` next to the
        destination's device write) to make the shuffle pay for the
        wire.  Raises when the cluster was built with ``link_bw=None``.
        """
        if self.network is None:
            raise ConfigError(
                "cluster has no interconnect (built with link_bw=None)"
            )
        self.net_stats.credit_submission(tag, float(nbytes))
        return FluidOp(
            float(nbytes),
            kind="net",
            tag=tag,
            attrs={"domain": NET_DOMAIN, "src": src, "dst": dst},
        )

    # ------------------------------------------------------------------
    # Fault injection and crash recovery
    # ------------------------------------------------------------------
    def install_faults(
        self,
        plan,
        count_only: bool = False,
        counts: Optional[Dict[str, int]] = None,
    ) -> ClusterFaultState:
        """Install a :class:`~repro.faults.plan.FaultPlan` cluster-wide.

        Each shard gets its own injector over the plan's
        :meth:`~repro.faults.plan.FaultPlan.for_shard` slice, so
        ``shardN:``-targeted events hit only their shard while
        untargeted events arm everywhere.  ``counts`` (per-domain op
        totals from a ``count_only`` probe run, see
        :meth:`ClusterFaultState.ops_seen`) resolves fractional
        triggers per shard.
        """
        state = ClusterFaultState(plan)
        state.count_only = count_only
        for shard in self.shards:
            sub = plan.for_shard(shard.domain)
            if counts is not None and sub.needs_probe:
                sub = sub.resolve_fractions(max(1, int(counts.get(shard.domain, 0))))
            state.injectors[shard.domain] = shard.install_faults(
                sub, count_only=count_only
            )
        self.faults = state
        return state

    def shard_by_domain(self, domain: str) -> Machine:
        for shard in self.shards:
            if shard.domain == domain:
                return shard
        raise ConfigError(f"no shard with domain {domain!r}")

    def reboot(self, victim: Union[str, Machine, None] = None) -> Optional[Machine]:
        """Whole-cluster recovery point after a shard crash.

        A :class:`~repro.errors.SimulatedCrash` unwinds the shared event
        loop, so *every* shard's volatile state (in-flight processes,
        DRAM contents, transient degradation) is gone -- only the
        crashed shard additionally lost its in-flight writes (torn by
        the injector).  Mirroring :meth:`repro.machine.Machine.reboot`,
        this closes the old engine's processes, replaces the engine
        (clock carried forward), rebuilds the
        shared DRAM pool, clears degradation, re-registers every
        shard's rate model and observers (plus the interconnect),
        re-attaches injectors (re-arming unfired timed events) and
        rebinds every installed probe.  Durable storage -- every shard's
        filesystem -- survives untouched.  Returns the victim shard
        (rebooted in place, ready for re-execution), or None when the
        crash carried no domain.
        """
        shard = None
        if victim is not None:
            shard = (
                victim if isinstance(victim, Machine)
                else self.shard_by_domain(victim)
            )
        self.engine.close()
        now = self.engine.now
        self.router = DomainRouter()
        engine = Engine(self.router, start_time=now, probes=self.probes)
        for m in self.shards:
            m.rate_model.degrade = 1.0
            self.router.add_domain(m.domain, m.rate_model)
            m.engine = engine
        if self.network is not None:
            self.router.add_domain(NET_DOMAIN, self.network)
            engine.fluid.observe_group(NET_DOMAIN, self.net_stats.observe)
        self.engine = engine
        for m in self.shards:
            m.observe_engine()
        self.dram = DramTracker(self.dram.budget, self.probes)
        for m in self.shards:
            m.dram = self.dram
        for m in self.shards:
            if m.faults is not None:
                # In-flight tracking is volatile: the victim's entries
                # were already torn by the crash, the survivors' eager
                # data is treated as durable (their writes completed
                # from the device's point of view before the cluster
                # lost the engine).
                m.faults.clear_inflight()
                m.faults.attach(m)
        self.probes.rebind()
        for emit in self.probes.instant:
            emit(
                "cluster-reboot",
                cat="fault",
                track="cluster",
                victim=shard.domain if shard is not None else "?",
            )
        return shard

    def describe(self) -> str:
        kinds = ", ".join(m.profile.describe() for m in self.shards)
        return f"cluster[{len(self.shards)} shards]: {kinds}"


class ShardedFile:
    """An ordered set of per-shard :class:`SimFile` parts.

    Shard order *is* global record order: part ``i`` holds the records
    that come before part ``i+1``'s in the logical whole.  ``merged()``
    materialises that whole (untimed -- validation/reporting only).
    """

    def __init__(self, name: str, parts: Sequence[SimFile]):
        self.name = name
        self.parts = list(parts)

    @property
    def size(self) -> int:
        return sum(p.size for p in self.parts)

    def release(self) -> None:
        """Untimed: :meth:`SimFile.release` every part."""
        for part in self.parts:
            part.release()

    def merged(self) -> np.ndarray:
        # One part at a time: a released part's bytes live for its copy only.
        whole = np.empty(self.size, dtype=np.uint8)
        at = 0
        for part in self.parts:
            if part.size:
                whole[at : at + part.size] = part.peek_view()
                at += part.size
        return whole

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedFile({self.name!r}, parts={len(self.parts)}, size={self.size})"


def generate_cluster_dataset(
    cluster: Cluster,
    name: str,
    n_records: int,
    fmt: Optional[RecordFormat] = None,
    seed: int = 0,
) -> ShardedFile:
    """Generate one gensort dataset split contiguously across shards.

    The concatenation of the shard parts in shard order is byte-for-byte
    the dataset a single machine would generate with the same seed, so a
    sharded sort can be checked for byte identity against a single-device
    run of the same ``(n_records, fmt, seed)``.  Each part is built from,
    and keeps, the recipe of its own record range, so a released part
    makes only its own records again.
    """
    fmt = fmt if fmt is not None else RecordFormat()
    n_shards = len(cluster.shards)
    bounds = [n_records * i // n_shards for i in range(n_shards + 1)]
    parts = []
    for i, shard in enumerate(cluster.shards):
        recipe = DatasetRecipe(n_records, fmt, seed, False, bounds[i], bounds[i + 1])
        records = recipe()
        part = shard.fs.create(f"{name}.shard{i}")
        part.adopt(records, recipe=recipe)
        parts.append(part)
    return ShardedFile(name, parts)
