"""The Machine: one simulated host + one BRAID device.

A :class:`Machine` bundles the event engine, the BRAID rate model, the
device statistics recorder, a simulated filesystem and a DRAM budget.
Sorting systems and workload generators are written against this facade.

Typical usage::

    machine = Machine(profile=pmem_profile())
    input_file = machine.fs.create("input")
    ...                      # generate workload into input_file
    def job():
        data = yield input_file.read(0, 4096, tag="RUN read")
        yield machine.compute(0.001, tag="RUN sort", cores=16)
        yield input_file.write(0, data, tag="RUN write")
    machine.run(job(), name="demo")
    print(machine.engine.now)         # simulated seconds elapsed
"""

from __future__ import annotations

from typing import Any, Optional

from repro.device.device import BraidRateModel
from repro.device.host import HostModel
from repro.device.profile import DeviceProfile
from repro.device.profiles import pmem_profile
from repro.device.stats import DeviceStats
from repro.errors import ConfigError
from repro.sim.engine import Engine, SimGenerator
from repro.sim.fluid import SHARED_GROUP, FluidOp
from repro.sim.primitives import Semaphore
from repro.sim.probe import ProbeSet, scope
from repro.storage.dram import DramTracker
from repro.storage.filesystem import SimFS


class ProbeHost:
    """What a :class:`Machine` and a :class:`repro.cluster.Cluster` share:
    a :class:`~repro.sim.probe.ProbeSet` in ``self.probes`` and the
    convenience installers for the four stock probes.  Every installer
    returns the probe; all but the schedule permuter are observe-only
    (simulated results are bit-identical with or without them), and all
    follow the owner through ``reboot``.
    """

    probes: ProbeSet
    #: Track that :meth:`trace_span` spans land on (None = the tracer's
    #: main track).
    _span_track: Optional[str] = None

    def install_sanitizer(self, trace: bool = False):
        """Install a :class:`~repro.analysis.sanitizer.SimSanitizer`.

        Opt-in runtime checking: deadlock diagnostics that name stuck
        coroutines, a charge-accounting audit cross-checking storage
        byte moves against device charges (every shard's, on a cluster),
        and (with ``trace=True``) an event trace for determinism
        diffing.  Call its
        :meth:`~repro.analysis.sanitizer.SimSanitizer.check` after the
        run to raise on accounting drift.
        """
        from repro.analysis.sanitizer import SimSanitizer

        return self.probes.install(SimSanitizer(trace=trace))

    def install_tracer(self):
        """Install a :class:`repro.trace.Tracer`.

        Opt-in observability: sim-time spans, per-op device events with
        byte/class/amplification/interference attribution, and
        bandwidth/DRAM counter tracks (per shard on a cluster, plus the
        interconnect and the shared DRAM pool), exportable to Perfetto
        (see :mod:`repro.trace`).
        """
        from repro.trace import Tracer

        return self.probes.install(Tracer())

    def install_race_detector(self):
        """Install a :class:`~repro.analysis.race.RaceDetector`.

        Opt-in dynamic race detection: vector clocks over the engine's
        spawn/block/resume edges plus a per-file byte-range access log,
        flagging conflicting same-instant accesses with no
        happens-before ordering (cross-shard conflicts included: all
        shards share one engine).  Call its
        :meth:`~repro.analysis.race.RaceDetector.check` after the run to
        raise on findings.
        """
        from repro.analysis.race import RaceDetector

        return self.probes.install(RaceDetector())

    def install_schedule_fuzz(self, seed: int):
        """Permute same-instant scheduling ties from ``seed``.

        Every permuted schedule is legal, so a correct workload must
        produce byte-identical output under any seed (see
        :func:`repro.analysis.race.schedule_fuzz` for the sweep
        harness).  The permuter's RNG stream continues across reboots,
        so one seed covers a whole crash-recovery schedule.  Returns the
        :class:`~repro.analysis.race.SchedulePermuter`.
        """
        from repro.analysis.race import SchedulePermuter

        return self.probes.install(SchedulePermuter(seed))

    def trace_span(self, name: str, cat: str = "phase", **args):
        """A sim-time span context manager; a shared no-op context when
        no probe records spans, so untraced runs pay nothing."""
        return scope(
            self.probes.span_scope, name, cat=cat, track=self._span_track, **args
        )


class Machine(ProbeHost):
    """A simulated single-socket host with one byte-addressable device.

    Standalone by default: the machine owns its engine and rate model.
    As a *shard* of a :class:`repro.cluster.Cluster` it instead joins a
    shared engine whose rate model is a
    :class:`~repro.sim.domains.DomainRouter`: pass ``engine=`` and a
    unique ``domain=`` key, and every op this machine builds is tagged
    with the domain so the router rates it against this machine's own
    device/host models, isolated from the other shards.  ``dram=``
    substitutes a shared :class:`~repro.storage.dram.DramTracker` so
    concurrent jobs reserve memory from one cluster-wide pool.
    """

    def __init__(
        self,
        profile: Optional[DeviceProfile] = None,
        host: Optional[HostModel] = None,
        dram_budget: Optional[int] = None,
        engine: Optional[Engine] = None,
        domain: Optional[str] = None,
        dram: Optional[DramTracker] = None,
    ):
        self.profile = profile if profile is not None else pmem_profile()
        self.host = host if host is not None else HostModel()
        self.rate_model = BraidRateModel(self.profile, self.host)
        #: Domain key stamped on every op (None on standalone machines,
        #: where op attributes stay identical to earlier builds).
        self.domain = domain
        if engine is not None:
            if domain is None:
                raise ConfigError("a machine joining a shared engine needs a domain")
            from repro.sim.domains import DomainRouter

            router = engine.fluid.model
            if not isinstance(router, DomainRouter):
                raise ConfigError(
                    "shared engines must be built on a DomainRouter rate model"
                )
            router.add_domain(domain, self.rate_model)
            self.engine = engine
            #: A shard rides the cluster's bus: probes installed on
            #: either cover the whole shared engine.
            self.probes = engine.probes
            self._span_track = domain
        else:
            if domain is not None:
                raise ConfigError("domain= requires a shared engine=")
            self.probes = ProbeSet(self)
            self.engine = Engine(self.rate_model, probes=self.probes)
        self.stats = DeviceStats(self.host)
        self.observe_engine()
        self.fs = SimFS(self)
        self.dram = (
            dram if dram is not None else DramTracker(dram_budget, self.probes)
        )
        #: Installed :class:`repro.faults.injector.FaultInjector`, if any.
        self.faults = None
        #: :meth:`ThreadPoolController.of`'s memo: config values ->
        #: controller, fixed for this machine's life.
        self.pool_controllers: dict = {}

    def observe_engine(self) -> None:
        """Subscribe this machine's statistics to its engine's scheduler.

        A machine's ops are exactly one resource group of the rate model
        -- the shared group standalone, the domain's group as a cluster
        shard -- so the statistics observer receives that group's own
        issue-ordered op list: per-shard float accumulation order is
        issue order, as on a standalone machine, with no filtering.
        """
        key = self.domain if self.domain is not None else SHARED_GROUP
        self.engine.fluid.observe_group(key, self.stats.observe)

    # ------------------------------------------------------------------
    # Fault injection and crash recovery
    # ------------------------------------------------------------------
    def install_faults(self, plan, count_only: bool = False):
        """Install a :class:`~repro.faults.plan.FaultPlan` on this machine.

        Returns the :class:`~repro.faults.injector.FaultInjector`.  With
        an empty plan the injector stays unarmed and the storage layer
        takes its fault-free fast path (zero overhead); ``count_only``
        arms it purely as an op counter (probe runs).
        """
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(plan, count_only=count_only)
        injector.attach(self)
        self.faults = injector
        return injector

    def reboot(self, victim: None = None) -> None:
        """Crash recovery: replace the engine, carrying the clock forward.

        Models a host restart after a :class:`~repro.errors.SimulatedCrash`:
        volatile state (in-flight processes, DRAM contents, any transient
        degradation) is lost, while the device -- filesystem contents and
        accumulated statistics -- survives.  The old engine's processes
        are closed first (:meth:`~repro.sim.engine.Engine.close`): the
        dead attempt's ``finally`` blocks run here, and its memory is
        freed now rather than at the next cyclic collection.  The new engine's clock
        continues from the crash time, so recovery cost is visible in the
        total simulated duration.  An installed fault injector is
        re-attached and keeps its global op counter and fired-event
        state; installed probes are rebound to the replacement engine.
        ``victim`` mirrors :meth:`repro.cluster.cluster.Cluster.reboot` for
        the recovery harness; a standalone machine's crashes name none.
        """
        if self.domain is not None:
            raise ConfigError(
                "cluster shards cannot reboot independently; reboot is a "
                "whole-host operation on the owning cluster"
            )
        self.engine.close()
        now = self.engine.now
        self.rate_model.degrade = 1.0
        self.engine = Engine(self.rate_model, start_time=now, probes=self.probes)
        self.observe_engine()
        self.dram = DramTracker(self.dram.budget, self.probes)
        if self.faults is not None:
            self.faults.attach(self)
        self.probes.rebind()

    # ------------------------------------------------------------------
    # Op builders
    # ------------------------------------------------------------------
    def io(self, *args, **kwargs) -> FluidOp:
        """A device I/O op; see :meth:`repro.storage.filesystem.Volume.io`."""
        return self.fs.io(*args, **kwargs)

    def io_raw(self, *args, **kwargs) -> FluidOp:
        """A device I/O op with explicitly precomputed internal work; see
        :meth:`repro.storage.filesystem.Volume.io_raw`."""
        return self.fs.io_raw(*args, **kwargs)

    def compute(self, cpu_seconds: float, tag: str, cores: int = 1) -> FluidOp:
        """Pure CPU work, spread over up to ``cores`` cores."""
        op = FluidOp(cpu_seconds, kind="cpu", tag=tag, mode="compute", cores=cores)
        if self.domain is not None:
            op.attrs["domain"] = self.domain
        return op

    def copy(self, nbytes: int, tag: str, cores: int = 1) -> FluidOp:
        """A DRAM-to-DRAM memcpy of ``nbytes`` using up to ``cores`` cores."""
        op = FluidOp(float(nbytes), kind="cpu", tag=tag, mode="copy", cores=cores)
        if self.domain is not None:
            op.attrs["domain"] = self.domain
        return op

    def sort_compute(self, n_items: int, tag: str, cores: int = 1) -> FluidOp:
        """In-memory sort cost for ``n_items`` (IPS4o-style when cores>1)."""
        return self.compute(self.host.sort_seconds(n_items), tag, cores=cores)

    # ------------------------------------------------------------------
    # Execution and synchronisation helpers
    # ------------------------------------------------------------------
    def run(self, gen: SimGenerator, name: str = "main") -> Any:
        """Run a root process to completion; returns its result.

        Stops as soon as the root process finishes, so perpetual
        background processes (multi-tenant interference clients) do not
        keep the clock running.
        """
        proc = self.engine.spawn(gen, name)
        return self.engine.run_until(proc)

    @property
    def now(self) -> float:
        return self.engine.now

    def semaphore(
        self, count: int = 1, name: str = "", reason: Optional[str] = None
    ) -> Semaphore:
        return Semaphore(self.engine, count, name=name, reason=reason)
