"""The programmatic entry points: ``repro.api.sort`` and ``repro.api.serve``.

Both are built on one typed options surface, :class:`RunOptions` -- a
frozen dataclass carrying everything a single sort run needs (system,
device, format, config, seed, fault spec, sanitizer/tracer/race-detector
arming, DRAM budget).  The CLI and the sort service construct the same
``RunOptions`` instead of threading fifteen loose keyword arguments
through every layer::

    from repro import api

    result = api.sort(api.RunOptions(records=200_000, system="wiscsort"))
    print(result.total_time, result.phases)

    chaos = api.sort(
        api.RunOptions(records=200_000, faults="shard1:crash@50%"), shards=4
    )
    print(chaos.extras["fault_report"].summary())

    report = api.serve(
        api.RunOptions(records=2_000, seed=7),
        rate=200.0, horizon=0.5, policy="edf",
    )
    print(report.render())

The returned :class:`~repro.core.base.SortResult` carries the machine in
``result.extras["machine"]`` (the cluster in ``extras["cluster"]`` for a
sharded sort) for timeline/stats inspection, and the fault report (when
``faults`` was given) in ``result.extras["fault_report"]``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.core.base import SortConfig, SortResult
from repro.errors import ConfigError
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.registry import create_system, get_profile


@dataclass(frozen=True)
class RunOptions:
    """Everything one sort run needs, in one typed immutable object.

    Use :meth:`replace` to derive variants without mutating (the
    dataclass is frozen)::

        base = RunOptions(records=50_000, device="pmem")
        traced = base.replace(trace="out.trace.json")

    ``sanitizer`` and ``trace`` may carry live objects (a pre-built
    :class:`~repro.analysis.sanitizer.SimSanitizer`, a
    :class:`~repro.trace.Tracer` or an export path); frozen-ness only
    pins *which* objects a run uses, deliberately.
    """

    #: Records in the generated gensort dataset.
    records: int = 100_000
    #: Registry name of the sorting system.
    system: str = "wiscsort"
    #: Registry name of the device profile.
    device: str = "pmem"
    #: Record geometry (None = default 10B key / 90B value).
    fmt: Optional[RecordFormat] = None
    #: Sort tunables (None = defaults).
    config: Optional[SortConfig] = None
    #: Dataset seed (and base seed for fault plans / arrival streams).
    seed: int = 42
    #: Fault-injection spec string (``--faults`` grammar), or None.
    faults: Optional[str] = None
    #: Install the runtime SimSanitizer and check for charge drift.
    sanitize: bool = False
    #: Validate the output post-run (untimed).
    validate: bool = True
    #: DRAM cap in bytes (None = unbounded; small values force MergePass).
    dram_budget: Optional[int] = None
    #: Rate-model memo cache (debug switch; results identical either way).
    memoize_rates: bool = True
    #: Pre-built sanitizer instance (advanced; overrides ``sanitize``'s).
    sanitizer: Optional[Any] = None
    #: Trace export path or pre-built :class:`~repro.trace.Tracer`.
    trace: Optional[Any] = None
    #: Also record analyze-mode wait/process records for the
    #: critical-path analyzer (implies tracing; observe-only).
    analyze: bool = False
    #: Install the sim-time race detector (observe-only).
    race_detect: bool = False
    #: Seed for the same-instant schedule permuter (None = FIFO order).
    schedule_seed: Optional[int] = None

    def __post_init__(self):
        if self.records < 0:
            raise ConfigError("records must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.dram_budget is not None and self.dram_budget <= 0:
            raise ConfigError("dram_budget must be positive")
        if self.fmt is not None and not isinstance(self.fmt, RecordFormat):
            raise ConfigError(
                f"fmt must be a RecordFormat, not {type(self.fmt).__name__}"
            )
        if self.config is not None and not isinstance(self.config, SortConfig):
            raise ConfigError(
                f"config must be a SortConfig, not {type(self.config).__name__}"
            )

    def replace(self, **changes) -> "RunOptions":
        """A copy with the given fields replaced (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    @property
    def record_format(self) -> RecordFormat:
        """The effective record format (default-filled)."""
        return self.fmt if self.fmt is not None else RecordFormat()

    @property
    def sort_config(self) -> SortConfig:
        """The effective sort config (default-filled)."""
        return self.config if self.config is not None else SortConfig()


def _coerce_options(where: str, options, loose: dict) -> RunOptions:
    """Resolve the single positional argument to one RunOptions."""
    if loose:
        raise ConfigError(
            f"api.{where}() takes one repro.api.RunOptions, not loose "
            f"keyword arguments ({', '.join(sorted(loose))})"
        )
    if options is None:
        return RunOptions()
    if not isinstance(options, RunOptions):
        raise ConfigError(
            f"api.{where}() takes a RunOptions, not "
            f"{type(options).__name__}"
        )
    return options


def arm_probes(o: RunOptions, owner):
    """Install every probe the options ask for on ``owner``'s bus.

    ``owner`` is the run's machine or cluster.  Returns ``(extras,
    trace_path)``: the installed observers keyed as the result's
    ``extras`` carries them, and where to export the trace (if
    anywhere).  ``analyze=True`` arms the analyze-mode record streams on
    whatever tracer the run uses -- creating one if the options carry no
    ``trace`` at all (the records live on the Tracer object; nothing is
    exported unless a path was given).
    """
    extras = {}
    trace_path = None
    if o.race_detect:
        extras["race_detector"] = owner.install_race_detector()
    if o.schedule_seed is not None:
        owner.install_schedule_fuzz(o.schedule_seed)
    if o.sanitizer is not None:
        extras["sanitizer"] = o.sanitizer.install(owner)
    elif o.sanitize:
        extras["sanitizer"] = owner.install_sanitizer()
    if o.trace is not None or o.analyze:
        from repro.trace import Tracer

        if isinstance(o.trace, Tracer):
            tracer = o.trace
        elif o.trace is None or isinstance(o.trace, str):
            trace_path = o.trace
            tracer = Tracer()
        else:
            raise ConfigError(
                f"trace must be a path string or a repro.trace.Tracer, "
                f"not {type(o.trace).__name__}"
            )
        if o.analyze:
            tracer.analyze = True
        extras["tracer"] = tracer.install(owner)
    return extras, trace_path


def _harvest_probes(o: RunOptions, extras: dict, trace_path) -> None:
    """Post-run half of :func:`arm_probes`: gate on drift, export."""
    if o.sanitize:
        extras["sanitizer"].check()
    if trace_path is not None:
        from repro.trace import write_chrome_trace

        write_chrome_trace(extras["tracer"], trace_path)


def _build_cluster(o: RunOptions, shards, devices, link_bw=None):
    """The cluster a sharded sort or the service runs on."""
    from repro.cluster import Cluster  # lazy: a one-device sort never pays for it

    kwargs = dict(
        dram_budget=o.dram_budget,
        config=o.sort_config,
        memoize_rates=o.memoize_rates,
    )
    if link_bw is not None:
        # None here means "cluster default", not "no interconnect".
        kwargs["link_bw"] = link_bw
    if devices:
        return Cluster(profiles=list(devices), **kwargs)
    return Cluster(shards=shards, profile=get_profile(o.device)(), **kwargs)


def _assemble(o: RunOptions, shards, devices, checkpoint: bool, arm: bool = True):
    """One fresh run: owner -> probes -> dataset -> system.

    The owner is a :class:`Machine`, or a cluster running
    ``ShardedWiscSort(system=o.system)`` when ``shards`` / ``devices``
    ask for one; everything after this function treats the two alike.
    ``arm=False`` builds the count-only probe's twin: same dataset,
    system and (crucially) checkpoint setting, since checkpoint writes
    are part of the op stream fault-plan fractions index into.
    """
    fmt = o.record_format
    sharded = shards is not None or bool(devices)
    if sharded:
        owner = _build_cluster(o, shards, devices)
    else:
        owner = Machine(
            profile=get_profile(o.device)(),
            dram_budget=o.dram_budget,
            memoize_rates=o.memoize_rates,
        )
    observers, trace_path = arm_probes(o, owner) if arm else ({}, None)
    if sharded:
        from repro.cluster import ShardedWiscSort, generate_cluster_dataset

        data = generate_cluster_dataset(owner, "input", o.records, fmt,
                                        seed=o.seed)
        system = ShardedWiscSort(fmt, config=o.sort_config, system=o.system,
                                 checkpoint=checkpoint)
    else:
        data = generate_dataset(owner, "input", o.records, fmt, seed=o.seed)
        system = create_system(o.system, fmt, config=o.sort_config)
        if checkpoint:
            if not hasattr(system, "checkpoint"):
                raise ConfigError(
                    f"faults with a crash need a checkpointing system "
                    f"(wiscsort or ems), not {o.system!r}"
                )
            system.checkpoint = True
    return owner, data, system, observers, trace_path


def sort(
    options: Optional[RunOptions] = None,
    /,
    *,
    shards: Optional[int] = None,
    devices: Optional[Sequence[str]] = None,
    **loose,
) -> SortResult:
    """Sort a generated gensort dataset with a registered system.

    Pass one :class:`RunOptions`.  ``system`` and ``device`` are
    registry names (:func:`repro.registry.available` lists them);
    unknown names raise :class:`~repro.errors.UnknownSystemError`.
    ``faults`` takes the fault-spec grammar of ``--faults`` (e.g.
    ``"crash@50%"``).
    ``sanitize`` installs the runtime
    :class:`~repro.analysis.sanitizer.SimSanitizer` and raises
    :class:`~repro.errors.ChargeDriftError` on accounting drift after a
    completed run; advanced callers may instead pass a pre-built
    ``sanitizer`` (e.g. a tracing one for determinism diffing).
    ``trace`` arms the observe-only :class:`repro.trace.Tracer`: a path
    string exports a Chrome/Perfetto trace JSON there after the run, a
    pre-built ``Tracer`` is yours to inspect programmatically.

    ``shards=N`` (or ``devices=[profile names]``, one per shard) runs the
    same sort sharded: the dataset is spread over an N-shard cluster and
    sorted by :class:`~repro.cluster.ShardedWiscSort` with ``system`` on
    every shard; ``shardN:`` prefixes in ``faults`` target one shard.

    ``race_detect`` installs the observe-only
    :class:`~repro.analysis.race.RaceDetector` (simulated results stay
    bit-identical); inspect ``result.extras["race_detector"]`` or call
    its ``check()`` to raise :class:`~repro.errors.RaceError` on
    findings.  ``schedule_seed`` installs a
    :class:`~repro.analysis.race.SchedulePermuter` that permutes
    same-instant scheduling ties -- a correct workload produces
    byte-identical output under any seed (``None`` keeps the default
    FIFO schedule).

    Returns the :class:`~repro.core.base.SortResult`; ``extras`` carries
    ``machine`` (sharded: ``cluster``, plus the ``ShardedWiscSort`` as
    ``system``), ``sanitizer`` (when installed), ``tracer`` (when
    tracing), ``race_detector`` (when ``race_detect``) and
    ``fault_report`` (when faults were injected).
    """
    o = _coerce_options("sort", options, loose)
    plan = None
    if o.faults is not None:
        from repro.faults import FaultPlan, parse_fault_spec, run_with_faults

        plan = parse_fault_spec(o.faults, seed=o.seed)
    checkpoint = plan is not None and plan.has_crash
    owner, data, system, observers, trace_path = _assemble(
        o, shards, devices, checkpoint
    )
    sharded = not isinstance(owner, Machine)
    if plan is None:
        result = system.run(owner, data, validate=o.validate)
    else:
        plan.require_domains([m.domain for m in owner.shards] if sharded else [])
        probe = None
        if plan.needs_probe:
            # Fractional triggers (crash@50%) index into the op stream of
            # the identical fault-free run: count it once, per shard.
            twin, twin_data, twin_system, _, _ = _assemble(
                o, shards, devices, checkpoint, arm=False
            )
            probe = twin.install_faults(FaultPlan(), count_only=True)
            twin_system.run(twin, twin_data, validate=False)
        if sharded:
            owner.install_faults(
                plan, counts=probe.ops_seen() if probe else None
            )
        else:
            owner.install_faults(
                plan.resolve_fractions(probe.op_index) if probe else plan
            )
        result, fault_report = run_with_faults(
            system, owner, data, validate=o.validate
        )
        result.extras["fault_report"] = fault_report
    if sharded:
        result.extras.update(cluster=owner, system=system)
    else:
        result.extras["machine"] = owner
    result.extras.update(observers)
    _harvest_probes(o, observers, trace_path)
    return result


def serve(
    options: Optional[RunOptions] = None,
    /,
    *,
    arrivals: Union[str, Any] = "poisson",
    rate: float = 100.0,
    horizon: Optional[float] = None,
    max_jobs: Optional[int] = None,
    policy: str = "fifo",
    shards: int = 2,
    devices: Optional[Sequence[str]] = None,
    tenants: int = 2,
    systems: Optional[Sequence[str]] = None,
    size_mix: Optional[Sequence] = None,
    deadline: Optional[float] = None,
    period: float = 1.0,
    amplitude: float = 0.8,
    trace_file: Optional[str] = None,
    queue_cap: Optional[int] = None,
    slos: Sequence = (),
    link_bw: Optional[float] = None,
    monitor: Optional[Any] = None,
    **loose,
):
    """Run the cluster as a sort *service* and report SLOs.

    One call covers the open-loop service and the batch: a batch of K
    pre-submitted jobs is ``arrivals=TraceArrivals([...])`` with every
    entry at ``t=0`` (``report.jobs`` / ``report.makespan`` are its job
    table and drain time; the policy orders such jobs, never sheds them).

    The :class:`RunOptions` supplies the per-job defaults (base
    ``records``, ``system``, ``fmt``/``config``, ``seed``) plus the
    cluster-level knobs it shares with :func:`sort` (``device``,
    ``dram_budget``, ``sanitize``, ``trace``, ``race_detect``,
    ``validate``).  ``arrivals`` is an
    :class:`~repro.workloads.arrivals.ArrivalProcess` instance or one
    of the names ``"poisson"`` / ``"bursty"`` / ``"trace"`` (the last
    needs ``trace_file``); the generative processes are seeded from
    ``options.seed`` so the whole offered workload is a pure function
    of the options.

    ``policy`` resolves through :func:`repro.registry.get_policy`
    (``fifo``/``fair``/``edf``/``backpressure``/``shed``); ``slos``
    takes :class:`~repro.cluster.service.SLO` objects or spec strings
    like ``"latency:p99<0.05"``; ``monitor`` takes an
    :class:`~repro.cluster.service.SLOMonitor` for live error-budget
    burn-rate tracking (windows and alerts land in the report's
    ``burn`` section, and as ``slo_alert`` trace instants when
    tracing).  Infinite arrival processes need a ``horizon`` (simulated
    seconds) or ``max_jobs`` bound.

    Returns the :class:`~repro.cluster.service.ServiceReport`; its
    ``extras`` carries ``cluster``, ``jobs`` and any armed observers.
    """
    o = _coerce_options("serve", options, loose)
    if o.faults is not None:
        raise ConfigError(
            "api.serve() does not support fault injection yet; use "
            "api.sort(), or api.sort(..., shards=N) for a sharded sort"
        )
    if o.schedule_seed is not None:
        raise ConfigError(
            "api.serve() does not support schedule fuzzing: the service "
            "may legally place tied jobs differently per schedule"
        )
    from repro.cluster.service import SortService
    from repro.workloads.arrivals import (
        ArrivalProcess,
        BurstyArrivals,
        PoissonArrivals,
        TraceArrivals,
    )

    job_kwargs = dict(
        records=o.records,
        size_mix=size_mix,
        tenants=tenants,
        systems=tuple(systems) if systems else (o.system,),
        deadline=deadline,
    )
    if isinstance(arrivals, ArrivalProcess):
        process = arrivals
    elif arrivals == "poisson":
        process = PoissonArrivals(rate, seed=o.seed, **job_kwargs)
    elif arrivals == "bursty":
        process = BurstyArrivals(
            rate, seed=o.seed, period=period, amplitude=amplitude,
            **job_kwargs,
        )
    elif arrivals == "trace":
        if trace_file is None:
            raise ConfigError('arrivals="trace" needs a trace_file path')
        process = TraceArrivals.from_file(
            trace_file, records=o.records, system=o.system, seed=o.seed
        )
    else:
        raise ConfigError(
            f"unknown arrival process {arrivals!r}; choices: poisson, "
            f"bursty, trace (or pass an ArrivalProcess instance)"
        )
    cluster = _build_cluster(o, shards, devices, link_bw)
    observers, trace_path = arm_probes(o, cluster)
    service = SortService(
        cluster,
        policy=policy,
        fmt=o.fmt,
        config=o.config,
        queue_cap=queue_cap,
        slos=slos,
        validate=o.validate,
        monitor=monitor,
    )
    report = service.serve(process, horizon=horizon, max_jobs=max_jobs)
    report.extras["cluster"] = cluster
    report.extras.update(observers)
    _harvest_probes(o, observers, trace_path)
    return report
