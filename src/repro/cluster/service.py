"""Sort-as-a-service: arrivals, admission control and SLOs.

Jobs *arrive on their own clock* (an
:class:`~repro.workloads.arrivals.ArrivalProcess`), queue under an
admission policy, optionally get *shed* under overload, and run as
concurrent simulated processes on the cluster's shared engine: jobs on
the same shard contend for its device and every admitted job holds a
DRAM reservation against the one cluster-wide pool.  What matters is
the latency/slowdown percentiles of the completed jobs and the declared
:class:`SLO` verdicts.  A *batch* -- "how fast do K pre-submitted jobs
drain?" -- is the same loop fed a finite
:class:`~repro.workloads.arrivals.TraceArrivals` whose entries all
arrive at ``t=0``; its answer is the report's ``makespan`` and ``jobs``.

The pieces:

* :class:`Job` -- one sort job: a dataset on one shard plus its
  lifecycle metrics (``queue_time`` from arrival to admission,
  ``service_time`` from admission to completion, ``slowdown`` =
  (queue + service) / service).
* :class:`SLO` -- a declarative objective like ``latency:p99<0.05``
  (metric, percentile, comparator, threshold in simulated seconds);
  :func:`parse_slo` parses the string grammar.
* :class:`SortService` -- drives one arrival stream through the
  cluster under a registry-resolved policy
  (``fifo``/``fair``/``edf``/``backpressure``/``shed``) and reduces
  per-job metrics to percentiles, one
  :class:`~repro.trace.Histogram` per metric.
* :class:`ServiceReport` -- counters, a p50/p99/p999 percentile table
  and SLO verdicts, with a byte-deterministic :meth:`~ServiceReport.render`
  and :meth:`~ServiceReport.to_json` (``TestDeterminism`` in
  ``tests/test_service.py`` compares the rendered bytes across runs and
  across processes).

Everything is a pure function of the arrival process seed and the
cluster configuration: same inputs, byte-identical report.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.base import SortConfig
from repro.errors import ConfigError, DramBudgetError, ValidationError
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
# Validation runs in ``SortSystem.finish``; benchmarks/ledger/trace.py
# still wraps this module's name.
from repro.records.validate import validate_sorted_file  # noqa: F401
from repro.registry import create_system, get_policy
from repro.sim.engine import Sleep, Spawn
from repro.sim.primitives import Semaphore
from repro.sim.probe import ProbeSet
from repro.trace.metrics import Histogram

from repro.cluster.cluster import Cluster
from repro.cluster.policies import SchedulingContext
from repro.workloads.arrivals import ArrivalProcess, JobSpec

#: Log-spaced latency/queue-time buckets (simulated seconds).
TIME_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
    1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0,
)

#: Slowdown buckets (dimensionless, >= 1).
SLOWDOWN_BUCKETS = (
    1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0,
)

#: The percentiles every report tabulates.
REPORT_PERCENTILES = (("p50", 50.0), ("p99", 99.0), ("p999", 99.9))

#: Metrics an SLO may target -> histogram name in the registry.
SLO_METRICS = {
    "latency": "job_latency_seconds",
    "slowdown": "job_slowdown",
    "queue": "job_queue_seconds",
}

_SLO_RE = re.compile(
    r"^(?P<metric>[a-z]+):p(?P<pct>\d+)(?P<op><=?)(?P<threshold>[0-9.eE+-]+)$"
)


@dataclass(frozen=True)
class SLO:
    """One service-level objective: ``<metric> percentile op threshold``.

    ``metric`` is one of ``latency`` / ``slowdown`` / ``queue``;
    ``percentile`` is 0-100 (``99.9`` for p999); ``op`` is ``<`` or
    ``<=``.  Thresholds are simulated seconds for the time metrics and
    dimensionless for slowdown.
    """

    metric: str
    percentile: float
    threshold: float
    op: str = "<"

    def __post_init__(self):
        if self.metric not in SLO_METRICS:
            raise ConfigError(
                f"unknown SLO metric {self.metric!r}; choices: "
                + ", ".join(sorted(SLO_METRICS))
            )
        if not 0.0 <= self.percentile <= 100.0:
            raise ConfigError("SLO percentile must be in [0, 100]")
        if self.op not in ("<", "<="):
            raise ConfigError(f"SLO comparator must be < or <=, not {self.op!r}")

    def spec(self) -> str:
        """Canonical spec string (round-trips through :func:`parse_slo`)."""
        pct = f"{self.percentile:g}".replace(".", "")
        return f"{self.metric}:p{pct}{self.op}{self.threshold:g}"

    def check(self, measured: float) -> bool:
        return measured < self.threshold if self.op == "<" \
            else measured <= self.threshold


def parse_slo(spec: Union[str, SLO]) -> SLO:
    """Parse ``"latency:p99<0.05"`` grammar into an :class:`SLO`.

    The percentile digits read naturally: ``p50``, ``p99``, ``p999``
    (= 99.9), ``p9999`` (= 99.99).
    """
    if isinstance(spec, SLO):
        return spec
    m = _SLO_RE.match(spec.strip())
    if m is None:
        raise ConfigError(
            f"bad SLO spec {spec!r}; expected e.g. latency:p99<0.05 "
            f"(metrics: {', '.join(sorted(SLO_METRICS))})"
        )
    digits = m.group("pct")
    # p50 -> 50, p999 -> 99.9, p9999 -> 99.99: digits past the first
    # two go behind the decimal point.
    pct = float(digits) if len(digits) <= 2 else \
        float(f"{digits[:2]}.{digits[2:]}")
    try:
        threshold = float(m.group("threshold"))
    except ValueError:
        raise ConfigError(f"bad SLO threshold in {spec!r}") from None
    return SLO(
        metric=m.group("metric"),
        percentile=pct,
        threshold=threshold,
        op=m.group("op"),
    )


#: Version stamp on every JSON report this module (and the trace
#: analyzer) emits; ``repro trace-diff`` refuses to compare documents
#: whose schemas disagree.
REPORT_SCHEMA = 1


class SLOMonitor:
    """Windowed error-budget burn-rate tracking for declared SLOs.

    SRE-style accounting: an SLO like ``latency:p99<0.05`` grants an
    *error budget* of 1% of jobs over threshold.  The monitor buckets
    completions into fixed sim-time windows and, at each window close,
    computes the burn rate -- the window's violation fraction divided
    by the budget fraction -- per SLO.  A burn rate of 1.0 consumes the
    budget exactly as fast as the SLO allows; ``burn_threshold`` (a
    multiple of that) raises a deterministic alert, recorded in
    :attr:`alerts` and, when a tracer listens, as an ``slo_alert``
    instant in the trace.

    Everything is a pure function of the observation stream: same jobs,
    byte-identical windows and alerts.  Observe-only -- attaching a
    monitor never changes simulated results.
    """

    def __init__(
        self,
        slos: Sequence[Union[str, SLO]],
        window: float = 1.0,
        burn_threshold: float = 2.0,
    ):
        if window <= 0:
            raise ConfigError("SLO monitor window must be > 0 sim seconds")
        if burn_threshold <= 0:
            raise ConfigError("burn threshold must be > 0")
        self.slos = [parse_slo(s) for s in slos]
        self.window = window
        self.burn_threshold = burn_threshold
        #: Probe bus alerts are also emitted on, as ``slo_alert``
        #: instants (the serving cluster's, once :meth:`serve` starts).
        self.probes = ProbeSet()
        #: Closed windows: ``{"window", "t0", "t1", "slos": {spec:
        #: {"total", "violations", "burn"}}}`` in time order.
        self.windows: List[dict] = []
        #: Raised alerts: ``{"t", "window", "slo", "burn",
        #: "violations", "total"}`` in time order.
        self.alerts: List[dict] = []
        self._cur_idx: Optional[int] = None
        self._cur: Dict[str, List[int]] = {}

    def _budget(self, slo: SLO) -> float:
        # A p100 SLO has zero nominal budget; the tiny floor keeps the
        # burn rate finite (and deterministic) instead of dividing by 0.
        return max(1.0 - slo.percentile / 100.0, 1e-9)

    def observe(self, t: float, values: Dict[str, float]) -> None:
        """Record one completion at sim-time ``t``.

        ``values`` maps metric names (``latency``/``slowdown``/
        ``queue``) to the job's measured values; metrics without a
        declared SLO are ignored.
        """
        idx = int(t // self.window)
        if idx != self._cur_idx:
            self._close_window()
            self._cur_idx = idx
            self._cur = {slo.spec(): [0, 0] for slo in self.slos}
        for slo in self.slos:
            value = values.get(slo.metric)
            if value is None:
                continue
            counts = self._cur[slo.spec()]
            counts[0] += 1
            if not slo.check(value):
                counts[1] += 1

    def finalize(self) -> None:
        """Close the trailing window (call once, after the last job)."""
        self._close_window()
        self._cur_idx = None
        self._cur = {}

    def _close_window(self) -> None:
        if self._cur_idx is None or not any(
            self._cur[slo.spec()][0] for slo in self.slos
        ):
            return
        idx = self._cur_idx
        t0 = idx * self.window
        t1 = (idx + 1) * self.window
        row: dict = {"window": idx, "t0": t0, "t1": t1, "slos": {}}
        for slo in self.slos:
            spec = slo.spec()
            total, violations = self._cur[spec]
            burn = 0.0
            if total:
                burn = (violations / total) / self._budget(slo)
            row["slos"][spec] = {
                "total": total,
                "violations": violations,
                "burn": burn,
            }
            if total and burn >= self.burn_threshold:
                alert = {
                    "t": t1,
                    "window": idx,
                    "slo": spec,
                    "burn": burn,
                    "violations": violations,
                    "total": total,
                }
                self.alerts.append(alert)
                for emit in self.probes.instant:
                    emit(
                        "slo_alert", cat="service", track="service",
                        slo=spec, burn=burn, window=idx,
                        violations=violations, total=total,
                    )
        self.windows.append(row)

    def summary(self) -> dict:
        """JSON-safe summary embedded in :meth:`ServiceReport.as_dict`."""
        return {
            "window": self.window,
            "burn_threshold": self.burn_threshold,
            "windows": self.windows,
            "alerts": self.alerts,
        }


@dataclass(eq=False, slots=True)
class Job:
    """One sort job: a dataset on one shard plus its lifecycle metrics."""

    name: str
    tenant: str
    system: str
    n_records: int
    seed: int
    #: DRAM reserved for the job's whole residency (IndexMap + buffers).
    dram_bytes: int
    #: Arrival sequence number: the total tie-break for policies.
    seq: int = 0
    #: Absolute deadline in simulated seconds (None = best effort).
    deadline: Optional[float] = None
    shard: Any = field(default=None, repr=False)
    input_file: Any = field(default=None, repr=False)
    output_file: Any = field(default=None, repr=False)
    submit_time: float = 0.0
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: Set when the job was dropped at arrival.
    shed: bool = False

    @property
    def queue_time(self) -> float:
        if self.start_time is None:
            return 0.0
        return self.start_time - self.submit_time

    @property
    def service_time(self) -> float:
        if self.start_time is None or self.finish_time is None:
            return 0.0
        return self.finish_time - self.start_time

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (the service SLO metric)."""
        if self.finish_time is None:
            return 0.0
        return self.finish_time - self.submit_time

    @property
    def slowdown(self) -> float:
        service = self.service_time
        if service <= 0.0:
            return 1.0
        return (self.finish_time - self.submit_time) / service

    @property
    def missed_deadline(self) -> bool:
        if self.deadline is None or self.finish_time is None:
            return False
        return self.finish_time > self.deadline


@dataclass
class ServiceReport:
    """What one open-loop service run produced, rendered deterministically."""

    policy: str
    jobs_arrived: int = 0
    jobs_admitted: int = 0
    jobs_completed: int = 0
    jobs_shed: int = 0
    #: Of ``jobs_shed``, those whose reservation exceeds the whole budget.
    jobs_never_fit: int = 0
    deadline_misses: int = 0
    offered_rate: float = 0.0
    achieved_rate: float = 0.0
    makespan: float = 0.0
    #: ``{metric: {p50: v, p99: v, p999: v}}``.
    percentiles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ``[{"slo": spec, "measured": v, "ok": bool}, ...]``.
    slo_results: List[dict] = field(default_factory=list)
    jobs: List[Job] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    #: :meth:`SLOMonitor.summary` when a monitor was attached.
    burn: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when every declared SLO held."""
        return all(r["ok"] for r in self.slo_results)

    def as_dict(self) -> dict:
        """JSON-safe summary (no live objects)."""
        out = {
            "schema": REPORT_SCHEMA,
            "policy": self.policy,
            "jobs_arrived": self.jobs_arrived,
            "jobs_admitted": self.jobs_admitted,
            "jobs_completed": self.jobs_completed,
            "jobs_shed": self.jobs_shed,
            "deadline_misses": self.deadline_misses,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "makespan": self.makespan,
            "percentiles": self.percentiles,
            "slos": self.slo_results,
            "ok": self.ok,
        }
        if self.burn is not None:
            out["burn"] = self.burn
        return out

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, full float repr)."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def render(self) -> str:
        """Deterministic plain-text report (``tests/test_service.py``
        compares it byte for byte across runs)."""
        lines = [
            f"sort service report: policy={self.policy} "
            f"arrived={self.jobs_arrived} admitted={self.jobs_admitted} "
            f"completed={self.jobs_completed} shed={self.jobs_shed} "
            f"deadline_misses={self.deadline_misses}",
            f"offered {self.offered_rate:.6g} jobs/s, achieved "
            f"{self.achieved_rate:.6g} jobs/s, makespan "
            f"{self.makespan:.6g} s",
            f"{'metric':<10} {'p50':>12} {'p99':>12} {'p999':>12}",
        ]
        for metric in ("latency", "slowdown", "queue"):
            row = self.percentiles.get(metric, {})
            lines.append(
                f"{metric:<10} "
                + " ".join(
                    f"{row.get(p, 0.0):>12.6g}" for p, _q in REPORT_PERCENTILES
                )
            )
        for result in self.slo_results:
            verdict = "PASS" if result["ok"] else "FAIL"
            lines.append(
                f"SLO {result['slo']}  measured {result['measured']:.6g}  "
                f"{verdict}"
            )
        if self.burn is not None:
            lines.append(
                f"burn monitor: window {self.burn['window']:.6g} s, "
                f"alert at {self.burn['burn_threshold']:.6g}x, "
                f"{len(self.burn['alerts'])} alert(s)"
            )
            for alert in self.burn["alerts"]:
                lines.append(
                    f"ALERT t={alert['t']:.6g} {alert['slo']}  burn "
                    f"{alert['burn']:.6g}x ({alert['violations']}/"
                    f"{alert['total']} in window {alert['window']})"
                )
        return "\n".join(lines)


@dataclass
class _Run:
    """Mutable state of one :meth:`SortService.serve` call, shared by its
    arrival, admission and job processes."""

    #: Admission waits here for new work *and* freed DRAM.
    kick: Semaphore
    horizon: Optional[float]
    max_jobs: Optional[int]
    pending: List[Job] = field(default_factory=list)
    #: Per-tenant attained service seconds / jobs currently in service.
    service: Dict[str, float] = field(default_factory=dict)
    in_service: Dict[str, int] = field(default_factory=dict)
    arrived: int = 0
    placed: int = 0
    shed: int = 0
    never_fit: int = 0
    running: int = 0
    last_arrival: float = 0.0
    arrivals_done: bool = False


class SortService:
    """The one admission loop: an arrival stream served by one cluster.

    Jobs from an :class:`~repro.workloads.arrivals.ArrivalProcess` are
    materialised on arrival (dataset generated on their round-robin
    shard), passed to the admission policy's ``on_arrival`` (which may
    shed them), queued, and admitted by ``pick`` whenever DRAM frees
    up.  Jobs already due when the service opens are pre-submitted work:
    the policy never sheds them, only orders them.  Each admitted job
    reserves its IndexMap footprint plus its I/O buffers for its whole
    residency -- what WiscSort needs resident for an OnePass sort; a
    job no budget could ever admit is shed (``jobs_never_fit``).  A job
    that completes takes its system's completion step
    (:meth:`~repro.core.base.SortSystem.finish`): validated
    (``validate``), then its input's bytes released.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: str = "fifo",
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
        queue_cap: Optional[int] = None,
        slos: Sequence[Union[str, SLO]] = (),
        validate: bool = True,
        monitor: Optional[SLOMonitor] = None,
    ):
        self.cluster = cluster
        #: Policy name (display); the object drives decisions.
        self.policy = policy
        self._policy = get_policy(policy)()
        self.fmt = fmt if fmt is not None else RecordFormat()
        self.config = config if config is not None else cluster.config
        if queue_cap is not None and queue_cap < 0:
            raise ConfigError(f"queue_cap must be >= 0, got {queue_cap}")
        self.queue_cap = queue_cap
        self.slos = [parse_slo(s) for s in slos]
        self.validate = validate
        #: Optional live burn-rate monitor (off by default, so reports
        #: and fingerprints are byte-identical without one).
        self.monitor = monitor
        #: Every job that arrived, shed ones included, in arrival order.
        self.jobs: List[Job] = []

    # ------------------------------------------------------------------
    def serve(
        self,
        arrivals: ArrivalProcess,
        horizon: Optional[float] = None,
        max_jobs: Optional[int] = None,
    ) -> ServiceReport:
        """Run the arrival stream to completion and report.

        Infinite (generative) processes need a ``horizon`` in simulated
        seconds and/or a ``max_jobs`` bound; finite traces run whole by
        default.  Returns the :class:`ServiceReport`.
        """
        if not arrivals.finite and horizon is None and max_jobs is None:
            raise ConfigError(
                "an infinite arrival process needs a horizon= or "
                "max_jobs= bound"
            )
        if horizon is not None and not 0 < horizon < math.inf:
            raise ConfigError(
                "horizon must be a finite number > 0 simulated seconds"
            )
        if max_jobs is not None and max_jobs < 1:
            raise ConfigError("max_jobs must be >= 1")
        # The reason tag bills waits on `kick` to DRAM in the trace analyzer.
        run = _Run(
            self.cluster.semaphore(0, name="service-kick", reason="dram"),
            horizon, max_jobs,
        )
        if self.monitor is not None:
            self.monitor.probes = self.cluster.probes
        self.cluster.run(
            self._service_proc(run, arrivals), name=f"service[{self.policy}]"
        )
        completed = [j for j in self.jobs if j.finish_time is not None]
        for emit in self.cluster.probes.complete_span:
            # Retrospective: a job's endpoints are only all known once
            # it has finished.
            for job in completed:
                if job.start_time > job.submit_time:
                    emit(
                        f"queued:{job.name}", job.submit_time, job.start_time,
                        cat="queue", track="service", proc=job.name,
                        tenant=job.tenant,
                    )
                emit(
                    f"service:{job.name}", job.start_time, job.finish_time,
                    cat="service", track="service", proc=job.name,
                    tenant=job.tenant, shard=job.shard.domain,
                )
        return self._report(run, completed)

    # ------------------------------------------------------------------
    def _make_job(self, spec: JobSpec) -> Job:
        return Job(
            spec.name, spec.tenant, spec.system, spec.records, spec.seed,
            dram_bytes=(
                spec.records * self.fmt.index_entry_size
                + self.config.read_buffer
                + self.config.write_buffer
            ),
            seq=spec.index,
            deadline=(
                spec.arrival_time + spec.deadline
                if spec.deadline is not None else None
            ),
            submit_time=spec.arrival_time,
        )

    def _context(self, run: _Run) -> SchedulingContext:
        dram = self.cluster.dram
        return SchedulingContext(
            now=self.cluster.now,
            fits=lambda job: dram.would_fit(job.dram_bytes),
            service=run.service,
            in_service=run.in_service,
            running=run.running,
            dram_budget=dram.budget,
            dram_available=dram.available,
            queue_cap=self.queue_cap,
        )

    def _service_proc(self, run: _Run, arrivals):
        yield Spawn(self._arrival_proc(run, arrivals), name="service-arrivals")
        yield from self._admission_proc(run)

    def _arrival_proc(self, run: _Run, arrivals):
        budget = self.cluster.dram.budget
        probes = self.cluster.probes
        # Due when the service opens = pre-submitted: never policy-shed.
        opened = at = self.cluster.now
        for spec in arrivals.stream():
            if run.max_jobs is not None and run.arrived >= run.max_jobs:
                break
            if run.horizon is not None and spec.arrival_time > run.horizon:
                break
            # Only a later arrival yields: every job due at one instant
            # is queued before admission can pick among them.  Ties are
            # told by the trace's own times; the clock can wake an ulp off.
            if spec.arrival_time > at:
                at = spec.arrival_time
                yield Sleep(max(0.0, at - self.cluster.now))
            run.arrived += 1
            run.last_arrival = spec.arrival_time
            job = self._make_job(spec)
            self.jobs.append(job)
            run.service.setdefault(job.tenant, 0.0)
            run.in_service.setdefault(job.tenant, 0)
            never_fits = budget is not None and job.dram_bytes > budget
            run.never_fit += never_fits
            if never_fits or not (at <= opened or self._policy.on_arrival(
                job, run.pending, self._context(run)
            )):
                job.shed = True
                run.shed += 1
                for emit in probes.instant:
                    emit(
                        "shed", cat="service", track="service",
                        job=job.name, tenant=job.tenant,
                    )
                continue
            job.shard = self.cluster.shards[
                run.placed % len(self.cluster.shards)
            ]
            run.placed += 1
            run.pending.append(job)
            for emit in probes.counter:
                emit("service", "queue_depth", float(len(run.pending)))
            run.kick.release()
        run.arrivals_done = True
        run.kick.release()

    def _admission_proc(self, run: _Run):
        # Arrivals and completions both funnel through `kick`, so one
        # wait point covers "new work" and "freed DRAM" alike.
        pending = run.pending
        probes = self.cluster.probes
        while True:
            while pending:
                ctx = self._context(run)
                job = self._policy.pick(pending, ctx)
                if job is None or not ctx.fits(job):
                    if run.running == 0 and run.arrivals_done:
                        stuck = job if job is not None else pending[0]
                        raise DramBudgetError(
                            f"job {stuck.name!r} needs {stuck.dram_bytes} B "
                            f"but only {self.cluster.dram.available} B "
                            f"remain with no job left to finish"
                        )
                    break
                pending.remove(job)
                self.cluster.dram.allocate(job.dram_bytes)
                run.in_service[job.tenant] += 1
                job.start_time = self.cluster.now
                for emit in probes.counter:
                    emit("service", "queue_depth", float(len(pending)))
                for emit in probes.instant:
                    emit(
                        "admit", cat="service", track="service",
                        job=job.name, tenant=job.tenant,
                        shard=job.shard.domain,
                    )
                yield Spawn(self._job_body(run, job), name=f"job:{job.name}")
                run.running += 1
            if run.arrivals_done and not pending and run.running == 0:
                return
            yield run.kick.acquire()

    def _job_body(self, run: _Run, job: Job):
        system = create_system(job.system, self.fmt, config=self.config)
        if not hasattr(system, "sort_process"):
            raise ConfigError(
                f"system {job.system!r} cannot run as a service job "
                f"(no sort_process); use a wiscsort variant"
            )
        system.output_name = f"{job.name}.out"
        # Made at admission, not arrival: a queued job holds no bytes.
        with job.shard.fs.unaudited("job input: the workload, untimed"):
            job.input_file = generate_dataset(
                job.shard, f"{job.name}.in", job.n_records, self.fmt, seed=job.seed
            )
        output = yield from system.sort_process(job.shard, job.input_file)
        job.output_file = output
        with job.shard.fs.unaudited("job validation: a check, untimed"):
            try:
                system.finish(job.shard, job.input_file, output, self.validate)
            except ValidationError as exc:
                raise ValidationError(f"job {job.name!r}: {exc}") from exc
        job.finish_time = self.cluster.now
        self.cluster.dram.free(job.dram_bytes)
        run.service[job.tenant] += job.service_time
        run.in_service[job.tenant] -= 1
        run.running -= 1
        if self.monitor is not None:
            self.monitor.observe(
                job.finish_time,
                {
                    "latency": job.latency,
                    "slowdown": job.slowdown,
                    "queue": job.queue_time,
                },
            )
        # Freed DRAM matters only to queued work, or to an admission
        # loop that must see the stream closed to return: a wake that
        # finds neither is an engine step that simulates nothing.
        if run.pending or run.arrivals_done:
            run.kick.release()

    # ------------------------------------------------------------------
    def _report(self, run: _Run, completed: List[Job]) -> ServiceReport:
        latency = Histogram("job_latency_seconds", buckets=TIME_BUCKETS)
        slowdown = Histogram("job_slowdown", buckets=SLOWDOWN_BUCKETS)
        queue = Histogram("job_queue_seconds", buckets=TIME_BUCKETS)
        for job in completed:
            latency.observe(job.latency)
            slowdown.observe(job.slowdown)
            queue.observe(job.queue_time)
        deadline_misses = sum(job.missed_deadline for job in completed)
        hists = {"latency": latency, "slowdown": slowdown, "queue": queue}
        percentiles = {
            metric: {
                p: hist.percentile(q) for p, q in REPORT_PERCENTILES
            }
            for metric, hist in hists.items()
        }
        slo_results = []
        for slo in self.slos:
            measured = hists[slo.metric].percentile(slo.percentile)
            slo_results.append({
                "slo": slo.spec(),
                "measured": measured,
                "ok": slo.check(measured),
            })
        burn = None
        if self.monitor is not None:
            self.monitor.finalize()
            burn = self.monitor.summary()
        makespan = self.cluster.now
        span = run.horizon if run.horizon is not None else run.last_arrival
        offered = run.arrived / span if span and span > 0 else 0.0
        achieved = len(completed) / makespan if makespan > 0 else 0.0
        return ServiceReport(
            policy=self.policy,
            jobs_arrived=run.arrived,
            jobs_admitted=run.arrived - run.shed,
            jobs_completed=len(completed),
            jobs_shed=run.shed,
            jobs_never_fit=run.never_fit,
            deadline_misses=deadline_misses,
            offered_rate=offered,
            achieved_rate=achieved,
            makespan=makespan,
            percentiles=percentiles,
            slo_results=slo_results,
            jobs=list(self.jobs),
            burn=burn,
        )
