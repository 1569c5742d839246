"""Cluster job scheduler: admission control for concurrent sort jobs.

K independent sort jobs are placed round-robin across shards and run as
concurrent simulated processes on the cluster's shared engine, so jobs
on the same shard contend for its device and every admitted job holds a
DRAM reservation against the one cluster-wide
:class:`~repro.storage.dram.DramTracker` (a tight cluster budget can
push a concurrent WiscSort into MergePass -- exactly the contention the
scheduler exists to arbitrate).

Admission policies are pluggable objects resolved by name through
:func:`repro.registry.get_policy` (see
:mod:`repro.cluster.policies`): ``fifo``, ``fair``, ``edf``,
``backpressure`` and ``shed``.  The batch scheduler never sheds
pre-submitted work -- ``on_arrival`` only applies to the open-loop
:class:`~repro.cluster.service.SortService` -- but the *pick* side of
every policy works here identically.

Each job carries a :class:`~repro.api.RunOptions` describing its run
(system, record count, seed, format/config), the same typed options
object ``api.sort`` and the CLI use, so a job submitted here is
specified exactly like a standalone run.

Per-job metrics follow the queueing literature: ``queue_time`` from
submission to admission, ``service_time`` from admission to completion,
and ``slowdown`` = (queue + service) / service.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api import RunOptions
from repro.core.base import SortConfig
from repro.errors import ConfigError, DramBudgetError
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.records.validate import validate_sorted_file
from repro.registry import create_system, get_policy
from repro.sim.engine import Now, Spawn
from repro.sim.primitives import Semaphore

from repro.cluster.cluster import Cluster
from repro.cluster.policies import SchedulingContext


class Job:
    """One sort job: a dataset on one shard plus its lifecycle metrics."""

    def __init__(
        self,
        name: str,
        tenant: str,
        system: str,
        n_records: int,
        seed: int,
        dram_bytes: int,
        seq: int = 0,
        deadline: Optional[float] = None,
        options: Optional[RunOptions] = None,
    ):
        self.name = name
        self.tenant = tenant
        self.system = system
        self.n_records = n_records
        self.seed = seed
        #: DRAM reserved for the job's whole residency (IndexMap + buffers).
        self.dram_bytes = dram_bytes
        #: Submission sequence number: the total tie-break for policies.
        self.seq = seq
        #: Absolute deadline in simulated seconds (None = best effort).
        self.deadline = deadline
        #: The typed per-run options this job was specified with.
        self.options = options
        self.shard = None
        self.input_file = None
        self.output_file = None
        self.submit_time: float = 0.0
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: Set by the service when the job was dropped at arrival.
        self.shed = False

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
        """Submission-to-completion time (the service SLO metric)."""
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job({self.name!r}, tenant={self.tenant!r}, system={self.system!r})"


class JobScheduler:
    """Admits submitted jobs onto cluster shards under one DRAM pool."""

    def __init__(
        self,
        cluster: Cluster,
        policy: str = "fifo",
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
    ):
        #: Policy *name* (kept for display); the object drives decisions.
        self.policy = policy
        self._policy = get_policy(policy)()
        self.cluster = cluster
        self.fmt = fmt if fmt is not None else RecordFormat()
        self.config = config if config is not None else cluster.config
        self.jobs: List[Job] = []
        self._rr = 0
        self._seq = 0

    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        system: Optional[str] = None,
        n_records: Optional[int] = None,
        seed: Optional[int] = None,
        tenant: str = "default",
        dram_bytes: Optional[int] = None,
        deadline: Optional[float] = None,
        options: Optional[RunOptions] = None,
    ) -> Job:
        """Queue one job; its dataset is generated on its shard now.

        ``options`` supplies the run's system/records/seed defaults as a
        typed :class:`~repro.api.RunOptions`; the loose keywords
        override individual fields (and keep the historical defaults --
        ``wiscsort``, 100k records, seed 0 -- when neither is given).
        ``dram_bytes`` defaults to the job's IndexMap footprint plus its
        I/O buffers -- the reservation WiscSort needs resident for an
        OnePass sort.  ``deadline`` is an *absolute* simulated time.
        """
        if system is None:
            system = options.system if options is not None else "wiscsort"
        if n_records is None:
            n_records = options.records if options is not None else 100_000
        if seed is None:
            seed = options.seed if options is not None else 0
        if n_records < 1:
            raise ConfigError("a job needs at least one record")
        if dram_bytes is None:
            dram_bytes = (
                n_records * self.fmt.index_entry_size
                + self.config.read_buffer
                + self.config.write_buffer
            )
        budget = self.cluster.dram.budget
        if budget is not None and dram_bytes > budget:
            raise DramBudgetError(
                f"job {name!r} reserves {dram_bytes} B but the cluster "
                f"DRAM budget is {budget} B; it can never be admitted"
            )
        run_options = (options if options is not None else RunOptions()).replace(
            system=system,
            records=n_records,
            seed=seed,
            fmt=self.fmt,
            config=self.config,
        )
        shard = self.cluster.shards[self._rr % len(self.cluster.shards)]
        self._rr += 1
        job = Job(
            name, tenant, system, n_records, seed, dram_bytes,
            seq=self._seq, deadline=deadline, options=run_options,
        )
        self._seq += 1
        job.shard = shard
        job.input_file = generate_dataset(
            shard, f"{name}.in", n_records, self.fmt, seed=seed
        )
        job.submit_time = self.cluster.now
        self.jobs.append(job)
        return job

    def run(self, validate: bool = True) -> List[Job]:
        """Drive every submitted job to completion; returns the jobs.

        ``validate`` checks each job's output post-run (untimed).
        """
        if not self.jobs:
            return []
        self.cluster.run(self._admission(), name=f"scheduler[{self.policy}]")
        for emit in self.cluster.probes.complete_span:
            # Retrospective queue/service spans: endpoints are only all
            # known once every job has finished.
            for job in self.jobs:
                if job.start_time is None or job.finish_time is None:
                    continue
                if job.start_time > job.submit_time:
                    emit(
                        f"queued:{job.name}", job.submit_time, job.start_time,
                        cat="queue", track="scheduler", proc=job.name,
                        tenant=job.tenant,
                    )
                emit(
                    f"service:{job.name}", job.start_time, job.finish_time,
                    cat="service", track="scheduler", proc=job.name,
                    tenant=job.tenant, shard=job.shard.domain,
                )
        if validate:
            for job in self.jobs:
                validate_sorted_file(job.input_file, job.output_file, self.fmt)
        return self.jobs

    # ------------------------------------------------------------------
    def _context(
        self,
        service: Dict[str, float],
        in_service: Dict[str, int],
        running: int,
    ) -> SchedulingContext:
        dram = self.cluster.dram
        return SchedulingContext(
            now=self.cluster.now,
            fits=lambda job: dram.would_fit(job.dram_bytes),
            service=service,
            in_service=in_service,
            running=running,
            dram_budget=dram.budget,
            dram_available=dram.available,
        )

    def _admission(self):
        """The admission loop as one simulated process."""
        pending = list(self.jobs)
        done = Semaphore(self.cluster.engine, 0, name="scheduler-done")
        service: Dict[str, float] = {}
        in_service: Dict[str, int] = {}
        for job in pending:
            service.setdefault(job.tenant, 0.0)
            in_service.setdefault(job.tenant, 0)
        running = 0
        probes = self.cluster.probes
        for emit in probes.counter:
            emit("scheduler", "queue_depth", float(len(pending)))
        while pending or running:
            while pending:
                ctx = self._context(service, in_service, running)
                job = self._policy.pick(pending, ctx)
                if job is None or not ctx.fits(job):
                    if running == 0:
                        stuck = job if job is not None else pending[0]
                        raise DramBudgetError(
                            f"job {stuck.name!r} needs {stuck.dram_bytes} B "
                            f"but only {self.cluster.dram.available} B remain "
                            f"with no job left to finish"
                        )
                    break
                pending.remove(job)
                self.cluster.dram.allocate(job.dram_bytes)
                in_service[job.tenant] += 1
                job.start_time = yield Now()
                for emit in probes.counter:
                    emit("scheduler", "queue_depth", float(len(pending)))
                for emit in probes.instant:
                    emit(
                        "admit", cat="scheduler", track="scheduler",
                        job=job.name, tenant=job.tenant, shard=job.shard.domain,
                    )
                yield Spawn(
                    self._job_body(job, done, service, in_service),
                    name=f"job:{job.name}",
                )
                running += 1
            yield done.acquire()
            running -= 1

    def _job_body(
        self,
        job: Job,
        done: Semaphore,
        service: Dict[str, float],
        in_service: Dict[str, int],
    ):
        options = job.options if job.options is not None else RunOptions(
            system=job.system, records=job.n_records, seed=job.seed,
            fmt=self.fmt, config=self.config,
        )
        system = create_system(
            options.system, options.record_format, config=options.sort_config
        )
        if not hasattr(system, "sort_process"):
            raise ConfigError(
                f"system {job.system!r} cannot run as a scheduled job "
                f"(no sort_process); use a wiscsort variant"
            )
        system.output_name = f"{job.name}.out"
        output = yield from system.sort_process(job.shard, job.input_file)
        job.output_file = output
        job.finish_time = yield Now()
        self.cluster.dram.free(job.dram_bytes)
        service[job.tenant] += job.service_time
        in_service[job.tenant] -= 1
        done.release()
