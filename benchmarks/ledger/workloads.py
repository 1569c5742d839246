"""The five ledger workloads, driven through ``repro``'s public API only.

Each workload is an object with three steps the worker calls in order:

* ``setup(seed)`` -- untimed: build everything derived from the seed
  (reference output, fault probe, paper baseline pair, arrival streams);
* ``run()`` -- one *iteration*, the timed body: the program generates
  its inputs from the seed, sorts, and hands back live handles;
* ``check(handle)`` -- untimed: model-independent output verification
  plus the exact counters and modelled (simulated-clock) components.

Definitions are frozen: changing a constant here changes what every
later perf PR is measured against, so re-baseline if you must.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import api
from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.faults.harness import run_cluster_with_faults
from repro.faults.plan import FaultPlan, parse_fault_spec
from repro.machine import Machine
from repro.metrics.efficiency import io_efficiency_rows
from repro.perf import collect_cluster_counters, collect_counters
from repro.records import gensort
from repro.records.format import RecordFormat
from repro.trace import Tracer
from repro.units import KiB
from repro.workloads.arrivals import PoissonArrivals, TraceArrivals
from repro.workloads.background import BackgroundClients

from benchmarks.ledger.verify import reference_sort, sha256

FMT = RecordFormat()
RECORDS = 200_000

#: Simulated busy time per phase tag -> per-layer metric.
PHASE_METRICS = {
    "RUN read": "device.sim_run_read_s",
    "RUN sort": "device.sim_run_sort_s",
    "RUN write": "device.sim_run_write_s",
    "RECORD read": "device.sim_record_read_s",
    "MERGE read": "device.sim_merge_read_s",
    "MERGE write": "device.sim_merge_write_s",
    "MERGE other": "device.sim_merge_other_s",
}

#: Exact per-layer metrics only some workloads produce; 0 elsewhere
#: ("this workload does not exercise the layer").
OPTIONAL_LAYERS = (
    "baselines.ems_sim_total_s", "baselines.sim_speedup_vs_ems", "baselines.paper_err",
    "trace.spans", "trace.ops",
    "cluster.net_bytes", "cluster.shards_recovered", "cluster.speculative_issues",
    "faults.ops_seen", "faults.redone_bytes", "faults.salvaged_bytes",
    "cluster.service.jobs_arrived", "cluster.service.jobs_completed",
    "cluster.service.jobs_shed", "cluster.service.deadline_misses",
    "cluster.service.sim_latency_p99_s_r1", "cluster.service.sim_latency_p99_s_r3",
    "cluster.service.achieved_r1", "cluster.service.achieved_r2",
    "cluster.service.sim_queue_p99_s", "cluster.service.samples_beyond_p99",
    "cluster.service.generator_lateness_s",
)

#: Paper speedups over EMS (EXPERIMENTS.md is the only validation the
#: model has): Fig 1/4 OnePass, Fig 4 MergePass.
PAPER_ONEPASS_SPEEDUP = 2.5
PAPER_MERGEPASS_SPEEDUP = 2.0


@dataclass
class Outcome:
    """What one checked iteration produced."""

    #: Output checks made / failed (shed or unfinished jobs count failed).
    attempted: int = 0
    failed: int = 0
    #: Simulated seconds of the iteration (service: makespan at ``r2``).
    sim_total_s: float = 0.0
    #: Digest of the sorted output (single-sort workloads).
    output_sha256: str = ""
    #: Exact per-layer counts and modelled components.
    layers: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(OPTIONAL_LAYERS, 0.0)
    )
    #: Workload-specific end-to-end values (see spec.LEDGER_E2E).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Engine steps and jobs, for the per-step / per-job host costs.
    steps: int = 0
    jobs: int = 0


def user_seconds() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


# ----------------------------------------------------------------------
# Harvesting helpers shared by the workloads
# ----------------------------------------------------------------------
def kernel_layers(counter_sets: List[dict]) -> Dict[str, float]:
    """Engine/fluid/rate-memo counts summed over an iteration's sims.

    Accepts :func:`collect_counters` and :func:`collect_cluster_counters`
    snapshots alike (the latter namespaces the memo counters per shard).
    """
    total = lambda key: sum(c[key] for c in counter_sets)  # noqa: E731
    solves = total("vector_solves")
    solved = sum(c["vector_batch_size_avg"] * c["vector_solves"] for c in counter_sets)
    hits = misses = 0
    for c in counter_sets:
        for key, value in c.items():
            if key.endswith("rate_cache_hits"):
                hits += value
            elif key.endswith("rate_cache_misses"):
                misses += value
    return {
        "sim.engine.steps": total("engine_steps"),
        "sim.engine.clock_advances": total("clock_advances"),
        "sim.fluid.rerate_calls": total("rerate_calls"),
        "sim.fluid.ops_rerated": total("ops_rerated"),
        "sim.fluid.vector_solves": solves,
        "sim.fluid.vector_batch_avg": solved / solves if solves else 0.0,
        "sim.fluid.scalar_fallbacks": total("scalar_fallbacks"),
        "device.rate_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


def device_layers(machines: List[Machine], dram_peak: int) -> Dict[str, float]:
    """Modelled components (simulated clock, exact) over ``machines``."""
    layers = {metric: 0.0 for metric in PHASE_METRICS.values()}
    internal_read = internal_written = user_read = user_written = 0.0
    ideal = busy = 0.0
    for machine in machines:
        stats = machine.stats
        internal_read += stats.bytes_read_internal
        internal_written += stats.bytes_written_internal
        for tag, tag_stats in stats.tag_table():
            metric = PHASE_METRICS.get(tag)
            if metric is not None:
                layers[metric] += tag_stats.busy_time
            if tag_stats.direction == "read":
                user_read += tag_stats.user_bytes
            elif tag_stats.direction == "write":
                user_written += tag_stats.user_bytes
        for tag, _gb, tag_ideal, _eff in io_efficiency_rows(machine):
            ideal += tag_ideal
            busy += stats.tags[tag].busy_time
    layers.update({
        "device.internal_read_bytes": internal_read,
        "device.internal_written_bytes": internal_written,
        "device.read_amp": internal_read / user_read if user_read else 0.0,
        "device.write_amp": internal_written / user_written if user_written else 0.0,
        "device.io_efficiency": min(1.0, ideal / busy) if busy else 0.0,
        "storage.user_bytes": user_read + user_written,
        "storage.dram_peak_bytes": float(dram_peak),
    })
    return layers


def baseline_layers(ems_sim_s: float, ours_sim_s: float, paper: float) -> Dict[str, float]:
    speedup = ems_sim_s / ours_sim_s
    return {
        "baselines.ems_sim_total_s": ems_sim_s,
        "baselines.sim_speedup_vs_ems": speedup,
        "baselines.paper_err": abs(speedup - paper) / paper,
    }


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (no interpolation)."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Workload:
    name = "abstract"

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, clock):
        """The timed body; ``clock.paused()`` brackets anything in it
        that is not the program's own work."""
        raise NotImplementedError

    def check(self, handle) -> Outcome:
        raise NotImplementedError

    def warmup(self, clock) -> Outcome:
        return self.check(self.run(clock))

    def _reference(self, seed: int) -> None:
        """The dataset the program will generate, and its sorted digest."""
        self.input = gensort.make_records(RECORDS, FMT, seed=seed).reshape(-1)
        self.reference_sha = sha256(reference_sort(self.input))

    def _check_sort(self, outcome: Outcome, seen_input, output) -> None:
        """Count one output check and record the output's digest."""
        outcome.output_sha256 = sha256(output)
        outcome.attempted += 1
        if outcome.output_sha256 != self.reference_sha or not np.array_equal(
            seen_input, self.input
        ):
            outcome.failed += 1


# ----------------------------------------------------------------------
class OnePass(Workload):
    """``api.sort`` of 200k records: generate -> sort -> validate."""

    name = "onepass"

    def setup(self, seed):
        self._reference(seed)
        self.options = api.RunOptions(records=RECORDS, system="wiscsort", seed=seed)
        ems = api.sort(self.options.replace(system="ems", validate=False))
        self.ems_sim_s = ems.total_time

    def run(self, clock):
        return api.sort(self.options)

    def check(self, result):
        machine = result.extras["machine"]
        out = Outcome(sim_total_s=result.total_time)
        self._check_sort(
            out, machine.fs.open("input").peek(), machine.fs.open(result.output_name).peek()
        )
        counters = collect_counters(machine)
        out.steps = counters["engine_steps"]
        out.layers.update(kernel_layers([counters]))
        out.layers.update(device_layers([machine], machine.dram.peak))
        out.layers.update(
            baseline_layers(self.ems_sim_s, result.total_time, PAPER_ONEPASS_SPEEDUP)
        )
        out.extra["paper_err"] = out.layers["baselines.paper_err"]
        return out


# ----------------------------------------------------------------------
class MergePass(Workload):
    """The frozen selfperf MergePass (definition copied, not imported)."""

    name = "mergepass"
    config = SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB)
    #: Fig 4's 20 GB DRAM cap at its 160 GB point, scaled to this input:
    #: small enough that the IndexMap no longer fits, so the quiet
    #: reference pair is WiscSort-MergePass vs EMS as in the paper.
    paper_dram_budget = 2_500_000

    def setup(self, seed):
        self.seed = seed
        self._reference(seed)
        quiet = api.RunOptions(
            records=RECORDS, seed=seed, validate=False, dram_budget=self.paper_dram_budget
        )
        self.baseline = baseline_layers(
            api.sort(quiet.replace(system="ems")).total_time,
            api.sort(quiet.replace(system="wiscsort")).total_time,
            PAPER_MERGEPASS_SPEEDUP,
        )

    def sort_once(self, observed: bool):
        machine = Machine()
        observers = None
        if observed:
            observers = (
                Tracer(analyze=True).install(machine),
                machine.install_sanitizer(),
                machine.install_race_detector(),
            )
        data = gensort.generate_dataset(machine, "input", RECORDS, FMT, seed=self.seed)
        BackgroundClients(machine, 8, "write").start()
        system = WiscSort(
            FMT, config=self.config, force_merge_pass=True, merge_chunk_entries=1_500
        )
        result = system.run(machine, data, validate=False)
        if observed:
            observers[1].check()  # ChargeDriftError on accounting drift
            observers[2].check()  # RaceError on any race
        return machine, result, observers

    def run(self, clock):
        return [self.sort_once(observed=False)]

    def check(self, sorts):
        out = Outcome()
        digests, counter_sets, machines = set(), [], []
        for machine, result, observers in sorts:
            self._check_sort(
                out, machine.fs.open("input").peek(),
                machine.fs.open(result.output_name).peek(),
            )
            digests.add(out.output_sha256)
            counter_sets.append(collect_counters(machine))
            machines.append(machine)
            if observers is not None:
                out.layers["trace.spans"] = float(len(observers[0].spans))
                out.layers["trace.ops"] = float(len(observers[0].ops))
        results = [result for _m, result, _o in sorts]
        if len({r.total_time for r in results}) != 1 or len(digests) != 1:
            out.failed += 1  # observers must be observe-only
        out.sim_total_s = results[0].total_time
        out.steps = sum(c["engine_steps"] for c in counter_sets)
        out.layers.update(kernel_layers(counter_sets))
        out.layers.update(device_layers(machines[:1], machines[0].dram.peak))
        out.layers.update(self.baseline)
        if self.baseline:
            out.extra["paper_err"] = self.baseline["baselines.paper_err"]
        return out


class MergePassObserved(MergePass):
    """One iteration = the MergePass body twice: observers off, then all on."""

    name = "mergepass_observed"

    def setup(self, seed):
        self.seed = seed
        self._reference(seed)
        self.baseline = {}  # the paper pair belongs to ``mergepass``

    def run(self, clock):
        t0 = user_seconds()
        off = self.sort_once(observed=False)
        t1 = user_seconds()
        on = self.sort_once(observed=True)
        self.last_overhead = (user_seconds() - t1) / (t1 - t0)
        return [off, on]

    def check(self, sorts):
        out = super().check(sorts)
        out.extra["observer_overhead"] = self.last_overhead
        return out


# ----------------------------------------------------------------------
class ClusterChaos(Workload):
    """4-shard checkpointed sharded sort under a crash + a slow window."""

    name = "cluster_chaos"
    shards = 4
    config = SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB)
    fault_spec = "shard1:crash@50%,shard0:slow@t:1e-4+1:x0.1"
    #: Splitter samples per shard boundary.  The default (32) leaves the
    #: partitions uneven enough that the slowest shard, and with it
    #: ``sim_total_s``, moves ~11 % from one seed to the next; 512 keeps
    #: that under 2 %, so the figure tracks the system, not splitter luck.
    oversample = 512

    def _build(self, seed):
        cluster = Cluster(shards=self.shards, config=self.config)
        data = generate_cluster_dataset(cluster, "input", RECORDS, FMT, seed=seed)
        system = ShardedWiscSort(
            FMT, config=self.config, system="wiscsort-merge", checkpoint=True,
            oversample=self.oversample,
        )
        return cluster, data, system

    def setup(self, seed):
        self.seed = seed
        self._reference(seed)
        self.plan = parse_fault_spec(self.fault_spec, seed=seed)
        # crash@50% needs per-shard op totals: one count-only probe of
        # the identical fault-free run resolves the fraction.
        cluster, data, system = self._build(seed)
        probe = cluster.install_faults(FaultPlan(), count_only=True)
        system.run(cluster, data, validate=False)
        self.op_counts = probe.ops_seen()

    def run(self, clock):
        cluster, data, system = self._build(self.seed)
        cluster.install_faults(self.plan, counts=self.op_counts)
        result, report = run_cluster_with_faults(system, cluster, data, validate=False)
        return cluster, data, result, report

    def check(self, handle):
        cluster, data, result, report = handle
        out = Outcome(sim_total_s=result.total_time)
        parts = []
        for d in range(len(data.parts)):
            # recovery may have relocated a partition to any shard
            name = f"{result.output_name}.shard{d}"
            parts += [s.fs.open(name).peek() for s in cluster.shards if s.fs.exists(name)]
        merged = np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
        self._check_sort(out, data.merged(), merged)
        if report.crashes != 1 or report.recoveries != 1:
            out.failed += 1  # the scripted crash must fire and be survived
        counters = collect_cluster_counters(cluster)
        out.steps = counters["engine_steps"]
        out.layers.update(kernel_layers([counters]))
        out.layers.update(device_layers(cluster.shards, cluster.dram.peak))
        out.layers.update({
            "cluster.net_bytes": counters["shuffle_bytes_network"],
            "cluster.shards_recovered": counters["shards_recovered"],
            "cluster.speculative_issues": counters["speculative_issues"],
            "faults.ops_seen": sum(
                v for k, v in counters.items() if k.endswith(".fault_ops_seen")
            ),
            "faults.redone_bytes": counters["cluster.fault_redone_bytes"],
            "faults.salvaged_bytes": counters["cluster.fault_salvaged_bytes"],
        })
        return out


# ----------------------------------------------------------------------
class Service(Workload):
    """Open-loop Poisson sweep over three fixed offered rates.

    The loop is open and runs on the simulated clock: arrivals are
    scheduled from the seed regardless of completions, each job is timed
    from its scheduled arrival, and the generator cannot run late (its
    lateness is 0 by construction and reported as such).
    """

    name = "service"
    #: ~0.5x / 0.8x / 1.6x of the ~38k jobs/s measured saturation.
    rates = {"r1": 20_000.0, "r2": 30_000.0, "r3": 60_000.0}
    #: >= 1,100 so the p99 has 11 samples beyond it.
    jobs_per_rate = 1_100
    job_records = 2_000
    slo_p99_s = 0.5e-3
    slo_achieved_share = 0.95

    def setup(self, seed):
        self.seed = seed
        self.options = api.RunOptions(
            records=self.job_records, seed=seed, dram_budget=48_000_000
        )

    def _sweep(self, clock, jobs: int) -> "_Sweep":
        """Serve the three rates in turn; each report is verified,
        harvested and dropped (clock paused) before the next rate runs."""
        sweep = _Sweep()
        for label, rate in self.rates.items():
            offered = PoissonArrivals(
                rate, seed=self.seed, records=self.job_records, tenants=2
            ).take(jobs)
            report = api.serve(
                self.options, arrivals=TraceArrivals(offered), policy="fifo", shards=2
            )
            with clock.paused():
                sweep.harvest(label, report)
                del report
        return sweep

    def run(self, clock):
        return self._sweep(clock, self.jobs_per_rate)

    def warmup(self, clock):
        return self.check(self._sweep(clock, 150))

    def check(self, sweep: "_Sweep") -> Outcome:
        out, per_rate = sweep.out, sweep.per_rate
        in_slo = [
            self.rates[label] for label, r in per_rate.items()
            if r["p99"] <= self.slo_p99_s
            and r["achieved"] >= self.slo_achieved_share * r["offered"]
        ]
        r1, r2, r3 = (per_rate[label] for label in ("r1", "r2", "r3"))
        out.sim_total_s = r2["makespan"]
        out.extra = {
            "sim_latency_p50_s": r2["p50"],
            "sim_latency_p99_s": r2["p99"],
            "sim_max_rate_in_slo": max(in_slo, default=0.0),
            "sim_goodput_jobs_per_s": r3["achieved"],
        }
        out.layers.update(kernel_layers(sweep.counter_sets))
        out.layers.update(device_layers(sweep.shards, sweep.dram_peak))
        out.layers.update({
            "cluster.service.sim_latency_p99_s_r1": r1["p99"],
            "cluster.service.sim_latency_p99_s_r3": r3["p99"],
            "cluster.service.achieved_r1": r1["achieved"],
            "cluster.service.achieved_r2": r2["achieved"],
            "cluster.service.sim_queue_p99_s": r2["queue_p99"],
            "cluster.service.samples_beyond_p99": float(r2["beyond_p99"]),
            "cluster.service.generator_lateness_s": 0.0,
        })
        return out


class _Sweep:
    """What is kept of a rate sweep once each rate's cluster is dropped."""

    def __init__(self):
        self.out = Outcome()
        self.per_rate: Dict[str, dict] = {}
        self.counter_sets: List[dict] = []
        self.shards: List["_ShardStats"] = []
        self.dram_peak = 0

    def harvest(self, label: str, report) -> None:
        out = self.out
        latencies, queues = [], []
        for job in report.jobs:
            out.attempted += 1
            done = not job.shed and job.finish_time is not None
            if done and np.array_equal(
                job.output_file.peek(), reference_sort(job.input_file.peek())
            ):
                latencies.append(job.latency)
                queues.append(job.queue_time)
            else:
                out.failed += 1
                latencies.append(math.inf)  # misses any latency limit
        latencies.sort()
        queues.sort()
        self.per_rate[label] = {
            "p50": percentile(latencies, 0.50),
            "p99": percentile(latencies, 0.99),
            "queue_p99": percentile(queues, 0.99) if queues else 0.0,
            "beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
            "offered": report.offered_rate,
            "achieved": report.achieved_rate,
            "makespan": report.makespan,
        }
        cluster = report.extras["cluster"]
        counters = collect_cluster_counters(cluster)
        self.counter_sets.append(counters)
        out.steps += counters["engine_steps"]
        out.jobs += report.jobs_completed
        for key in ("jobs_arrived", "jobs_completed", "jobs_shed", "deadline_misses"):
            out.layers[f"cluster.service.{key}"] += getattr(report, key)
        self.shards += [_ShardStats(shard) for shard in cluster.shards]
        self.dram_peak = max(self.dram_peak, cluster.dram.peak)


class _ShardStats:
    """The two attributes of a shard that ``device_layers`` reads; the
    statistics stay small once the shard's files are gone."""

    def __init__(self, shard: Machine):
        self.stats = shard.stats
        self.profile = shard.profile


WORKLOADS = {
    w.name: w for w in (OnePass, MergePass, MergePassObserved, ClusterChaos, Service)
}
