"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sort``        sort a generated dataset with a chosen system and print
                the phase breakdown and resource timeline.
``cluster``     run K concurrent sort jobs on an N-shard cluster (the
                sort service fed one batch at t=0) and print
                queue/service/slowdown and per-shard device statistics.
``serve``       run the cluster as an open-loop sort *service*: seeded
                Poisson/bursty/trace arrivals, admission control with
                load shedding, latency percentiles and SLO verdicts.
``analyze``     run one sort with the critical-path analyzer armed and
                print the per-phase device-busy / queueing / DRAM-stall
                / net / cpu decomposition, blame tables and optional
                ``--what-if`` projections.
``trace-diff``  compare two schema-stamped report JSONs (analysis
                reports, selfperf baselines or service reports) and
                flag per-row regressions; exit 1 on any regression.
``calibrate``   run the device microbenchmark suite on a profile.
``trace-report``  summarize a Chrome/Perfetto trace JSON produced by
                ``--trace`` (span and device-class aggregates).
``bench``       run one paper experiment (fig01 ... fig11, tab01, an
                ablation, or cluster-scaleout) and print its table.
``profiles``    list the available device profiles.

Systems, experiments and profiles all resolve through
:mod:`repro.registry`; registering a new system makes it immediately
available to every command here without touching this module.

Examples::

    python -m repro sort --records 200000 --system wiscsort --device pmem
    python -m repro analyze --records 50000 --dram-budget 600000 \
        --what-if 'write_bw*2'
    python -m repro trace-diff baseline.json current.json --threshold 0.05
    python -m repro cluster --shards 4 --jobs 8 --policy fair
    python -m repro serve --rate 500 --horizon 0.1 --policy shed \
        --slo "latency:p99<0.01"
    python -m repro calibrate --device bard-device
    python -m repro bench fig08 --scale 2000
    python -m repro profiles
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import api
from repro.calibrate import calibrate_device
from repro.core.base import ConcurrencyModel, SortConfig
from repro.device.host import HostModel
from repro.errors import ConfigError
from repro.metrics.cluster_report import render_job_table, render_shard_table
from repro.metrics.timeline import render_timeline
from repro.perf import SelfPerfProfiler, render_report
from repro.records.format import RecordFormat
from repro.registry import available, get_experiment, get_profile
from repro.units import fmt_bytes, fmt_seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiscSort reproduction (PVLDB 16(9), 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort a generated dataset")
    p_sort.add_argument("--records", type=int, default=100_000)
    p_sort.add_argument("--key-size", type=int, default=10)
    p_sort.add_argument("--value-size", type=int, default=90)
    p_sort.add_argument("--system", choices=available("system"), default="wiscsort")
    p_sort.add_argument("--device", choices=available("profile"), default="pmem")
    p_sort.add_argument(
        "--concurrency",
        choices=[m.value for m in ConcurrencyModel],
        default=ConcurrencyModel.NO_IO_OVERLAP.value,
    )
    p_sort.add_argument("--seed", type=int, default=42)
    p_sort.add_argument("--dram-budget", type=int, default=None,
                        help="DRAM cap in bytes (forces MergePass when small)")
    p_sort.add_argument("--no-validate", action="store_true")
    p_sort.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="fault-injection spec, e.g. 'crash@50%%' or "
             "'transient@p:0.01,slow@t:0.002+0.01:x0.25,seed:7'; "
             "crash specs enable checkpointing and automatic recovery "
             "(wiscsort / ems only)")
    p_sort.add_argument("--sanitize", action="store_true",
                        help="install the runtime SimSanitizer: deadlock "
                             "diagnostics that name stuck coroutines, plus a "
                             "charge-accounting audit (exit 1 on drift)")
    p_sort.add_argument("--verify-determinism", action="store_true",
                        help="run the workload twice on fresh machines and "
                             "diff the full event traces; exit 1 on any "
                             "divergence")
    p_sort.add_argument("--timeline", action="store_true",
                        help="print the resource-usage sparkline plot")
    p_sort.add_argument("--selfperf", action="store_true",
                        help="print simulator self-performance counters "
                             "(wall-clock phases, event counts, cache hit rates)")
    p_sort.add_argument("--no-memoize", action="store_true",
                        help="debug: disable the rate-model memo cache "
                             "(results must be identical either way)")
    p_sort.add_argument("--trace", metavar="PATH", default=None,
                        help="record a sim-time trace and export it as "
                             "Chrome/Perfetto trace JSON (open in "
                             "ui.perfetto.dev); observe-only, results are "
                             "bit-identical with or without it")
    p_sort.add_argument("--trace-rollup", action="store_true",
                        help="with --trace: also print the text "
                             "phase/traffic rollup")
    p_sort.add_argument("--race-detect", action="store_true",
                        help="install the sim-time race detector (vector "
                             "clocks + per-file byte-range logs); "
                             "observe-only, exit 1 when conflicting "
                             "same-instant accesses have no happens-before "
                             "ordering")
    p_sort.add_argument("--schedule-fuzz", type=int, metavar="N", default=None,
                        help="run the FIFO baseline plus N seeded "
                             "permutations of same-instant scheduling ties "
                             "and compare output fingerprints; exit 1 on "
                             "any byte divergence")

    p_analyze = sub.add_parser(
        "analyze",
        help="sort with the critical-path analyzer armed: where did "
             "the simulated time go?",
    )
    p_analyze.add_argument("--records", type=int, default=100_000)
    p_analyze.add_argument("--key-size", type=int, default=10)
    p_analyze.add_argument("--value-size", type=int, default=90)
    p_analyze.add_argument("--system", choices=available("system"),
                           default="wiscsort")
    p_analyze.add_argument("--device", choices=available("profile"),
                           default="pmem")
    p_analyze.add_argument(
        "--concurrency",
        choices=[m.value for m in ConcurrencyModel],
        default=ConcurrencyModel.NO_IO_OVERLAP.value,
    )
    p_analyze.add_argument("--seed", type=int, default=42)
    p_analyze.add_argument("--dram-budget", type=int, default=None,
                           help="DRAM cap in bytes (forces MergePass when "
                                "small)")
    p_analyze.add_argument("--no-validate", action="store_true")
    p_analyze.add_argument("--what-if", action="append", default=None,
                           metavar="EXPR",
                           help="project the critical path under a "
                                "hypothetical change, e.g. 'write_bw*2', "
                                "'braid.read_bw*1.5', 'net_bw*4' or "
                                "'dram+4GiB'; repeatable")
    p_analyze.add_argument("--blame-rows", type=int, default=6,
                           help="blame-table rows to print per phase")
    p_analyze.add_argument("--json", metavar="PATH", default=None,
                           help="also write the analysis report (canonical "
                                "byte-deterministic JSON) to PATH")
    p_analyze.add_argument("--trace", metavar="PATH", default=None,
                           help="also export the underlying Chrome/Perfetto "
                                "trace JSON to PATH")

    p_diff = sub.add_parser(
        "trace-diff",
        help="diff two schema-stamped report JSONs for regressions",
    )
    p_diff.add_argument("report_a", help="baseline report JSON")
    p_diff.add_argument("report_b", help="candidate report JSON")
    p_diff.add_argument("--threshold", type=float, default=0.05,
                        help="relative growth that counts as a regression "
                             "(default 0.05 = 5%%)")

    p_cluster = sub.add_parser(
        "cluster", help="run concurrent sort jobs on a multi-device cluster"
    )
    p_cluster.add_argument("--shards", type=int, default=4,
                           help="number of homogeneous device shards")
    p_cluster.add_argument(
        "--devices", default=None, metavar="NAME[,NAME...]",
        help="heterogeneous cluster: one profile name per shard, "
             "comma-separated (overrides --shards/--device)")
    p_cluster.add_argument("--device", choices=available("profile"), default="pmem")
    p_cluster.add_argument("--jobs", type=int, default=8,
                           help="number of sort jobs to submit")
    p_cluster.add_argument("--policy", choices=available("policy"),
                           default="fifo")
    p_cluster.add_argument("--tenants", type=int, default=2,
                           help="jobs are assigned round-robin to this many "
                                "tenants (fair-share accounting unit)")
    p_cluster.add_argument("--system", choices=available("system"),
                           default="wiscsort")
    p_cluster.add_argument("--records-per-job", type=int, default=50_000)
    p_cluster.add_argument("--seed", type=int, default=42)
    p_cluster.add_argument("--dram-budget", type=int, default=None,
                           help="cluster-wide DRAM pool in bytes; admitted "
                                "jobs hold reservations against it")
    p_cluster.add_argument("--sanitize", action="store_true",
                           help="install the SimSanitizer across all shards "
                                "(exit 1 on charge-accounting drift)")
    p_cluster.add_argument("--verify-determinism", action="store_true",
                           help="run the whole cluster workload twice and "
                                "diff the event traces; exit 1 on divergence")
    p_cluster.add_argument("--trace", metavar="PATH", default=None,
                           help="record a sim-time trace across all shards "
                                "and the job service; exported as "
                                "Chrome/Perfetto trace JSON")
    p_cluster.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="run ONE fault-tolerant sharded sort (instead of the job "
             "batch) under a fault plan; prefix events with a shard "
             "domain to target it (e.g. 'shard1:crash@t:5e-5' or "
             "'shard0:slow@t:3e-5+1e-3:x0.05'); --records-per-job is the "
             "total record count")
    p_cluster.add_argument("--selfperf", action="store_true",
                           help="print cluster simulator self-performance "
                                "counters (kernel, per-shard devices, "
                                "interconnect, recovery/speculation)")
    p_cluster.add_argument("--race-detect", action="store_true",
                           help="install the sim-time race detector across "
                                "all shards; observe-only, exit 1 on "
                                "unordered conflicting accesses")
    p_cluster.add_argument("--schedule-fuzz", type=int, metavar="N",
                           default=None,
                           help="with --faults: run the FIFO baseline plus "
                                "N seeded same-instant schedule permutations "
                                "of the fault-tolerant sharded sort and "
                                "compare merged-output fingerprints; exit 1 "
                                "on any byte divergence")

    p_serve = sub.add_parser(
        "serve", help="run the cluster as an open-loop sort service"
    )
    p_serve.add_argument("--arrivals", choices=["poisson", "bursty", "trace"],
                         default="poisson",
                         help="arrival process; 'trace' replays --trace-file")
    p_serve.add_argument("--rate", type=float, default=200.0,
                         help="offered load in jobs per simulated second "
                              "(poisson/bursty)")
    p_serve.add_argument("--horizon", type=float, default=0.25,
                         help="stop admitting arrivals after this many "
                              "simulated seconds")
    p_serve.add_argument("--max-jobs", type=int, default=None,
                         help="stop after this many arrivals (alternative "
                              "or additional bound to --horizon)")
    p_serve.add_argument("--policy", choices=available("policy"),
                         default="fifo")
    p_serve.add_argument("--shards", type=int, default=2,
                         help="number of homogeneous device shards")
    p_serve.add_argument(
        "--devices", default=None, metavar="NAME[,NAME...]",
        help="heterogeneous cluster: one profile name per shard, "
             "comma-separated (overrides --shards/--device)")
    p_serve.add_argument("--device", choices=available("profile"), default="pmem")
    p_serve.add_argument("--system", choices=available("system"),
                         default="wiscsort")
    p_serve.add_argument("--records", type=int, default=5_000,
                         help="records per job")
    p_serve.add_argument("--tenants", type=int, default=2,
                         help="arrivals round-robin across this many tenants")
    p_serve.add_argument("--seed", type=int, default=42,
                         help="seeds the arrival stream AND every job "
                              "dataset: one seed pins the whole workload")
    p_serve.add_argument("--dram-budget", type=int, default=None,
                         help="cluster-wide DRAM pool in bytes; the knob "
                              "that makes admission control bite")
    p_serve.add_argument("--queue-cap", type=int, default=None,
                         help="pending-queue bound for the 'shed' policy")
    p_serve.add_argument("--deadline", type=float, default=None,
                         help="per-job relative deadline in simulated "
                              "seconds (drives 'edf' and miss accounting)")
    p_serve.add_argument("--period", type=float, default=1.0,
                         help="bursty: diurnal period in simulated seconds")
    p_serve.add_argument("--amplitude", type=float, default=0.8,
                         help="bursty: modulation depth in [0, 1)")
    p_serve.add_argument("--trace-file", metavar="PATH", default=None,
                         help="JSONL arrival trace (one {\"t\": ...} object "
                              "per line) for --arrivals trace")
    p_serve.add_argument("--slo", action="append", default=None,
                         metavar="SPEC",
                         help="declare an SLO, e.g. 'latency:p99<0.01' or "
                              "'slowdown:p50<2'; repeatable; any FAIL "
                              "exits 1")
    p_serve.add_argument("--burn-window", type=float, metavar="SECONDS",
                         default=None,
                         help="arm the live SLO burn-rate monitor with this "
                              "rollup window (simulated seconds); needs at "
                              "least one --slo")
    p_serve.add_argument("--burn-alert", type=float, metavar="RATE",
                         default=2.0,
                         help="burn-rate multiple that fires an alert "
                              "(default 2.0 = burning error budget twice "
                              "as fast as allowed)")
    p_serve.add_argument("--report", metavar="PATH", default=None,
                         help="also write the report as JSON to PATH")
    p_serve.add_argument("--no-validate", action="store_true")

    p_cal = sub.add_parser("calibrate", help="probe a device profile")
    p_cal.add_argument("--device", choices=available("profile"), default="pmem")

    p_trace = sub.add_parser(
        "trace-report", help="summarize an exported trace JSON file"
    )
    p_trace.add_argument("trace_file", help="path to a --trace output file")

    p_bench = sub.add_parser("bench", help="run one paper experiment")
    p_bench.add_argument("experiment", choices=available("experiment"))
    p_bench.add_argument("--scale", type=int, default=1_000,
                         help="divide the paper's record counts by this")

    sub.add_parser("profiles", help="list available device profiles")
    return parser


def cmd_sort(args: argparse.Namespace) -> int:
    fmt = RecordFormat(key_size=args.key_size, value_size=args.value_size)
    config = SortConfig(concurrency=ConcurrencyModel(args.concurrency))
    prof = SelfPerfProfiler()
    base = api.RunOptions(
        records=args.records,
        system=args.system,
        device=args.device,
        fmt=fmt,
        config=config,
        seed=args.seed,
        faults=args.faults,
        validate=not args.no_validate,
        dram_budget=args.dram_budget,
        memoize_rates=not args.no_memoize,
    )

    def run_once(**observers):
        with prof.phase("sort"):
            return api.sort(base.replace(**observers))

    if args.schedule_fuzz is not None:
        if args.schedule_fuzz < 1:
            print("sort: --schedule-fuzz needs at least one seed",
                  file=sys.stderr)
            return 2
        if args.verify_determinism:
            print("sort: --schedule-fuzz and --verify-determinism are "
                  "separate harnesses; pick one", file=sys.stderr)
            return 2
        from repro.analysis.race import schedule_fuzz, sort_output_fingerprint

        report = schedule_fuzz(
            lambda seed: sort_output_fingerprint(
                run_once(schedule_seed=seed, race_detect=args.race_detect)
            ),
            seeds=tuple(range(1, args.schedule_fuzz + 1)),
        )
        print(report.render())
        return 0 if report.ok else 1
    if args.verify_determinism:
        from repro.analysis.sanitizer import verify_determinism

        report = verify_determinism(lambda san: run_once(sanitizer=san), runs=2)
        print(report.render())
        return 0 if report.ok else 1
    sanitizer = None
    if args.sanitize:
        from repro.analysis.sanitizer import SimSanitizer

        sanitizer = SimSanitizer()
    result = run_once(sanitizer=sanitizer, trace=args.trace,
                      race_detect=args.race_detect)
    machine = result.extras["machine"]
    fault_report = result.extras.get("fault_report")
    print(f"device : {machine.profile.describe()}")
    print(f"input  : {args.records} records x {fmt.record_size}B "
          f"({fmt_bytes(fmt.file_bytes(args.records))})")
    print(f"system : {result.system}")
    print(f"total  : {fmt_seconds(result.total_time)} (simulated)")
    for tag, busy in result.phases.items():
        print(f"  {tag:16s} {fmt_seconds(busy)}")
    print(f"reads  : {fmt_bytes(result.internal_read)} internal")
    print(f"writes : {fmt_bytes(result.internal_written)} internal")
    if not args.no_validate:
        print("output : validated (sorted permutation of the input)")
    if fault_report is not None:
        stats = fault_report.stats
        print(f"faults : {fault_report.summary()}")
        if stats:
            print(f"  {stats['faults_injected']} injected over "
                  f"{stats['ops_seen']} file ops; "
                  f"{stats['retries']} retries "
                  f"({fmt_seconds(stats['backoff_seconds'])} backoff), "
                  f"{stats['torn_writes']} torn writes")
            if fault_report.crashes:
                print(f"  recovery: {fmt_bytes(stats['salvaged_bytes'])} "
                      f"salvaged, {fmt_bytes(stats['redone_bytes'])} redone")
    if sanitizer is not None:
        audit = sanitizer.audit_report()
        print(
            f"sanitize: zero drift -- "
            f"{fmt_bytes(audit['moved_read'])} read / "
            f"{fmt_bytes(audit['moved_write'])} written at the storage "
            f"layer, all charged to the device model"
        )
    if args.trace:
        tracer = result.extras["tracer"]
        print(f"trace  : {args.trace} "
              f"({len(tracer.spans)} spans, {len(tracer.ops)} ops)")
        if args.trace_rollup:
            from repro.trace import render_phase_rollup

            print()
            print(render_phase_rollup(tracer))
    if args.race_detect:
        detector = result.extras["race_detector"]
        print(detector.render())
        if detector.races:
            return 1
    if args.timeline:
        print()
        print(render_timeline(machine))
    if args.selfperf:
        print()
        print(render_report(machine, prof))
    return 0


def _build_cluster(args: argparse.Namespace):
    from repro.cluster import Cluster

    if args.devices:
        return Cluster(
            profiles=_device_names(args), dram_budget=args.dram_budget
        )
    return Cluster(
        shards=args.shards,
        profile=get_profile(args.device)(),
        dram_budget=args.dram_budget,
    )


def _observer_options(args: argparse.Namespace, **overrides) -> api.RunOptions:
    """``--sanitize`` / ``--trace`` / ``--race-detect`` as the options
    :func:`repro.api.arm_probes` installs on a cluster."""
    return api.RunOptions(
        sanitize=args.sanitize, trace=args.trace, race_detect=args.race_detect
    ).replace(**overrides)


def _report_cluster_probes(args: argparse.Namespace, observers: dict) -> int:
    """Export / print what the armed observers found; exit status."""
    if "tracer" in observers:
        from repro.trace import write_chrome_trace

        tracer = observers["tracer"]
        write_chrome_trace(tracer, args.trace)
        print(f"trace  : {args.trace} "
              f"({len(tracer.spans)} spans, {len(tracer.ops)} ops)")
    if "sanitizer" in observers:
        from repro.errors import ChargeDriftError

        try:
            observers["sanitizer"].check()
        except ChargeDriftError as exc:
            print(f"sanitize: {exc}")
            return 1
        print("sanitize: zero drift across all shards")
    if "race_detector" in observers:
        print(observers["race_detector"].render())
        if observers["race_detector"].races:
            return 1
    return 0


def _cmd_cluster_faulted(args: argparse.Namespace) -> int:
    """One fault-tolerant sharded sort under ``--faults`` (no jobs)."""
    from repro.cluster import ShardedWiscSort, generate_cluster_dataset
    from repro.errors import RecoveryError
    from repro.faults.harness import run_cluster_with_faults
    from repro.faults.plan import parse_fault_spec

    fmt = RecordFormat()
    n = args.records_per_job
    plan = parse_fault_spec(args.faults, seed=args.seed)
    checkpoint = plan.has_crash
    counts = None
    if plan.needs_probe:
        # Fractional triggers (crash@50%) need per-shard op totals: run
        # the identical workload once with count-only injectors (an
        # empty plan, same checkpoint setting) and resolve against it.
        # One probe serves every schedule-fuzz seed too: permutations
        # reorder same-instant ops without changing the op *totals*.
        from repro.faults.plan import FaultPlan

        probe = _build_cluster(args)
        probe_data = generate_cluster_dataset(probe, "input", n, fmt,
                                              seed=args.seed)
        probe_state = probe.install_faults(FaultPlan(), count_only=True)
        ShardedWiscSort(fmt, system=args.system, checkpoint=checkpoint).run(
            probe, probe_data, validate=False
        )
        counts = probe_state.ops_seen()

    def run_once(options):
        """Fresh cluster + dataset + injectors, one fault-tolerant run."""
        cluster = _build_cluster(args)
        observers, _trace_path = api.arm_probes(options, cluster)
        data = generate_cluster_dataset(cluster, "input", n, fmt,
                                        seed=args.seed)
        cluster.install_faults(plan, counts=counts)
        system = ShardedWiscSort(fmt, system=args.system,
                                 checkpoint=checkpoint)
        result, report = run_cluster_with_faults(system, cluster, data)
        return cluster, data, system, result, report, observers

    if args.schedule_fuzz is not None:
        if args.schedule_fuzz < 1:
            print("cluster: --schedule-fuzz needs at least one seed",
                  file=sys.stderr)
            return 2
        from repro.analysis.race import (
            cluster_output_fingerprint,
            schedule_fuzz,
        )

        def fuzz_fingerprint(seed):
            # No tracer: nothing is exported per seed.
            cluster, data, _system, result, _report, _observers = run_once(
                _observer_options(args, trace=None, schedule_seed=seed)
            )
            return cluster_output_fingerprint(
                cluster, result.output_name, len(data.parts)
            )

        try:
            fuzz_report = schedule_fuzz(
                fuzz_fingerprint,
                seeds=tuple(range(1, args.schedule_fuzz + 1)),
            )
        except RecoveryError as exc:
            print(f"cluster: {exc}", file=sys.stderr)
            return 1
        print(fuzz_report.render())
        return 0 if fuzz_report.ok else 1

    try:
        cluster, data, system, result, report, observers = run_once(
            _observer_options(args)
        )
    except RecoveryError as exc:
        print(f"cluster: {exc}", file=sys.stderr)
        return 1
    print(cluster.describe())
    print(f"input  : {n} records x {fmt.record_size}B "
          f"({fmt_bytes(fmt.file_bytes(n))}) across "
          f"{len(data.parts)} shards")
    print(f"system : {result.system}")
    print(f"total  : {fmt_seconds(result.total_time)} (simulated)")
    print(f"faults : {report.summary()}")
    fc = cluster.faults
    print(f"  {fc.shards_recovered} shard(s) recovered, "
          f"{fc.speculative_issues} speculative issue(s), "
          f"{fc.speculative_wins} speculative win(s)")
    if system.last_recovery is not None:
        rec = system.last_recovery
        print(f"  recovery: {fmt_bytes(rec['salvaged_bytes'])} salvaged, "
              f"{fmt_bytes(rec['redone_bytes'])} redone "
              f"({rec['partitions_salvaged']} partition(s) salvaged, "
              f"{rec['partitions_redone']} redone)")
    if cluster.net_stats is not None:
        print(f"network: {fmt_bytes(cluster.net_stats.bytes_total)} "
              f"shuffled across the interconnect")
    print("output : validated (sorted permutation of the input)")
    if _report_cluster_probes(args, observers):
        return 1
    if args.selfperf:
        print()
        print(_render_cluster_counters(cluster))
    return 0


def _render_cluster_counters(cluster) -> str:
    from repro.perf import collect_cluster_counters

    lines = ["cluster self-performance"]
    for key, value in sorted(collect_cluster_counters(cluster).items()):
        if isinstance(value, float) and not value.is_integer():
            lines.append(f"  {key:32s} {value:.6g}")
        else:
            lines.append(f"  {key:32s} {int(value)}")
    return "\n".join(lines)


def _config_errors_exit_2(cmd):
    """A bad configuration is one ``<command>: <why>`` line and exit 2."""

    def guarded(args: argparse.Namespace) -> int:
        try:
            return cmd(args)
        except ConfigError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2

    return guarded


def _reject_never_fit(report):
    """A run in which no job could ever be admitted is a bad configuration."""
    if report.jobs_never_fit and report.jobs_never_fit == report.jobs_arrived:
        raise ConfigError(
            f"{report.jobs_never_fit} job(s) can never fit the DRAM budget"
        )
    return report


def _device_names(args: argparse.Namespace) -> Optional[List[str]]:
    if not args.devices:
        return None
    return [name.strip() for name in args.devices.split(",")]


@_config_errors_exit_2
def cmd_cluster(args: argparse.Namespace) -> int:
    if args.faults is not None:
        for flag in ("sanitize", "verify_determinism"):
            if getattr(args, flag):
                print(f"cluster: --{flag.replace('_', '-')} is not "
                      f"supported together with --faults", file=sys.stderr)
                return 2
        return _cmd_cluster_faulted(args)
    if args.schedule_fuzz is not None:
        print("cluster: --schedule-fuzz needs --faults (admission may "
              "legally place tied jobs differently per schedule; the "
              "fault-tolerant sharded sort has one deterministic output "
              "to fingerprint)", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("cluster: need at least one job", file=sys.stderr)
        return 2
    from repro.analysis.sanitizer import SimSanitizer, verify_determinism
    from repro.trace import Tracer
    from repro.workloads.arrivals import JobSpec, TraceArrivals

    base = api.RunOptions(device=args.device, dram_budget=args.dram_budget)
    tenants = max(1, args.tenants)

    def run_once(**observers):
        """The batch: a fresh cluster serving every job as a ``t=0`` arrival."""
        return _reject_never_fit(api.serve(
            base.replace(**observers),
            arrivals=TraceArrivals([
                JobSpec(
                    index=j, arrival_time=0.0, name=f"job{j:02d}",
                    tenant=f"tenant{j % tenants}", system=args.system,
                    records=args.records_per_job, seed=args.seed + j,
                )
                for j in range(args.jobs)
            ]),
            policy=args.policy,
            shards=args.shards,
            devices=_device_names(args),
        ))

    if args.verify_determinism:
        report = verify_determinism(lambda san: run_once(sanitizer=san), runs=2)
        print(report.render())
        return 0 if report.ok else 1
    # Pre-built observers: _report_cluster_probes says what they found,
    # rather than api.serve's harvest raising it.
    report = run_once(
        sanitizer=SimSanitizer() if args.sanitize else None,
        trace=Tracer() if args.trace else None,
        race_detect=args.race_detect,
    )
    cluster = report.extras["cluster"]
    print(cluster.describe())
    print(f"policy : {args.policy}, {args.jobs} jobs, "
          f"{args.records_per_job} records/job")
    if cluster.dram.budget is not None:
        print(f"dram   : {fmt_bytes(cluster.dram.budget)} pool, "
              f"peak {fmt_bytes(cluster.dram.peak)} reserved")
    print()
    print(render_job_table(report.jobs))
    print()
    print(render_shard_table(cluster))
    if _report_cluster_probes(args, report.extras):
        return 1
    if args.selfperf:
        print()
        print(_render_cluster_counters(cluster))
    return 0


@_config_errors_exit_2
def cmd_serve(args: argparse.Namespace) -> int:
    base = api.RunOptions(
        records=args.records,
        system=args.system,
        device=args.device,
        seed=args.seed,
        dram_budget=args.dram_budget,
        validate=not args.no_validate,
    )
    monitor = None
    if args.burn_window is not None:
        if not args.slo:
            print("serve: --burn-window needs at least one --slo",
                  file=sys.stderr)
            return 2
        from repro.cluster.service import SLOMonitor

        monitor = SLOMonitor(args.slo, window=args.burn_window,
                             burn_threshold=args.burn_alert)
    report = _reject_never_fit(api.serve(
        base,
        arrivals=args.arrivals,
        rate=args.rate,
        horizon=args.horizon,
        max_jobs=args.max_jobs,
        policy=args.policy,
        shards=args.shards,
        devices=_device_names(args),
        tenants=max(1, args.tenants),
        queue_cap=args.queue_cap,
        deadline=args.deadline,
        period=args.period,
        amplitude=args.amplitude,
        trace_file=args.trace_file,
        slos=args.slo or (),
        monitor=monitor,
    ))
    print(report.extras["cluster"].describe())
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report : {args.report}")
    return 0 if report.ok else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.trace import Tracer, analyze_tracer
    from repro.trace.analyze import parse_what_if

    hypotheses = []
    for expr in args.what_if or ():
        try:
            hypotheses.append(parse_what_if(expr))
        except ConfigError as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 2
    fmt = RecordFormat(key_size=args.key_size, value_size=args.value_size)
    config = SortConfig(concurrency=ConcurrencyModel(args.concurrency))
    tracer = Tracer(analyze=True)
    result = api.sort(api.RunOptions(
        records=args.records,
        system=args.system,
        device=args.device,
        fmt=fmt,
        config=config,
        seed=args.seed,
        validate=not args.no_validate,
        dram_budget=args.dram_budget,
        trace=tracer,
    ))
    report = analyze_tracer(tracer)
    machine = result.extras["machine"]
    print(f"device : {machine.profile.describe()}")
    print(f"system : {result.system}")
    print(f"total  : {fmt_seconds(result.total_time)} (simulated)")
    print()
    print(report.render(blame_rows=args.blame_rows))
    for wi in hypotheses:
        print()
        print(report.render_what_if(report.what_if(wi)))
    if args.json:
        from repro.trace import write_report_json

        write_report_json(report, args.json)
        print(f"\nreport : {args.json}")
    if args.trace:
        from repro.trace import write_chrome_trace

        write_chrome_trace(tracer, args.trace)
        print(f"trace  : {args.trace} "
              f"({len(tracer.spans)} spans, {len(tracer.ops)} ops)")
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.errors import SchemaMismatchError
    from repro.trace import diff_reports, load_report_json, render_diff

    docs = []
    for path in (args.report_a, args.report_b):
        try:
            docs.append(load_report_json(path))
        except (OSError, ValueError) as exc:
            print(f"trace-diff: {path}: {exc}", file=sys.stderr)
            return 2
    try:
        diff = diff_reports(docs[0], docs[1], threshold=args.threshold)
    except SchemaMismatchError as exc:
        print(f"trace-diff: {exc}", file=sys.stderr)
        return 2
    print(render_diff(diff))
    return 1 if diff["regressions"] else 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.trace import load_chrome_trace, render_trace_report

    try:
        doc = load_chrome_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"trace-report: {exc}", file=sys.stderr)
        return 2
    print(render_trace_report(doc, args.trace_file))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    profile = get_profile(args.device)()
    result = calibrate_device(profile, HostModel(), use_cache=False)
    for line in result.table():
        print(line)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    fn = get_experiment(args.experiment)
    table = fn() if args.experiment == "tab01" else fn(scale=args.scale)
    print(table.render())
    return 0


def cmd_profiles(_args: argparse.Namespace) -> int:
    for name in available("profile"):
        print(get_profile(name)().describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sort": cmd_sort,
        "analyze": cmd_analyze,
        "trace-diff": cmd_trace_diff,
        "cluster": cmd_cluster,
        "serve": cmd_serve,
        "calibrate": cmd_calibrate,
        "trace-report": cmd_trace_report,
        "bench": cmd_bench,
        "profiles": cmd_profiles,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
