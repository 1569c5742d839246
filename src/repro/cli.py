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
``trace-diff``  compare two schema-stamped report JSONs (analysis or
                service reports) and flag per-row regressions; exit 1
                on any regression.
``calibrate``   run the device microbenchmark suite on a profile.
``trace-report``  summarize a Chrome/Perfetto trace JSON produced by
                ``--trace`` (span and device-class aggregates).
``bench``       run one paper experiment (fig01 ... fig11, tab01, an
                ablation, or cluster-scaleout) and print its table;
                ``bench claims`` checks every paper claim and prints
                EXPERIMENTS.md's tables.
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
from repro.errors import (
    ConfigError,
    FaultError,
    RecordFormatError,
    RecoveryError,
    SanitizerError,
)
from repro.metrics.cluster_report import render_job_table, render_shard_table
from repro.metrics.timeline import render_timeline
from repro.perf import SelfPerfProfiler, render_report
from repro.records.format import RecordFormat
from repro.registry import available, get_experiment, get_profile
from repro.units import fmt_bytes, fmt_seconds


#: Every flag of every subcommand, declared once: its ``add_argument``
#: keywords as the first command listing it uses them (:data:`COMMANDS`
#: holds the other commands' ``default=`` / ``help=`` overrides).  A string
#: ``choices`` names a :mod:`repro.registry` kind, resolved at parser build.
FLAGS = {
    "--records": dict(type=int, default=100_000),
    "--key-size": dict(type=int, default=10),
    "--value-size": dict(type=int, default=90),
    "--system": dict(choices="system", default="wiscsort"),
    "--device": dict(choices="profile", default="pmem"),
    "--concurrency": dict(
        choices=[m.value for m in ConcurrencyModel],
        default=ConcurrencyModel.NO_IO_OVERLAP.value),
    "--seed": dict(type=int, default=42),
    "--dram-budget": dict(
        type=int, help="DRAM cap in bytes (forces MergePass when small)"),
    "--no-validate": dict(action="store_true"),
    "--faults": dict(
        metavar="SPEC",
        help="fault-injection spec, e.g. 'crash@50%%' or "
             "'transient@p:0.01,slow@t:0.002+0.01:x0.25,seed:7'; crash "
             "specs enable checkpointing and automatic recovery (wiscsort "
             "/ ems only)"),
    "--sanitize": dict(
        action="store_true",
        help="install the runtime SimSanitizer: deadlock diagnostics that "
             "name stuck coroutines, plus a charge-accounting audit (exit "
             "1 on drift)"),
    "--verify-determinism": dict(
        action="store_true",
        help="run the workload twice on fresh machines and diff the full "
             "event traces; exit 1 on any divergence"),
    "--timeline": dict(
        action="store_true",
        help="print the resource-usage sparkline plot"),
    "--selfperf": dict(
        action="store_true",
        help="print simulator self-performance counters (wall-clock "
             "phases, event and rate-table counts)"),
    "--trace": dict(
        metavar="PATH",
        help="record a sim-time trace and export it as Chrome/Perfetto "
             "trace JSON (open in ui.perfetto.dev); observe-only, results "
             "are bit-identical with or without it"),
    "--trace-rollup": dict(
        action="store_true",
        help="with --trace: also print the text phase/traffic rollup"),
    "--race-detect": dict(
        action="store_true",
        help="install the sim-time race detector (vector clocks + per-file "
             "byte-range logs); observe-only, exit 1 when conflicting "
             "same-instant accesses have no happens-before ordering"),
    "--schedule-fuzz": dict(
        type=int, metavar="N",
        help="run the FIFO baseline plus N seeded permutations of "
             "same-instant scheduling ties and compare output "
             "fingerprints; exit 1 on any byte divergence"),
    "--what-if": dict(
        action="append", metavar="EXPR",
        help="project the critical path under a hypothetical change, e.g. "
             "'write_bw*2', 'braid.read_bw*1.5', 'net_bw*4' or "
             "'dram+4GiB'; repeatable"),
    "--blame-rows": dict(
        type=int, default=6, help="blame-table rows to print per phase"),
    "--json": dict(
        metavar="PATH",
        help="also write the analysis report (canonical byte-deterministic "
             "JSON) to PATH"),
    "report_a": dict(help="baseline report JSON"),
    "report_b": dict(help="candidate report JSON"),
    "--threshold": dict(
        type=float, default=0.05,
        help="relative growth that counts as a regression (default 0.05 = "
             "5%%)"),
    "--shards": dict(
        type=int, default=4, help="number of homogeneous device shards"),
    "--devices": dict(
        metavar="NAME[,NAME...]",
        help="heterogeneous cluster: one profile name per shard, "
             "comma-separated (overrides --shards/--device)"),
    "--jobs": dict(type=int, default=8, help="number of sort jobs to submit"),
    "--policy": dict(choices="policy", default="fifo"),
    "--tenants": dict(
        type=int, default=2,
        help="jobs are assigned round-robin to this many tenants "
             "(fair-share accounting unit)"),
    "--records-per-job": dict(type=int, default=50_000),
    "--arrivals": dict(
        choices=['poisson', 'bursty', 'trace'], default="poisson",
        help="arrival process; 'trace' replays --trace-file"),
    "--rate": dict(
        type=float, default=200.0,
        help="offered load in jobs per simulated second (poisson/bursty)"),
    "--horizon": dict(
        type=float, default=0.25,
        help="stop admitting arrivals after this many simulated seconds"),
    "--max-jobs": dict(
        type=int,
        help="stop after this many arrivals (alternative or additional "
             "bound to --horizon)"),
    "--queue-cap": dict(
        type=int, help="pending-queue bound for the 'shed' policy"),
    "--deadline": dict(
        type=float,
        help="per-job relative deadline in simulated seconds (drives 'edf' "
             "and miss accounting)"),
    "--period": dict(
        type=float, default=1.0,
        help="bursty: diurnal period in simulated seconds"),
    "--amplitude": dict(
        type=float, default=0.8, help="bursty: modulation depth in [0, 1)"),
    "--trace-file": dict(
        metavar="PATH",
        help='JSONL arrival trace (one {"t": ...} object per line) for '
             "--arrivals trace"),
    "--slo": dict(
        action="append", metavar="SPEC",
        help="declare an SLO, e.g. 'latency:p99<0.01' or 'slowdown:p50<2'; "
             "repeatable; any FAIL exits 1"),
    "--burn-window": dict(
        type=float, metavar="SECONDS",
        help="arm the live SLO burn-rate monitor with this rollup window "
             "(simulated seconds); needs at least one --slo"),
    "--burn-alert": dict(
        type=float, metavar="RATE", default=2.0,
        help="burn-rate multiple that fires an alert (default 2.0 = "
             "burning error budget twice as fast as allowed)"),
    "--report": dict(
        metavar="PATH",
        help="also write the report as JSON to PATH"),
    "trace_file": dict(help="path to a --trace output file"),
    "experiment": dict(choices="experiment"),
    "--scale": dict(
        type=int, default=1_000,
        help="divide the paper's record counts by this"),
}


def _run_options(args: argparse.Namespace) -> api.RunOptions:
    """The parsed flags as the invocation's one ``RunOptions``.

    Fields whose flags the subcommand does not declare keep their
    defaults; ``cluster`` sizes its sorts with ``--records-per-job``.
    """
    flags = vars(args)
    fields = {
        name: flags[name]
        for name in ("system", "device", "seed", "faults", "dram_budget",
                     "sanitize", "trace", "race_detect")
        if name in flags
    }
    records = flags.get("records", flags.get("records_per_job"))
    if records is not None:
        fields["records"] = records
    if "key_size" in flags:
        fields["fmt"] = RecordFormat(key_size=args.key_size,
                                     value_size=args.value_size)
    if "concurrency" in flags:
        fields["config"] = SortConfig(
            concurrency=ConcurrencyModel(args.concurrency))
    return api.RunOptions(
        validate=not flags.get("no_validate", False),
        **fields,
    )


def _device_names(args: argparse.Namespace) -> Optional[List[str]]:
    if not args.devices:
        return None
    return [name.strip() for name in args.devices.split(",")]


def _harness(args: argparse.Namespace, run_once) -> Optional[int]:
    """``--schedule-fuzz`` / ``--verify-determinism``: re-run and compare.

    Returns the exit status, or None when neither harness was asked for.
    ``run_once(**changes)`` runs the workload on fresh state with those
    ``RunOptions`` fields replaced; nothing is exported per run.
    """
    if args.schedule_fuzz is not None:
        if args.schedule_fuzz < 1:
            raise ConfigError("--schedule-fuzz needs at least one seed")
        if args.verify_determinism:
            raise ConfigError("--schedule-fuzz and --verify-determinism are "
                              "separate harnesses; pick one")
        from repro.analysis.race import schedule_fuzz, sort_output_fingerprint

        report = schedule_fuzz(
            lambda seed: sort_output_fingerprint(
                run_once(schedule_seed=seed, trace=None)
            ),
            seeds=tuple(range(1, args.schedule_fuzz + 1)),
        )
    elif args.verify_determinism:
        from repro.analysis.sanitizer import verify_determinism

        report = verify_determinism(
            lambda san: run_once(sanitizer=san, trace=None), runs=2
        )
    else:
        return None
    print(report.render())
    return 0 if report.ok else 1


def _print_trace(args: argparse.Namespace, tracer) -> None:
    print(f"trace  : {args.trace} "
          f"({len(tracer.spans)} spans, {len(tracer.ops)} ops)")


def cmd_sort(args: argparse.Namespace) -> int:
    options = _run_options(args)
    prof = SelfPerfProfiler()

    def run_once(**changes):
        with prof.phase("sort"):
            return api.sort(options.replace(**changes))

    status = _harness(args, run_once)
    if status is not None:
        return status
    result = run_once()
    fmt = options.record_format
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
    if args.sanitize:  # api.sort raised had anything drifted
        audit = result.extras["sanitizer"].audit_report()
        print(
            f"sanitize: zero drift -- "
            f"{fmt_bytes(audit['moved_read'])} read / "
            f"{fmt_bytes(audit['moved_write'])} written at the storage "
            f"layer, all charged to the device model"
        )
    if args.trace:
        _print_trace(args, result.extras["tracer"])
        if args.trace_rollup:
            from repro.trace import render_phase_rollup

            print()
            print(render_phase_rollup(result.extras["tracer"]))
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


def _print_cluster_epilogue(args: argparse.Namespace, cluster, observers) -> int:
    """What both ``cluster`` paths print after their tables; exit status.

    The run already exported the trace and raised had the sanitizer
    seen drift (``api.sort`` / ``api.serve`` do both).
    """
    if "tracer" in observers:
        _print_trace(args, observers["tracer"])
    if "sanitizer" in observers:
        print("sanitize: zero drift across all shards")
    if "race_detector" in observers:
        print(observers["race_detector"].render())
        if observers["race_detector"].races:
            return 1
    if args.selfperf:
        from repro.perf import collect_cluster_counters

        print("\ncluster self-performance")
        for key, value in sorted(collect_cluster_counters(cluster).items()):
            if isinstance(value, float) and not value.is_integer():
                print(f"  {key:32s} {value:.6g}")
            else:
                print(f"  {key:32s} {int(value)}")
    return 0


def _cmd_cluster_faulted(args: argparse.Namespace, options) -> int:
    """One fault-tolerant sharded sort under ``--faults`` (no jobs)."""
    for flag in ("sanitize", "verify_determinism"):
        if getattr(args, flag):
            raise ConfigError(f"--{flag.replace('_', '-')} is not "
                              f"supported together with --faults")

    def run_once(**changes):
        return api.sort(options.replace(**changes), shards=args.shards,
                        devices=_device_names(args))

    status = _harness(args, run_once)
    if status is not None:
        return status
    result = run_once()
    fmt = options.record_format
    n = args.records_per_job
    cluster = result.extras["cluster"]
    print(cluster.describe())
    print(f"input  : {n} records x {fmt.record_size}B "
          f"({fmt_bytes(fmt.file_bytes(n))}) across "
          f"{len(cluster.shards)} shards")
    print(f"system : {result.system}")
    print(f"total  : {fmt_seconds(result.total_time)} (simulated)")
    print(f"faults : {result.extras['fault_report'].summary()}")
    fc = cluster.faults
    print(f"  {fc.shards_recovered} shard(s) recovered, "
          f"{fc.speculative_issues} speculative issue(s), "
          f"{fc.speculative_wins} speculative win(s)")
    rec = result.extras["system"].last_recovery
    if rec is not None:
        print(f"  recovery: {fmt_bytes(rec['salvaged_bytes'])} salvaged, "
              f"{fmt_bytes(rec['redone_bytes'])} redone "
              f"({rec['partitions_salvaged']} partition(s) salvaged, "
              f"{rec['partitions_redone']} redone)")
    if cluster.net_stats is not None:
        print(f"network: {fmt_bytes(cluster.net_stats.bytes_total)} "
              f"shuffled across the interconnect")
    print("output : validated (sorted permutation of the input)")
    return _print_cluster_epilogue(args, cluster, result.extras)


def _reject_never_fit(report):
    """A run in which no job could ever be admitted is a bad configuration."""
    if report.jobs_never_fit and report.jobs_never_fit == report.jobs_arrived:
        raise ConfigError(
            f"{report.jobs_never_fit} job(s) can never fit the DRAM budget"
        )
    return report


def cmd_cluster(args: argparse.Namespace) -> int:
    options = _run_options(args)
    if args.faults is not None:
        return _cmd_cluster_faulted(args, options)
    if args.schedule_fuzz is not None:
        raise ConfigError(
            "--schedule-fuzz needs --faults (admission may "
            "legally place tied jobs differently per schedule; the "
            "fault-tolerant sharded sort has one deterministic output "
            "to fingerprint)")
    if args.jobs < 1:
        raise ConfigError("need at least one job")
    if args.tenants < 1:
        raise ConfigError("need at least one tenant")
    from repro.workloads.arrivals import JobSpec, TraceArrivals

    def run_once(**changes):
        """The batch: a fresh cluster serving every job as a ``t=0`` arrival."""
        return _reject_never_fit(api.serve(
            options.replace(**changes),
            arrivals=TraceArrivals([
                JobSpec(
                    index=j, arrival_time=0.0, name=f"job{j:02d}",
                    tenant=f"tenant{j % args.tenants}", system=args.system,
                    records=args.records_per_job, seed=args.seed + j,
                )
                for j in range(args.jobs)
            ]),
            policy=args.policy,
            shards=args.shards,
            devices=_device_names(args),
        ))

    status = _harness(args, run_once)
    if status is not None:
        return status
    report = run_once()
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
    return _print_cluster_epilogue(args, cluster, report.extras)


def cmd_serve(args: argparse.Namespace) -> int:
    monitor = None
    if args.burn_window is not None:
        if not args.slo:
            raise ConfigError("--burn-window needs at least one --slo")
        from repro.cluster.service import SLOMonitor

        monitor = SLOMonitor(args.slo, window=args.burn_window,
                             burn_threshold=args.burn_alert)
    if args.trace_file is not None and args.arrivals != "trace":
        raise ConfigError("--trace-file needs --arrivals trace")
    report = _reject_never_fit(api.serve(
        _run_options(args),
        arrivals=args.arrivals,
        rate=args.rate,
        horizon=args.horizon,
        max_jobs=args.max_jobs,
        policy=args.policy,
        shards=args.shards,
        devices=_device_names(args),
        tenants=args.tenants,
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
    from repro.trace import analyze_tracer
    from repro.trace.analyze import parse_what_if

    if args.blame_rows < 0:
        raise ConfigError(f"--blame-rows must be >= 0, got {args.blame_rows}")
    hypotheses = [parse_what_if(expr) for expr in args.what_if or ()]
    result = api.sort(_run_options(args).replace(analyze=True))
    tracer = result.extras["tracer"]
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
        _print_trace(args, tracer)
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.trace import diff_reports, load_report_json, render_diff

    if not 0 <= args.threshold < float("inf"):  # nan fails both
        raise ConfigError(f"--threshold must be a finite number >= 0, got {args.threshold}")
    docs = []
    for path in (args.report_a, args.report_b):
        try:
            docs.append(load_report_json(path))
        except (OSError, ValueError) as exc:  # unreadable, or not a report
            raise ConfigError(f"{path}: {exc}") from None
    diff = diff_reports(docs[0], docs[1], threshold=args.threshold)
    print(render_diff(diff))
    return 1 if diff["regressions"] else 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.trace import load_chrome_trace, render_trace_report

    try:
        doc = load_chrome_trace(args.trace_file)
    except ValueError as exc:  # not JSON, or not a trace document
        raise ConfigError(exc) from None
    print(render_trace_report(doc, args.trace_file))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    profile = get_profile(args.device)()
    result = calibrate_device(profile, HostModel(), use_cache=False)
    for line in result.table():
        print(line)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.scale < 1:
        raise ConfigError("--scale must be >= 1")
    print(get_experiment(args.experiment)(scale=args.scale).render())
    return 0


def cmd_profiles(_args: argparse.Namespace) -> int:
    for name in available("profile"):
        print(get_profile(name)().describe())
    return 0


#: Every subcommand, declared once: help line, handler, and its flags in
#: ``--help`` order -- a :data:`FLAGS` name, or ``(name, overrides)`` where
#: this command's ``default=`` / ``help=`` differ.
COMMANDS = {
    "sort": ("sort a generated dataset", cmd_sort, [
        "--records", "--key-size", "--value-size", "--system", "--device",
        "--concurrency", "--seed", "--dram-budget", "--no-validate",
        "--faults", "--sanitize", "--verify-determinism", "--timeline",
        "--selfperf", "--trace", "--trace-rollup",
        "--race-detect", "--schedule-fuzz",
    ]),
    "analyze": (
        "sort with the critical-path analyzer armed: where did "
        "the simulated time go?",
        cmd_analyze, [
            "--records", "--key-size", "--value-size", "--system",
            "--device", "--concurrency", "--seed", "--dram-budget",
            "--no-validate", "--what-if", "--blame-rows", "--json",
            ("--trace", dict(
                help="also export the underlying Chrome/Perfetto "
                     "trace JSON to PATH")),
        ]),
    "trace-diff": (
        "diff two schema-stamped report JSONs for regressions",
        cmd_trace_diff, ["report_a", "report_b", "--threshold"]),
    "cluster": (
        "run concurrent sort jobs on a multi-device cluster", cmd_cluster, [
            "--shards", "--devices", "--device", "--jobs", "--policy",
            "--tenants", "--system", "--records-per-job", "--seed",
            ("--dram-budget", dict(
                help="cluster-wide DRAM pool in bytes; admitted "
                     "jobs hold reservations against it")),
            ("--sanitize", dict(
                help="install the SimSanitizer across all shards "
                     "(exit 1 on charge-accounting drift)")),
            ("--verify-determinism", dict(
                help="run the whole cluster workload twice and "
                     "diff the event traces; exit 1 on divergence")),
            ("--trace", dict(
                help="record a sim-time trace across all shards "
                     "and the job service; exported as "
                     "Chrome/Perfetto trace JSON")),
            ("--faults", dict(
                help="run ONE fault-tolerant sharded sort (instead of the job "
                     "batch) under a fault plan; prefix events with a shard "
                     "domain to target it (e.g. 'shard1:crash@t:5e-5' or "
                     "'shard0:slow@t:3e-5+1e-3:x0.05'); --records-per-job is "
                     "the total record count")),
            ("--selfperf", dict(
                help="print cluster simulator self-performance "
                     "counters (kernel, per-shard devices, "
                     "interconnect, recovery/speculation)")),
            ("--race-detect", dict(
                help="install the sim-time race detector across "
                     "all shards; observe-only, exit 1 on "
                     "unordered conflicting accesses")),
            ("--schedule-fuzz", dict(
                help="with --faults: run the FIFO baseline plus "
                     "N seeded same-instant schedule permutations "
                     "of the fault-tolerant sharded sort and "
                     "compare merged-output fingerprints; exit 1 "
                     "on any byte divergence")),
        ]),
    "serve": (
        "run the cluster as an open-loop sort service", cmd_serve, [
            "--arrivals", "--rate", "--horizon", "--max-jobs", "--policy",
            ("--shards", dict(default=2)),
            "--devices", "--device", "--system",
            ("--records", dict(default=5_000, help="records per job")),
            ("--tenants", dict(
                help="arrivals round-robin across this many tenants")),
            ("--seed", dict(
                help="seeds the arrival stream AND every job "
                     "dataset: one seed pins the whole workload")),
            ("--dram-budget", dict(
                help="cluster-wide DRAM pool in bytes; the knob "
                     "that makes admission control bite")),
            "--queue-cap", "--deadline", "--period", "--amplitude",
            "--trace-file", "--slo", "--burn-window", "--burn-alert",
            "--report", "--no-validate",
        ]),
    "calibrate": ("probe a device profile", cmd_calibrate, ["--device"]),
    "trace-report": (
        "summarize an exported trace JSON file", cmd_trace_report,
        ["trace_file"]),
    "bench": ("run one paper experiment", cmd_bench, ["experiment", "--scale"]),
    "profiles": ("list available device profiles", cmd_profiles, []),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiscSort reproduction (PVLDB 16(9), 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _handler, flags) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        for flag in flags:
            name, overrides = flag if isinstance(flag, tuple) else (flag, {})
            keywords = {**FLAGS[name], **overrides}
            if isinstance(keywords.get("choices"), str):
                keywords["choices"] = available(keywords["choices"])
            command_parser.add_argument(name, **keywords)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse, run the command's handler, apply the exit-code contract.

    0: ran clean.  1: the run found a problem -- the handler says so
    (race report, SLO FAIL, determinism or fingerprint divergence,
    ``trace-diff`` regression), or recovery gave up, a scripted fault was
    not survivable, or a sanitizer check failed.  2: bad input -- exactly
    one ``<command>: <why>`` line on stderr.  Anything else is a bug and
    keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except (RecoveryError, FaultError, SanitizerError) as exc:
        status, why = 1, exc
    except (ConfigError, RecordFormatError, OSError) as exc:
        status, why = 2, exc
    print(f"{args.command}: {why}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
