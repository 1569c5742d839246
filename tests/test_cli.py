"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.registry import available


def assert_one_line(capsys, command, message):
    """The whole of stderr is one ``<command>: ...message...`` line."""
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: ") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


class TestParser:
    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.system == "wiscsort"
        assert args.device == "pmem"
        assert args.records == 100_000

    def test_bench_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--system", "bogosort"])

    def test_every_system_has_a_constructor(self):
        assert set(available("system")) >= {
            "wiscsort", "ems", "pmsort", "pmsort+", "sample-sort",
            "modified-key-sort",
        }

    def test_every_figure_has_an_experiment(self):
        for fig in ("fig01", "fig04", "fig05", "fig06", "fig07",
                    "fig08", "fig09", "fig10", "fig11", "tab01"):
            assert fig in available("experiment")


class TestCommands:
    def test_sort_command_runs(self, capsys):
        rc = main(["sort", "--records", "2000", "--system", "wiscsort"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validated" in out
        assert "RUN read" in out

    def test_sort_with_timeline(self, capsys):
        rc = main(["sort", "--records", "2000", "--timeline", "--no-validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resource usage" in out

    def test_sort_on_emulated_device(self, capsys):
        rc = main([
            "sort", "--records", "1000", "--device", "brd-device",
            "--system", "ems",
        ])
        assert rc == 0
        assert "brd-device" in capsys.readouterr().out

    def test_sort_with_dram_budget_forces_merge(self, capsys):
        rc = main([
            "sort", "--records", "5000", "--dram-budget", "30000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MERGE write" in out  # MergePass phases present

    def test_calibrate_command(self, capsys):
        rc = main(["calibrate", "--device", "pmem"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seq-read" in out and "pool=" in out

    def test_bench_command_smoke(self, capsys):
        rc = main(["bench", "fig09", "--scale", "20000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strided" in out

    def test_bench_tab01(self, capsys):
        rc = main(["bench", "tab01"])
        assert rc == 0
        assert "wiscsort" in capsys.readouterr().out

    def test_profiles_command(self, capsys):
        rc = main(["profiles"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("pmem", "dram", "bd-device", "brd-device", "bard-device"):
            assert name in out


class TestFaultsFlag:
    def test_crash_fraction_probes_and_recovers(self, capsys):
        rc = main([
            "sort", "--records", "20000", "--system", "wiscsort",
            "--faults", "crash@50%",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validated" in out
        assert "1 crash(es)" in out and "1 recovery(ies)" in out
        assert "salvaged" in out

    def test_transient_faults_report_retries(self, capsys):
        rc = main([
            "sort", "--records", "20000", "--system", "wiscsort",
            "--faults", "transient@op:1,seed:3", "--selfperf",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 injected" in out
        assert "retries" in out and "backoff" in out

    def test_crash_on_non_checkpointing_system_rejected(self, capsys):
        rc = main([
            "sort", "--records", "2000", "--system", "sample-sort",
            "--faults", "crash@op:1",
        ])
        assert rc == 2
        assert_one_line(capsys, "sort", "need a checkpointing system")

    def test_crash_on_natural_run_elision_rejected(self, capsys):
        rc = main([
            "sort", "--records", "20000", "--system", "wiscsort-natural",
            "--faults", "crash@50%",
        ])
        assert rc == 2
        assert_one_line(capsys, "sort", "natural-run elision")

    def test_crashes_outpacing_recovery_exit_1(self, capsys):
        # at the parent `cluster` printed this and `sort` raised it
        spec = ",".join(f"crash@op:{3 + 2 * i}" for i in range(9))
        rc = main(["sort", "--records", "3000", "--faults", spec])
        assert rc == 1
        assert_one_line(capsys, "sort", "gave up after 8 recovery attempts")

    def test_unsurvivable_scripted_fault_exits_1(self, capsys):
        rc = main(["sort", "--records", "1000", "--faults", "readerr@op:1"])
        assert rc == 1
        assert_one_line(capsys, "sort", "uncorrectable media error")

    def test_ems_crash_recovers(self, capsys):
        rc = main([
            "sort", "--records", "20000", "--system", "ems",
            "--faults", "crash@op:5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validated" in out
        assert "1 crash(es)" in out


class TestServeCommand:
    def test_serve_runs_and_reports(self, capsys):
        rc = main([
            "serve", "--rate", "500", "--horizon", "0.02",
            "--records", "1000", "--policy", "fifo",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sort service report: policy=fifo" in out
        assert "p999" in out

    def test_serve_policy_choices_come_from_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--policy", "lifo"])
        err = capsys.readouterr().err
        assert "edf" in err and "backpressure" in err

    def test_serve_slo_failure_exits_nonzero(self, capsys):
        rc = main([
            "serve", "--rate", "500", "--horizon", "0.02",
            "--records", "1000", "--slo", "latency:p99<1e-12",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_serve_report_json_is_deterministic(self, tmp_path, capsys):
        args = [
            "serve", "--rate", "2000", "--horizon", "0.01",
            "--records", "1000", "--policy", "shed", "--queue-cap", "8",
            "--dram-budget", "48000000",
        ]
        path_a = str(tmp_path / "a.json")
        path_b = str(tmp_path / "b.json")
        assert main(args + ["--report", path_a]) == 0
        assert main(args + ["--report", path_b]) == 0
        capsys.readouterr()
        assert open(path_a).read() == open(path_b).read()

    def test_serve_trace_replay(self, tmp_path, capsys):
        trace = tmp_path / "arrivals.jsonl"
        trace.write_text('{"t": 0.0}\n{"t": 1e-05}\n', encoding="utf-8")
        rc = main([
            "serve", "--arrivals", "trace", "--trace-file", str(trace),
            "--records", "1000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "arrived=2" in out

    @pytest.mark.parametrize("line", ['{"t": NaN}', '{"t": Infinity}',
                                      '{"t": 0.0, "deadline": NaN}'])
    def test_serve_trace_rejects_non_finite_numbers(self, line, tmp_path, capsys):
        # json.loads takes these spellings; the run used to exit 0 with
        # -inf percentiles
        trace = tmp_path / "arrivals.jsonl"
        trace.write_text('{"t": 0.0}\n' + line + "\n", encoding="utf-8")
        rc = main([
            "serve", "--arrivals", "trace", "--trace-file", str(trace),
            "--records", "1000",
        ])
        assert rc == 2
        assert_one_line(capsys, "serve", "finite")

    def test_serve_reports_one_oversized_job_as_shed(self, tmp_path, capsys):
        # exit 2 is for a run nothing could be admitted to
        trace = tmp_path / "arrivals.jsonl"
        trace.write_text(
            '{"t": 0.0, "records": 1000}\n{"t": 1e-05, "records": 90000}\n',
            encoding="utf-8",
        )
        rc = main([
            "serve", "--arrivals", "trace", "--trace-file", str(trace),
            "--dram-budget", "16000000",
        ])
        assert rc == 0
        assert "completed=1 shed=1" in capsys.readouterr().out

    def test_serve_bad_spec_exits_2(self, capsys):
        rc = main([
            "serve", "--rate", "100", "--horizon", "0.01",
            "--slo", "latency:q99<0.5",
        ])
        assert rc == 2
        assert "serve:" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_runs_the_batch_and_prints_the_job_table(self, capsys):
        rc = main([
            "cluster", "--shards", "2", "--jobs", "3", "--policy", "edf",
            "--records-per-job", "1000", "--dram-budget", "20000000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "policy : edf, 3 jobs, 1000 records/job" in out
        assert "job02  tenant0  wiscsort  shard0" in out
        assert "3 jobs, makespan" in out

    def test_batch_is_ordered_never_shed(self, capsys):
        # four ~15.8 MB jobs queue behind a one-job budget: twice what
        # backpressure would let an open-loop arrival join
        rc = main([
            "cluster", "--jobs", "4", "--policy", "backpressure",
            "--records-per-job", "2000", "--dram-budget", "16000000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wiscsort  shard3" in out and "wiscsort  -" not in out

    def test_verify_determinism_rejects_a_batch_that_never_fits(self, capsys):
        rc = main([
            "cluster", "--jobs", "2", "--verify-determinism",
            "--dram-budget", "1000",
        ])
        assert rc == 2
        assert "can never fit" in capsys.readouterr().err


#: Inputs no run can be built from -> what the one stderr line says.
BAD_INPUTS = [
    ("--dram-budget 1000", "can never fit the DRAM budget"),
    ("--shards 0", "at least one shard"),
    ("--devices pmem,nope", "unknown profile 'nope'"),
    ("--records-per-job 0", "record"),
]


#: The same contract on the commands that had no guard (each of these
#: was a traceback, or a ``shardN:`` target silently dropped): argv ->
#: what the one stderr line says.
BAD_ARGV = [
    ("sort --faults bogus", "bad fault token 'bogus'"),
    ("sort --records 2000 --faults crash@p:0.5",
     "crash events take no p: trigger"),
    ("sort --records 2000 --faults torn@t:1e-5",
     "torn events take no t: trigger"),
    ("sort --records -5", "records must be >= 0"),
    ("sort --seed -1", "seed must be >= 0"),
    ("sort --dram-budget -1", "dram_budget must be positive"),
    ("sort --key-size 0", "key_size"),
    ("sort --records 2000 --faults crash@50% --system pmsort",
     "need a checkpointing system"),
    ("sort --records 2000 --faults shard1:crash@50%",
     "fault plan targets shard1"),
    ("analyze --records -1", "records must be >= 0"),
    ("analyze --value-size -3", "value_size"),
    ("bench fig08 --scale 0", "--scale must be >= 1"),
    ("cluster --shards 4 --records-per-job 2000 --faults shard9:crash@50%",
     "fault domains are: shard0, shard1, shard2, shard3"),
    ("serve --arrivals trace --trace-file {missing}/arrivals.jsonl",
     "No such file or directory"),
    # an arrival trace only poisson/bursty would ignore (``--trace`` is
    # argparse's prefix of ``--trace-file``): both ran and exited 0
    ("serve --rate 2000 --horizon 0.005 --records 1000 "
     "--trace {missing}/t.json", "--trace-file needs --arrivals trace"),
    ("serve --rate 2000 --horizon 0.005 --records 1000 "
     "--trace-file {missing}/a.jsonl", "--trace-file needs --arrivals trace"),
    # the run completes, then its export has nowhere to go
    ("sort --records 2000 --trace {missing}/t.json",
     "No such file or directory"),
    ("analyze --records 2000 --json {missing}/a.json",
     "No such file or directory"),
    ("analyze --records 2000 --trace {missing}/t.json",
     "No such file or directory"),
    ("cluster --jobs 2 --records-per-job 1000 --trace {missing}/t.json",
     "No such file or directory"),
    ("serve --rate 2000 --horizon 0.005 --records 1000 "
     "--report {missing}/r.json", "No such file or directory"),
    # non-finite numbers: float() takes them, nothing downstream can
    # (the first two were AssertionErrors in the engine, the next two
    # ran as if no fault had been asked for, the serve rows hung)
    ("sort --records 2000 --faults crash@t:nan", "bad time in fault spec"),
    ("sort --records 2000 --faults slow@t:nan+1:x0.5",
     "bad time in fault spec"),
    ("sort --records 2000 --faults slow@t:1e-4+1:xnan",
     "bad factor in fault spec"),
    ("sort --records 2000 --faults slow@t:1e-4+nan:x0.5",
     "bad duration in fault spec"),
    # triggers that can never fire: each ran with exit 0 (crash@op:-1
    # crashed at op 0; the slow window lay wholly before t=0)
    ("sort --records 2000 --faults crash@t:-1", "time must be >= 0"),
    ("sort --records 2000 --faults crash@op:-1", "op index must be >= 0"),
    ("sort --records 2000 --faults enospc@op:5+0", "burst length must be >= 1"),
    ("sort --records 2000 --faults enospc@op:5+-2",
     "burst length must be >= 1"),
    ("sort --records 2000 --faults slow@t:-5+1:x0.5", "time must be >= 0"),
    ("serve --rate nan", "arrival rate must be a finite number"),
    ("serve --rate inf", "arrival rate must be a finite number"),
    ("serve --arrivals bursty --rate nan",
     "base arrival rate must be a finite number"),
    ("serve --horizon nan", "horizon must be a finite number"),
    ("serve --horizon inf", "horizon must be a finite number"),
    ("serve --rate 2000 --horizon 0.005 --records 1000 --deadline nan",
     "deadline must be a finite number"),
    # thresholds that break the gate (checked before the files load): nan
    # and inf passed a +400 % row, -1 flagged a 5 -> 1 drop as a REGRESSION
    ("trace-diff {missing}/a.json {missing}/b.json --threshold nan",
     "--threshold must be a finite number >= 0"),
    ("trace-diff {missing}/a.json {missing}/b.json --threshold inf",
     "--threshold must be a finite number >= 0"),
    ("trace-diff {missing}/a.json {missing}/b.json --threshold -1",
     "--threshold must be a finite number >= 0"),
    # each ran and exited 0: --tenants 0 put every job on tenant0, the
    # negative queue cap shed every arrival, and --blame-rows -1 dropped
    # the last contributor of every phase
    ("cluster --jobs 2 --records-per-job 1000 --tenants 0",
     "need at least one tenant"),
    ("serve --rate 2000 --horizon 0.005 --records 1000 --tenants 0",
     "need at least one tenant"),
    ("serve --rate 2000 --horizon 0.005 --records 1000 --policy shed "
     "--queue-cap -1", "queue_cap must be >= 0"),
    ("analyze --records 2000 --blame-rows -1", "--blame-rows must be >= 0"),
]

#: Malformed trace documents -> what the one ``trace-report:`` line says
#: (each was a TypeError / KeyError traceback).
BAD_TRACES = [
    (5, "no traceEvents list"),
    ({"traceEvents": 5}, "no traceEvents list"),
    ({"traceEvents": [{"ph": "i", "ts": 0}, 5]}, "event #1 is 5"),
    ({"traceEvents": [{"ph": "i", "ts": 0}, {"ph": "X", "ts": 0, "dur": 1}]},
     "event #1 name is None"),
    ({"traceEvents": [{"ph": "i", "ts": 0},
                      {"ph": "C", "pid": 0, "name": "bw", "ts": 0, "args": {}}]},
     "event #1 args.value is None"),
    ({"traceEvents": [{"ph": "i", "ts": 0}, {"ph": "i", "ts": "5"}]},
     "event #1 ts is '5'"),
]


class TestBadInputNeverTracebacks:
    @pytest.mark.parametrize("command", ["cluster", "serve"])
    @pytest.mark.parametrize("flags,message", BAD_INPUTS)
    def test_exits_2_with_one_line(self, command, flags, message, capsys):
        if command == "cluster":
            argv = ["cluster", "--jobs", "2"] + flags.split()
        else:  # a rate that offers jobs inside the horizon
            argv = ["serve", "--rate", "2000", "--horizon", "0.005"] + \
                flags.replace("--records-per-job", "--records").split()
        rc = main(argv)
        assert rc == 2
        assert_one_line(capsys, command, message)

    @pytest.mark.parametrize("argv,message", BAD_ARGV)
    def test_every_command_exits_2_with_one_line(
        self, argv, message, tmp_path, capsys
    ):
        argv = argv.replace("{missing}", str(tmp_path / "missing")).split()
        assert main(argv) == 2
        assert_one_line(capsys, argv[0], message)

    @pytest.mark.parametrize(
        "doc,message", BAD_TRACES,
        ids=["top-level-int", "events-int", "event-int", "span-no-name",
             "counter-no-value", "ts-str"],
    )
    def test_malformed_trace_exits_2_with_one_line(
        self, doc, message, tmp_path, capsys
    ):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        assert main(["trace-report", str(path)]) == 2
        assert_one_line(capsys, "trace-report", message)

    def test_a_bug_still_tracebacks(self, monkeypatch):
        # the guard names what bad input raises; it is not `except Exception`
        from repro import cli

        def boom(_options):
            raise KeyError("a genuine bug")

        monkeypatch.setattr(cli.api, "sort", boom)
        with pytest.raises(KeyError):
            main(["sort", "--records", "1000"])


class TestAnalyzeCommand:
    def test_analyze_prints_decomposition_and_blame(self, capsys):
        rc = main([
            "analyze", "--records", "5000", "--dram-budget", "30000",
            "--no-validate",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "critical-path decomposition" in out
        assert "device_busy" in out and "dram_stall" in out
        assert "blame" in out
        assert "phase:run-generation" in out
        assert "phase:final-merge" in out

    def test_analyze_what_if_projection(self, capsys):
        rc = main([
            "analyze", "--records", "5000", "--no-validate",
            "--what-if", "write_bw*2", "--what-if", "dram+4GiB",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "what-if write_bw*2" in out
        assert "what-if dram+4GiB" in out
        assert "speedup" in out

    def test_analyze_bad_what_if_exits_2(self, capsys):
        rc = main([
            "analyze", "--records", "1000", "--what-if", "bogus*2",
        ])
        assert rc == 2
        assert "what-if" in capsys.readouterr().err

    def test_analyze_json_report_is_byte_deterministic(self, tmp_path,
                                                       capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc = main([
                "analyze", "--records", "2000", "--no-validate",
                "--json", str(path),
            ])
            assert rc == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1]
        doc = json.loads(blobs[0])
        assert doc["schema"] == 1 and doc["kind"] == "analysis"


class TestTraceDiffCommand:
    def _report(self, tmp_path, name, records="2000"):
        path = tmp_path / name
        rc = main([
            "analyze", "--records", records, "--no-validate",
            "--json", str(path),
        ])
        assert rc == 0
        return path

    def test_self_diff_is_clean_exit_0(self, tmp_path, capsys):
        a = self._report(tmp_path, "a.json")
        capsys.readouterr()
        rc = main(["trace-diff", str(a), str(a)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 regression(s)" in out

    def test_regression_exits_1(self, tmp_path, capsys):
        a = self._report(tmp_path, "a.json")
        doc = json.loads(a.read_text())
        doc["phases"][0]["duration"] *= 2.0
        b = tmp_path / "b.json"
        b.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["trace-diff", str(a), str(b)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSION" in out

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        a = self._report(tmp_path, "a.json")
        b = tmp_path / "service.json"
        b.write_text(json.dumps({"schema": 1, "makespan": 1.0, "percentiles": {}}))
        capsys.readouterr()
        rc = main(["trace-diff", str(a), str(b)])
        assert rc == 2
        assert "kinds differ" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main([
            "trace-diff", str(tmp_path / "no.json"), str(tmp_path / "no.json"),
        ])
        assert rc == 2


class TestServeBurnMonitor:
    def test_burn_window_reports_monitor(self, capsys):
        rc = main([
            "serve", "--records", "2000", "--rate", "500", "--horizon",
            "0.01", "--slo", "latency:p99<1e-9", "--burn-window", "0.01",
            "--burn-alert", "1.0",
        ])
        out = capsys.readouterr().out
        assert rc == 1  # the impossible SLO fails the run
        assert "burn monitor" in out
        assert "ALERT" in out

    def test_burn_window_requires_slo(self, capsys):
        rc = main([
            "serve", "--records", "2000", "--horizon", "0.01",
            "--burn-window", "0.01",
        ])
        assert rc == 2
        assert "--slo" in capsys.readouterr().err
