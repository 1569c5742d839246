"""Structural guards: one mechanism per job, and the deleted ones stay gone.

Each row of ``LINE_GUARDS`` is a regular expression, the files it scans
(globs relative to the repo root; a directory is walked whole) and the
number of matching lines it may have.  Most allow none: a name that
belongs to a deleted mechanism, or an observer attribute in the kernel.
A count of 1 pins a mechanism's single call site.  Patterns that scan
``tests`` bracket one letter (``[G]``) so they never match this file.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (guard, pattern, paths scanned, paths excluded, matching lines allowed)
LINE_GUARDS = [
    # Every hook site loops over a probe-bus tuple (repro.sim.probe); an
    # observer attribute creeping back into the kernel or the storage
    # layer is a regression of that contract.
    ("kernel and storage name no observer",
     r"\.(sanitizer|tracer|race|audit|schedule_fuzz|on_change|on_pressure)\b",
     ["src/repro/sim/engine.py", "src/repro/sim/fluid.py",
      "src/repro/sim/primitives.py", "src/repro/storage/*.py"], [], 0),
    # The cursor protocol lives once, in core/kway.py::drive_merge.  The
    # full-scan pair is its test oracle and must not regain a production
    # caller; only cursor classes may ask needs_refill.
    ("one merge driver: full-scan oracle",
     r"\b(merge_step|redistribute_on_drain)\b",
     ["src/repro/**/*.py"], ["src/repro/core/kway.py"], 0),
    ("one merge driver: needs_refill", r"needs_refill",
     ["src/repro/**/*.py"],
     ["src/repro/core/kway.py", "src/repro/core/compression.py",
      "src/repro/core/natural_runs.py"], 0),
    # The batch JobScheduler became a finite arrival trace on
    # SortService, not a second loop beside it: one policy call site, one
    # place jobs get a sorter, no scheduler module.
    ("one admission loop: policy call", r"_policy\.pick\(",
     ["src/repro/cluster/service.py"], [], 1),
    ("one admission loop: sorter", r"create_system\(",
     ["src/repro/cluster/service.py"], [], 1),
    ("one admission loop: no JobScheduler", r"JobScheduler",
     ["src", "examples", "README.md"], [], 0),
    # The set+heap scalar kernel was replaced by slot lists, not kept
    # beside them; nor may the numpy column storage, its threshold knob
    # or its counters come back (DESIGN.md has the measurements).
    ("one fluid kernel: no event heap", r"heapq|_heap_ver|_scalar_live",
     ["src/repro/sim/fluid.py"], [], 0),
    ("one column storage: no numpy columns",
     r"_Vector[G]roup|REPRO_SIM_VECTOR_MIN[_]GROUP|vector_min[_]group"
     r"|array_(pro|de)motions",
     ["src", "tests", ".github", "README.md", "DESIGN.md"], [], 0),
    ("one column storage: no numpy in the kernel", r"numpy",
     ["src/repro/sim/*.py"], [], 0),
    # Every run is assembled in repro.api; the CLI parses, builds one
    # RunOptions, calls api.sort / api.serve and prints.  Flags are
    # declared once, and crash recovery has one loop.
    ("one front door: CLI builds no run",
     r"ShardedWiscSort|install_faults|run_cluster_with_faults"
     r"|run_with_faults|Cluster\(",
     ["src/repro/cli.py"], [], 0),
    ("one front door: RunOptions", r"RunOptions\(", ["src/repro/cli.py"], [], 1),
    ("one front door: add_argument", r"add_argument\(",
     ["src/repro/cli.py"], [], 1),
    ("one front door: recovery loop", r"def _recover_loop",
     ["src/repro/faults/harness.py"], [], 1),
    ("one front door: no cluster recovery loop", r"_cluster_recover_loop",
     ["src/repro/faults/harness.py"], [], 0),
    # A fresh run is a recovery from empty manifests: run() and recover()
    # meet in one _run, so the engine is entered, the reserved offsets
    # computed and the scatter spawned in one place each.  Spare-first
    # re-sort and the three speculation knobs no caller set were deleted
    # on measured traffic (DESIGN.md) and must not come back.
    ("one sharded driver: engine entry", r"cluster\.run\(",
     ["src/repro/cluster/sharded.py"], [], 1),
    ("one sharded driver: reserved offsets", r"np\.cumsum\(",
     ["src/repro/cluster/sharded.py"], [], 1),
    ("one sharded driver: scatter", r"_shuffle_source\(",
     ["src/repro/cluster/sharded.py"], [], 2),
    ("one sharded driver: deleted paths",
     r"_recover_drive|_recover_partition|RECOVER|spec_interval|spec_factor"
     r"|self\.speculate",
     ["src/repro/cluster/sharded.py"], [], 0),
    # Every counter of a run is a key of repro.perf's flat dict.  The
    # typed registry, its bridges and the windowed rollups had writers
    # and no reader (DESIGN.md); trace/metrics.py keeps the service
    # report's Histogram only.
    ("one counter surface: Histogram only", r"^class ",
     ["src/repro/trace/metrics.py"], [], 1),
    ("one counter surface: deleted registry",
     r"MetricsRegistry|snapshot_(machine|cluster)|tracer_histograms"
     r"|WindowedSeries|counter_windows|set_total",
     ["src", "examples", "README.md", "DESIGN.md"], [], 0),
    # The paper's OnePass / MergePass fingerprints are tier-1 golden
    # cases (tests/integration/test_merge_fingerprints.py); the script
    # that froze them beside tier-1 must not come back.
    ("one frozen-result gate", r"(bench|BENCH)_self[p]erf",
     ["src", "tests", "examples", ".github", "README.md", "DESIGN.md"], [], 0),
    # Counter tracks read the rows DeviceStats / InterconnectStats append
    # each settle epoch: a scan of every active op per epoch or per issue
    # must not come back (DESIGN.md).
    ("tracer reads the device statistics", r"fluid\.active",
     ["src/repro/trace/tracer.py"], [], 0),
    # The fluid kernel's per-group rate tables are the one rate memo.
    # The rate model's LRU, its on/off knob and the never-enabled op
    # coalescing were deleted on measured traffic (DESIGN.md "Fluid
    # core") and must not come back.  The CLI transcripts keep one case
    # pinning that the old flag is now rejected.
    ("one rate memo",
     r"memoize_rate[s]|no-memoiz[e]|batch_op[s]|_coalesce_paralle[l]"
     r"|cache_hit[s]|cache_misse[s]",
     ["src", "tests", "examples", "README.md", "DESIGN.md"],
     ["tests/integration/cli_transcripts.json"], 0),
    # A paper claim is a row of repro.bench.claims.CLAIMS reading typed
    # BenchTable cells; parsing a rendered cell back into a number must
    # not come back.
    ("one claims table", r'parse_m[s]|parse_speedu[p]|rstrip\("[x%]"\)',
     ["benchmarks", "tests", "src/repro/bench"], [], 0),
    # Every run-then-merge sort is core/recovery.py's skeleton plus a run
    # loader and a sink: the key-pointer cursor fleet is WiscSort's
    # IndexMapMergeSort._run_cursor (shared by PMSort, PMSort+ and KLV),
    # the record one EMS's _merge_to, and the skeleton deletes the runs.
    ("one run-merge skeleton: cursor fleets", r"\bRunCursor\(",
     ["src/repro/**/*.py"], ["src/repro/core/kway.py"], 2),
    ("one run-merge skeleton: run cleanup", r"fs\.delete\(",
     ["src/repro/baselines/*.py", "src/repro/core/klv_sort.py",
      "src/repro/core/wiscsort.py"], [], 0),
    # Mechanisms no system, CLI flag, ledger leg or claim reached were
    # deleted with their tests (ROADMAP item 4's reach census): the
    # semaphore is the one sync primitive, a cluster's shard list is
    # fixed at construction, the tracer has no scheduling-event mode and
    # FluidOp has one accessor per value.
    ("one sync primitive", r"\b(Barrier|SimQueue)\b",
     ["src", "examples", "README.md"], [], 0),
    ("no elastic scale-out", r"\b(add_shard|watch_shard)\b",
     ["src", "examples", "README.md"], [], 0),
    ("no late-materialisation package", r"repro\.query",
     ["src", "examples", "README.md"], [], 0),
    ("one accessor per value", r"\bremaining_work\b|\.op_id\b",
     ["src", "examples", "README.md"], [], 0),
    # Three names stay only because benchmarks/ledger/trace.py wraps
    # them by name: each may keep its definition and gain no caller.
    ("ledger-held leftovers have no caller",
     r"\b(sched_event|on_rerate|pop_completed)\b",
     ["src", "examples", "README.md"], [], 3),
]

#: Files whose job moved elsewhere (globs, bracketed as above).
DELETED_FILES = [
    "src/repro/cluster/scheduler.py",
    "benchmarks/bench_self[p]erf.py",
    "BENCH_self[p]erf.json",
    "benchmarks/bench_fi[g]*.py",
    "benchmarks/bench_tab01_complianc[e].py",
    "benchmarks/bench_ablation[s].py",
    "benchmarks/conftes[t].py",
    "src/repro/core/multipas[s].py",
    "src/repro/quer[y]/*.py",
    "examples/late_materializatio[n].py",
    "tests/quer[y]/*.py",
]


def _scanned(paths, excluded):
    skip = {ROOT / p for p in excluded}
    for pattern in paths:
        for path in sorted(ROOT.glob(pattern)):
            files = sorted(path.rglob("*")) if path.is_dir() else [path]
            for f in files:
                if f.is_file() and f not in skip and "__pycache__" not in f.parts:
                    yield f


@pytest.mark.parametrize(
    "guard,pattern,paths,excluded,allowed", LINE_GUARDS,
    ids=[g[0] for g in LINE_GUARDS],
)
def test_line_guard(guard, pattern, paths, excluded, allowed):
    regex = re.compile(pattern)
    hits = [
        f"{f.relative_to(ROOT)}:{n}: {line.strip()}"
        for f in _scanned(paths, excluded)
        for n, line in enumerate(
            f.read_text(encoding="utf-8", errors="replace").splitlines(), 1)
        if regex.search(line)
    ]
    assert len(hits) == allowed, "\n".join([f"{guard}:"] + hits)


@pytest.mark.parametrize("pattern", DELETED_FILES)
def test_deleted_file_stays_gone(pattern):
    assert not list(ROOT.glob(pattern))
