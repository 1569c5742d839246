"""Reproductions of every table and figure in the paper's evaluation.

Scale note: record counts are the paper's divided by ``scale`` (default
1000; e.g. Fig 7's 400M records run as 400k).  Table cells hold
*simulated* seconds and ratios; ``repro.bench.claims.CLAIMS`` says which ratios
hold at which scale.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import ConcurrencyModel, SortConfig, SortResult
from repro.core.wiscsort import WiscSort
from repro.device.profile import DeviceProfile
from repro.device.profiles import (
    bard_device_profile,
    bd_device_profile,
    brd_device_profile,
    dram_profile,
    pmem_profile,
)
from repro.machine import Machine
from repro.metrics.efficiency import io_efficiency_rows
from repro.metrics.report import TIMES, BenchTable, ms
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.registry import get_system, register_experiment
from repro.units import GiB, MiB
from repro.workloads.background import BackgroundClients
from repro.workloads.datasets import DEFAULT_SCALE, sortbenchmark_records_for_gb

#: The sortbenchmark record geometry used throughout the evaluation.
SORTBENCH_FMT = RecordFormat(key_size=10, value_size=90, pointer_size=5)


def _run_system(
    system,
    profile: DeviceProfile,
    n_records: int,
    fmt: RecordFormat = SORTBENCH_FMT,
    dram_budget: Optional[int] = None,
    seed: int = 42,
    background: Optional[Tuple[str, int]] = None,
    validate: bool = True,
) -> SortResult:
    """One sorting run on a fresh machine (optionally with bg clients)."""
    machine = Machine(profile=profile, dram_budget=dram_budget)
    input_file = generate_dataset(machine, "input", n_records, fmt, seed=seed)
    if background is not None:
        kind, clients = background
        if clients > 0:
            BackgroundClients(machine, clients, kind).start()
    result = system.run(machine, input_file, validate=validate)
    result.extras["machine"] = machine  # for resource-usage reporting
    return result


# ----------------------------------------------------------------------
# Figure 1 -- motivation: sorting approaches on PMEM (20 GB / 200M recs)
# ----------------------------------------------------------------------
@register_experiment("fig01")
def fig01_motivation(scale: int = DEFAULT_SCALE) -> BenchTable:
    """In-place sample sort vs external merge sort vs WiscSort on PMEM."""
    n = 200_000_000 // scale
    pmem = pmem_profile()
    dram = dram_profile(capacity=8 * GiB)
    results = {
        "in-place sample sort (PMEM)": _run_system(get_system("sample-sort")(SORTBENCH_FMT), pmem, n),
        "external merge sort": _run_system(get_system("ems")(SORTBENCH_FMT), pmem, n),
        "wiscsort": _run_system(get_system("wiscsort")(SORTBENCH_FMT), pmem, n),
        "in-place sample sort (DRAM)": _run_system(get_system("sample-sort")(SORTBENCH_FMT), dram, n),
    }
    table = BenchTable(
        title=f"Fig 1: sorting approaches on PMEM ({n} records, 10B/90B)",
        headers=["system", "time (ms, simulated)", "speedup vs sample sort"],
        formats={"time (ms, simulated)": ms, "speedup vs sample sort": TIMES},
    )
    base = results["in-place sample sort (PMEM)"].total_time
    for name, result in results.items():
        table.add_row(name, result.total_time, base / result.total_time)
    table.add_note("paper: EMS ~2x faster than in-place sample sort; WiscSort fastest")
    table.add_note("paper: in-place on DRAM ~10x faster than in-place on PMEM")
    return table


# ----------------------------------------------------------------------
# Table 1 -- BRAID-model compliance matrix
# ----------------------------------------------------------------------
#: (system, B, R, A, I, D) exactly as printed in the paper's Table 1.
COMPLIANCE_MATRIX: List[Tuple[str, bool, bool, bool, bool, bool]] = [
    ("external merge sort (naive)", False, False, False, False, False),
    ("in-place sample sort", True, True, False, False, False),
    ("external merge sort", False, False, False, True, True),
    ("modified-key sort", False, False, True, False, False),
    ("pmsort", True, False, True, False, False),
    ("wiscsort", True, True, True, True, True),
]


_BRAID = ["B", "R", "A", "I", "D"]


@register_experiment("tab01")
def tab01_compliance(scale: int = DEFAULT_SCALE) -> BenchTable:
    """The BRAID compliance matrix (Table 1): the paper's constant, so
    ``scale`` is accepted only to give every experiment one signature."""
    table = BenchTable(
        title="Table 1: sorting systems' compliance with the BRAID model",
        headers=["system", *_BRAID],
        formats=dict.fromkeys(_BRAID, lambda flag: "yes" if flag else "-"),
    )
    for row in COMPLIANCE_MATRIX:
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# Figure 4 -- sortbenchmark scaling (40..200 GB)
# ----------------------------------------------------------------------
#: Phase tags in Fig 4's legend order.
FIG4_PHASES = [
    "RUN read", "RUN sort", "RUN other", "RUN write",
    "MERGE read", "MERGE other", "RECORD read", "MERGE write",
]


@register_experiment("fig04")
def fig04_sortbenchmark(
    scale: int = DEFAULT_SCALE,
    paper_gbs: Tuple[float, ...] = (40, 80, 120, 160, 200),
) -> BenchTable:
    """EMS vs WiscSort across input sizes, with phase breakdowns.

    DRAM is capped at the scaled equivalent of the paper's 20 GB, so
    IndexMaps of inputs beyond ~140 GB no longer fit and WiscSort
    switches to MergePass -- the same knee as the paper's setup.
    """
    pmem = pmem_profile()
    dram_budget = int(20 * 1e9) // scale
    table = BenchTable(
        title="Fig 4: sortbenchmark, EMS vs WiscSort (times in simulated ms)",
        headers=["paper GB", "system", "pass", "total"] + FIG4_PHASES + ["speedup"],
        formats={**dict.fromkeys(["total"] + FIG4_PHASES, ms), "speedup": TIMES},
    )
    for gb in paper_gbs:
        n = sortbenchmark_records_for_gb(gb, scale)
        ems = _run_system(
            get_system("ems")(SORTBENCH_FMT), pmem, n, dram_budget=dram_budget
        )
        wisc_system = get_system("wiscsort")(SORTBENCH_FMT)
        wisc = _run_system(wisc_system, pmem, n, dram_budget=dram_budget)
        for label, result, passname, speed in (
            ("ems", ems, "run+merge", ""),
            (
                "wiscsort",
                wisc,
                "merge" if wisc_system.used_merge_pass else "one",
                ems.total_time / wisc.total_time,
            ),
        ):
            table.add_row(
                gb,
                label,
                passname,
                result.total_time,
                *[result.phase(p) for p in FIG4_PHASES],
                speed,
            )
    table.add_note("paper: OnePass ~3x and MergePass ~2x faster than EMS")
    return table


# ----------------------------------------------------------------------
# Figures 5 & 6 -- resource usage / bandwidth / I/O efficiency
# ----------------------------------------------------------------------
def _resource_table(title: str, results: Dict[str, SortResult]) -> BenchTable:
    from repro.metrics.timeline import render_timeline

    table = BenchTable(
        title=title,
        headers=[
            "system", "tag", "busy ms", "internal MB",
            "peak-class eff.", "mean cores",
        ],
        formats={
            "busy ms": ms,
            "internal MB": lambda nbytes: f"{nbytes / 1e6:.1f}",
            "peak-class eff.": lambda eff: f"{eff * 100:.0f}%",
            "mean cores": "{:.1f}",
        },
    )
    for name, result in results.items():
        machine = result.extras["machine"]
        for tag, _gb, _ideal, eff in io_efficiency_rows(machine):
            stats = machine.stats.tags[tag]
            table.add_row(
                name,
                tag,
                stats.busy_time,
                stats.internal_bytes,
                eff,
                machine.stats.mean_cores(),
            )
    for name, result in results.items():
        machine = result.extras["machine"]
        table.add_note(f"timeline [{name}]:")
        for line in render_timeline(machine).splitlines():
            table.add_note("  " + line)
    return table


@register_experiment("fig05")
def fig05_resources_onepass(scale: int = DEFAULT_SCALE) -> BenchTable:
    """EMS vs WiscSort OnePass resource usage for a 40 GB sort."""
    n = sortbenchmark_records_for_gb(40, scale)
    pmem = pmem_profile()
    results = {
        "ems": _run_system(get_system("ems")(SORTBENCH_FMT), pmem, n),
        "wiscsort-onepass": _run_system(get_system("wiscsort")(SORTBENCH_FMT), pmem, n),
    }
    table = _resource_table(
        "Fig 5: resource usage, EMS vs OnePass (40 GB scaled)", results
    )
    table.add_note("paper: every I/O op runs near its access-class peak bandwidth")
    table.add_note(
        f"totals: ems={ms(results['ems'].total_time)}ms, "
        f"onepass={ms(results['wiscsort-onepass'].total_time)}ms"
    )
    return table


@register_experiment("fig06")
def fig06_resources_mergepass(scale: int = DEFAULT_SCALE) -> BenchTable:
    """EMS vs WiscSort MergePass resource usage for a 160 GB sort."""
    n = sortbenchmark_records_for_gb(160, scale)
    pmem = pmem_profile()
    dram_budget = int(20 * 1e9) // scale
    config = SortConfig(read_buffer=12 * MiB, write_buffer=5 * MiB)
    results = {
        "ems": _run_system(
            get_system("ems")(SORTBENCH_FMT), pmem, n, dram_budget=dram_budget
        ),
        "wiscsort-mergepass": _run_system(
            get_system("wiscsort")(SORTBENCH_FMT, config=config),
            pmem, n, dram_budget=dram_budget,
        ),
    }
    table = _resource_table(
        "Fig 6: resource usage, EMS vs MergePass (160 GB scaled)", results
    )
    ems_mr = results["ems"].phase("MERGE read")
    wisc_mr = results["wiscsort-mergepass"].phase("MERGE read")
    if wisc_mr > 0:
        table.add_note(
            f"MERGE read: ems/{'wiscsort'}={ems_mr / wisc_mr:.1f}x "
            "(paper: ~7x smaller for MergePass)"
        )
    return table


# ----------------------------------------------------------------------
# Figure 7 -- concurrency & interference optimisations (400M records)
# ----------------------------------------------------------------------
@register_experiment("fig07")
def fig07_concurrency(scale: int = DEFAULT_SCALE) -> BenchTable:
    """All systems under all concurrency models (Fig 7)."""
    n = 400_000_000 // scale
    pmem = pmem_profile()
    dram_budget = int(20 * 1e9) // scale  # forces WiscSort MergePass variants
    chunk = max(1, n // 4)

    def ws(model: ConcurrencyModel, merge: bool) -> WiscSort:
        return get_system("wiscsort")(
            SORTBENCH_FMT,
            config=SortConfig(concurrency=model),
            force_merge_pass=merge,
            merge_chunk_entries=chunk if merge else None,
        )

    systems = [
        ("ems no-sync", get_system("ems")(
            SORTBENCH_FMT, config=SortConfig(concurrency=ConcurrencyModel.NO_SYNC))),
        ("ems no-io-overlap", get_system("ems")(SORTBENCH_FMT)),
        ("pmsort single-thread", get_system("pmsort")(SORTBENCH_FMT)),
        ("pmsort+ no-sync", get_system("pmsort+")(
            SORTBENCH_FMT, config=SortConfig(concurrency=ConcurrencyModel.NO_SYNC))),
        ("pmsort+ io-overlap", get_system("pmsort+")(
            SORTBENCH_FMT, config=SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP))),
        ("wiscsort-mp no-sync", ws(ConcurrencyModel.NO_SYNC, True)),
        ("wiscsort-mp io-overlap", ws(ConcurrencyModel.IO_OVERLAP, True)),
        ("wiscsort-mp no-io-overlap", ws(ConcurrencyModel.NO_IO_OVERLAP, True)),
        ("wiscsort onepass", ws(ConcurrencyModel.NO_IO_OVERLAP, False)),
    ]
    table = BenchTable(
        title=f"Fig 7: concurrency models ({n} records of 100B)",
        headers=["system", "time (ms)", "vs pmsort single"],
        formats={"time (ms)": ms, "vs pmsort single": TIMES},
    )
    results: Dict[str, SortResult] = {}
    for name, system in systems:
        results[name] = _run_system(system, pmem, n, dram_budget=dram_budget)
    base = results["pmsort single-thread"].total_time
    for name in results:
        t = results[name].total_time
        table.add_row(name, t, base / t)
    table.add_note("paper: no-io-overlap best in every family; OnePass ~7x and "
                   "MergePass ~4x faster than single-threaded PMSort")
    return table


# ----------------------------------------------------------------------
# Figure 8 -- key-value splitting benefit vs value size (400M records)
# ----------------------------------------------------------------------
@register_experiment("fig08")
def fig08_kv_split(
    scale: int = DEFAULT_SCALE,
    value_sizes: Tuple[int, ...] = (10, 50, 90, 256, 502),
) -> BenchTable:
    """EMS vs OnePass vs MergePass across V:K ratios."""
    n = 400_000_000 // scale
    pmem = pmem_profile()
    table = BenchTable(
        title=f"Fig 8: key-value split benefit ({n} records, 10B key, varying V)",
        headers=["value B", "ems ms", "onepass ms", "mergepass ms",
                 "onepass speedup", "mergepass speedup"],
        formats={
            **dict.fromkeys(["ems ms", "onepass ms", "mergepass ms"], ms),
            **dict.fromkeys(["onepass speedup", "mergepass speedup"], TIMES),
        },
    )
    for v in value_sizes:
        fmt = RecordFormat(key_size=10, value_size=v, pointer_size=5)
        ems = _run_system(get_system("ems")(fmt), pmem, n, fmt=fmt)
        one = _run_system(get_system("wiscsort")(fmt), pmem, n, fmt=fmt)
        merge = _run_system(
            get_system("wiscsort")(fmt, force_merge_pass=True, merge_chunk_entries=max(1, n // 4)),
            pmem, n, fmt=fmt,
        )
        table.add_row(
            v,
            ems.total_time,
            one.total_time,
            merge.total_time,
            ems.total_time / one.total_time,
            ems.total_time / merge.total_time,
        )
    table.add_note("paper: OnePass wins at every V:K; MergePass wins iff V:K > 1")
    return table


# ----------------------------------------------------------------------
# Figure 9 -- IndexMap load: strided vs sequential (400M records)
# ----------------------------------------------------------------------
@register_experiment("fig09")
def fig09_strided_vs_seq(
    scale: int = DEFAULT_SCALE,
    value_sizes: Tuple[int, ...] = (10, 50, 90, 256, 502),
) -> BenchTable:
    """Time to build the IndexMap: strided key gather vs sequential load.

    The "sequential" competitor models PMSort's approach: stream whole
    records into DRAM, then gather keys+pointers in memory.
    """
    n = 400_000_000 // scale
    pmem = pmem_profile()
    table = BenchTable(
        title=f"Fig 9: IndexMap load, strided vs sequential ({n} records)",
        headers=["value B", "strided ms", "sequential ms", "strided speedup"],
        formats={"strided ms": ms, "sequential ms": ms, "strided speedup": TIMES},
    )
    for v in value_sizes:
        fmt = RecordFormat(key_size=10, value_size=v, pointer_size=5)

        def timed(job_builder) -> float:
            machine = Machine(profile=pmem)
            f = generate_dataset(machine, "input", n, fmt, seed=13)
            machine.run(job_builder(machine, f))
            return machine.now

        def strided_job(machine, f):
            def job():
                yield f.read_strided(
                    0, n, fmt.record_size, fmt.key_size,
                    tag="strided load", threads=32,
                )
            return job()

        def sequential_job(machine, f):
            def job():
                yield f.read(0, f.size, tag="sequential load", threads=16)
                # In-DRAM gather of keys+pointers from the record buffer.
                yield machine.copy(n * fmt.key_size, tag="gather", cores=16)
            return job()

        t_strided = timed(strided_job)
        t_seq = timed(sequential_job)
        table.add_row(v, t_strided, t_seq, t_seq / t_strided)
    table.add_note("paper: strided gather wins at every V:K, up to ~3x at V=502")
    return table


# ----------------------------------------------------------------------
# Figure 10 -- background I/O interference (400M records)
# ----------------------------------------------------------------------
@register_experiment("fig10")
def fig10_interference(
    scale: int = DEFAULT_SCALE,
    client_counts: Tuple[int, ...] = (0, 1, 2, 4, 8),
) -> BenchTable:
    """Slowdown of WiscSort/EMS under background 4KiB readers/writers."""
    n = 400_000_000 // scale
    pmem = pmem_profile()
    table = BenchTable(
        title=f"Fig 10: background interference ({n} records of 100B)",
        headers=["kind", "clients", "wiscsort ms", "wiscsort slowdown",
                 "ems ms", "ems slowdown"],
        formats={"wiscsort ms": ms, "wiscsort slowdown": TIMES,
                 "ems ms": ms, "ems slowdown": TIMES},
    )
    baselines: Dict[str, float] = {}
    for kind in ("read", "write"):
        for clients in client_counts:
            wisc = _run_system(
                get_system("wiscsort")(SORTBENCH_FMT), pmem, n, background=(kind, clients)
            )
            ems = _run_system(
                get_system("ems")(SORTBENCH_FMT), pmem, n, background=(kind, clients)
            )
            if clients == 0:
                baselines[f"wisc-{kind}"] = wisc.total_time
                baselines[f"ems-{kind}"] = ems.total_time
            table.add_row(
                kind,
                clients,
                wisc.total_time,
                wisc.total_time / baselines[f"wisc-{kind}"],
                ems.total_time,
                ems.total_time / baselines[f"ems-{kind}"],
            )
    table.add_note("paper: background writers hurt far more than readers; "
                   "WiscSort stays ~2x faster than EMS throughout")
    return table


# ----------------------------------------------------------------------
# Figure 11 -- emulated future BRAID devices (100M records)
# ----------------------------------------------------------------------
FIG11_DEVICES: Dict[str, Callable[[], DeviceProfile]] = {
    "bd-device": bd_device_profile,
    "brd-device": brd_device_profile,
    "bard-device": bard_device_profile,
}


@register_experiment("fig11")
def fig11_future_devices(
    scale: int = DEFAULT_SCALE,
    devices: Tuple[str, ...] = ("bd-device", "brd-device", "bard-device"),
) -> BenchTable:
    """Sorting strategy comparison on the Sec 4.5 emulated devices."""
    n = 100_000_000 // scale
    table = BenchTable(
        title=f"Fig 11: future BRAID devices ({n} records of 100B)",
        headers=["device", "system", "time (ms)"],
        formats={"time (ms)": ms},
    )
    for device_name in devices:
        profile = FIG11_DEVICES[device_name]()
        chunk = max(1, n // 4)
        systems = [
            ("sample sort", get_system("sample-sort")(SORTBENCH_FMT)),
            ("ems", get_system("ems")(SORTBENCH_FMT)),
            ("wiscsort onepass", get_system("wiscsort")(SORTBENCH_FMT)),
            ("wiscsort mergepass", get_system("wiscsort")(
                SORTBENCH_FMT, force_merge_pass=True, merge_chunk_entries=chunk)),
            ("wiscsort mergepass io-overlap", get_system("wiscsort")(
                SORTBENCH_FMT,
                config=SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP),
                force_merge_pass=True, merge_chunk_entries=chunk)),
        ]
        for sys_name, system in systems:
            result = _run_system(system, profile, n)
            table.add_row(device_name, sys_name, result.total_time)
    table.add_note("paper 11a (BD): EMS best, WiscSort pays for random reads")
    table.add_note("paper 11b (BRD): OnePass best; sample sort beats EMS & MergePass")
    table.add_note("paper 11c (BARD): writes dominate; OnePass lowest, EMS ~2x WiscSort")
    return table
