"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each isolates one WiscSort design
decision and sweeps it, validating the claim the paper makes in passing.
"""

from __future__ import annotations

from typing import Tuple

from repro.bench.experiments import SORTBENCH_FMT, _run_system
from repro.core.base import SortConfig
from repro.core.compression import CompressionModel, estimate_benefit
from repro.device.host import HostModel
from repro.device.profiles import pmem_profile
from repro.machine import Machine
from repro.metrics.report import TIMES, BenchTable, ms
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.registry import get_system, register_experiment
from repro.units import KiB, MiB
from repro.workloads.datasets import DEFAULT_SCALE


@register_experiment("ablation-write-pool")
def ablation_write_pool(
    scale: int = DEFAULT_SCALE,
    pool_sizes: Tuple[int, ...] = (1, 2, 5, 8, 16, 32),
) -> BenchTable:
    """Sweep the write pool size: the thread-pool controller's raison
    d'etre.  PMEM writes peak around 5 threads (Sec 3.8) -- both too few
    and too many threads should lose."""
    n = 200_000_000 // scale
    pmem = pmem_profile()
    table = BenchTable(
        title=f"Ablation: write-pool size, WiscSort OnePass ({n} records)",
        headers=["write threads", "time (ms)"],
        formats={"time (ms)": ms},
    )
    for threads in pool_sizes:
        config = SortConfig(write_threads=threads)
        result = _run_system(get_system("wiscsort")(SORTBENCH_FMT, config=config), pmem, n)
        table.add_row(threads, result.total_time)
    table.add_note("controller default picks ~5 threads; ends of the sweep lose")
    return table


@register_experiment("ablation-pointer")
def ablation_pointer_size(scale: int = DEFAULT_SCALE) -> BenchTable:
    """5-byte vs 8-byte pointers (paper Sec 3.3 footnote): the wider
    pointer costs extra IndexMap traffic -- write reduction vs EMS drops
    from ~7x to ~5x for the 10B/90B workload."""
    n = 400_000_000 // scale
    pmem = pmem_profile()
    chunk = max(1, n // 4)
    table = BenchTable(
        title=f"Ablation: pointer width, WiscSort MergePass ({n} records)",
        headers=["pointer B", "time (ms)", "run-write bytes", "write reduction vs ems"],
        formats={"time (ms)": ms, "write reduction vs ems": TIMES},
    )
    ems = _run_system(get_system("ems")(SORTBENCH_FMT), pmem, n)
    ems_run_write = ems.extras["machine"].stats.tags["RUN write"].user_bytes
    for pointer in (5, 8):
        fmt = RecordFormat(key_size=10, value_size=90, pointer_size=pointer)
        system = get_system("wiscsort")(fmt, force_merge_pass=True, merge_chunk_entries=chunk)
        result = _run_system(system, pmem, n, fmt=fmt)
        run_write = result.extras["machine"].stats.tags["RUN write"].user_bytes
        table.add_row(
            pointer,
            result.total_time,
            int(run_write),
            ems_run_write / run_write,
        )
    table.add_note("paper: ~7x reduction with 5B pointers, 5x with 8B")
    return table


@register_experiment("ablation-dram")
def ablation_dram_budget(
    scale: int = DEFAULT_SCALE,
    budget_fractions: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25),
) -> BenchTable:
    """Sweep the DRAM cap relative to the IndexMap size: the
    OnePass/MergePass crossover and its cost."""
    n = 200_000_000 // scale
    pmem = pmem_profile()
    imap_bytes = n * SORTBENCH_FMT.index_entry_size
    table = BenchTable(
        title=f"Ablation: DRAM budget vs IndexMap size ({n} records)",
        headers=["budget/imap", "pass", "time (ms)"],
        formats={"budget/imap": "{:.2f}", "time (ms)": ms},
    )
    for fraction in budget_fractions:
        budget = max(64 * KiB, int(imap_bytes * fraction))
        system = get_system("wiscsort")(SORTBENCH_FMT)
        result = _run_system(system, pmem, n, dram_budget=budget)
        table.add_row(
            fraction,
            "merge" if system.used_merge_pass else "one",
            result.total_time,
        )
    table.add_note("crossover at budget == IndexMap size; MergePass costs extra")
    return table


@register_experiment("ablation-buffers")
def ablation_buffer_size(
    scale: int = DEFAULT_SCALE,
    write_buffers: Tuple[int, ...] = (1 * MiB, 2 * MiB, 5 * MiB, 10 * MiB),
) -> BenchTable:
    """Sweep the write buffer: the paper claims "the size of the write
    buffer has no performance significance" (Sec 3.8)."""
    n = 200_000_000 // scale
    pmem = pmem_profile()
    table = BenchTable(
        title=f"Ablation: write-buffer size, WiscSort OnePass ({n} records)",
        headers=["write buffer MiB", "time (ms)"],
        formats={"time (ms)": ms},
    )
    for wb in write_buffers:
        config = SortConfig(write_buffer=wb)
        result = _run_system(get_system("wiscsort")(SORTBENCH_FMT, config=config), pmem, n)
        table.add_row(wb // MiB, result.total_time)
    table.add_note("paper: buffer size choice has no effect (times ~flat)")
    return table


@register_experiment("ablation-compression")
def ablation_compression(scale: int = DEFAULT_SCALE) -> BenchTable:
    """IndexMap compression (Sec 5 future work): measure the tradeoff on
    an incompressible (uniform gensort) and a compressible
    (low-cardinality keys) workload, and compare against the
    estimate_benefit criterion."""
    n = 200_000_000 // scale
    pmem = pmem_profile()
    host = HostModel()
    model = CompressionModel()
    chunk = max(1, n // 4)
    table = BenchTable(
        title=f"Ablation: IndexMap compression, MergePass ({n} records)",
        headers=["workload", "plain ms", "compressed ms", "ratio", "predicted"],
        formats={
            "plain ms": ms,
            "compressed ms": ms,
            "ratio": "{:.2f}",
            "predicted": lambda worth: "worthwhile" if worth else "not worthwhile",
        },
    )

    def run_pair(skewed: bool):
        def build(machine):
            f = generate_dataset(machine, "input", n, SORTBENCH_FMT, seed=5)
            if skewed:
                data = f.peek().reshape(-1, SORTBENCH_FMT.record_size)
                data[:, 2 : SORTBENCH_FMT.key_size] = 0
                f.poke(0, data.reshape(-1))
            return f

        results = {}
        for compress in (False, True):
            machine = Machine(profile=pmem)
            f = build(machine)
            system = get_system("wiscsort")(
                SORTBENCH_FMT,
                force_merge_pass=True,
                merge_chunk_entries=chunk,
                compression=model if compress else None,
            )
            results[compress] = (system.run(machine, f), system)
        return results

    for label, skewed in (("uniform keys", False), ("skewed keys", True)):
        results = run_pair(skewed)
        plain, _ = results[False]
        compressed, system = results[True]
        ratio = system.achieved_compression_ratio or 1.0
        benefit = estimate_benefit(pmem, host, model, ratio, cores=host.ncores)
        table.add_row(
            label,
            plain.total_time,
            compressed.total_time,
            ratio,
            benefit > 0,
        )
    table.add_note("Sec 5: worthwhile only if reads+decompression beat "
                   "compression+writes")
    return table


@register_experiment("ablation-natural-runs")
def ablation_natural_runs(
    scale: int = DEFAULT_SCALE,
    presorted_fractions: Tuple[float, ...] = (0.0, 0.5, 1.0),
) -> BenchTable:
    """Natural-run elision (Sec 6 related work: MONTRES-NVM, NVMSorting).

    Skipping IndexMap writes for presorted chunks trades strided key
    re-gathers for run-file writes+reads: roughly neutral on PMEM
    (cheap sequential IndexMaps), a clear win on write-asymmetric
    devices like BARD -- quantifying why the paper treats the technique
    as orthogonal rather than essential.
    """
    from repro.device.profiles import bard_device_profile
    from repro.records.format import record_sort_indices

    n = 200_000_000 // scale
    chunk = max(1, n // 4)
    table = BenchTable(
        title=f"Ablation: natural-run elision, MergePass ({n} records)",
        headers=["device", "presorted", "wiscsort ms", "natural-run ms",
                 "natural chunks"],
        formats={"presorted": "{:.0%}", "wiscsort ms": ms, "natural-run ms": ms},
    )

    def run_one(profile, fraction, cls):
        machine = Machine(profile=profile)
        f = generate_dataset(machine, "input", n, SORTBENCH_FMT, seed=5)
        if fraction > 0:
            data = f.peek().reshape(-1, SORTBENCH_FMT.record_size)
            cut = int(n * fraction)
            head = data[:cut]
            data[:cut] = head[record_sort_indices(head, SORTBENCH_FMT.key_size)]
            f.poke(0, data.reshape(-1))
        system = cls(
            SORTBENCH_FMT, force_merge_pass=True, merge_chunk_entries=chunk
        )
        result = system.run(machine, f, validate=False)
        return result, system

    for device_name, profile in (
        ("pmem", pmem_profile()),
        ("bard-device", bard_device_profile()),
    ):
        for fraction in presorted_fractions:
            base, _ = run_one(profile, fraction, get_system("wiscsort"))
            nat, system = run_one(profile, fraction, get_system("wiscsort-natural"))
            table.add_row(
                device_name,
                fraction,
                base.total_time,
                nat.total_time,
                system.natural_chunks,
            )
    table.add_note("elision wins where writes are expensive (BARD); ~neutral on PMEM")
    return table


@register_experiment("ablation-merge-fanin")
def ablation_merge_fanin(
    scale: int = DEFAULT_SCALE,
    read_buffers: Tuple[int, ...] = (4 * KiB, 16 * KiB, 64 * KiB, 1 * MiB),
) -> BenchTable:
    """Sweep the merge fan-in via the read buffer (paper Sec 2.1/2.4.1).

    Small read buffers force multiple merge phases; EMS pays (1 + M)
    dataset writes, while WiscSort's intermediate phases move only
    key-pointer entries, so extra phases cost it far less.
    """

    n = 40_000_000 // scale
    pmem = pmem_profile()
    fmt = SORTBENCH_FMT
    dataset = n * fmt.record_size
    table = BenchTable(
        title=f"Ablation: merge fan-in / phases ({n} records)",
        headers=["read buffer KiB", "ems M", "ems ms", "ems writes/dataset",
                 "wiscsort M", "wiscsort ms"],
        formats={"ems ms": ms, "ems writes/dataset": "{:.2f}", "wiscsort ms": ms},
    )
    for rb in read_buffers:
        config = SortConfig(read_buffer=rb, write_buffer=max(4 * KiB, rb // 2))
        ems_system = get_system("ems")(fmt, config=config)
        ems = _run_system(ems_system, pmem, n)
        chunk = max(1, min(n // 8, rb // fmt.index_entry_size * 4))
        wisc_system = get_system("wiscsort")(
            fmt, config=config, force_merge_pass=True, merge_chunk_entries=chunk
        )
        wisc = _run_system(wisc_system, pmem, n)
        table.add_row(
            rb // KiB,
            ems_system.merge_passes,
            ems.total_time,
            ems.user_written / dataset,
            wisc_system.merge_passes,
            wisc.total_time,
        )
    table.add_note("EMS write traffic is (1+M) x dataset; WiscSort's extra "
                   "phases move 15B entries, not 100B records")
    return table
