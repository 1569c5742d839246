"""Scale-out experiment: sharded sorting across 1..N devices.

Beyond the paper (its testbed is one PMEM socket): the same dataset is
sorted on a single device and on 2- and 4-shard clusters, reporting the
end-to-end time, the shuffle overhead and the speedup over one device.
Every sharded run's merged output is asserted byte-identical to the
single-device output -- the scale-out path may change *when* bytes move
but never *which* bytes come out.
"""

from __future__ import annotations

from repro import api
from repro.analysis.race import sort_output_fingerprint
from repro.bench.experiments import SORTBENCH_FMT, _fmt_ms
from repro.errors import ValidationError
from repro.metrics.report import BenchTable, speedup
from repro.registry import register_experiment
from repro.workloads.datasets import DEFAULT_SCALE


@register_experiment("cluster-scaleout")
def cluster_scaleout(
    scale: int = DEFAULT_SCALE,
    shard_counts=(2, 4),
    device: str = "pmem",
    seed: int = 42,
) -> BenchTable:
    """Sharded WiscSort vs single device on the same 40M-record workload."""
    n = 40_000_000 // scale
    options = api.RunOptions(
        records=n, device=device, fmt=SORTBENCH_FMT, seed=seed
    )
    single = api.sort(options)
    reference = sort_output_fingerprint(single)

    table = BenchTable(
        title=f"Scale-out: sharded WiscSort on {device} ({n} records)",
        headers=["shards", "total (ms)", "shuffle busy (ms)", "speedup"],
    )
    table.add_row("1 (single)", _fmt_ms(single.total_time), "-", "1.00x")

    for n_shards in shard_counts:
        result = api.sort(options, shards=n_shards)
        if sort_output_fingerprint(result) != reference:
            raise ValidationError(
                f"{n_shards}-shard output is not byte-identical to the "
                f"single-device output"
            )
        shuffle = (
            result.phase("SHUFFLE plan")
            + result.phase("SHUFFLE partition")
            + result.phase("SHUFFLE read")
            + result.phase("SHUFFLE write")
        )
        table.add_row(
            str(n_shards),
            _fmt_ms(result.total_time),
            _fmt_ms(shuffle),
            f"{speedup(single.total_time, result.total_time):.2f}x",
        )
    table.add_note(
        "every sharded output verified byte-identical to the single-device "
        "sort (stable ties included)"
    )
    table.add_note(
        "shuffle time is per-device busy time summed across shards; it "
        "overlaps the per-shard sorts' wall clock"
    )
    return table
