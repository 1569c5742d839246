"""Experiment harness: one entry per paper table/figure.

Each ``fig*``/``tab*`` function builds the workload, runs the systems,
and returns a :class:`~repro.metrics.report.BenchTable` of typed cells
with the same rows/series the paper reports.  :mod:`repro.bench.claims`
holds every paper claim as a row over those cells.
"""

from repro.bench.ablations import (
    ablation_buffer_size,
    ablation_natural_runs,
    ablation_compression,
    ablation_dram_budget,
    ablation_merge_fanin,
    ablation_pointer_size,
    ablation_write_pool,
)
from repro.bench.experiments import (
    fig01_motivation,
    fig04_sortbenchmark,
    fig05_resources_onepass,
    fig06_resources_mergepass,
    fig07_concurrency,
    fig08_kv_split,
    fig09_strided_vs_seq,
    fig10_interference,
    fig11_future_devices,
    tab01_compliance,
)
from repro.bench.scaleout import cluster_scaleout
from repro.registry import register_experiment
from repro.workloads.datasets import DEFAULT_SCALE


@register_experiment("claims")
def check_claims(scale: int = DEFAULT_SCALE):
    """Every paper claim measured at ``scale`` (:func:`repro.bench.claims.check`).

    The registry imports this package on every run; only this experiment
    needs the claims table, so its module loads on the first call.
    """
    from repro.bench.claims import check

    return check(scale)


__all__ = [
    "check_claims",
    "cluster_scaleout",
    "ablation_buffer_size",
    "ablation_natural_runs",
    "ablation_compression",
    "ablation_dram_budget",
    "ablation_merge_fanin",
    "ablation_pointer_size",
    "ablation_write_pool",
    "fig01_motivation",
    "fig04_sortbenchmark",
    "fig05_resources_onepass",
    "fig06_resources_mergepass",
    "fig07_concurrency",
    "fig08_kv_split",
    "fig09_strided_vs_seq",
    "fig10_interference",
    "fig11_future_devices",
    "tab01_compliance",
]
