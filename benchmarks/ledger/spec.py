"""What the ledger measures: the contract file plus what it cannot say.

``BENCHMARK.json`` at the repository root is the single source for the
workload list and for every metric the driver sees (name, unit,
direction, bound).  Its schema gives each end-to-end metric to *every*
workload and has the driver compare runs of *different* seeds, so it
carries only the four that all five workloads have and that stay steady
from seed to seed.  The other eight of the issue's twelve live here:
``--trace 0`` prints them, ``--aa`` (same seed twice) gates them on the
workloads named, and the traced run reports them under the per-layer
name in the last column.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
LEDGER_DIR = Path(__file__).resolve().parent
OUT_DIR = LEDGER_DIR / "out"
RESULTS_PATH = LEDGER_DIR / "results.json"


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Extra(NamedTuple):
    unit: str
    better: str
    #: Allowed same-seed A/A worsening (share of the first set's value).
    bound: float
    #: Workloads the metric exists on.
    workloads: Tuple[str, ...]
    #: Name it is reported under in the traced (per-layer) run.
    layer_name: str


ALL = ("onepass", "mergepass", "mergepass_observed", "cluster_chaos", "service")

#: End-to-end metrics outside ``BENCHMARK.json``'s list.
EXTRA_E2E: Dict[str, Extra] = {
    # exact for one seed on the two single-machine sorts; moves 14-150 %
    # from seed to seed elsewhere (data-dependent allocation sizes)
    "minor_faults": Extra("count", "lower", 0.05, ("onepass", "mergepass"), "api.minor_faults"),
    "paper_err": Extra("ratio", "lower", 0.0, ("onepass", "mergepass"), "baselines.paper_err"),
    "failed_share": Extra("ratio", "lower", 0.0, ALL, "bench.failed_share"),
    "observer_overhead": Extra(
        "ratio", "lower", 0.10, ("mergepass_observed",), "bench.observer_overhead"
    ),
    "sim_latency_p50_s": Extra(
        "sim_s", "lower", 0.0, ("service",), "cluster.service.sim_latency_p50_s_r2"
    ),
    # a 1,100-sample p99 at 0.8x load moves ~29 % from seed to seed
    "sim_latency_p99_s": Extra(
        "sim_s", "lower", 0.0, ("service",), "cluster.service.sim_latency_p99_s_r2"
    ),
    "sim_max_rate_in_slo": Extra(
        "1/sim_s", "higher", 0.0, ("service",), "cluster.service.max_rate_in_slo"
    ),
    "sim_goodput_jobs_per_s": Extra(
        "1/sim_s", "higher", 0.0, ("service",), "cluster.service.achieved_r3"
    ),
}

#: Contract metrics that repeat bit-for-bit for one seed, so a same-seed
#: A/A comparison allows them no difference at all.  (Their bounds in
#: ``BENCHMARK.json`` are non-zero only because the driver compares runs
#: of *different* seeds.)
EXACT_E2E = ("sim_total_s",)


def aa_bound(metric: str, contract_bound: Optional[float]) -> float:
    """Allowed worsening of ``metric`` between two same-seed sets."""
    if metric in EXTRA_E2E:
        return EXTRA_E2E[metric].bound
    if metric in EXACT_E2E:
        return 0.0
    return contract_bound
