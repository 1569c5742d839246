"""Open-loop service benchmark: offered load vs. achieved throughput.

Sweeps the offered arrival rate across a grid for each admission policy
and reports, per cell, the achieved completion rate and the
latency p50/p99/p999 -- the classic *throughput knee* picture: below
saturation achieved tracks offered and p99 stays flat; past the knee a
work-conserving policy (fifo/edf) lets latency diverge while shedding
policies (shed/backpressure) trade completions for flat tails.

The whole sweep is a pure function of ``--seed``: the arrival streams,
job datasets and simulated service are all deterministic, so two runs
produce byte-identical tables and JSON (the two-process
``PYTHONHASHSEED`` test in ``tests/test_service.py`` asserts exactly
that).

Not a pytest module -- run it as a script::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py \
        --output BENCH_service.json --quick
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.api import RunOptions, serve

# ----------------------------------------------------------------------
# Frozen sweep definition: small jobs, a DRAM budget that admits ~3
# concurrently, and rates that straddle the service's saturation point.
# ----------------------------------------------------------------------
RECORDS_PER_JOB = 2_000
DRAM_BUDGET = 48_000_000
HORIZON = 0.004
DEADLINE = 0.0005
QUEUE_CAP = 8

FULL_RATES = (5_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0)
QUICK_RATES = (20_000.0, 80_000.0)

POLICY_GRID = ("fifo", "fair", "edf", "backpressure", "shed")

#: A cell counts as "keeping up" while achieved >= KNEE_FRACTION x offered.
KNEE_FRACTION = 0.95


def run_cell(policy: str, rate: float, seed: int) -> Dict[str, float]:
    report = serve(
        RunOptions(
            records=RECORDS_PER_JOB,
            seed=seed,
            dram_budget=DRAM_BUDGET,
        ),
        rate=rate,
        horizon=HORIZON,
        policy=policy,
        queue_cap=QUEUE_CAP,
        deadline=DEADLINE,
    )
    lat = report.percentiles["latency"]
    return {
        "policy": policy,
        "rate": rate,
        "offered": report.offered_rate,
        "achieved": report.achieved_rate,
        "arrived": report.jobs_arrived,
        "completed": report.jobs_completed,
        "shed": report.jobs_shed,
        "deadline_misses": report.deadline_misses,
        "p50": lat["p50"],
        "p99": lat["p99"],
        "p999": lat["p999"],
    }


def find_knee(cells: List[Dict[str, float]]) -> Optional[float]:
    """Largest offered rate where the policy still keeps up."""
    knee = None
    for cell in cells:
        if cell["offered"] > 0 and \
                cell["achieved"] >= KNEE_FRACTION * cell["offered"]:
            knee = cell["rate"]
    return knee


def render_table(results: Dict[str, List[Dict[str, float]]]) -> str:
    lines = [
        "service load sweep (offered vs achieved jobs/s, latency in s)",
        f"{'policy':<14} {'rate':>9} {'offered':>10} {'achieved':>10} "
        f"{'shed':>5} {'miss':>5} {'p50':>11} {'p99':>11} {'p999':>11}",
    ]
    for policy, cells in results.items():
        for cell in cells:
            lines.append(
                f"{policy:<14} {cell['rate']:>9.0f} "
                f"{cell['offered']:>10.6g} {cell['achieved']:>10.6g} "
                f"{cell['shed']:>5d} {cell['deadline_misses']:>5d} "
                f"{cell['p50']:>11.6g} {cell['p99']:>11.6g} "
                f"{cell['p999']:>11.6g}"
            )
        knee = find_knee(cells)
        knee_s = f"{knee:.0f} jobs/s" if knee is not None else "below grid"
        lines.append(f"{policy:<14} knee: achieved tracks offered up to "
                     f"{knee_s}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true",
                        help="two rates instead of five (the tier-1 test)")
    parser.add_argument("--policies", default=None,
                        metavar="NAME[,NAME...]",
                        help="subset of the policy grid to sweep")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write the sweep as deterministic JSON")
    args = parser.parse_args(argv)

    rates = QUICK_RATES if args.quick else FULL_RATES
    policies = (
        tuple(p.strip() for p in args.policies.split(","))
        if args.policies else POLICY_GRID
    )
    results: Dict[str, List[Dict[str, float]]] = {}
    for policy in policies:
        results[policy] = [
            run_cell(policy, rate, args.seed) for rate in rates
        ]
    print(render_table(results))
    if args.output:
        doc = {
            "seed": args.seed,
            "records_per_job": RECORDS_PER_JOB,
            "dram_budget": DRAM_BUDGET,
            "horizon": HORIZON,
            "rates": list(rates),
            "results": results,
            "knees": {p: find_knee(c) for p, c in results.items()},
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
