"""The perf ledger's command line.

Two ways in, one measurement underneath (:mod:`benchmarks.ledger.worker`,
always a fresh single-threaded subprocess, never two at once):

``--workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload: prints every metric by name with its unit,
    then -- as the last line -- the JSON object the benchmark contract
    asks for.  ``--trace 0`` reports the end-to-end metrics with no span
    shim installed anywhere; ``--trace 1`` reports the per-layer ones.

no ``--workload``
    A *set*: every workload twice (order forward, then reversed, so a
    noisy-neighbour burst does not land on one workload only), the
    iterations pooled, then one traced run per workload.  Writes
    ``results.json`` and the generated table in ``README.md``.
    ``--aa`` runs two sets of the same checkout and compares them.

Exit status is non-zero on any failed output check, non-repeating
simulated result, span-closure breach or (``--aa``) bound breach.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from benchmarks.ledger import report
from benchmarks.ledger.spec import (
    EXACT_E2E,
    EXTRA_E2E,
    OUT_DIR,
    RESULTS_PATH,
    ROOT,
    aa_bound,
    load_contract,
)

DEFAULT_SEED = 2023
#: Generous: a calm run takes 15-45 s, a page-fault storm triples that.
WORKER_TIMEOUT_S = 170


class LedgerError(RuntimeError):
    """The worker could not produce a result."""


def launch(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh single-threaded worker process."""
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        # numpy otherwise asks for 2 MiB pages for big arrays, and the
        # fault count then depends on whether the kernel has one free
        "NUMPY_MADVISE_HUGEPAGE": "0",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    })
    env.pop("REPRO_SIM_VECTOR", None)  # default vector kernel
    spans_out = OUT_DIR / f"{workload}.spans.json"
    cmd = [
        sys.executable, "-m", "benchmarks.ledger.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--t0", repr(time.time()), "--spans-out", str(spans_out),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the worker
        raise LedgerError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise LedgerError(
            f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    kind = "traced" if trace else "timed"
    (OUT_DIR / f"{workload}.{kind}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


# ----------------------------------------------------------------------
# Contract mode: one workload, one run
# ----------------------------------------------------------------------
def contract_line(result: dict, contract: dict) -> dict:
    """The object the benchmark contract wants as the last stdout line."""
    if result["trace"]:
        declared, values = contract["per_layer"], result["layers"]
    else:
        declared, values = contract["end_to_end"], result["e2e"]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise LedgerError(
            "BENCHMARK.json and the worker disagree on metric names: "
            f"undeclared {sorted(set(values) - set(names))}, "
            f"missing {sorted(set(names) - set(values))}"
        )
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def print_problems(problems: List[str]) -> None:
    for problem in problems:
        print(f"PROBLEM: {problem}")


def run_one(args, contract: dict) -> int:
    result = launch(args.workload, args.seed, args.seconds, args.trace)
    line = contract_line(result, contract)
    print(report.render_run(result, line, contract))
    print_problems(result["problems"])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# Set mode
# ----------------------------------------------------------------------
def pool(runs: List[dict]) -> dict:
    """Pool one workload's runs of a set into one entry."""
    user = [u for r in runs for u in r["user_s_samples"]]
    mean = lambda key, field: statistics.fmean(r[field][key] for r in runs)  # noqa: E731
    first = runs[0]
    problems = [p for r in runs for p in r["problems"]]
    if len({r["exact_digest"] for r in runs}) != 1:
        problems.append("two runs of one set disagree on the simulated results")
    e2e = {
        "setup_s": mean("setup_s", "e2e"),
        "host_user_s": mean("host_user_s", "e2e"),
        "peak_rss_mib": mean("peak_rss_mib", "e2e"),
    }
    e2e.update({name: first["e2e"][name] for name in EXACT_E2E})
    extra = {
        name: (mean(name, "extra") if EXTRA_E2E[name].bound else first["extra"][name])
        for name in first["extra"]
    }
    quartiles = statistics.quantiles(user, n=4) if len(user) >= 2 else [user[0]] * 3
    return {
        "e2e": e2e,
        "extra": extra,
        "info": {key: mean(key, "info") for key in first["info"]},
        "host_user_s_quartiles": quartiles,
        "iterations": len(user),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": problems,
    }


def run_set(seed: int, seconds: float, workloads: List[str], traced: bool) -> Dict[str, dict]:
    runs: Dict[str, List[dict]] = {name: [] for name in workloads}
    for order in (workloads, workloads[::-1]):
        for name in order:
            print(f"[timed ] {name} ...", flush=True)
            runs[name].append(launch(name, seed, seconds, trace=0))
    entries = {name: pool(runs[name]) for name in workloads}
    if traced:
        for name in workloads:
            print(f"[traced] {name} ...", flush=True)
            result = launch(name, seed, seconds, trace=1)
            entries[name]["layers"] = result["layers"]
            entries[name]["problems"] += result["problems"]
    return entries


def compare_sets(a: Dict[str, dict], b: Dict[str, dict], contract: dict) -> int:
    """Print the A/A table; returns the number of bound breaches."""
    specs = {m["name"]: m for m in contract["end_to_end"]}
    breaches = 0
    rows = []
    for name in a:
        for metric in list(a[name]["e2e"]) + list(a[name]["extra"]):
            if metric in specs:
                field, better = "e2e", specs[metric]["better"]
            elif name in EXTRA_E2E[metric].workloads:
                field, better = "extra", EXTRA_E2E[metric].better
            else:
                continue  # reported on this workload, gated on others only
            va, vb = a[name][field][metric], b[name][field][metric]
            bound = aa_bound(metric, specs.get(metric, {}).get("bound"))
            worse = (vb - va) if better == "lower" else (va - vb)
            rel = worse / abs(va) if va else (0.0 if vb == va else float("inf"))
            breach = rel > bound
            breaches += breach
            rows.append((name, metric, va, vb, rel, bound, "BREACH" if breach else "ok"))
    print(report.render_table(
        ["workload", "metric", "set A", "set B", "B worse by", "bound", ""], rows
    ))
    return breaches


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=names, default=None,
                        help="run this workload once (default: a full set)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets of this checkout and compare them")
    args = parser.parse_args(argv)
    try:
        if args.workload is not None:
            return run_one(args, contract)
        if args.aa:
            first = run_set(args.seed, args.seconds, names, traced=False)
            second = run_set(args.seed, args.seconds, names, traced=False)
            breaches = compare_sets(first, second, contract)
            problems = [p for s in (first, second) for e in s.values() for p in e["problems"]]
            print_problems(problems)
            print(f"A/A: {breaches} bound breach(es), {len(problems)} problem(s)")
            return 1 if breaches or problems else 0
        entries = run_set(args.seed, args.seconds, names, traced=True)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    results = {"schema": 1, "seed": args.seed, "seconds": args.seconds, "workloads": entries}
    RESULTS_PATH.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    report.update_readme(results, contract)
    print(report.render_set(results, contract))
    problems = [f"{n}: {p}" for n, e in entries.items() for p in e["problems"]]
    print_problems(problems)
    print(f"wrote {RESULTS_PATH.relative_to(ROOT)} and the README results table")
    return 1 if problems else 0
