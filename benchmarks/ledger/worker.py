"""One workload, one fresh process: set up, warm up, measure, verify.

Started by :mod:`benchmarks.ledger.cli` with ``OMP_NUM_THREADS=1`` and
``PYTHONHASHSEED=0``; prints one JSON object as its last stdout line.

Clocks.  ``host_user_s`` and ``setup_s`` are *user-mode CPU* seconds
(``getrusage`` deltas): on this class of sandbox the same bytes cost
0.1-3 s of sys time depending on the VM's page state, so wall and sys
seconds are recorded (``api.*``) but carry no claim.

Speed drift.  The host's speed itself drifts: the CPU time of a fixed
loop moves by up to 1.5x over tens of seconds as neighbours come and go,
which no statistic over one run's iterations can see.  So a fixed
calibration loop (:func:`calibration_loop`) runs between the iterations,
and both host metrics are rescaled by how fast it ran:
``host_user_s = mean(user CPU per iteration) * CAL_REF_S / mean(loop CPU)``.
On a 300 s ``mergepass`` trace taken while the host was busy, the spread
(interquartile range / median) of 6-iteration runs was 0.17 for the raw
median, 0.24 for the raw minimum and 0.06-0.08 for the rescaled mean; on
calm traces all three sit at 0.03-0.09.  The raw median is recorded next
to it (``api.host_user_raw_s``).

``minor_faults`` and ``peak_rss_mib`` are read after the *first* timed
iteration, so they do not depend on how many iterations the time budget
allowed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, NamedTuple

import numpy as np

from benchmarks.ledger.trace import ROOT_SPAN

#: CPU seconds :func:`calibration_loop` takes on an undisturbed core of
#: the sandbox the ledger was written on (the least of ~440 calls); it
#: only fixes the scale of the rescaled metrics.
CAL_REF_S = 0.21
#: Calibrate again once the last reading is this old.
CAL_EVERY_S = 1.5

_CAL_FLOATS = np.arange(500_000, dtype=np.float64)
_CAL_BYTES = np.zeros(4_000_000, dtype=np.uint8)


def calibration_loop() -> float:
    """CPU seconds a fixed mix of interpreter and numpy work takes now."""
    begin = time.process_time()
    x = 0
    table = {}
    for i in range(1_500_000):
        x += i & 3
        table[i & 255] = x
    a = _CAL_FLOATS
    for _ in range(100):
        a = np.sqrt(a * 1.0001 + 1.0)
    c = _CAL_BYTES.copy()
    c[::7] = 1
    c = c[::-1].copy() + _CAL_BYTES
    np.argsort(_CAL_FLOATS[:100_000] % 977, kind="stable")
    return time.process_time() - begin


class Sample(NamedTuple):
    user_s: float
    sys_s: float
    wall_s: float
    minor_faults: int


class StopClock:
    """Host cost of one iteration, pausable around work that is not the
    program's (the service sweep verifies and drops each rate's cluster
    before the next, or three clusters' files would sit in memory).

    With a ``recorder`` every running stretch happens under the installed
    span shims inside its own root span; a pause closes the root span and
    removes the shims, so checks are neither timed nor traced.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.totals = [0.0, 0.0, 0.0, 0]
        if recorder is not None:
            recorder.clear()

    def start(self) -> None:
        gc.collect()  # garbage of earlier work is not this stretch's cost
        if self.recorder is not None:
            self.recorder.install()
            self._root = self.recorder.begin(ROOT_SPAN)
        self._wall = time.perf_counter()
        self._usage = resource.getrusage(resource.RUSAGE_SELF)

    def stop(self) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        wall = time.perf_counter() - self._wall
        if self.recorder is not None:
            self.recorder.finish(self._root)
            self.recorder.uninstall()
        before = self._usage
        for i, delta in enumerate((
            usage.ru_utime - before.ru_utime, usage.ru_stime - before.ru_stime,
            wall, usage.ru_minflt - before.ru_minflt,
        )):
            self.totals[i] += delta

    @contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()


def timed(body, recorder=None):
    """``(body(clock), Sample)`` with the clock running around the call."""
    clock = StopClock(recorder)
    clock.start()
    try:
        value = body(clock)
    finally:
        clock.stop()
    return value, Sample(*clock.totals)


def iteration(workload, recorder=None):
    """One timed ``workload.run`` and its (untimed) check."""
    handle, sample = timed(workload.run, recorder)
    return sample, workload.check(handle)


def exact_view(outcome, exact_extras) -> str:
    """Digest of everything in an outcome that must repeat bit-for-bit."""
    view = [
        outcome.sim_total_s.hex(), outcome.output_sha256, outcome.layers,
        {k: v for k, v in outcome.extra.items() if k in exact_extras},
    ]
    blob = json.dumps(view, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def budget_left(begin: float, done: int, seconds: float) -> bool:
    """Whether another iteration fits: stop once the next one would end
    further past ``seconds`` than stopping now falls short of it."""
    elapsed = time.perf_counter() - begin
    return elapsed + 0.5 * elapsed / done < seconds


def run(args) -> dict:
    cal_setup = [calibration_loop()]
    from benchmarks.ledger import micro, trace, workloads
    from benchmarks.ledger.spec import EXTRA_E2E

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    cal_setup.append(calibration_loop())
    warm, _ = timed(workload.warmup)
    ready = resource.getrusage(resource.RUSAGE_SELF)
    setup_wall_s = time.time() - args.t0
    # the set-up's own CPU, without the two calibration loops inside it
    setup_user_s = ready.ru_utime - sum(cal_setup)
    cal_setup.append(calibration_loop())

    exact_extras = {name for name, spec in EXTRA_E2E.items() if not spec.bound}
    problems: List[str] = []
    untraced: List[Sample] = []
    traced: List[Sample] = []
    outcomes = []  # of the untraced iterations
    digests = set()
    layer_selfs: List[Dict[str, float]] = []
    span_calls: Dict[str, int] = {}
    recorder = trace.SpanRecorder() if args.trace else None
    cal = [cal_setup[-1]]
    cal_at = begin = time.perf_counter()
    while True:
        sample, outcome = iteration(workload)
        if not untraced:
            first_faults = sample.minor_faults
            first_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        untraced.append(sample)
        outcomes.append(outcome)
        digests.add(exact_view(outcome, exact_extras))
        if recorder is not None:
            sample, outcome = iteration(workload, recorder)
            traced.append(sample)
            digests.add(exact_view(outcome, exact_extras))
            selfs, span_calls, root_s = trace.self_times(recorder)
            total = sum(selfs.values())
            if abs(total - root_s) > 0.01 * root_s:
                problems.append(
                    f"layer self-times sum to {total:.6f}s, root span is {root_s:.6f}s"
                )
            layer_selfs.append(selfs)
        more = budget_left(begin, len(untraced), args.seconds)
        if not more or time.perf_counter() - cal_at >= CAL_EVERY_S:
            cal.append(calibration_loop())
            cal_at = time.perf_counter()
        if not more:
            break

    if len(digests) != 1:
        problems.append("iterations of one run (traced ones included) did not repeat exactly")
    attempted = warm.attempted + sum(o.attempted for o in outcomes)
    failed = warm.failed + sum(o.failed for o in outcomes)
    if failed:
        problems.append(f"{failed} of {attempted} output checks failed")

    last = outcomes[-1]
    user = [s.user_s for s in untraced]
    host_user_s = statistics.fmean(user) * CAL_REF_S / statistics.fmean(cal)
    extra = {
        key: statistics.median(o.extra[key] for o in outcomes) for key in last.extra
    }
    extra["failed_share"] = failed / attempted
    extra["minor_faults"] = first_faults
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "exact_digest": min(digests),
        "user_s_samples": user,
        "e2e": {
            "setup_s": setup_user_s * CAL_REF_S / statistics.fmean(cal_setup),
            "host_user_s": host_user_s,
            "peak_rss_mib": first_rss_kib / 1024.0,
            "sim_total_s": last.sim_total_s,
        },
        "extra": extra,
        "info": {
            "api.host_user_raw_s": statistics.median(user),
            "api.setup_user_raw_s": setup_user_s,
            "api.host_speed": statistics.fmean(cal) / CAL_REF_S,
            "api.wall_s": statistics.median(s.wall_s for s in untraced),
            "api.sys_s": statistics.median(s.sys_s for s in untraced),
            "api.setup_wall_s": setup_wall_s,
            "api.setup_sys_s": ready.ru_stime,
        },
    }
    if recorder is not None:
        layers = dict(result["info"])
        layers.update({
            metric: statistics.median(selfs[metric] for selfs in layer_selfs)
            for metric in trace.SELF_METRICS
        })
        layers.update(last.layers)
        layers.update({
            spec.layer_name: extra.get(name, 0.0) for name, spec in EXTRA_E2E.items()
        })
        layers.update({
            "storage.io_calls": sum(span_calls.get(n, 0) for n in trace.IO_CALL_SPANS),
            "device.assign_calls": span_calls.get("device.assign", 0),
            "core.kway.frontier_steps": span_calls.get("core.kway.frontier", 0),
            "cluster.policies.pick_calls": span_calls.get("cluster.policies.pick", 0),
            "sim.engine.host_us_per_step": host_user_s / last.steps * 1e6,
            "cluster.service.host_user_ms_per_job": (
                host_user_s / last.jobs * 1e3 if last.jobs else 0.0
            ),
            # untraced and traced iterations alternate, so drift cancels
            "bench.trace_overhead": (
                statistics.fmean(s.user_s for s in traced) / statistics.fmean(user)
            ),
        })
        layers.update(micro.run_all(args.seed))
        result["layers"] = layers
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        recorder.dump(args.spans_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--spans-out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
