"""Span recorder: per-layer host-time attribution from outside the program.

The recorder wraps plain public functions and methods of ``repro`` (never
generator coroutines) with timing shims, *from this file*: nothing under
``src/`` knows it exists, and with the shims uninstalled the program runs
exactly the parent commit's code.  Each span is (name, start, end,
parent); spans stay in memory as four parallel columns and are written
out once, at the end of the run.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover, so the self times of one iteration's
spans sum to the root span exactly -- :func:`self_times` recomputes them
from the recorded columns and the worker asserts the 1 % closure.

Limit worth knowing: sort orchestration written as generator coroutines
(``WiscSort._merge_loop`` and friends) is resumed from inside
``Engine.run``/``run_until``; it cannot be told apart from the engine
loop without wrapping coroutines, so whatever part of it no wrapped
function covers is billed to ``sim.engine.run_self_s``.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

#: The span every iteration runs under; its self time is the benchmark's
#: own glue (building machines, starting background clients).
ROOT_SPAN = "bench.iteration"

#: ``(module, class or None, attribute, span name, self-time metric)``.
#: Module-level functions are listed once per module that *binds* them
#: (``from x import f`` copies the binding), since callers resolve the
#: name in their own module.
TARGETS: List[Tuple[str, Optional[str], str, str, str]] = [
    # records
    ("repro.records.gensort", None, "generate_dataset", "records.generate", "records.generate_self_s"),
    ("repro.api", None, "generate_dataset", "records.generate", "records.generate_self_s"),
    ("repro.cluster.service", None, "generate_dataset", "records.generate", "records.generate_self_s"),
    ("repro.cluster.cluster", None, "generate_cluster_dataset", "records.generate", "records.generate_self_s"),
    ("repro.core.wiscsort", None, "validate_sorted_file", "records.validate", "records.validate_self_s"),
    ("repro.cluster.service", None, "validate_sorted_file", "records.validate", "records.validate_self_s"),
    ("repro.cluster.sharded", None, "validate_sorted_records", "records.validate", "records.validate_self_s"),
    # storage: the timed ops, plus the raw byte moves they (and the
    # fault injector's write path, and dataset generation) bottom out in
    ("repro.storage.file", "SimFile", "read", "storage.read", "storage.io_self_s"),
    ("repro.storage.file", "SimFile", "write", "storage.write", "storage.io_self_s"),
    ("repro.storage.file", "SimFile", "append", "storage.append", "storage.io_self_s"),
    ("repro.storage.file", "SimFile", "read_gather", "storage.read_gather", "storage.io_self_s"),
    ("repro.storage.file", "SimFile", "read_strided", "storage.read_strided", "storage.io_self_s"),
    ("repro.storage.file", "SimFile", "read_gather_var", "storage.read_gather_var", "storage.io_self_s"),
    ("repro.storage.file", "SimFile", "peek", "storage.peek", "storage.io_self_s"),
    ("repro.storage.file", "SimFile", "poke", "storage.poke", "storage.io_self_s"),
    # sim.engine / sim.fluid
    ("repro.sim.engine", "Engine", "run", "sim.engine.run", "sim.engine.run_self_s"),
    ("repro.sim.engine", "Engine", "run_until", "sim.engine.run", "sim.engine.run_self_s"),
    ("repro.sim.fluid", "FluidScheduler", "add", "sim.fluid.add", "sim.fluid.add_self_s"),
    ("repro.sim.fluid", "FluidScheduler", "settle", "sim.fluid.settle", "sim.fluid.settle_self_s"),
    ("repro.sim.fluid", "FluidScheduler", "rerate", "sim.fluid.rerate", "sim.fluid.rerate_self_s"),
    ("repro.sim.fluid", "FluidScheduler", "pop_completed", "sim.fluid.pop_completed", "sim.fluid.completion_self_s"),
    ("repro.sim.fluid", "FluidScheduler", "next_completion", "sim.fluid.next_completion", "sim.fluid.completion_self_s"),
    # device
    ("repro.device.device", "BraidRateModel", "assign", "device.assign", "device.assign_self_s"),
    ("repro.device.stats", "DeviceStats", "observe", "device.observe", "device.observe_self_s"),
    ("repro.sim.domains", "DomainRouter", "assign", "sim.domains.assign", "sim.domains.assign_self_s"),
    # core
    ("repro.core.kway", "MergeFrontier", "step", "core.kway.frontier", "core.kway.frontier_self_s"),
    ("repro.core.wiscsort", "WiscSort", "run", "core.wiscsort.run", "core.wiscsort.run_self_s"),
    ("repro.core.wiscsort", "WiscSort", "recover", "core.wiscsort.run", "core.wiscsort.run_self_s"),
    # cluster / faults
    ("repro.cluster.sharded", "ShardedWiscSort", "run", "cluster.sharded_run", "cluster.sharded_run_self_s"),
    ("repro.cluster.sharded", "ShardedWiscSort", "recover", "cluster.sharded_run", "cluster.sharded_run_self_s"),
    ("repro.faults.injector", "FaultInjector", "issue_read", "faults.issue_read", "faults.injector_self_s"),
    ("repro.faults.injector", "FaultInjector", "issue_write", "faults.issue_write", "faults.injector_self_s"),
    # service
    ("repro.cluster.service", "SortService", "serve", "cluster.service.serve", "cluster.service.serve_self_s"),
    ("repro.cluster.policies", "FifoPolicy", "pick", "cluster.policies.pick", "cluster.policies.pick_self_s"),
    ("repro.workloads.arrivals", "ArrivalProcess", "take", "workloads.arrivals.generate", "workloads.arrivals.generate_self_s"),
    # observers (hook methods the engine, scheduler and storage layer call)
    *[
        ("repro.trace.tracer", "Tracer", hook, "trace.callback", "trace.callback_self_s")
        for hook in (
            "begin_span", "end_span", "instant", "counter_sample",
            "on_op_issue", "on_op_complete", "on_rerate", "sched_event",
            "analyze_spawn", "analyze_finish", "wait_begin", "wait_end",
        )
    ],
    *[
        ("repro.analysis.sanitizer", "SimSanitizer", hook, "analysis.sanitizer", "analysis.sanitizer_self_s")
        for hook in (
            "on_wait", "on_wake", "on_op_complete", "on_proc_finish",
            "on_proc_cancel", "check",
        )
    ],
    *[
        ("repro.analysis.sanitizer", "ChargeAuditor", hook, "analysis.sanitizer", "analysis.sanitizer_self_s")
        for hook in ("note_raw", "note_charge")
    ],
    *[
        ("repro.analysis.race", "RaceDetector", hook, "analysis.race", "analysis.race_self_s")
        for hook in (
            "on_spawn", "on_block", "on_resume", "on_finish", "on_cancel",
            "on_acquire", "on_release", "note_span", "note_batch", "check",
        )
    ],
]

#: Spans counted as one storage call each (``append`` delegates to
#: ``write``; ``peek``/``poke`` are the untimed moves underneath).
IO_CALL_SPANS = (
    "storage.read", "storage.write", "storage.read_gather",
    "storage.read_strided", "storage.read_gather_var",
)

#: Metric of the root span's own self time.
ROOT_METRIC = "bench.iteration_self_s"

#: Every self-time metric the recorder can produce (zero when a layer
#: never ran), in first-mention order.
SELF_METRICS: List[str] = list(dict.fromkeys([ROOT_METRIC] + [t[4] for t in TARGETS]))


class SpanRecorder:
    """In-memory span store: four parallel columns plus a name table."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clear(self) -> None:
        """Drop recorded spans (between iterations); shims stay installed."""
        if self._stack:
            raise RuntimeError("cannot clear the recorder inside an open span")
        for column in (self.name_id, self.start, self.end, self.parent):
            column.clear()

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    def wrap(self, fn, span_name: str):
        """A shim around ``fn`` that records one span per call."""
        nid = self.intern(span_name)
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        shim.__wrapped__ = fn
        return shim

    def begin(self, name: str) -> int:
        """Open an explicit span around the benchmark's own code."""
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target in :data:`TARGETS` with a recording shim."""
        if self._installed:
            raise RuntimeError("recorder already installed")
        for module_name, class_name, attr, span_name, _metric in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            own = attr in vars(owner)  # inherited methods are removed again
            original = getattr(owner, attr)
            shim = self.wrap(original, span_name)
            if span_name == "faults.issue_read":
                shim = self._bill_build_to_storage(original, shim)
            setattr(owner, attr, shim)
            self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def _bill_build_to_storage(self, original, shim):
        """Under an armed injector ``SimFile.read*`` hands its byte move
        to ``issue_read`` as the ``build`` callable; wrap that argument
        so the move is still billed to storage, not to the injector."""
        wrap = self.wrap

        def issue_read(injector, f, nbytes, tag, build):
            return shim(injector, f, nbytes, tag, wrap(build, "storage.deferred_move"))

        issue_read.__wrapped__ = original
        return issue_read

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans as column-oriented JSON."""
        columns = {
            "names": self.names, "name_id": self.name_id,
            "start": self.start, "end": self.end, "parent": self.parent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(columns, fh, separators=(",", ":"))


#: Span name -> the self-time metric it is billed to.
SPAN_METRICS: Dict[str, str] = {
    ROOT_SPAN: ROOT_METRIC,
    "storage.deferred_move": "storage.io_self_s",
    **{span: metric for _m, _c, _a, span, metric in TARGETS},
}


def self_times(rec: SpanRecorder) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """``(self seconds per metric, calls per span name, root seconds)``.

    Recomputed from the recorded columns: self = duration - sum of the
    direct children's durations.  ``root seconds`` is the total duration
    of the parentless spans, which the self times must sum to.
    """
    n = len(rec)
    name_id = np.asarray(rec.name_id, dtype=np.int64)
    parent = np.asarray(rec.parent, dtype=np.int64)
    duration = np.asarray(rec.end, dtype=np.float64) - np.asarray(rec.start, dtype=np.float64)
    child_total = np.zeros(n, dtype=np.float64)
    has_parent = parent >= 0
    np.add.at(child_total, parent[has_parent], duration[has_parent])
    own = duration - child_total
    per_name = np.bincount(name_id, weights=own, minlength=len(rec.names))
    calls_per_name = np.bincount(name_id, minlength=len(rec.names))
    selfs = {metric: 0.0 for metric in SELF_METRICS}
    calls: Dict[str, int] = {}
    for nid, name in enumerate(rec.names):
        selfs[SPAN_METRICS[name]] += float(per_name[nid])
        calls[name] = int(calls_per_name[nid])
    return selfs, calls, float(duration[~has_parent].sum())
