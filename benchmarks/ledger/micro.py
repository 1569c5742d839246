"""Layer microbenches: the three hottest seams, called directly.

Each drives one public function in isolation and reports host
microseconds (wall, median of repeats), so a change to that seam can be
seen without the rest of the stack around it:

* ``sim.fluid.rerate_us_g{1,8,64,512}`` -- one ``FluidScheduler.rerate``
  after an op joins, bringing its resource group to that size (1 stays
  on the scalar path, the others on the vector path, rate tables warm);
* ``core.kway.frontier_us_per_krec`` -- ``MergeFrontier.step`` time to
  drain 64 sorted runs, per 1,000 entries merged;
* ``storage.gather_us_per_krec`` -- one ``SimFile.read_gather`` of 10 B
  keys at a 100 B stride, per 1,000 records.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

import numpy as np

from repro.core.kway import MergeFrontier, RunCursor
from repro.device.profile import Pattern
from repro.machine import Machine
from repro.units import MiB

from benchmarks.ledger.verify import KEY_SIZE, RECORD_SIZE, key_order

RERATE_GROUP_SIZES = (1, 8, 64, 512)
RERATE_REPEATS = 200
FRONTIER_RUNS = 64
FRONTIER_ENTRIES_PER_RUN = 1_024
FRONTIER_WINDOW_ENTRIES = 128
ENTRY_SIZE = 15  # 10 B key + 5 B pointer
GATHER_RECORDS = 200_000
REPEATS = 3


def _op(machine: Machine, i: int):
    direction, pattern = (("read", Pattern.RAND), ("write", Pattern.SEQ))[i % 2]
    return machine.io(direction, pattern, MiB, tag="micro")


def rerate_us(group_size: int) -> float:
    """Median cost of the re-rate that follows one op joining a group
    of ``group_size - 1`` (the membership change every engine step makes)."""
    machine = Machine()
    fluid = machine.engine.fluid
    for i in range(group_size - 1):
        fluid.add(_op(machine, i), 0.0)
    samples = []
    for _ in range(RERATE_REPEATS):
        op = _op(machine, group_size - 1)
        fluid.add(op, 0.0)
        t0 = time.perf_counter()
        fluid.rerate(0.0)
        samples.append(time.perf_counter() - t0)
        fluid.cancel_op(op)  # no simulated time passes, so nothing to settle
        fluid.rerate(0.0)
    return statistics.median(samples) * 1e6


def frontier_us_per_krec(seed: int) -> float:
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(REPEATS):
        machine = Machine()
        cursors = []
        for r in range(FRONTIER_RUNS):
            entries = rng.integers(
                0, 256, size=(FRONTIER_ENTRIES_PER_RUN, ENTRY_SIZE), dtype=np.uint8
            )
            run = entries[key_order(entries[:, :KEY_SIZE])]
            run_file = machine.fs.create(f"run{r}")
            run_file.poke(0, np.ascontiguousarray(run).reshape(-1))
            cursors.append(
                RunCursor(run_file, ENTRY_SIZE, KEY_SIZE, FRONTIER_WINDOW_ENTRIES * ENTRY_SIZE)
            )
        frontier = MergeFrontier(cursors)
        merged = 0
        spent = 0.0
        while not frontier.done:
            refills = frontier.take_refills()
            for cursor in refills:
                op = cursor.refill_op(tag="micro")
                cursor.accept(op.on_complete(op))
            frontier.note_refilled(refills)
            t0 = time.perf_counter()
            emitted, _ways = frontier.step()
            spent += time.perf_counter() - t0
            merged += emitted.shape[0]
        if merged != FRONTIER_RUNS * FRONTIER_ENTRIES_PER_RUN:
            raise AssertionError(f"frontier drained {merged} entries")
        samples.append(spent / (merged / 1_000))
    return statistics.median(samples) * 1e6


def gather_us_per_krec() -> float:
    machine = Machine()
    f = machine.fs.create("records")
    f.poke(0, np.zeros(GATHER_RECORDS * RECORD_SIZE, dtype=np.uint8))
    offsets = np.arange(GATHER_RECORDS, dtype=np.int64) * RECORD_SIZE
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        op = f.read_gather(offsets, KEY_SIZE, tag="micro")
        samples.append(time.perf_counter() - t0)
        if op.on_complete(op).shape != (GATHER_RECORDS, KEY_SIZE):
            raise AssertionError("gather returned the wrong shape")
    return statistics.median(samples) / (GATHER_RECORDS / 1_000) * 1e6


def run_all(seed: int) -> Dict[str, float]:
    layers = {f"sim.fluid.rerate_us_g{g}": rerate_us(g) for g in RERATE_GROUP_SIZES}
    layers["core.kway.frontier_us_per_krec"] = frontier_us_per_krec(seed)
    layers["storage.gather_us_per_krec"] = gather_us_per_krec()
    return layers
