"""Interference-aware scheduling helpers (paper Sec 3.5).

The drivers express each phase as a sequence of (produce, consume)
batches -- e.g. (gather values, write them out).  How those batches are
scheduled is the concurrency model:

* ``NO_IO_OVERLAP``: strictly alternate -- reads stall while the write
  buffer flushes, so reads and writes never overlap (Fig 2c).
* ``IO_OVERLAP``: double-buffered -- the write of batch *i* overlaps the
  produce of batch *i+1* (Fig 2b).
* ``NO_SYNC``: produce and consume of the same batch are issued
  concurrently ("values moved directly from the input file to the
  output file"), maximising read-write interference (Fig 2a).

All helpers are generators intended for ``yield from`` inside a driver
process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.core.base import ConcurrencyModel
from repro.sim.engine import Join, ParallelOps, Spawn
from repro.sim.fluid import FluidOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine


def _op_runner(op: FluidOp):
    """A process body that performs exactly one op."""
    result = yield op
    return result


def run_ops_parallel(machine: "Machine", ops: List[FluidOp]):
    """Issue several ops concurrently and wait for all (yield from).

    All ops enter the device at the same simulated instant and the
    caller resumes when the last one finishes -- one ``ParallelOps``
    engine command instead of a spawn/join pair per op.
    """
    if not ops:
        return []
    results = yield ParallelOps(ops)
    return results


def transfer_batch(
    machine: "Machine",
    model: ConcurrencyModel,
    read_op: FluidOp,
    make_write: Callable[[object], FluidOp],
    overlapped: List,
    name: str,
):
    """One produce/consume batch of a merge sink (yield from).

    Like one iteration of :func:`pipelined_batches`, except that an
    ``IO_OVERLAP`` write is left running -- its process is appended to
    ``overlapped`` for the caller to ``Join`` when the merge ends --
    because the producer between two batches is the merge loop itself,
    not the next batch's read.
    """
    if model is ConcurrencyModel.NO_SYNC:
        data = read_op.on_complete(read_op)
        read_op.on_complete = None
        yield from run_ops_parallel(machine, [read_op, make_write(data)])
        return
    data = yield read_op
    write_op = make_write(data)
    if model is ConcurrencyModel.IO_OVERLAP:
        overlapped.append((yield Spawn(_op_runner(write_op), name)))
    else:
        yield write_op


def pipelined_batches(
    machine: "Machine",
    model: ConcurrencyModel,
    items: Iterable,
    produce: Callable[[object], FluidOp],
    consume: Callable[[object, object], Optional[FluidOp]],
):
    """Run produce/consume over ``items`` under a concurrency model.

    ``produce(item)`` returns the read/gather op (its completion value is
    handed to consume); ``consume(item, data)`` returns the write op, or
    None when the batch produces no output.  The helper guarantees that
    the data of batch *i* is produced before its consume op is built, so
    file contents stay correct under every model.
    """
    if model is ConcurrencyModel.NO_IO_OVERLAP:
        for item in items:
            data = yield produce(item)
            write_op = consume(item, data)
            if write_op is not None:
                yield write_op
        return

    if model is ConcurrencyModel.IO_OVERLAP:
        pending = None
        for item in items:
            data = yield produce(item)
            if pending is not None:
                yield Join(pending)
            write_op = consume(item, data)
            if write_op is not None:
                pending = yield Spawn(_op_runner(write_op), name="overlap-write")
            else:
                pending = None
        if pending is not None:
            yield Join(pending)
        return

    if model is ConcurrencyModel.NO_SYNC:
        # Produce and consume of the same batch overlap on the device:
        # the batch's data dependency is satisfied eagerly by the storage
        # layer, only the timing ops run concurrently.
        for item in items:
            read_op = produce(item)
            data = read_op.on_complete(read_op) if read_op.on_complete else None
            read_op.on_complete = None
            write_op = consume(item, data)
            ops = [read_op] + ([write_op] if write_op is not None else [])
            yield from run_ops_parallel(machine, ops)
        return

    raise ValueError(f"unknown concurrency model {model!r}")
