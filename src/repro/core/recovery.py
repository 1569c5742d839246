"""Crash-consistent checkpoint manifests for resumable sorts.

The durability protocol is the classic write-ahead rename dance:

1. serialise the checkpoint payload (JSON) behind a self-validating
   header -- magic, body length, SHA-256 of the body;
2. write it to ``<manifest>.tmp`` as a *timed* device write (checkpoint
   overhead is visible in phase timings under the ``CKPT write`` tag);
3. atomically :meth:`~repro.storage.filesystem.SimFS.rename` the temp
   file over the live manifest name.

A crash can therefore leave (a) no manifest, (b) the previous manifest,
or (c) the new manifest -- never a torn mixture; a torn ``.tmp`` is
ignored on recovery.  Data files referenced by a manifest were written
*before* the manifest committed, and because simulated torn writes are
strict prefixes, a referenced file whose size matches its manifest entry
is known complete.

Payloads are small dicts keyed by ``phase`` (``run`` / ``intermediate``
/ ``merge`` / ``onepass`` / ``done``).  :class:`CheckpointedRunMergeSort`
owns that schema and the whole protocol around it -- when each phase
commits, commit-before-delete in intermediate rounds, and the recovery
state machine -- for every sort of the shape *build sorted runs, then
merge them* (WiscSort and its natural-run and KLV variants, PMSort,
PMSort+ and external merge sort); a system supplies only how a run is
built and how a group is merged.

Multi-phase merging lives here too: "large amounts of data or small DRAM
sizes may necessitate multiple merge phases since a record from each run
file might not fit in available memory" (paper Sec 2.1); external merge
sort produces ``(1 + M)`` times the dataset in device traffic, with M
merge phases (Sec 2.4.1, M = 1 in dominant cases).  The fan-in of one
phase is bounded by how many run windows the read buffer can hold while
staying efficient: below a minimum window size, every refill is a tiny
read and cursor overhead dominates.  When the run count exceeds the
fan-in, runs are merged in groups into intermediate runs, repeatedly,
until one final phase remains.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import ConcurrencyModel, SortSystem
from repro.core.controller import ThreadPoolController
from repro.core.scheduler import _op_runner
from repro.errors import ConfigError, RecoveryError
from repro.sim.engine import Join, Spawn

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.storage.file import SimFile
    from repro.storage.filesystem import SimFS

#: Smallest useful per-run window, in entries.
MIN_WINDOW_ENTRIES = 16


def max_fanin(read_buffer: int, entry_size: int) -> int:
    """How many runs one merge phase can window at once."""
    if entry_size < 1:
        raise ConfigError("entry_size must be >= 1")
    fanin = read_buffer // (entry_size * MIN_WINDOW_ENTRIES)
    return max(2, fanin)


def merge_rounds(n_runs: int, fanin: int) -> int:
    """Number of merge phases M needed for ``n_runs`` at ``fanin``."""
    if fanin < 2:
        raise ConfigError("fanin must be >= 2")
    if n_runs <= 1:
        return min(1, n_runs)
    rounds = 0
    while n_runs > 1:
        n_runs = -(-n_runs // fanin)
        rounds += 1
    return rounds


def grouped(names: Sequence[str], fanin: int) -> Iterator[List[str]]:
    """Split run names into consecutive groups of at most ``fanin``."""
    for start in range(0, len(names), fanin):
        yield list(names[start : start + fanin])


_MAGIC = b"WSCKPT1\n"
_HEADER = len(_MAGIC) + 8 + 32  # magic + u64 body length + sha256


def encode_manifest(payload: dict) -> np.ndarray:
    """Serialise ``payload`` with the self-validating header."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    header = (
        _MAGIC
        + len(body).to_bytes(8, "little")
        + hashlib.sha256(body).digest()
    )
    return np.frombuffer(header + body, dtype=np.uint8)


def decode_manifest(data: np.ndarray) -> dict:
    """Parse and verify manifest bytes; raises :class:`RecoveryError`."""
    raw = bytes(bytearray(data))
    if len(raw) < _HEADER or not raw.startswith(_MAGIC):
        raise RecoveryError("manifest header missing or truncated")
    length = int.from_bytes(raw[len(_MAGIC) : len(_MAGIC) + 8], "little")
    digest = raw[len(_MAGIC) + 8 : _HEADER]
    body = raw[_HEADER : _HEADER + length]
    if len(body) != length:
        raise RecoveryError("manifest body truncated")
    if hashlib.sha256(body).digest() != digest:
        raise RecoveryError("manifest checksum mismatch")
    try:
        payload = json.loads(body.decode())
    except ValueError as exc:
        raise RecoveryError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise RecoveryError("manifest payload is not an object")
    return payload


class CheckpointLog:
    """One live manifest on a simulated filesystem.

    ``save`` is a generator (the manifest write is a timed device op);
    drive it with ``yield from`` inside a simulated process.  ``load``
    and ``discard`` are metadata operations and run untimed.
    """

    TAG = "CKPT write"

    def __init__(self, fs: "SimFS", name: str, write_threads: int = 1):
        self.fs = fs
        self.name = name
        self.tmp_name = name + ".tmp"
        self.write_threads = write_threads

    def save(self, payload: dict):
        """Durably replace the manifest with ``payload`` (generator)."""
        encoded = encode_manifest(payload)
        if self.fs.exists(self.tmp_name):
            self.fs.delete(self.tmp_name)
        tmp = self.fs.create(self.tmp_name)
        yield tmp.write(0, encoded, tag=self.TAG, threads=self.write_threads)
        self.fs.rename(self.tmp_name, self.name)

    def load(self) -> Optional[dict]:
        """The last committed payload, or None if nothing ever committed.

        A leftover torn ``.tmp`` from a crash mid-save is deleted.
        """
        if self.fs.exists(self.tmp_name):
            self.fs.delete(self.tmp_name)
        if not self.fs.exists(self.name):
            return None
        # Recovery-time metadata read, like scanning a superblock during
        # boot: deliberately untimed (and audit-exempt) by design.
        with self.fs.unaudited("manifest load during recovery"):
            return decode_manifest(self.fs.open(self.name).peek())  # reprolint: disable=DEV001 -- untimed boot-time metadata read by design

    def discard(self) -> None:
        """Remove the manifest (end of a successfully completed sort)."""
        for name in (self.tmp_name, self.name):
            if self.fs.exists(name):
                self.fs.delete(name)


def pack_entries(entries: np.ndarray) -> str:
    """Hex-encode residual (taken-but-unflushed) entries for a manifest."""
    return bytes(bytearray(np.ascontiguousarray(entries).reshape(-1))).hex()


def unpack_entries(text: str, entry_size: int) -> np.ndarray:
    """Inverse of :func:`pack_entries`; returns an (n, entry_size) matrix."""
    raw = bytes.fromhex(text)
    if len(raw) % entry_size:
        raise RecoveryError("residual entries are not a whole entry multiple")
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, entry_size).copy()


class CheckpointedRunMergeSort(SortSystem):
    """A sort that builds sorted run files and merges them, resumably.

    The class owns the run-generation loop, the intermediate merge
    rounds, the manifest protocol woven through both and
    :meth:`recover`'s state machine.  A concrete system sets ``fmt``,
    ``config`` and ``output_name`` and supplies:

    * :attr:`_merge_entry_size` -- bytes per entry flowing through a
      merge (bounds the fan-in of one round);
    * :meth:`_plan_runs` -- the run files the input yields, with the
      exact size each must have when complete;
    * :meth:`_build_run` -- the timed work of building run *i*, up to
      (not including) issuing its write;
    * :meth:`_merge_group` -- merge a group of runs into an intermediate
      run file;
    * :meth:`_final_merge` -- merge the last round into the output,
      optionally resumed from a ``merge`` checkpoint;
    * optionally :meth:`_controller` for pools other than the config's
      (PMSort's single thread) and :meth:`_recover_without_runs` for a
      mode that builds no runs at all (WiscSort's OnePass).

    A system that can resume declares a ``checkpoint`` flag; one that
    cannot (PMSort, PMSort+, KLV WiscSort) has none, so a crash plan is
    refused before it runs.

    Manifest phases, each committed only after the writes it describes
    are durable: ``run`` (a prefix of the planned runs is complete),
    ``intermediate`` (the live run set after one group merge --
    committed *before* the merged inputs are deleted, so a crash in
    between leaves both and recovery drops whatever the manifest
    disowns), ``merge`` (live run set + durable output records +
    per-run consumed counts + the taken-but-unflushed residual) and
    ``done`` (committed before the last runs are deleted; the manifest
    goes with them).
    """

    #: Simulated-process name of a run; ``<name>-recover`` for recovery.
    _proc_name = "sort"
    #: Process name of an overlapped (non-NO_IO_OVERLAP) run-file write.
    _run_write_proc = "run-write"
    #: Process name of an overlapped final-merge output write.
    _merge_write_proc = "merge-write"
    #: Intermediate runs are named ``<output>.<_inter_tag>.<seq>``.
    _inter_tag = "merge"
    #: Whether phases open trace spans.
    _trace_phases = False

    def __init__(self):
        self._ckpt: Optional[CheckpointLog] = None
        self._inter_seq = 0
        #: Number of merge phases M of the last run.
        self.merge_passes: int = 0
        #: Salvaged-vs-redone accounting of the last ``recover()`` call.
        self.last_recovery: dict = {}

    # -- supplied by the system -------------------------------------------
    @property
    def _merge_entry_size(self) -> int:
        raise NotImplementedError

    def _plan_runs(self, machine, input_file) -> List[Tuple[str, int, Any]]:
        """``(run name, exact complete size, build spec)`` per run."""
        raise NotImplementedError

    def _build_run(self, machine, input_file, controller, name, spec):
        """Generator: load and sort one run, create its file and return
        the (not yet issued) op that writes it."""
        raise NotImplementedError

    def _merge_group(self, machine, input_file, controller, group, out_file):
        """Generator: merge the runs named in ``group`` into ``out_file``."""
        raise NotImplementedError

    def _final_merge(self, machine, input_file, output, controller, run_names,
                     resume=None):
        """Generator: merge ``run_names`` into ``output``, committing a
        ``merge`` checkpoint per durable flush; ``resume`` is the last
        such checkpoint when re-entering after a crash."""
        raise NotImplementedError

    def _recover_without_runs(self, machine, input_file, output, controller,
                              state, metrics):
        """A generator finishing a sort that builds no runs, or None."""
        return None

    def _controller(self, machine) -> ThreadPoolController:
        """The pool-size oracle the whole sort runs under."""
        return ThreadPoolController.of(machine, self.config)

    def _check_input(self, input_file: "SimFile") -> None:
        """Refuse an input that is not a whole number of records."""
        if input_file.size % self.fmt.record_size:
            raise ConfigError(
                f"input size {input_file.size} not a multiple of record size"
            )

    # -- manifest plumbing -------------------------------------------------
    def _manifest_name(self) -> str:
        return f"{self.output_name}.manifest"

    @property
    def _checkpointing(self) -> bool:
        return getattr(self, "checkpoint", False)

    def _check_checkpoint_config(self) -> None:
        if self._checkpointing and (
            self.config.concurrency is not ConcurrencyModel.NO_IO_OVERLAP
        ):
            raise ConfigError(
                "checkpointing requires the no-io-overlap concurrency "
                "model: a checkpoint must only commit after the writes it "
                "describes are durable"
            )

    def _arm_checkpoint(self, fs: "SimFS") -> None:
        self._ckpt = (
            CheckpointLog(fs, self._manifest_name()) if self._checkpointing else None
        )
        self._inter_seq = 0

    def _commit(self, payload: dict):
        """Durably commit ``payload`` when checkpointing (generator)."""
        if self._ckpt is not None:
            yield from self._ckpt.save(payload)

    def _span(self, machine, name: str, **args):
        return machine.trace_span(name, **args) if self._trace_phases else nullcontext()

    def _next_inter_name(self, fs: "SimFS") -> str:
        """A fresh intermediate-run name (never reused across recoveries,
        so a torn intermediate file can't collide with a survivor)."""
        while True:
            self._inter_seq += 1
            name = f"{self.output_name}.{self._inter_tag}.{self._inter_seq}"
            if not fs.exists(name):
                return name

    def _drop_strays(self, fs: "SimFS", live) -> int:
        """Delete artifacts the manifest disowns (torn intermediates,
        already-merged inputs whose delete didn't happen before the
        crash).  Returns the byte total dropped."""
        keep = {self.output_name, self._manifest_name(), self._ckpt.tmp_name, *live}
        prefix = self.output_name + "."
        dropped = 0
        for name in list(fs.list()):
            if name.startswith(prefix) and name not in keep:
                dropped += fs.open(name).size
                fs.delete(name)
        return dropped

    # -- the sort ----------------------------------------------------------
    def _execute(self, machine: "Machine", input_file: "SimFile") -> "SimFile":
        self._check_input(input_file)
        self._check_checkpoint_config()
        controller = self._controller(machine)
        output = machine.fs.create(self.output_name)
        self._arm_checkpoint(machine.fs)
        machine.run(
            self._run_then_merge(machine, input_file, output, controller),
            name=self._proc_name,
        )
        return output

    def _run_then_merge(self, machine, input_file, output, controller):
        run_names = yield from self._run_phase(machine, input_file, controller)
        yield from self._merge_tail(
            machine, input_file, output, controller, run_names
        )

    def _run_phase(self, machine, input_file, controller):
        """Build every planned run; returns the run names."""
        plan = self._plan_runs(machine, input_file)
        # IO_OVERLAP deliberately overlaps a run's write with the next
        # chunk's read; NO_SYNC's uncoordinated workers do the same.  The
        # model is the controller's: PMSort runs serially under any.
        overlap = controller.config.concurrency is not ConcurrencyModel.NO_IO_OVERLAP
        pending_write = None
        with self._span(machine, "phase:run-generation", chunks=len(plan)):
            for i, (name, _size, spec) in enumerate(plan):
                write_op = yield from self._build_run(
                    machine, input_file, controller, name, spec
                )
                if overlap:
                    if pending_write is not None:
                        yield Join(pending_write)
                    pending_write = yield Spawn(
                        _op_runner(write_op), self._run_write_proc
                    )
                else:
                    yield write_op
                    yield from self._commit(
                        {"phase": "run", "runs_done": i + 1, "n_runs": len(plan)}
                    )
            if pending_write is not None:
                yield Join(pending_write)
        return [name for name, _size, _spec in plan]

    def _merge_tail(self, machine, input_file, output, controller, run_names):
        """Intermediate merge rounds + the final merge to the output.

        Entered both by a normal run (after the run phase) and by crash
        recovery (with the manifest's surviving run set).  Multiple
        merge phases (Sec 2.1) happen when the run count exceeds the
        read buffer's fan-in: groups merge into intermediate runs until
        one final phase remains.
        """
        fs = machine.fs
        fanin = max_fanin(self.config.read_buffer, self._merge_entry_size)
        self.merge_passes = merge_rounds(len(run_names), fanin)
        if len(run_names) > fanin:
            with self._span(
                machine, "phase:intermediate-merge", runs=len(run_names), fanin=fanin
            ):
                while len(run_names) > fanin:
                    next_names: List[str] = []
                    groups = list(grouped(run_names, fanin))
                    for gi, group in enumerate(groups):
                        if len(group) == 1:
                            next_names.append(group[0])
                            continue
                        inter = fs.create(self._next_inter_name(fs))
                        inter.reserve(sum(fs.open(name).size for name in group))
                        yield from self._merge_group(
                            machine, input_file, controller, group, inter
                        )
                        next_names.append(inter.name)
                        if self._ckpt is not None:
                            # Commit the new live set *before* deleting
                            # the merged inputs.
                            live = next_names + [
                                nm for g in groups[gi + 1 :] for nm in g
                            ]
                            yield from self._commit(
                                {"phase": "intermediate", "run_names": live}
                            )
                        for name in group:
                            fs.delete(name)
                    run_names = next_names
        yield from self._commit(
            {
                "phase": "merge",
                "run_names": list(run_names),
                "out_records": 0,
                "consumed": [0] * len(run_names),
                "residual": "",
            }
        )
        yield from self._finish_merge(
            machine, input_file, output, controller, run_names
        )

    def _finish_merge(self, machine, input_file, output, controller, run_names,
                      resume=None):
        # Reserved only now: a system that drops its input after its run
        # phase (EMS) never holds input and output at once.
        output.reserve(input_file.size)
        yield from self._final_merge(
            machine, input_file, output, controller, run_names, resume
        )
        yield from self._complete(machine.fs, run_names)

    def _complete(self, fs: "SimFS", run_names=()):
        """The output is durable (generator): commit ``done`` *before*
        deleting the merged runs, as the intermediate rounds do -- a
        crash on that write leaves the runs its ``merge`` checkpoint
        names -- then drop the manifest, so a completed sort leaves
        nothing under its output's name but the output."""
        yield from self._commit({"phase": "done"})
        for name in run_names:
            fs.delete(name)
        if self._ckpt is not None:
            self._ckpt.discard()

    def _merge_checkpoint(self, run_names, out_records, cursors, pending) -> dict:
        """The ``merge`` payload after a durable output flush: a
        consistent snapshot -- per-cursor consumption covers both the
        durable output and the residual entries saved alongside."""
        return {
            "phase": "merge",
            "run_names": list(run_names),
            "out_records": out_records,
            "consumed": [c.taken for c in cursors],
            "residual": pack_entries(pending.residual()),
        }

    # -- crash recovery ----------------------------------------------------
    @staticmethod
    def _keep_prefix(output: "SimFile", keep: int, metrics: dict) -> None:
        """Truncate ``output`` to its durable ``keep``-byte prefix: the
        prefix is salvaged, anything torn beyond it will be redone."""
        if output.size > keep:
            metrics["redone_bytes"] += output.size - keep
            output.truncate(keep)
        metrics["salvaged_bytes"] += keep

    def _execute_recover(self, machine: "Machine", input_file: "SimFile"):
        """Resume after a :class:`~repro.errors.SimulatedCrash`.

        Loads the last committed manifest, classifies every on-device
        artifact as salvageable (complete per the durability rules in
        DESIGN.md) or torn (discarded and redone), and re-enters the sort
        at the furthest checkpointed point.  Repeated crashes during
        recovery are safe: every path below is itself checkpointed.
        """
        if not self._checkpointing:
            raise RecoveryError(f"{self.name}: recovery requires checkpoint=True")
        self._check_checkpoint_config()
        fs = machine.fs
        controller = self._controller(machine)
        output = (
            fs.open(self.output_name)
            if fs.exists(self.output_name)
            else fs.create(self.output_name)
        )
        self._ckpt = CheckpointLog(fs, self._manifest_name())
        state = self._ckpt.load() or {}
        self.last_recovery = metrics = {
            "salvaged_bytes": 0,
            "redone_bytes": 0,
            "salvaged_runs": 0,
            "redone_runs": 0,
        }
        machine.run(
            self._recover_driver(
                machine, input_file, output, controller, state, metrics
            ),
            name=f"{self._proc_name}-recover",
        )
        return output

    def _recover_driver(self, machine, input_file, output, controller, state,
                        metrics):
        args = (machine, input_file, output, controller)
        fs = machine.fs
        phase = state.get("phase")
        with self._span(machine, "phase:recover", checkpoint=phase):
            if phase == "done":
                # Crashed after the sort completed (e.g. during
                # validation, or before its runs were deleted): the whole
                # output is durable and nothing else is needed.
                metrics["salvaged_bytes"] += output.size
                self._drop_strays(fs, ())
                self._ckpt.discard()
                return
            runless = self._recover_without_runs(*args, state, metrics)
            if runless is not None:
                yield from runless
                return
            if phase in ("merge", "intermediate"):
                run_names = state["run_names"]
                metrics["redone_bytes"] += self._drop_strays(fs, run_names)
                out_records = state["out_records"] if phase == "merge" else 0
                self._keep_prefix(output, out_records * self.fmt.record_size, metrics)
                for name in run_names:
                    metrics["salvaged_bytes"] += fs.open(name).size
                metrics["salvaged_runs"] += len(run_names)
                if phase == "merge":
                    yield from self._finish_merge(*args, run_names, resume=state)
                else:
                    yield from self._merge_tail(*args, run_names)
                return
            # phase is "run" or None: salvage complete runs by their
            # expected exact size (torn writes are strict prefixes, so a
            # full-size run file is known complete) and rebuild the rest.
            self._keep_prefix(output, 0, metrics)
            plan = self._plan_runs(machine, input_file)
            for i, (name, size, spec) in enumerate(plan):
                if fs.exists(name) and fs.open(name).size == size:
                    metrics["salvaged_bytes"] += size
                    metrics["salvaged_runs"] += 1
                    continue
                if fs.exists(name):
                    metrics["redone_bytes"] += fs.open(name).size
                    fs.delete(name)
                metrics["redone_bytes"] += size
                metrics["redone_runs"] += 1
                write_op = yield from self._build_run(
                    machine, input_file, controller, name, spec
                )
                yield write_op
                yield from self._commit(
                    {"phase": "run", "runs_done": i + 1, "n_runs": len(plan)}
                )
            yield from self._merge_tail(*args, [name for name, _s, _spec in plan])
