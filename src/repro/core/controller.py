"""Thread-pool controller (paper Sec 3.4).

Determines the pool size for each operation class from device
calibration.  On the paper's PMEM testbed this resolves to 16-32 read
threads and ~5 write threads; on other BRAID devices the controller
adapts automatically because it consumes measured scaling curves, not
hard-coded constants.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import TYPE_CHECKING

from repro.calibrate.microbench import CalibrationResult, calibrate_device
from repro.core.base import ConcurrencyModel, SortConfig
from repro.device.profile import Pattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine


#: What makes two configs the same controller (``ThreadPoolController.of``).
_CONFIG_FIELDS = tuple(f.name for f in fields(SortConfig))


class ThreadPoolController:
    """Pool-size oracle for one machine's device.

    ``NO_SYNC`` runs bypass the controller by design (Fig 2a): pools are
    *uncontrolled* -- every operation uses as many threads as there are
    cores, which is exactly what hurts on devices whose write bandwidth
    degrades beyond a few threads.
    """

    def __init__(self, machine: "Machine", config: SortConfig):
        self.machine = machine
        self.config = config
        self.calibration: CalibrationResult = calibrate_device(
            machine.profile, machine.host
        )

    @classmethod
    def of(cls, machine: "Machine", config: SortConfig) -> "ThreadPoolController":
        """The controller of ``machine`` under ``config``'s values, built
        once: its machine, config and calibration are fixed for the
        machine's life, and a service builds one sorter per job.  It
        holds a copy of ``config``, so mutating the caller's later does
        not change what an equal-valued config is answered with."""
        memo = machine.pool_controllers
        key = tuple([getattr(config, name) for name in _CONFIG_FIELDS])
        controller = memo.get(key)
        if controller is None:
            controller = memo[key] = cls(machine, replace(config))
        return controller

    # ------------------------------------------------------------------
    def read_threads(self, pattern: Pattern = Pattern.SEQ) -> int:
        """Pool size for reads of the given access pattern."""
        if self.config.concurrency is ConcurrencyModel.NO_SYNC:
            return self.machine.host.ncores
        if self.config.read_threads is not None:
            return self.config.read_threads
        if pattern is Pattern.SEQ:
            return self.calibration.seq_read.best_threads
        return self.calibration.rand_read.best_threads

    def write_threads(self) -> int:
        """Pool size for writes (PMEM: small -- writes do not scale)."""
        if self.config.concurrency is ConcurrencyModel.NO_SYNC:
            return self.machine.host.ncores
        if self.config.write_threads is not None:
            return self.config.write_threads
        return self.calibration.write.best_threads

    def sort_cores(self) -> int:
        """Cores used by in-memory sorting."""
        if self.config.sort_cores is not None:
            return self.config.sort_cores
        return self.machine.host.ncores

    def describe(self) -> str:
        return (
            f"pools(device={self.calibration.device_name}): "
            f"seq-read={self.read_threads(Pattern.SEQ)}, "
            f"rand-read={self.read_threads(Pattern.RAND)}, "
            f"write={self.write_threads()}, sort={self.sort_cores()}"
        )


class WritePoolArbiter:
    """Per-device write admission for cross-shard shuffles (Sec 3.4 at
    cluster scale).

    Each destination device gets one calibrated write pool; concurrent
    source shards pushing partitions to the same destination must take
    that device's slot before writing, so a device never sees more than
    its controller-chosen write-thread count -- the single-machine
    write-pool discipline, extended across shards.
    """

    def __init__(self, cluster):
        self._slots = {}
        self._controllers = {}
        for shard in cluster.shards:
            self._controllers[shard.domain] = ThreadPoolController(shard, cluster.config)
            self._slots[shard.domain] = shard.semaphore(
                1, name=f"write-pool:{shard.domain}", reason="write-slot"
            )

    def write_threads(self, domain: str) -> int:
        """The destination device's calibrated write-pool size."""
        return self._controllers[domain].write_threads()

    def controller(self, domain: str) -> ThreadPoolController:
        return self._controllers[domain]

    def acquire(self, domain: str):
        """Yieldable acquire of the destination device's write slot."""
        return self._slots[domain].acquire()

    def release(self, domain: str) -> None:
        self._slots[domain].release()
