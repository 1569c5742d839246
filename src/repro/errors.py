"""Exception hierarchy for the repro package.

Every error raised deliberately by the library derives from
:class:`ReproError` so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The simulation kernel was driven into an invalid state."""


class DeadlockError(SimulationError):
    """The event loop ran out of events while processes were still blocked."""


class StorageError(ReproError):
    """Invalid operation against the simulated filesystem or a file."""


class FileNotFoundInSimError(StorageError):
    """The named simulated file does not exist."""


class FileExistsInSimError(StorageError):
    """A simulated file with that name already exists."""


class OutOfSpaceError(StorageError):
    """The simulated device has no capacity left for the request.

    Carries ``requested`` and ``available`` byte counts so callers (and
    error messages) can report exactly how far over budget the request
    was.  ``transient`` marks injector-scripted ENOSPC bursts that a
    bounded-retry policy may retry; genuine capacity exhaustion is
    permanent.
    """

    def __init__(
        self,
        message: str,
        requested: int = 0,
        available: int = 0,
        transient: bool = False,
    ):
        super().__init__(message)
        self.requested = requested
        self.available = available
        self.transient = transient


class DramBudgetError(ReproError):
    """A DRAM allocation exceeded the configured budget."""


class RecordFormatError(ReproError):
    """Malformed record data or inconsistent record geometry."""


class ValidationError(ReproError):
    """Sort-output validation (valsort) failed."""


class ConfigError(ReproError, ValueError):
    """Invalid or inconsistent configuration values.

    Also a :class:`ValueError`: bad parameter values (negative windows,
    zero factors, malformed specs) are value errors by Python
    convention, so callers outside the library can catch them without
    importing the repro hierarchy.
    """


class SchemaMismatchError(ConfigError):
    """Two JSON reports cannot be compared (``repro trace-diff``).

    Raised when a document lacks the ``"schema"`` version stamp, when
    the two documents' schema versions disagree, when their document
    kinds differ (an analysis report against a service report), or
    when a row is malformed (a missing field, a non-number).
    """


class UnknownSystemError(ConfigError):
    """A name was looked up in a :mod:`repro.registry` that has no entry.

    Raised for unknown sorting systems, experiments and device profiles
    alike; the message always lists the valid choices so callers (and
    CLI users) see what is available without a second lookup.
    """

    def __init__(self, name: str, kind: str = "system", choices: tuple = ()):
        self.name = name
        self.kind = kind
        self.choices = tuple(choices)
        listing = ", ".join(self.choices) if self.choices else "<none registered>"
        super().__init__(f"unknown {kind} {name!r}; choices: {listing}")


class FaultError(ReproError):
    """Base class for simulated device/media faults (:mod:`repro.faults`).

    ``transient`` declares whether a bounded-retry policy may retry the
    failed operation (transient bandwidth collapse, ENOSPC bursts) or
    must escalate immediately (uncorrectable media errors).
    """

    #: Whether retrying the operation can possibly succeed.
    transient: bool = False


class MediaReadError(FaultError):
    """An uncorrectable media error (poisoned line) on a read.

    Permanent: the affected extent cannot be read back no matter how
    often the request is retried, so the retry layer escalates it
    immediately after charging the failed attempt to the device.
    """

    transient = False


class TornWriteError(FaultError):
    """A write persisted only a prefix of its payload.

    Raised in two situations: (a) by the injector when a scripted torn
    write fails mid-flight (the durable prefix stays on media and the
    caller may retry the full write), and (b) by crash recovery when a
    file's durable size does not match its manifest entry, i.e. a crash
    interrupted the write.
    """

    transient = True

    def __init__(self, message: str, durable_bytes: int = 0, expected_bytes: int = 0):
        super().__init__(message)
        self.durable_bytes = durable_bytes
        self.expected_bytes = expected_bytes


class TransientDeviceError(FaultError):
    """A transient device failure (interference, controller hiccup).

    Retryable: the retry layer backs off in simulated time and reissues
    the operation, which typically succeeds.
    """

    transient = True


class SimulatedCrash(FaultError):
    """The machine lost power at a scripted point in the simulation.

    In-flight writes are torn down to their durable prefix and the
    exception unwinds the whole event loop.  Callers recover by
    ``Machine.reboot()`` followed by the sorting system's ``recover()``
    entry point (see :mod:`repro.faults.harness`).
    """

    transient = False

    def __init__(
        self,
        message: str,
        at_time: float = 0.0,
        at_op: int = -1,
        domain: "str | None" = None,
    ):
        super().__init__(message)
        self.at_time = at_time
        self.at_op = at_op
        #: Cluster shard domain that crashed (None for standalone machines).
        self.domain = domain


class RetryExhaustedError(FaultError):
    """A transient fault persisted past the retry policy's attempt budget."""

    transient = False

    def __init__(self, message: str, attempts: int = 0, last_fault: Exception | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_fault = last_fault


class RecoveryError(ReproError):
    """Crash recovery could not restore a resumable state."""


class SanitizerError(ReproError):
    """An invariant checked by :mod:`repro.analysis.sanitizer` was violated."""


class ChargeDriftError(SanitizerError):
    """Bytes moved at the storage layer drifted from bytes charged to the
    device model (or a raw, uncharged byte move happened mid-run)."""


class DeterminismError(SanitizerError):
    """Two runs of the same seeded workload produced different event traces."""


class RaceError(SanitizerError):
    """Conflicting same-instant byte-range accesses with no happens-before
    ordering were observed by :class:`repro.analysis.race.RaceDetector`."""


class ScheduleDivergenceError(DeterminismError):
    """A legal same-instant schedule permutation changed the output bytes
    (see :func:`repro.analysis.race.schedule_fuzz`)."""
