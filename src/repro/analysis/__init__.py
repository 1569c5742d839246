"""Static analysis and runtime sanitizers for the simulator.

Two halves:

* **reprolint** (:mod:`repro.analysis.lint`, :mod:`repro.analysis.rules`)
  -- an AST-based linter enforcing simulator-specific invariants (no
  wall-clock in simulated code, no unseeded RNG, no iteration-order
  leaks, no float-equality on simulated time, no uncharged byte moves).
  Run it with ``python -m repro.analysis.lint <paths>``.

* **SimSanitizer** (:mod:`repro.analysis.sanitizer`) -- an opt-in
  runtime checker installed via
  :meth:`repro.machine.Machine.install_sanitizer` (CLI: ``--sanitize``):
  deadlock diagnostics naming stuck coroutines, a charge-accounting
  audit, and a run-twice determinism harness.

Plus **simrace** (:mod:`repro.analysis.race`) -- a sim-time race
detector (vector clocks + per-file byte-range access logs, CLI:
``--race-detect``) and a schedule-fuzz harness permuting same-instant
scheduling ties (CLI: ``--schedule-fuzz N``).
"""

from repro.analysis.race import (
    RaceDetector,
    RaceReport,
    ScheduleFuzzReport,
    SchedulePermuter,
    file_fingerprint,
    schedule_fuzz,
    sort_output_fingerprint,
)
from repro.analysis.rules import RULES, Finding, check_module
from repro.analysis.sanitizer import (
    ChargeAuditor,
    DeterminismReport,
    SimSanitizer,
    verify_determinism,
)


def __getattr__(name):
    # Lazy re-export: importing repro.analysis.lint here eagerly would
    # trip the "found in sys.modules" warning under
    # ``python -m repro.analysis.lint``.
    if name in ("lint_paths", "lint_source"):
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(name)

__all__ = [
    "RULES",
    "Finding",
    "check_module",
    "lint_paths",
    "lint_source",
    "ChargeAuditor",
    "DeterminismReport",
    "SimSanitizer",
    "verify_determinism",
    "RaceDetector",
    "RaceReport",
    "SchedulePermuter",
    "ScheduleFuzzReport",
    "schedule_fuzz",
    "file_fingerprint",
    "sort_output_fingerprint",
]
