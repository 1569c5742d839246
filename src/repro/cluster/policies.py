"""Admission-control policies for the sort service.

A policy decides two things and nothing else:

* :meth:`AdmissionPolicy.on_arrival` -- accept or *shed* a job the
  instant it arrives (not asked about work already due when the service
  opens: a batch is ordered, not shed).  Shedding is how a policy protects
  latency under overload instead of letting the queue grow without bound.
* :meth:`AdmissionPolicy.pick` -- which pending job to admit next, or
  ``None`` to wait for a completion.  The caller owns the DRAM
  reservation; a policy that returns a job that does not fit causes a
  head-of-line stall (deliberate for FIFO/fair/EDF, bypassed by the
  backpressure policy which only ever returns fitting jobs).

Policies are stateless between runs and constructible with no
arguments; they register under :func:`repro.registry.register_policy`
so ``--policy`` names resolve exactly like system names do (unknown
names raise :class:`~repro.errors.UnknownSystemError` listing the
choices).

Everything a decision may read is in the :class:`SchedulingContext`:
the simulated clock, DRAM fit checks, per-tenant attained service and
the queue cap.  Decisions must be deterministic -- every tie needs a
total tie-break (submission sequence, tenant name) or the admission
order would drift across legal same-instant schedules.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.registry import register_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.service import Job

#: Default pending-queue cap for the load-shedding policy.
DEFAULT_QUEUE_CAP = 64

#: Default DRAM backlog multiple for the backpressure policy.
DEFAULT_BACKLOG_FACTOR = 2.0


class SchedulingContext:
    """Read-only view of the scheduler state a policy may consult."""

    __slots__ = (
        "now", "fits", "service", "in_service", "running",
        "dram_budget", "dram_available", "queue_cap",
    )

    def __init__(
        self,
        now: float,
        fits: Callable[["Job"], bool],
        service: Dict[str, float],
        in_service: Dict[str, int],
        running: int = 0,
        dram_budget: Optional[int] = None,
        dram_available: Optional[int] = None,
        queue_cap: Optional[int] = None,
    ):
        #: Current simulated time.
        self.now = now
        #: ``fits(job)`` -- would the job's DRAM reservation fit right now?
        self.fits = fits
        #: Per-tenant attained service seconds (fair-share accounting).
        self.service = service
        #: Per-tenant count of jobs currently in service.
        self.in_service = in_service
        #: Jobs currently admitted and running.
        self.running = running
        #: Cluster DRAM budget in bytes (None = unbounded).
        self.dram_budget = dram_budget
        #: DRAM bytes currently unreserved (None = unbounded).
        self.dram_available = dram_available
        #: Service-level pending-queue cap (None = policy default).
        self.queue_cap = queue_cap


class AdmissionPolicy:
    """Base class; concrete policies override ``pick`` (and optionally
    ``on_arrival`` to shed)."""

    #: Registry name (set on concrete classes).
    name = "abstract"

    def on_arrival(
        self, job: "Job", pending: List["Job"], ctx: SchedulingContext
    ) -> bool:
        """Accept (True) or shed (False) an arriving job. Default: accept."""
        return True

    def pick(
        self, pending: List["Job"], ctx: SchedulingContext
    ) -> Optional["Job"]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@register_policy("fifo")
class FifoPolicy(AdmissionPolicy):
    """Strict submission order with head-of-line blocking."""

    name = "fifo"

    def pick(self, pending, ctx):
        return pending[0] if pending else None


@register_policy("fair")
class FairSharePolicy(AdmissionPolicy):
    """Least-attained-service fair share across tenants.

    Among tenants with pending work, admit the next job of the tenant
    that has accumulated the least service time; ties break toward the
    tenant with fewer jobs currently in service (so a burst from one
    tenant cannot grab every slot before anyone finishes), then by
    tenant name.
    """

    name = "fair"

    def pick(self, pending, ctx):
        if not pending:
            return None
        tenants: List[str] = []
        for job in pending:
            if job.tenant not in tenants:
                tenants.append(job.tenant)
        chosen = min(
            tenants,
            key=lambda t: (ctx.service[t], ctx.in_service[t], t),
        )
        for job in pending:
            if job.tenant == chosen:
                return job
        raise AssertionError("unreachable: chosen tenant has pending work")


@register_policy("edf")
class EdfPolicy(AdmissionPolicy):
    """Deadline-aware earliest-deadline-first admission.

    Jobs carry absolute deadlines (service arrivals stamp them from the
    spec's relative deadline); the pending job with the earliest
    deadline is admitted first.  Jobs without a deadline sort last, and
    all ties break by submission sequence, keeping the order total
    under same-instant arrivals.
    """

    name = "edf"

    def pick(self, pending, ctx):
        if not pending:
            return None
        return min(
            pending,
            key=lambda j: (
                j.deadline if j.deadline is not None else math.inf,
                j.seq,
            ),
        )


@register_policy("backpressure")
class BackpressurePolicy(AdmissionPolicy):
    """DRAM-aware backpressure: bound the reserved backlog, skip stalls.

    Arrivals are shed once the pending queue's total DRAM reservation
    (plus the newcomer's) would exceed ``backlog_factor`` times the
    cluster budget -- the queue may hold at most a couple of budgets'
    worth of future work, so queueing delay stays bounded by a constant
    number of drain cycles.  With no DRAM budget configured there is
    nothing to press back on and every job is accepted.

    Admission never stalls on the head: the first pending job (in
    submission order) whose reservation fits right now is admitted, so
    a whale at the head cannot starve minnows behind it.
    """

    name = "backpressure"

    def __init__(self, backlog_factor: float = DEFAULT_BACKLOG_FACTOR):
        self.backlog_factor = backlog_factor

    def on_arrival(self, job, pending, ctx):
        if ctx.dram_budget is None:
            return True
        backlog = sum(j.dram_bytes for j in pending) + job.dram_bytes
        return backlog <= self.backlog_factor * ctx.dram_budget

    def pick(self, pending, ctx):
        for job in pending:
            if ctx.fits(job):
                return job
        return None


@register_policy("shed")
class ShedPolicy(AdmissionPolicy):
    """FIFO admission with queue-depth load shedding.

    Arrivals are dropped once the pending queue holds ``queue_cap``
    jobs (the service's ``queue_cap`` overrides the default) -- the
    classic bounded-queue server: sacrifice a counted fraction of the
    offered load to keep latency percentiles of the admitted jobs flat
    through overload.
    """

    name = "shed"

    def __init__(self, queue_cap: int = DEFAULT_QUEUE_CAP):
        self.queue_cap = queue_cap

    def on_arrival(self, job, pending, ctx):
        cap = ctx.queue_cap if ctx.queue_cap is not None else self.queue_cap
        return len(pending) < cap

    def pick(self, pending, ctx):
        return pending[0] if pending else None
