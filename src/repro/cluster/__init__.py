"""Scale-out: multi-device sharded sorting and a cluster sort service.

One shared :class:`~repro.sim.engine.Engine` hosts N device shards (each
a full :class:`~repro.machine.Machine` routed through a
:class:`~repro.sim.domains.DomainRouter`), so concurrent per-shard sorts
contend realistically on their own devices while sharing one simulated
clock and one DRAM pool.

* :class:`Cluster` -- owns the engine, the shards and the shared DRAM.
* :class:`ShardedWiscSort` -- range-partitioning shuffle + per-shard
  WiscSort; merged output is byte-identical to a single-device run.
* :class:`SortService` -- the one admission loop for concurrent sort
  jobs: arrival processes (a batch is a finite trace at ``t=0``), a
  registry-resolved policy, per-job DRAM reservations, load shedding,
  deadline accounting and SLO reports (see :mod:`repro.cluster.service`).
"""

from repro.cluster.cluster import Cluster, ClusterStats, ShardedFile, generate_cluster_dataset
from repro.cluster.policies import AdmissionPolicy, SchedulingContext
from repro.cluster.service import SLO, Job, ServiceReport, SortService, parse_slo
from repro.cluster.sharded import ShardedWiscSort

__all__ = [
    "AdmissionPolicy",
    "Cluster",
    "ClusterStats",
    "SLO",
    "SchedulingContext",
    "ServiceReport",
    "ShardedFile",
    "SortService",
    "generate_cluster_dataset",
    "Job",
    "ShardedWiscSort",
    "parse_slo",
]
