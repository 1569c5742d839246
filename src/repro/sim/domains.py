"""Multi-device rate-model routing: one engine, N independent devices.

A :class:`DomainRouter` is a :class:`~repro.sim.fluid.RateModel` that
hosts several inner rate models, one per *domain* (a device/socket
pair).  Ops carry their domain in ``attrs["domain"]``; the router maps
each domain to its own resource group, so the fluid scheduler's
incremental re-rating isolates devices from each other -- issuing an op
on shard 2 never re-rates shard 0's in-flight ops.

The scheduler solves one resource group at a time, so it only ever
hands ``assign`` the ops of one domain, in issue order (and only on a
rate-table miss, or for a domain whose model has no vector protocol).
``assign`` still accepts any mix of domains -- it sub-partitions its
input before delegating, preserving each domain's order -- so the inner
models (and their memo caches) see exactly what they would have seen
standalone whoever calls it.

Modelling note: each domain owns a full inner model including its host
resources.  A cluster of N BRAID devices is modelled as N single-socket
NUMA nodes (the paper's testbed is itself a multi-DIMM box); cross-
device traffic pays cost on both sockets via one op per side.

The domain key ``"net"`` is conventionally reserved for the cluster
interconnect: :class:`~repro.cluster.cluster.Cluster` registers a
:class:`~repro.sim.fluid.NetLinkRateModel` under it so cross-shard
transfers (``kind="net"`` ops tagged with ``src``/``dst`` endpoints)
share one max-min fair bandwidth pool, isolated from device ops.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigError, SimulationError
from repro.sim.fluid import FluidOp, RateModel


class DomainRouter(RateModel):
    """Dispatches rate assignment to one inner model per domain."""

    def __init__(self) -> None:
        self._models: Dict[str, RateModel] = {}

    # ------------------------------------------------------------------
    def add_domain(self, key: str, model: RateModel) -> None:
        """Register ``model`` to rate all ops tagged with domain ``key``."""
        if not isinstance(key, str) or not key:
            raise ConfigError(f"domain key must be a non-empty string, got {key!r}")
        if key in self._models:
            raise ConfigError(f"domain {key!r} is already registered")
        self._models[key] = model

    def model_for(self, key: str) -> RateModel:
        return self._models[key]

    @property
    def domains(self) -> Tuple[str, ...]:
        """Registered domain keys, in registration order."""
        return tuple(self._models)

    # ------------------------------------------------------------------
    def resource_key(self, op: FluidOp) -> str:
        """The op's domain: its resource group in the fluid scheduler."""
        attrs = op.attrs
        domain = None if attrs is None else attrs.get("domain")
        if domain is None:
            raise SimulationError(
                f"op {op!r} has no domain attribute; every op issued on a "
                f"shared multi-domain engine must come from a domain-tagged "
                f"Machine"
            )
        return domain

    def assign(self, ops: Iterable[FluidOp]) -> Dict[FluidOp, float]:
        """Partition ``ops`` by domain and delegate to the inner models.

        Buckets are keyed in first-seen order and each bucket preserves
        the caller's (issue) order, so per-domain assignment is
        bit-identical to running that domain's model standalone.
        """
        buckets: Dict[str, List[FluidOp]] = {}
        order: List[str] = []
        for op in ops:
            key = op._res_key
            if key is None:
                key = self.resource_key(op)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [op]
                order.append(key)
            else:
                bucket.append(op)
        rates: Dict[FluidOp, float] = {}
        for key in order:
            model = self._models.get(key)
            if model is None:
                raise SimulationError(f"no rate model registered for domain {key!r}")
            rates.update(model.assign(buckets[key]))
        return rates

    # ------------------------------------------------------------------
    # Vector protocol: a resource group is exactly one domain, so both
    # hooks delegate wholesale to that domain's inner model.  Domains
    # whose model lacks the protocol (vector_state -> None) are solved
    # by one assign call per epoch instead of a rate-table lookup.
    def vector_state(self, key):
        model = self._models.get(key)
        if model is None:
            return None
        return model.vector_state(key)

    def vector_sig(self, op: FluidOp):
        return self._models[op._res_key].vector_sig(op)
