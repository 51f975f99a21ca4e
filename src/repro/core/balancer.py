"""ConstraintBindingResolver — the modified ServiceDAO discovery path.

This is the thesis' actual change to freebXML (Figures 3.5/3.6): when a
service is discovered, ServiceDAO populates the ServiceBindingDAO results
through this resolver instead of returning publisher order:

1. **ServiceConstraint** parses/validates constraints from the description
   (memoized on its text, which no write can make stale); the time-of-day
   window is tested on every request.  No valid constraints, or the window
   not satisfied → vanilla behaviour (all bindings, publisher order) —
   keeping the scheme transparent to unconstrained services.
2. **LoadStatus** queries the NodeState table for hosts satisfying the
   performance constraints, ranked by ascending load.  NodeState holds the
   hosts the latest monitoring sweep reached, so a host whose probe failed
   is not certified from that sweep on.
3. The returned binding list puts satisfying hosts first (best host first);
   in ``filter`` mode non-satisfying hosts are dropped entirely, in the
   default ``prefer`` mode they trail the list (the thesis' "hosts that
   currently provide optimal service conditions are given preference").

Steps 2–3 are a pure function of the service's binding join, constraint
set, NodeState generation and mode: their answer is kept on the join, tagged
with the last three, so a ranking runs once per service and generation.

``attach_load_balancer`` wires the whole scheme onto a RegistryServer: it
installs this resolver on the ServiceDAO and builds the TimeHits collector —
the one-call equivalent of deploying the thesis' modified freebXML build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.load_status import LoadStatus
from repro.core.monitor import DEFAULT_PERIOD, TimeHits
from repro.core.service_constraint import ServiceConstraint
from repro.obs.telemetry import Export
from repro.persistence.views import BoundBindings, Resolved
from repro.rim import Service, ServiceBinding
from repro.sim.engine import SimEngine
from repro.soap.transport import SimTransport
from repro.util.clock import Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.server import RegistryServer


class BalanceMode(enum.Enum):
    """How non-satisfying hosts are treated."""

    #: satisfying hosts first (ranked), others after in publisher order
    PREFER = "prefer"
    #: only satisfying hosts are returned; empty result falls back to all
    FILTER = "filter"


class ConstraintBindingResolver:
    """The load-balanced implementation of the ServiceDAO binding resolver."""

    def __init__(
        self,
        service_constraint: ServiceConstraint,
        load_status: LoadStatus,
        *,
        mode: BalanceMode = BalanceMode.PREFER,
    ) -> None:
        self.service_constraint = service_constraint
        self.load_status = load_status
        self.mode = mode
        self.resolutions = 0
        self.balanced_resolutions = 0

    def stats(self) -> dict[str, int]:
        """The ``load_status`` telemetry source: LoadStatus rankings and
        this resolver's resolution counters."""
        return {
            **self.load_status.load_status_stats(),
            "resolutions": self.resolutions,
            "balanced_resolutions": self.balanced_resolutions,
        }

    def resolve(
        self, service: Service, bindings: Sequence[ServiceBinding]
    ) -> Sequence[ServiceBinding]:
        self.resolutions += 1
        constraints = self.service_constraint.constraints_of(service)
        if constraints is None or not constraints.has_performance_constraints() or (
            constraints.window is not None
            and not constraints.window.contains(self.service_constraint.clock.minutes_of_day())
        ):
            # no valid constraints / time window unsatisfied → vanilla order
            return list(bindings)
        self.balanced_resolutions += 1
        # the DAO hands over the stored join; any other sequence is joined here
        if not isinstance(bindings, BoundBindings):
            bindings = BoundBindings(bindings)
        kept, version = bindings.kept, self.load_status.node_state.generation()[0]
        if kept and kept[:3] == (version, constraints, self.mode):
            return kept[3]
        # tagged with the generation the ranking read, never a later one
        version, ranked_hosts = self.load_status.ranking(bindings.positions, constraints)
        by_host = bindings.by_host
        satisfying = [b for host in ranked_hosts for b in by_host[host]]
        if self.mode is BalanceMode.FILTER:
            # per the thesis' "preference" language a fully-overloaded pool
            # still answers — fall back to publisher order rather than
            # rendering the service undiscoverable.
            answer = Resolved(satisfying or bindings)
        else:
            satisfying_ids = {b.id for b in satisfying}
            answer = Resolved(satisfying + [b for b in bindings if b.id not in satisfying_ids])
        # one store: a racing fill stores an equal answer, or an older tag (a re-rank)
        bindings.kept = (version, constraints, self.mode, answer)
        return answer


#: the scheme's telemetry sources, each with the keys of its snapshot a scrape carries
_SCHEME_EXPORTS = {
    "constraint_cache": (
        Export("hits", "repro_constraint_cache_hits_total", "Constraint parse-cache hits."),
        Export("misses", "repro_constraint_cache_misses_total", "Constraint parse-cache misses."),
    ),
    "collector": (
        Export("collections", "repro_monitor_collections_total", "TimeHits monitoring sweeps run."),
    ),
    "load_status": (
        Export("resolutions", "repro_resolver_resolutions_total", "Binding resolutions performed."),
        Export(
            "balanced_resolutions",
            "repro_resolver_balanced_resolutions_total",
            "Resolutions that applied constraint balancing.",
        ),
    ),
    "transport": (
        Export(
            "requests", "repro_transport_requests_total", "Wire attempts through the transport."
        ),
        Export("retries", "repro_transport_retries_total", "Retry-stage retries spent."),
        Export(
            "per_endpoint_failures",
            "repro_transport_endpoint_failures_total",
            "Failed attempts attributed per endpoint URI.",
            label="endpoint",
        ),
    ),
}


@dataclass
class LoadBalancer:
    """Handle on an attached load-balancing scheme."""

    resolver: ConstraintBindingResolver
    load_status: LoadStatus
    service_constraint: ServiceConstraint
    monitor: TimeHits

    def detach(self, registry: "RegistryServer") -> None:
        """Restore vanilla discovery, stop monitoring, unmount telemetry."""
        from repro.persistence.dao import DefaultBindingResolver

        registry.daos.services.set_resolver(DefaultBindingResolver())
        self.monitor.stop()
        telemetry = getattr(registry, "telemetry", None)
        if telemetry is not None:
            for source in _SCHEME_EXPORTS:
                telemetry.unregister_source(source)
            telemetry.unregister_health_check("node_staleness")


def attach_load_balancer(
    registry: "RegistryServer",
    transport: SimTransport,
    engine: SimEngine,
    *,
    clock: Clock | None = None,
    period: float = DEFAULT_PERIOD,
    mode: BalanceMode = BalanceMode.PREFER,
    start_monitor: bool = True,
) -> LoadBalancer:
    """Install the thesis' load-balancing scheme on a registry."""
    service_constraint = ServiceConstraint(clock or registry.clock)
    load_status = LoadStatus(registry.node_state)
    resolver = ConstraintBindingResolver(service_constraint, load_status, mode=mode)
    registry.daos.services.set_resolver(resolver)
    monitor = TimeHits(registry, transport, engine, period=period)
    telemetry = getattr(registry, "telemetry", None)
    if telemetry is not None:
        # mount the scheme's stats surfaces + trace hooks on the registry's
        # telemetry facade (/metrics and telemetry_snapshot() pick them up)
        load_status.tracer = telemetry.tracer
        load_status.telemetry = telemetry
        transport.tracer = telemetry.tracer
        for source, snapshot in (
            ("constraint_cache", service_constraint.cache_stats),
            ("collector", monitor.collector_stats),
            ("load_status", resolver.stats),
            ("transport", transport.transport_stats),
        ):
            telemetry.register_source(source, snapshot, exports=_SCHEME_EXPORTS[source])
    if start_monitor:
        monitor.start()
    return LoadBalancer(
        resolver=resolver,
        load_status=load_status,
        service_constraint=service_constraint,
        monitor=monitor,
    )
