"""Adapters syncing the cold ``*_stats()`` counters into a scrape's MetricsRegistry.

Each adapter captures the component owning one stats surface (transport,
query planner, constraint cache, serving gate, write spine, TimeHits,
binding resolver) and returns a **collector**: a callable the
:class:`repro.obs.telemetry.Telemetry` facade runs on the registry it builds
for each scrape.  A collector exports only the numbers something reads
(docs/observability.md names each family's consumer); the rest stay in the
``*_stats()`` snapshot.  Request accounting is not here: the kernel records
it straight into pushed families.

Pull-at-scrape keeps two properties:

* the snapshot APIs remain the source of truth, so exported values are
  *identical by construction* to what the ``*_stats()`` surfaces report;
* nothing is added to any hot path — components keep bumping their plain
  ints, and the conversion cost is paid only when ``/metrics`` is scraped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.balancer import ConstraintBindingResolver
    from repro.core.monitor import TimeHits
    from repro.core.service_constraint import ServiceConstraint
    from repro.registry.querymgr import QueryManager
    from repro.registry.server import RegistryServer
    from repro.serving.supervisor import ServingSupervisor
    from repro.soap.transport import SimTransport

Collector = Callable[[MetricsRegistry], None]


def transport_collector(transport: "SimTransport") -> Collector:
    """Mirror the TransportStats numbers something reads off a scrape."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = transport.transport_stats()
        metrics.counter(
            "repro_transport_requests_total", "Wire attempts through the transport."
        ).labels().sync(snap["requests"])
        metrics.counter(
            "repro_transport_retries_total", "Retry-stage retries spent."
        ).labels().sync(snap["retries"])
        per_failures = metrics.counter(
            "repro_transport_endpoint_failures_total",
            "Failed attempts attributed per endpoint URI.",
            ("endpoint",),
        )
        for uri, count in snap["per_endpoint_failures"].items():
            per_failures.labels(endpoint=uri).sync(count)

    return collect


def planner_collector(qm: "QueryManager") -> Collector:
    """Mirror the query planner counters (plan cache, subqueries, rows)."""

    def collect(metrics: MetricsRegistry) -> None:
        for key, value in qm.query_plan_stats().items():
            metrics.counter(
                f"repro_query_{key}_total", f"Query engine counter {key!r}."
            ).labels().sync(value)

    return collect


def constraint_cache_collector(service_constraint: "ServiceConstraint") -> Collector:
    """Mirror the ServiceConstraint parse-cache counters."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = service_constraint.cache_stats()
        metrics.counter(
            "repro_constraint_cache_hits_total", "Constraint parse-cache hits."
        ).labels().sync(snap["hits"])
        metrics.counter(
            "repro_constraint_cache_misses_total", "Constraint parse-cache misses."
        ).labels().sync(snap["misses"])

    return collect


def serving_collector(supervisor: "ServingSupervisor") -> Collector:
    """Mirror the ServingSupervisor admission/queue counters."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = supervisor.serving_stats()
        metrics.gauge(
            "repro_serving_queue_depth_high_water",
            "Deepest dispatch queue observed at admission (saturation "
            "early-warning; the queue-wait histogram is pushed separately).",
        ).set(snap["queue_depth_high_water"])
        metrics.counter(
            "repro_serving_accepted_total", "Requests admitted to the queue."
        ).labels().sync(snap["accepted"])
        metrics.counter(
            "repro_serving_rejected_total", "Requests shed at a full queue."
        ).labels().sync(snap["rejected"])

    return collect


def writes_collector(server: "RegistryServer") -> Collector:
    """Mirror the CQRS write-spine counters (changelog, coalescing, idempotency)."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = server.write_stats()
        metrics.counter(
            "repro_writes_coalesced_total",
            "Mutations absorbed by coalescing within a transaction.",
        ).labels().sync(snap["coalesced_writes"])
        metrics.counter(
            "repro_changelog_records_total", "Change records appended to the spine."
        ).labels().sync(snap["changelog_records"])
        metrics.gauge(
            "repro_changelog_last_seq", "Sequence number of the newest record."
        ).set(snap["last_seq"])
        metrics.counter(
            "repro_idempotent_duplicates_total",
            "Lifecycle retries replayed from a recorded result.",
        ).labels().sync(snap["idempotent_duplicates"])

    return collect


def monitor_collector(monitor: "TimeHits") -> Collector:
    """Mirror the TimeHits collection-cycle tallies."""

    def collect(metrics: MetricsRegistry) -> None:
        metrics.counter(
            "repro_monitor_collections_total", "TimeHits monitoring sweeps run."
        ).labels().sync(monitor.collections)

    return collect


def resolver_collector(resolver: "ConstraintBindingResolver") -> Collector:
    """Mirror the binding resolver's resolution counters."""

    def collect(metrics: MetricsRegistry) -> None:
        metrics.counter(
            "repro_resolver_resolutions_total", "Binding resolutions performed."
        ).labels().sync(resolver.resolutions)
        metrics.counter(
            "repro_resolver_balanced_resolutions_total",
            "Resolutions that applied constraint balancing.",
        ).labels().sync(resolver.balanced_resolutions)

    return collect
