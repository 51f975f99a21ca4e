"""Adapters syncing the cold ``*_stats()`` counters into a scrape's MetricsRegistry.

Each adapter is a factory: it captures the component owning one stats
surface (the transport's TransportStats, the query planner counters, the
constraint cache, the serving gate, the write spine, the TimeHits
collector, the LoadStatus/resolver pair) and returns a **collector** — a
callable the :class:`repro.obs.telemetry.Telemetry` facade runs on the
registry it builds for each scrape, to mirror the surface's current values
into Prometheus-shaped series.  Request accounting is not here: the kernel
records it straight into pushed families.

Pull-at-scrape keeps two properties:

* the snapshot APIs remain the source of truth, so exported values are
  *identical by construction* to what ``transport_stats()`` /
  ``query_plan_stats()`` / ``cache_stats()`` / ``collector_stats()`` report;
* nothing is added to any hot path — components keep bumping their plain
  ints, and the conversion cost is paid only when ``/metrics`` is scraped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import MetricsRegistry
from repro.util.workers import CALLER_WORKER_LABEL

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.load_status import LoadStatus
    from repro.core.monitor import TimeHits
    from repro.core.service_constraint import ServiceConstraint
    from repro.registry.querymgr import QueryManager
    from repro.registry.server import RegistryServer
    from repro.serving.supervisor import ServingSupervisor
    from repro.soap.transport import SimTransport

Collector = Callable[[MetricsRegistry], None]


def transport_collector(transport: "SimTransport") -> Collector:
    """Mirror TransportStats, including per-endpoint failure/retry attribution."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = transport.transport_stats()
        metrics.counter(
            "repro_transport_requests_total", "Wire attempts through the transport."
        ).labels().sync(snap["requests"])
        metrics.counter(
            "repro_transport_failures_total", "Failed wire attempts."
        ).labels().sync(snap["failures"])
        metrics.counter(
            "repro_transport_wire_seconds_total", "Summed simulated round-trip time."
        ).labels().sync(snap["total_latency_s"])
        metrics.counter(
            "repro_transport_retries_total", "Retry-stage retries spent."
        ).labels().sync(snap["retries"])
        metrics.counter(
            "repro_transport_backoff_seconds_total", "Summed retry backoff charged."
        ).labels().sync(snap["backoff_total_s"])
        metrics.counter(
            "repro_transport_recovered_total",
            "Retried requests that ultimately succeeded.",
        ).labels().sync(snap["recovered_after_retry"])
        metrics.counter(
            "repro_transport_exhausted_total",
            "Retried requests whose retries were exhausted.",
        ).labels().sync(snap["exhausted_retries"])
        per_requests = metrics.counter(
            "repro_transport_endpoint_requests_total",
            "Wire attempts per endpoint URI.",
            ("endpoint",),
        )
        per_failures = metrics.counter(
            "repro_transport_endpoint_failures_total",
            "Failed attempts attributed per endpoint URI.",
            ("endpoint",),
        )
        per_retries = metrics.counter(
            "repro_transport_endpoint_retries_total",
            "Retries attributed per endpoint URI.",
            ("endpoint",),
        )
        per_backoff = metrics.counter(
            "repro_transport_endpoint_backoff_seconds_total",
            "Backoff charged per endpoint URI.",
            ("endpoint",),
        )
        per_recovered = metrics.counter(
            "repro_transport_endpoint_recovered_total",
            "Requests recovered after retry per endpoint URI.",
            ("endpoint",),
        )
        per_exhausted = metrics.counter(
            "repro_transport_endpoint_exhausted_total",
            "Requests with exhausted retries per endpoint URI.",
            ("endpoint",),
        )
        for uri, count in snap["per_endpoint"].items():
            per_requests.labels(endpoint=uri).sync(count)
        for uri, count in snap["per_endpoint_failures"].items():
            per_failures.labels(endpoint=uri).sync(count)
        for uri, count in snap["per_endpoint_retries"].items():
            per_retries.labels(endpoint=uri).sync(count)
        for uri, backoff in snap["per_endpoint_backoff_s"].items():
            per_backoff.labels(endpoint=uri).sync(backoff)
        for uri, count in snap["per_endpoint_recovered"].items():
            per_recovered.labels(endpoint=uri).sync(count)
        for uri, count in snap["per_endpoint_exhausted"].items():
            per_exhausted.labels(endpoint=uri).sync(count)

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
        metrics.gauge(
            "repro_constraint_cache_entries", "Cached constraint parses."
        ).set(snap["entries"])

    return collect


def serving_collector(supervisor: "ServingSupervisor") -> Collector:
    """Mirror the ServingSupervisor admission/queue counters."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = supervisor.serving_stats()
        metrics.gauge(
            "repro_serving_queue_depth", "Requests waiting in the dispatch queue."
        ).set(snap["queue_depth"])
        metrics.gauge(
            "repro_serving_queue_capacity", "Dispatch queue bound."
        ).set(snap["queue_capacity"])
        metrics.gauge(
            "repro_serving_queue_depth_high_water",
            "Deepest dispatch queue observed at admission (saturation "
            "early-warning; the queue-wait histogram is pushed separately).",
        ).set(snap["queue_depth_high_water"])
        metrics.gauge(
            "repro_serving_workers", "Registry worker threads in the fleet."
        ).set(snap["workers"])
        metrics.counter(
            "repro_serving_accepted_total", "Requests admitted to the queue."
        ).labels().sync(snap["accepted"])
        metrics.counter(
            "repro_serving_rejected_total", "Requests shed at a full queue."
        ).labels().sync(snap["rejected"])
        served = metrics.counter(
            "repro_serving_requests_served_total",
            "Requests executed, per worker.",
            ("worker",),
        )
        for label, count in snap["served_per_worker"].items():
            served.labels(worker=label).sync(count)
        # runs on the callers' own threads, under their one bounded label
        served.labels(worker=CALLER_WORKER_LABEL).sync(snap["served_inline"])

    return collect


def writes_collector(server: "RegistryServer") -> Collector:
    """Mirror the CQRS write-spine counters (changelog, batching, idempotency)."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = server.write_stats()
        metrics.counter(
            "repro_writes_total", "Heap mutations committed through the store."
        ).labels().sync(snap["writes"])
        metrics.counter(
            "repro_writes_batched_total", "Mutations committed inside a batch."
        ).labels().sync(snap["batched_writes"])
        metrics.counter(
            "repro_writes_coalesced_total",
            "Mutations absorbed by write-behind coalescing.",
        ).labels().sync(snap["coalesced_writes"])
        metrics.counter(
            "repro_changelog_records_total", "Change records appended to the spine."
        ).labels().sync(snap["changelog_records"])
        metrics.counter(
            "repro_changelog_resets_total", "Rollback barriers in the changelog."
        ).labels().sync(snap["resets"])
        metrics.gauge(
            "repro_changelog_last_seq", "Sequence number of the newest record."
        ).set(snap["last_seq"])
        metrics.counter(
            "repro_idempotent_duplicates_total",
            "Lifecycle retries replayed from a recorded result.",
        ).labels().sync(snap["idempotent_duplicates"])
        metrics.gauge(
            "repro_idempotency_keys", "Recorded idempotency keys retained."
        ).set(snap["idempotency_keys"])

    return collect


def monitor_collector(monitor: "TimeHits") -> Collector:
    """Mirror the TimeHits collection-cycle tallies."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = monitor.collector_stats()
        metrics.counter(
            "repro_monitor_collections_total", "TimeHits monitoring sweeps run."
        ).labels().sync(snap["collections"])
        metrics.counter(
            "repro_monitor_samples_stored_total", "NodeState samples stored."
        ).labels().sync(snap["samples_stored"])
        metrics.counter(
            "repro_monitor_failures_total", "Unreachable/invalid NodeStatus replies."
        ).labels().sync(snap["failures"])
        metrics.gauge(
            "repro_monitor_targets", "Published NodeStatus endpoints monitored."
        ).set(snap["targets"])
        metrics.gauge(
            "repro_monitor_period_seconds", "Configured collection period."
        ).set(snap["period_s"])
        endpoint_failures = metrics.counter(
            "repro_monitor_endpoint_failures_total",
            "Failed NodeStatus invocations per target URI.",
            ("endpoint",),
        )
        for uri, count in snap["endpoint_failures"].items():
            endpoint_failures.labels(endpoint=uri).sync(count)

    return collect


def load_status_collector(load_status: "LoadStatus", resolver=None) -> Collector:
    """Mirror LoadStatus ranking counters (and the resolver's, when given)."""

    def collect(metrics: MetricsRegistry) -> None:
        snap = load_status.load_status_stats()
        metrics.counter(
            "repro_loadstatus_rankings_total", "LoadStatus host rankings computed."
        ).labels().sync(snap["rankings"])
        if resolver is not None:
            metrics.counter(
                "repro_resolver_resolutions_total", "Binding resolutions performed."
            ).labels().sync(resolver.resolutions)
            metrics.counter(
                "repro_resolver_balanced_resolutions_total",
                "Resolutions that applied constraint balancing.",
            ).labels().sync(resolver.balanced_resolutions)

    return collect
