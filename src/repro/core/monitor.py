"""TimeHits — the registry's periodic monitoring collector (thesis §3.2).

Figure 3.1's TimeHits class "is responsible for two things: to invoke the
NodeStatus Web Service periodically and to collect and store current host
performance data into the database."  The data is collected every **25
seconds** by default, "however this period can be reconfigured by the
freebXML administrator."

This implementation discovers its targets the way the thesis deploys them:
the administrator publishes the **NodeStatus** service to the registry with
one access URI per monitored host (Figure 3.7), and TimeHits invokes each
URI through the transport.  A sweep stores exactly the hosts it reached, as
one NodeState generation: a host whose probe failed, or whose NodeStatus
binding was retired, is uncertified from that sweep until its first good
probe, and one dead host never stalls monitoring of the rest.

TimeHits is also the longitudinal observability feed: with the telemetry
history store enabled, every sweep records per-host time series
(``node.<host>.load``/``memory``/``swap``/``probe_latency``/``failure``);
with SLOs defined, every probe lands as a ``probe`` availability event; and
the registry's ``node_staleness`` health check — degraded when the last
sweep missed a target, unhealthy when it reached none or no sweep ran
within 2× the period — is registered here, where the period is known.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.persistence.nodestate import NodeSample, NodeStateStore
from repro.persistence.views import QueryResultView
from repro.rim.service import host_of_uri
from repro.sim.engine import PeriodicTask, SimEngine
from repro.sim.nodestatus import NODESTATUS_SERVICE_NAME, NodeStatusReading
from repro.soap.transport import SimTransport
from repro.util.errors import TransportError

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.server import RegistryServer

#: the thesis' default collection period, seconds
DEFAULT_PERIOD = 25.0


class TimeHits:
    """Periodic NodeStatus collection into the NodeState table."""

    def __init__(
        self,
        registry: "RegistryServer",
        transport: SimTransport,
        engine: SimEngine,
        *,
        period: float = DEFAULT_PERIOD,
        monitor_service_name: str = NODESTATUS_SERVICE_NAME,
    ) -> None:
        self.registry = registry
        self.transport = transport
        self.engine = engine
        self.period = period
        self.monitor_service_name = monitor_service_name
        self.node_state: NodeStateStore = registry.node_state
        self._task: PeriodicTask | None = None
        self.telemetry = getattr(registry, "telemetry", None)
        #: telemetry tracer (one span per collect cycle when tracing is on)
        self.tracer = self.telemetry and self.telemetry.tracer
        self.collections = 0
        self.samples_stored = 0
        self.failures = 0
        #: (time, samples stored, hosts it could not reach) of the last sweep,
        #: and the time of the last sweep that stored a sample
        self.last_sweep: tuple[float, int, list[str]] | None = None
        self.stored_at: float | None = None
        #: callables invoked after every sweep (e.g. the AutoScaler)
        self.post_sweep_hooks: list = []
        #: the target list, dropped by a Service/ServiceBinding record or a
        #: rollback barrier; filled ``as_of`` the watermark read *before* the
        #: scan, so a topology write landing mid-scan strands the fill
        self._targets = QueryResultView(registry.store, capacity=1)
        if self.telemetry is not None:
            self.telemetry.register_health_check("node_staleness", self.staleness_check)
            self.telemetry.slos.register_gauge("node_staleness", self.sample_age)

    # -- target discovery ----------------------------------------------------

    def target_uris(self) -> list[str]:
        """Access URIs of every published NodeStatus deployment.

        Reads the *raw* binding list (publisher order, no resolver) — the
        monitor must see every host, including overloaded ones.  The list is
        cached between sweeps and recomputed only after a Service or
        ServiceBinding write (a NodeStatus publish/retire), so the 25 s sweep
        does no registry scan in steady state.
        """
        view = self._targets
        as_of = view.catch_up()
        cached = view.get("targets")
        if cached is not None:
            return list(cached)
        daos = self.registry.daos
        services = daos.services.find_views_by_name(self.monitor_service_name)
        uris: list[str] = []
        for service in services:
            for binding in daos.service_bindings.for_service(service, copy=False):
                if binding.access_uri and binding.access_uri not in uris:
                    uris.append(binding.access_uri)
        view.put("targets", ("Service", "ServiceBinding"), uris, as_of=as_of)
        return list(uris)

    # -- collection ---------------------------------------------------------------

    def collect_once(self) -> int:
        """One monitoring sweep; returns the number of samples stored.

        With tracing enabled the sweep runs inside a ``timehits.collect``
        span (per-target transport attempts nest under it when the transport
        is traced too).
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("timehits.collect", cycle=self.collections + 1) as span:
                stored = self._collect()
                span.tags["stored"] = stored
            return stored
        return self._collect()

    def _collect(self) -> int:
        self.collections += 1
        telemetry = self.telemetry
        history = telemetry.history if telemetry is not None else None
        if history is not None and not history.enabled:
            history = None
        slos = telemetry.slos if telemetry is not None else None
        if slos is not None and not slos.active:
            slos = None
        now = self.engine.now
        samples: list[NodeSample] = []
        unreached: list[str] = []
        for uri in self.target_uris():
            host = host_of_uri(uri)
            latency_before = self.transport.stats.total_latency
            try:
                reading = self.transport.request(uri, "getNodeStatus")
            except TransportError:
                reading = None
            probe_latency = self.transport.stats.total_latency - latency_before
            if not isinstance(reading, NodeStatusReading):
                self.failures += 1
                unreached.append(host)
                if history is not None:
                    history.record(f"node.{host}.failure", 1.0, t=now)
                    history.record(f"node.{host}.probe_latency", probe_latency, t=now)
                if slos is not None:
                    slos.record_event("probe", ok=False, latency=probe_latency)
                continue
            samples.append(
                NodeSample(
                    host=host,
                    load=reading.cpu_load,
                    memory=reading.memory_available,
                    swap_memory=reading.swap_available,
                    updated=now,
                )
            )
            if history is not None:
                history.record(f"node.{host}.load", reading.cpu_load, t=now)
                history.record(f"node.{host}.memory", reading.memory_available, t=now)
                history.record(f"node.{host}.swap", reading.swap_available, t=now)
                history.record(f"node.{host}.failure", 0.0, t=now)
                history.record(f"node.{host}.probe_latency", probe_latency, t=now)
            if slos is not None:
                slos.record_event("probe", ok=True, latency=probe_latency)
        # the sweep lands as one write, of the hosts it reached and no other:
        # a ranking sees all of it or none of it
        self.node_state.record_sweep(samples)
        stored = len(samples)
        self.samples_stored += stored
        unreached.sort()
        self.last_sweep = (now, stored, unreached)
        self.stored_at = now if stored else self.stored_at
        if telemetry is not None and telemetry.log.enabled:
            telemetry.log.emit(
                "timehits.sweep",
                cycle=self.collections,
                stored=stored,
                failed=len(unreached),
                unreached=unreached,
                targets=len(self.target_uris()),
            )
        for hook in self.post_sweep_hooks:
            hook()
        return stored

    # -- failure attribution --------------------------------------------------------

    def endpoint_failures(self) -> dict[str, int]:
        """Per-target failure attribution from the transport stats.

        Maps each currently-published NodeStatus URI to the number of failed
        invocation attempts the transport recorded against it (including
        attempts consumed by the transport's retry stage), so one flaky host
        is distinguishable from a generally lossy network.
        """
        failures = self.transport.stats.per_endpoint_failures
        return {uri: failures[uri] for uri in self.target_uris() if uri in failures}

    # -- staleness -------------------------------------------------------------

    def sample_age(self) -> float:
        """Seconds since the last sweep that stored a sample: the SLO gauge."""
        return 0.0 if self.stored_at is None else self.engine.now - self.stored_at

    def staleness_check(self) -> dict:
        """The ``node_staleness`` health check, on the last sweep.

        ``ok`` when it reached every target, ``degraded`` when it missed some
        (``unreached_hosts``), ``unhealthy`` when it reached none of them or
        no sweep ran within 2× the period (monitoring is blind).
        """
        threshold = 2.0 * self.period
        status, unreached = "ok", []
        if self.last_sweep is not None:
            swept_at, stored, unreached = self.last_sweep
            if self.engine.now - swept_at > threshold or (unreached and not stored):
                status = "unhealthy"
            elif unreached:
                status = "degraded"
        return {"status": status, "unreached_hosts": unreached, "threshold_s": threshold}

    def collector_stats(self) -> dict:
        """Collection-cycle tallies (the telemetry surface)."""
        return {
            "collections": self.collections,
            "samples_stored": self.samples_stored,
            "failures": self.failures,
            "targets": len(self.target_uris()),
            "period_s": self.period,
            "running": self.running,
            "endpoint_failures": self.endpoint_failures(),
        }

    # -- scheduling -------------------------------------------------------------------

    def start(self, *, immediate: bool = True) -> None:
        """Begin periodic collection on the simulation engine."""
        if self._task is not None:
            return
        if immediate:
            self.collect_once()
        self._task = self.engine.schedule_periodic(self.period, self.collect_once)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def set_period(self, period: float) -> None:
        """Reconfigure the collection period (the administrator's knob)."""
        self.period = period
        if self._task is not None:
            self._task.set_period(period)

    @property
    def running(self) -> bool:
        return self._task is not None
