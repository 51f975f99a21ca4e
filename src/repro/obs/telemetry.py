"""Telemetry — the merged observability surface of one registry process.

One :class:`Telemetry` instance owns the three unified mechanisms the
``repro/obs`` subsystem provides and is the object
``RegistryServer.telemetry`` exposes:

* a :class:`~repro.obs.metrics.MetricsRegistry` of **pushed** families —
  the per-request latency histogram and the fault-code counter the kernel's
  account stage records into, the only record a finished request leaves
  (``pipeline_stats()`` is a view of them) — which every scrape overlays
  with what the **collectors** of the sources mounted at that moment report
  (see :mod:`repro.obs.adapters`);
* a :class:`~repro.obs.trace.Tracer` sharing the kernel's injectable
  monotonic clock, so pipeline latencies and span trees agree on what time
  it is (deterministic under ``ManualClock``/sim time);
* named snapshot **sources**: every legacy ``*_stats()`` surface registers
  under a stable name, and :meth:`snapshot` merges them into one dict — the
  payload of ``RegistryServer.telemetry_snapshot()`` and the ``repro
  stats`` CLI.

PR 5 adds the longitudinal layer, all sharing the same clock:

* :attr:`history` — a :class:`~repro.obs.timeseries.TimeSeriesStore`
  recording node sweeps and request latencies over time (off by default);
* :attr:`log` — a :class:`~repro.obs.logging.StructuredLog` of correlated
  JSON records (off by default);
* :attr:`slos` — a :class:`~repro.obs.slo.SloEngine` evaluating burn-rate
  alerts (inactive until an :class:`~repro.obs.slo.SLO` is added);
* named **health checks**: callables reporting ``ok``/``degraded``/
  ``unhealthy`` (e.g. node-staleness), folded with the SLO alert states
  into :meth:`health` — the ``/health`` payload degrades accordingly.

A **slow-request log** rides on the kernel hookup: requests whose latency
meets :attr:`slow_request_threshold` are captured into a bounded deque,
with the request's full span tree attached when tracing was on.

PR 9 adds the **cost-attribution plane**: with :attr:`attribution_enabled`
the kernel decomposes each request's wall time into ``queue_wait`` (serving
dispatch queue), ``stage`` (kernel pipeline, per-stage exclusive times) and
``forward_hop`` (cross-member routing wire time), which sum to it exactly,
and this facade observes the split into histogram families
(``repro_request_cost_seconds``, ``repro_request_stage_seconds``) and time
series; :meth:`attribution_stats` reads the families' sums back.
Latency histograms carry trace-id **exemplars** whenever tracing is on, so
a top bucket links to the recorded span tree (:meth:`exemplar_index`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.logging import StructuredLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.trace import Tracer
from repro.util.clock import Clock, PerfClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.adapters import Collector
    from repro.registry.kernel import RequestContext

#: how many slow-request entries are retained (oldest evicted first)
DEFAULT_SLOW_LOG_CAPACITY = 64

#: health statuses in increasing severity
HEALTH_STATUSES = ("ok", "degraded", "unhealthy")

#: SLO alert state → health status contribution
_SLO_HEALTH = {"ok": "ok", "warning": "degraded", "page": "unhealthy"}


def _worse(a: str, b: str) -> str:
    return a if HEALTH_STATUSES.index(a) >= HEALTH_STATUSES.index(b) else b


class Telemetry:
    """Metrics registry + tracer + snapshot sources for one registry."""

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        slow_request_threshold: float | None = None,
        slow_log_capacity: int = DEFAULT_SLOW_LOG_CAPACITY,
        trace: bool = False,
        history: bool = False,
        log: bool = False,
        attribution: bool = False,
        tracer_name: str = "registry",
    ) -> None:
        self.clock: Clock = clock or PerfClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.clock, enabled=trace, name=tracer_name)
        self.history = TimeSeriesStore(self.clock, enabled=history)
        self.log = StructuredLog(self.clock, enabled=log)
        self.slos = SloEngine(self.clock)
        self.slow_request_threshold = slow_request_threshold
        self.slow_requests: deque[dict[str, Any]] = deque(maxlen=slow_log_capacity)
        self._sources: dict[str, Callable[[], Any]] = {}
        self._collectors: dict[str, "Collector"] = {}
        self._health_checks: dict[str, Callable[[], Any]] = {}
        #: pushed by the kernel account stage, one observation per request;
        #: the kernel's ``pipeline_stats()`` groups these children.
        #: ``worker`` is the serving-worker label ("caller" for a request the
        #: serving gate ran inline, "main" outside the supervisor), so fleet
        #: latency can be sliced per worker.
        self.request_latency = self.metrics.histogram(
            "repro_request_latency_seconds",
            "Kernel request latency by edge, operation, and serving worker.",
            ("edge", "operation", "worker"),
        )
        #: incremented beside it when the request ended in a fault
        self.request_faults = self.metrics.counter(
            "repro_pipeline_fault_codes_total",
            "Faults by registry error code.",
            ("edge", "operation", "worker", "code"),
        )
        #: cost-attribution toggle — one bool the kernel layers check per
        #: stage; off by default so the hot path stays untouched
        self.attribution_enabled = bool(attribution)
        # the attribution/queue-wait families are created lazily on first
        # observation, so exposition output is unchanged until the cost
        # plane actually records something
        self._cost_hist = None
        self._stage_hist = None
        self._queue_wait_hist = None
        #: (metric name, *label values) → child series, resolved through
        #: ``labels()`` once and observed directly from then on
        self._series: dict[tuple[str, ...], Any] = {}

    # -- sources ---------------------------------------------------------------

    def register_source(
        self,
        name: str,
        snapshot: Callable[[], Any],
        *,
        collector: "Collector | None" = None,
    ) -> None:
        """Add (or replace) one named stats surface.

        ``snapshot`` is the ``*_stats()`` callable merged verbatim by
        :meth:`snapshot`; ``collector`` optionally mirrors the same surface
        into each scrape for as long as the source stays mounted.
        """
        self._sources[name] = snapshot
        if collector is not None:
            self._collectors[name] = collector
        else:
            self._collectors.pop(name, None)

    def unregister_source(self, name: str) -> bool:
        self._collectors.pop(name, None)
        return self._sources.pop(name, None) is not None

    def sources(self) -> list[str]:
        return sorted(self._sources)

    # -- merged views ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every registered surface's current snapshot, by source name."""
        merged = {name: self._sources[name]() for name in sorted(self._sources)}
        merged["tracer"] = self.tracer.stats()
        merged["slow_requests"] = list(self.slow_requests)
        merged["timeseries"] = self.history.stats()
        merged["log"] = self.log.stats()
        merged["slo"] = self.slos.snapshot()
        merged["attribution"] = self.attribution_stats()
        return merged

    def collect(self) -> MetricsRegistry:
        """The registry of one scrape: the pushed families plus what the
        collectors mounted now report.

        Built anew each time, so a source that was unmounted, or a label
        value that left its snapshot, is gone from the next scrape.
        """
        scrape = self.metrics.overlay()
        for name in sorted(self._collectors):
            self._collectors[name](scrape)
        if self.tracer.traces_restarted:
            # the family appears only once a malformed traceparent has
            # actually restarted a trace
            scrape.counter(
                "repro_trace_restarts_total",
                "Incoming requests whose malformed traceparent restarted "
                "the trace.",
            ).labels().sync(self.tracer.traces_restarted)
        return scrape

    def render_prometheus(self) -> str:
        """The ``/metrics`` payload: collect, then render text exposition."""
        return self.collect().render()

    def register_health_check(self, name: str, check: Callable[[], Any]) -> None:
        """Add (or replace) one named health check.

        ``check()`` returns a status string (``ok``/``degraded``/
        ``unhealthy``) or a dict with at least a ``"status"`` key; the worst
        status across all checks — and the SLO alert states, when SLOs are
        defined — becomes the overall :meth:`health` status.
        """
        self._health_checks[name] = check

    def unregister_health_check(self, name: str) -> bool:
        return self._health_checks.pop(name, None) is not None

    def health(self) -> dict[str, Any]:
        """The ``/health`` payload: liveness, surfaces, checks, SLO states."""
        status = "ok"
        checks: dict[str, Any] = {}
        for name in sorted(self._health_checks):
            result = self._health_checks[name]()
            if isinstance(result, str):
                result = {"status": result}
            checks[name] = result
            status = _worse(status, result.get("status", "ok"))
        if self.slos.active:
            slo_status = _SLO_HEALTH[self.slos.worst_state()]
            checks["slos"] = {"status": slo_status, "states": self.slos.states()}
            status = _worse(status, slo_status)
        payload: dict[str, Any] = {"status": status, "sources": self.sources()}
        if checks:
            payload["checks"] = checks
        return payload

    # -- kernel hookup ---------------------------------------------------------

    def _child(self, metric: Any, *values: str) -> Any:
        """*metric*'s series for *values* (in ``labelnames`` order)."""
        key = (metric.name, *values)
        child = self._series.get(key)
        if child is None:
            child = self._series[key] = metric.labels(
                **dict(zip(metric.labelnames, values))
            )
        return child

    def record_request(self, ctx: "RequestContext") -> None:
        """Account one finished kernel request (called by the account stage).

        The latency observation is the request's one record; a fault adds
        its code beside it.  Every other consumer below is off by default.
        """
        latency = ctx.finished - ctx.started
        edge = ctx.edge.name
        operation = ctx.operation
        worker = ctx.tags["worker"]
        # exemplar: the active trace id rides on whichever bucket this
        # observation lands in, so a p99 bucket names its slowest trace
        exemplar = {"trace_id": ctx.trace_id} if ctx.trace_id is not None else None
        self._child(self.request_latency, edge, operation, worker).observe(
            latency, exemplar
        )
        if ctx.error is not None:
            self._child(
                self.request_faults, edge, operation, worker, ctx.error.code
            ).inc()
        if self.attribution_enabled:
            attribution = ctx.tags.get("attribution")
            if attribution is not None:
                self._record_attribution(ctx, attribution, exemplar)
        if self.history.enabled:
            self.history.record(f"request.{edge}.latency", latency)
        if self.slos.active:
            self.slos.record_event("request", ok=ctx.error is None, latency=latency)
        if self.log.enabled:
            self.log.emit(
                "request",
                trace_id=ctx.trace_id,
                request_id=ctx.request_id,
                edge=edge,
                operation=operation,
                latency_s=latency,
                fault_code=ctx.error.code if ctx.error is not None else None,
            )
        threshold = self.slow_request_threshold
        if threshold is not None and latency >= threshold:
            entry: dict[str, Any] = {
                "request_id": ctx.request_id,
                "edge": edge,
                "operation": operation,
                "latency_s": latency,
                "fault_code": ctx.error.code if ctx.error is not None else None,
            }
            self.slow_requests.append(entry)
            # the kernel attaches the span tree once the root span closes
            ctx.tags["slow_request"] = entry

    # -- cost attribution ------------------------------------------------------

    def record_queue_wait(self, worker: str, seconds: float) -> None:
        """Account one dispatch-queue wait (serving worker pick-up hook)."""
        hist = self._queue_wait_hist
        if hist is None:
            hist = self._queue_wait_hist = self.metrics.histogram(
                "repro_serving_queue_wait_seconds",
                "Dispatch-queue wait from enqueue to worker pick-up.",
                ("worker",),
            )
        self._child(hist, worker).observe(seconds)
        if self.history.enabled:
            self.history.record("serving.queue_wait", seconds)

    def _record_attribution(
        self,
        ctx: "RequestContext",
        attribution: dict[str, Any],
        exemplar: dict[str, str] | None,
    ) -> None:
        """Observe one request's cost split into its families and series."""
        cost = self._cost_hist
        if cost is None:
            cost = self._cost_hist = self.metrics.histogram(
                "repro_request_cost_seconds",
                "Per-request wall-time attribution by component "
                "(queue_wait / stage / forward_hop).",
                ("edge", "component"),
            )
        stage_hist = self._stage_hist
        if stage_hist is None:
            stage_hist = self._stage_hist = self.metrics.histogram(
                "repro_request_stage_seconds",
                "Exclusive kernel pipeline time per stage "
                "(route excludes its forward hop).",
                ("stage",),
            )
        edge = ctx.edge.name
        child = self._child
        child(cost, edge, "queue_wait").observe(attribution["queue_wait_s"], exemplar)
        child(cost, edge, "stage").observe(attribution["stage_s"], exemplar)
        # the hop component only exists on forwarded requests; zero
        # observations would drown the distribution
        if attribution["forward_hop_s"]:
            child(cost, edge, "forward_hop").observe(
                attribution["forward_hop_s"], exemplar
            )
        for stage_name, seconds in attribution["stages"].items():
            child(stage_hist, stage_name).observe(seconds)
        if self.history.enabled:
            self.history.record("attribution.queue_wait", attribution["queue_wait_s"])
            self.history.record("attribution.stage", attribution["stage_s"])
            self.history.record(
                "attribution.forward_hop", attribution["forward_hop_s"]
            )

    def attribution_stats(self) -> dict[str, Any]:
        """The ``attribution`` snapshot source: component sums.

        ``attributed_s`` is the attributed requests' wall time (queue wait +
        kernel), the sum of the three components.  Every number is read off
        the cost and stage histograms' children: each attributed request
        observes ``stage`` once, and a request's kernel latency is its
        ``stage`` plus its ``forward_hop``.
        """
        sums = dict.fromkeys(("queue_wait", "stage", "forward_hop"), 0.0)
        requests = 0
        stages: dict[str, float] = {}
        if self._cost_hist is not None:  # both families appear together
            for (_edge, component), child in self._cost_hist.series():
                count, seconds, _, _ = child.aggregates()
                sums[component] += seconds
                if component == "stage":
                    requests += count
            stages = {stage: child.sum for (stage,), child in self._stage_hist.series()}
        return {
            "enabled": self.attribution_enabled,
            "requests": requests,
            **{f"{component}_s": seconds for component, seconds in sums.items()},
            "attributed_s": sum(sums.values()),
            "stages": stages,
        }

    def exemplar_index(self) -> list[dict[str, Any]]:
        """Top-bucket exemplars across every histogram family.

        One entry per series holding at least one exemplar: the *highest*
        exemplar-bearing bucket wins (the slowest traced observation), so
        ``repro top`` can jump from a p99 bucket to the recorded span tree.
        Deterministic order: family name, then label values.
        """
        from repro.obs.metrics import format_value

        out: list[dict[str, Any]] = []
        for metric in self.metrics.metrics():
            if metric.type_name != "histogram":
                continue
            for values, child in metric.series():
                exemplars = child.exemplars_snapshot()
                if not exemplars:
                    continue
                top = max(exemplars)
                bounds = child.buckets
                le = format_value(bounds[top]) if top < len(bounds) else "+Inf"
                entry = exemplars[top]
                out.append(
                    {
                        "metric": metric.name,
                        "labels": dict(zip(metric.labelnames, values)),
                        "le": le,
                        "value": entry.value,
                        **entry.labels_dict(),
                    }
                )
        return out

    def find_trace(self, trace_id: str) -> dict[str, Any] | None:
        """The recorded span tree for *trace_id*, if any survived retention.

        Slow-request entries (which persist their span tree) are searched
        first, then the tracer's bounded root-span deque.
        """
        for entry in reversed(self.slow_requests):
            trace = entry.get("trace")
            if trace is not None and trace.get("trace_id") == trace_id:
                return trace
        for root in reversed(self.tracer.traces):
            if root.trace_id == trace_id:
                return root.to_dict()
        return None
