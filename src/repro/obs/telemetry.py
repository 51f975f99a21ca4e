"""Telemetry — the merged observability surface of one registry process.

One :class:`Telemetry` instance, ``RegistryServer.telemetry``, owns:

* a :class:`~repro.obs.metrics.MetricsRegistry` of **pushed** families —
  the request-latency histogram and fault-code counter the kernel's account
  stage records into, a finished request's one record (``pipeline_stats()``
  is a view of them) — which each scrape overlays with the **exports** of
  the sources mounted then: the keys of its own snapshot each one names;
* a :class:`~repro.obs.trace.Tracer` on the kernel's injectable clock, so
  latencies and span trees agree on what time it is; :meth:`fold_trace`
  folds each traced request's span tree into the per-stage sums
  :meth:`attribution_stats` returns, and latency observations carry its
  trace id as an **exemplar** (:meth:`exemplar_index`);
* named snapshot **sources**: every ``*_stats()`` surface under a stable
  name, merged by :meth:`snapshot` for ``telemetry_snapshot()`` and
  ``repro stats``, so ``/metrics`` and the snapshot read one dict;
* the longitudinal layer, off or inactive by default: :attr:`history`
  (time series), :attr:`log` (correlated JSON records), :attr:`slos`
  (burn-rate alerts), and named **health checks** folded with the SLO
  states into :meth:`health`;
* a bounded **slow-request log** of requests at or over
  :attr:`slow_request_threshold`, with their span trees when traced.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.obs.logging import StructuredLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.trace import Span, Tracer
from repro.util.clock import Clock, PerfClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.kernel import RequestContext

#: how many slow-request entries are retained (oldest evicted first)
DEFAULT_SLOW_LOG_CAPACITY = 64

#: health statuses in increasing severity
HEALTH_STATUSES = ("ok", "degraded", "unhealthy")

#: SLO alert state → health status contribution
_SLO_HEALTH = {"ok": "ok", "warning": "degraded", "page": "unhealthy"}


class Export(NamedTuple):
    """One number of a source's snapshot that a scrape carries.

    ``snap[key]`` is written as *family*: a counter when the name ends in
    ``_total``, else a gauge.  With *label* set, ``snap[key]`` is a
    ``{label value: number}`` map, one series per entry.
    """

    key: str
    family: str
    help: str
    label: str | None = None


def _worse(a: str, b: str) -> str:
    return a if HEALTH_STATUSES.index(a) >= HEALTH_STATUSES.index(b) else b


def _inner_stage(span: Span) -> Span | None:
    """The ``stage:`` span directly under *span* (the next stage in)."""
    for child in span.children:
        if child.name.startswith("stage:"):
            return child
    return None


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
        self._exports: dict[str, tuple[Export, ...]] = {}
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
        # created on the first queued request, so the default exposition
        # has no queue-wait family
        self._queue_wait_hist = None
        #: the traced requests' folded span trees (see :meth:`fold_trace`)
        self._fold_lock = threading.Lock()
        self._folded = dict.fromkeys(("queue_wait_s", "stage_s", "forward_hop_s"), 0.0)
        self._folded_requests = 0
        self._folded_stages: dict[str, float] = {}
        #: (metric name, *label values) → child series, resolved through
        #: ``labels()`` once and observed directly from then on
        self._series: dict[tuple[str, ...], Any] = {}

    # -- sources ---------------------------------------------------------------

    def register_source(
        self,
        name: str,
        snapshot: Callable[[], Any],
        *,
        exports: tuple[Export, ...] = (),
    ) -> None:
        """Add (or replace) one named stats surface.

        ``snapshot`` is the ``*_stats()`` callable merged verbatim by
        :meth:`snapshot`; ``exports`` names the keys of that snapshot each
        scrape carries for as long as the source stays mounted.
        """
        self._sources[name] = snapshot
        self._exports[name] = tuple(exports)

    def unregister_source(self, name: str) -> bool:
        self._exports.pop(name, None)
        return self._sources.pop(name, None) is not None

    def exports(self, name: str) -> tuple[Export, ...]:
        """What a scrape carries of source *name* (empty when unmounted)."""
        return self._exports.get(name, ())

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
        """The registry of one scrape: the pushed families plus the exports
        of the sources mounted now, each read from one ``snapshot()`` call.

        Built anew each time, so a source that was unmounted, or a label
        value that left its snapshot, is gone from the next scrape.
        """
        scrape = self.metrics.overlay()
        for name, exports in sorted(self._exports.items()):
            snap = self._sources[name]() if exports else None
            for export in exports:
                counter = export.family.endswith("_total")
                labelnames = (export.label,) if export.label else ()
                family = (scrape.counter if counter else scrape.gauge)(
                    export.family, export.help, labelnames
                )
                value = snap[export.key]
                series = value.items() if export.label else [(None, value)]
                for label_value, number in series:
                    child = family.labels(**dict(zip(labelnames, [label_value])))
                    (child.sync if counter else child.set)(number)
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

    # -- where a request's time went -------------------------------------------

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

    def fold_trace(self, root: Span) -> None:
        """Add one traced request's span tree to :meth:`attribution_stats`.

        Called by the kernel as the root span closes, its stages done.  The
        stage spans nest in pipeline order, each the ``stage:`` child of the one
        before; a stage's exclusive time is its span's duration less its
        inner stage's, and less a forward hop tagged on it (the route
        stage).  The fold starts at ``stage:account``, whose span less the
        hop is the request's ``stage`` time, so the stages re-sum to it.
        """
        span = _inner_stage(root)
        while span is not None and span.name != "stage:account":
            span = _inner_stage(span)
        if span is None:  # tracing went off mid-request: no stage was kept
            return
        tags = root.tags
        hop = tags.get("forward_hop_s", 0.0)
        parts = {
            "queue_wait_s": tags.get("queue_wait_s", 0.0),
            "stage_s": span.duration - hop,
            "forward_hop_s": hop,
        }
        stages = []
        while span is not None:
            inner = _inner_stage(span)
            seconds = span.duration - span.tags.get("forward_hop_s", 0.0)
            if inner is not None:
                seconds -= inner.duration
            stages.append((span.name[len("stage:") :], seconds))
            span = inner
        with self._fold_lock:
            self._folded_requests += 1
            for key, seconds in parts.items():
                self._folded[key] += seconds
            folded = self._folded_stages
            for name, seconds in stages:
                folded[name] = folded.get(name, 0.0) + seconds

    def attribution_stats(self) -> dict[str, Any]:
        """The ``attribution`` snapshot source: the folded span trees' sums.

        ``requests`` counts the traced requests; ``attributed_s`` is their
        wall time (queue wait + kernel), the sum of the three components,
        and ``stages`` splits ``stage_s`` per kernel stage.
        """
        with self._fold_lock:
            parts = dict(self._folded)
            requests = self._folded_requests
            stages = dict(sorted(self._folded_stages.items()))
        return {
            "enabled": self.tracer.enabled,
            "requests": requests,
            **parts,
            "attributed_s": sum(parts.values()),
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
