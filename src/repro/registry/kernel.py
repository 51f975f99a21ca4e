"""Registry kernel — the one request pipeline behind every protocol edge.

Historically each protocol entry point (``SoapRegistryBinding._dispatch``,
``HttpGetBinding``, the JAXR ``Connection`` local-call branches) hand-rolled
its own session lookup, authorization, fault mapping, and dispatch.  The
kernel centralizes that shape: a :class:`RequestContext` is created once at
the protocol edge and runs through a fixed sequence of stages

    account → fault-map → admit → resolve → [route] → authenticate →
    authorize → validate → dispatch

where ``account`` and ``fault-map`` wrap the rest (they observe every
outcome, success or fault) and the others are steps run in a straight line.
``route`` runs only on a federation member (``kernel.router`` set), and a
step that answers the request ends the run: ``route`` when it forwards, and
``dispatch``.  ``authenticate`` is the registry's one session rule, the
same at every edge: a session handed in-process (the JAXR local edge) is
honoured while the registry's :class:`~repro.security.authn.Authenticator`
still holds its token, otherwise the request's token is looked up there; an
operation that requires a session faults without one, any other runs as
guest.  Edges (SOAP, HTTP GET, serving, in-process JAXR) differ only in an
:class:`EdgeProfile`: whether the read gate applies at the edge, what runs
before resolution, and how a :class:`~repro.util.errors.RegistryError` is
mapped onto the wire (SOAP/HTTP serialize faults; the local edge re-raises,
preserving the pre-kernel in-process semantics).

Operations are *declared*, not if/elif'd: :class:`OperationSpec` records the
operation name, the protocol request type it binds to, whether it requires
an authenticated session, whether it is read-gated, and its handler.
``LifeCycleManager.register_operations`` and
``QueryManager.register_operations`` populate the registry at server
construction, so the SOAP body-type dispatch and the HTTP ``method=``
dispatch are two lookups into the same table.

The kernel is also the observability seam: the account stage records each
finished request once, into the telemetry facade's request-latency
histogram (and its fault-code counter on a fault), and :meth:`RegistryKernel.
pipeline_stats` reads per-edge, per-operation request counts, latency
aggregates, and fault tallies by error code back off those series.  Latency
accounting runs over an injectable :class:`~repro.util.clock.Clock`
(default: the monotonic :class:`~repro.util.clock.PerfClock`), shared with
the telemetry tracer so pipeline latencies and span trees agree on one time
source — deterministic under ``ManualClock`` or simulation time.  With
tracing enabled, a request runs the same stages, each in a ``stage:<name>``
span nested in that order under one root ``request`` span, which the
:class:`~repro.obs.telemetry.Telemetry` facade folds into its per-stage
sums once the root closes, and keeps in its slow-request log when the
request exceeds its threshold.

This module deliberately imports nothing from :mod:`repro.soap` at module
level — the protocol packages depend on the kernel, never the reverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.util.clock import Clock, PerfClock
from repro.util.errors import AuthenticationError, InvalidRequestError, RegistryError
from repro.util.workers import current_worker_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry
    from repro.obs.trace import Tracer
    from repro.registry.federation import ShardRouter
    from repro.registry.server import RegistryServer
    from repro.security.authn import Session


# -- request context -----------------------------------------------------------


@dataclass(slots=True)
class RequestContext:
    """One request's journey through the pipeline.

    Created at the protocol edge, enriched stage by stage: ``resolve`` sets
    :attr:`spec`, ``authenticate`` sets :attr:`session`, ``dispatch`` sets
    :attr:`response`.  The :attr:`tags` bag is free-form per-request state
    the edges and stages hand each other (routing, worker, queue wait).
    """

    edge: "EdgeProfile"
    request_id: str
    #: protocol request message (SOAP body / built from HTTP params); may be
    #: None for edge-native operations that work from :attr:`params`.
    body: Any = None
    #: decoded HTTP query parameters (HTTP edge) or call arguments (local edge)
    params: dict[str, Any] = field(default_factory=dict)
    #: HTTP ``method=`` operation selector, when the edge dispatches by name
    http_method: str | None = None
    #: True when the request arrived via the HTTP GET edge (name dispatch)
    via_http: bool = False
    #: session token presented by the client (SOAP header)
    token: str | None = None
    #: handed in by an in-process edge; ``authenticate`` replaces it with the
    #: session the registry holds for the request
    session: "Session | None" = None
    spec: "OperationSpec | None" = None
    response: Any = None
    error: RegistryError | None = None
    #: timestamps from the kernel's injectable clock, set by the account stage
    started: float = 0.0
    finished: float = 0.0
    #: trace id the root span runs under (None while tracing is disabled);
    #: adopted from the client's traceparent header when one arrived
    trace_id: str | None = None
    #: free-form per-request tag bag
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def operation(self) -> str:
        """Resolved operation name, or a placeholder before/without resolve."""
        return self.spec.name if self.spec is not None else UNRESOLVED_OPERATION


#: stats key for requests that fault before operation resolution
UNRESOLVED_OPERATION = "<unresolved>"


# -- operation registry --------------------------------------------------------


@dataclass(frozen=True)
class OperationSpec:
    """Declarative description of one registry operation.

    ``request_type`` is the protocol message *type name* (e.g.
    ``"SubmitObjectsRequest"``) so the kernel never imports the message
    classes; ``http_method`` is the HTTP GET ``method=`` selector when the
    operation is exposed there, and ``http_builder`` turns decoded URL
    params into the protocol message (raising
    :class:`~repro.util.errors.InvalidRequestError` for missing params —
    this is the validate step for the HTTP edge).
    """

    name: str
    handler: Callable[[RequestContext], Any]
    request_type: str | None = None
    requires_session: bool = False
    read_gate: bool = False
    http_method: str | None = None
    http_builder: Callable[[dict[str, Any]], Any] | None = None
    #: optional extra validation, run after authorize, before dispatch
    validator: Callable[[RequestContext], None] | None = None


# -- protocol edges ------------------------------------------------------------


@dataclass(frozen=True)
class EdgeProfile:
    """How one protocol edge plugs into the shared pipeline.

    ``fault_mapper`` maps a RegistryError to the edge's wire fault
    representation; ``None`` means re-raise unchanged (the in-process JAXR
    edge, which must preserve exact exception semantics).  ``admit`` runs
    before operation resolution (the HTTP edge's anonymous read gate +
    interface check live here, exactly where the pre-kernel code had them).
    ``enforce_read_gate`` applies ``RegistryServer.check_read`` to read
    operations (the local edge is the trusted localCall path and skips it).
    """

    name: str
    fault_mapper: Callable[[RegistryError], Any] | None = None
    enforce_read_gate: bool = True
    admit: Callable[[RequestContext], None] | None = None


# -- pipeline statistics -------------------------------------------------------


#: edge → operation → one ``pipeline_stats()`` aggregate
StatsTree = dict[str, dict[str, dict[str, Any]]]


def fold_operation_stats(trees: Iterable[StatsTree]) -> StatsTree:
    """Fold ``pipeline_stats()`` trees into one, sorted edge → operation.

    Counts, faults, latency totals and fault codes sum, min/max combine and
    the mean is recomputed — workers into a registry, registries into a
    cluster.  The inputs are left as they were.
    """
    merged: StatsTree = {}
    for tree in trees:
        for edge, ops in tree.items():
            out = merged.setdefault(edge, {})
            for op, part in ops.items():
                agg = out.get(op)
                if agg is None:
                    out[op] = dict(part, fault_codes=dict(part["fault_codes"]))
                    continue
                agg["count"] += part["count"]
                agg["faults"] += part["faults"]
                agg["total_latency_s"] += part["total_latency_s"]
                agg["mean_latency_s"] = agg["total_latency_s"] / agg["count"]
                agg["min_latency_s"] = min(agg["min_latency_s"], part["min_latency_s"])
                agg["max_latency_s"] = max(agg["max_latency_s"], part["max_latency_s"])
                codes = agg["fault_codes"]
                for code, n in part["fault_codes"].items():
                    codes[code] = codes.get(code, 0) + n
    return {edge: dict(sorted(ops.items())) for edge, ops in sorted(merged.items())}


# -- the pipeline --------------------------------------------------------------
#
# ``account`` and ``fault-map`` are kernel methods written around a straight
# run of the steps below.  A step does its work on the context; a step that
# answers the request (``route`` when it forwards, ``dispatch``) returns True,
# which ends the run.


def _admit(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    if ctx.edge.admit is not None:
        ctx.edge.admit(ctx)


def _resolve(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    if ctx.spec is None:
        if ctx.via_http:
            spec = kernel.operation_for_http_method(ctx.http_method)
            if spec.http_builder is not None:
                ctx.body = spec.http_builder(ctx.params)
            ctx.spec = spec
        else:
            ctx.spec = kernel.operation_for_body(ctx.body)


def _route(kernel: "RegistryKernel", ctx: RequestContext) -> bool:
    # read once: a member leaving its federation clears the slot
    router = kernel.router
    return router is not None and router.route(kernel, ctx)


def _authenticate(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    assert ctx.spec is not None
    authenticator = kernel.server.authenticator
    handed = ctx.session
    token = handed.token if handed is not None else ctx.token
    session = authenticator.session_for(token) if token else None
    if session is None:
        if ctx.spec.requires_session:
            raise AuthenticationError(
                "LifeCycleManager access requires an authenticated session"
            )
        session = authenticator.guest_session()
    ctx.session = session


def _authorize(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    assert ctx.spec is not None
    if ctx.spec.read_gate and ctx.edge.enforce_read_gate:
        kernel.server.check_read(ctx.session)


def _validate(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    assert ctx.spec is not None
    if ctx.spec.validator is not None:
        ctx.spec.validator(ctx)


def _dispatch(kernel: "RegistryKernel", ctx: RequestContext) -> bool:
    assert ctx.spec is not None
    ctx.response = ctx.spec.handler(ctx)
    return True


Steps = tuple[tuple[str, Callable[["RegistryKernel", RequestContext], Any]], ...]

#: the steps inside fault-map, in order, on a kernel with a router
_ROUTED_STEPS: Steps = (
    ("admit", _admit),
    ("resolve", _resolve),
    ("route", _route),
    ("authenticate", _authenticate),
    ("authorize", _authorize),
    ("validate", _validate),
    ("dispatch", _dispatch),
)
#: ... and on one without: every registry outside a federation
_LOCAL_STEPS: Steps = tuple(step for step in _ROUTED_STEPS if step[0] != "route")

#: request tags copied onto a traced request's root span
_ROOT_TAGS = ("route", "route_owner", "forwarded_by", "queue_wait_s", "forward_hop_s")


# -- the kernel ----------------------------------------------------------------


class RegistryKernel:
    """Shared request pipeline + operation registry for one registry server."""

    def __init__(
        self,
        server: "RegistryServer",
        *,
        telemetry: "Telemetry",
        clock: Clock | None = None,
    ) -> None:
        self.server = server
        #: latency/tracing time source — monotonic by default, injectable for
        #: deterministic accounting under ManualClock or simulation time
        self.clock: Clock = clock or PerfClock()
        #: where the account stage records; ``pipeline_stats()`` reads it back
        self.telemetry = telemetry
        self._by_request_type: dict[str, OperationSpec] = {}
        self._by_http_method: dict[str, OperationSpec] = {}
        self._by_name: dict[str, OperationSpec] = {}
        #: the federation's shard router while this registry is a member;
        #: the ``route`` step runs only while it is set
        self.router: "ShardRouter | None" = None
        #: atomic under the GIL — a single next() per request, so concurrent
        #: execute() calls can never mint duplicate request ids
        self._request_counter = itertools.count(1)

    # -- operation registry ----------------------------------------------------

    def register_operation(self, spec: OperationSpec) -> None:
        self._by_name[spec.name] = spec
        if spec.request_type is not None:
            self._by_request_type[spec.request_type] = spec
        if spec.http_method is not None:
            self._by_http_method[spec.http_method] = spec

    def operations(self) -> list[str]:
        return sorted(self._by_name)

    def operation(self, name: str) -> OperationSpec | None:
        return self._by_name.get(name)

    def operation_for_body(self, body: Any) -> OperationSpec:
        spec = self._by_request_type.get(type(body).__name__)
        if spec is None:
            raise InvalidRequestError(f"unknown request type: {type(body).__name__}")
        return spec

    def operation_for_http_method(self, method: str | None) -> OperationSpec:
        spec = self._by_http_method.get(method) if method is not None else None
        if spec is None:
            raise InvalidRequestError(f"unknown HTTP method parameter: {method!r}")
        return spec

    # -- execution -------------------------------------------------------------

    def new_request_id(self) -> str:
        """Cheap per-kernel monotonic request id (never touches IdFactory —
        object-id sequences must not depend on request traffic)."""
        return f"urn:repro:request:{next(self._request_counter)}"

    def execute(
        self,
        edge: EdgeProfile,
        *,
        body: Any = None,
        params: dict[str, Any] | None = None,
        http_method: str | None = None,
        via_http: bool = False,
        token: str | None = None,
        session: "Session | None" = None,
        spec: OperationSpec | None = None,
        traceparent: str | None = None,
        tags: dict[str, Any] | None = None,
    ) -> Any:
        """Run one request through the pipeline and return the edge response.

        ``traceparent`` is the incoming W3C-style trace context, when the
        protocol edge carried one: the root ``request`` span then joins the
        caller's trace instead of starting its own, so client transport
        spans and server pipeline spans share one trace id.  ``tags`` seeds
        the per-request tag bag before any stage runs — protocol edges use
        it to hand stages wire-level context (e.g. the SOAP binding marks
        requests another cluster member forwarded, so the ``route`` step
        serves them locally instead of forwarding again).
        """
        telemetry = self.telemetry
        tracer = telemetry.tracer
        ctx = RequestContext(
            edge=edge,
            request_id=self.new_request_id(),
            body=body,
            params=params or {},
            http_method=http_method,
            via_http=via_http,
            token=token,
            session=session,
            spec=spec,
            tags=dict(tags) if tags else {},
        )
        steps = _LOCAL_STEPS if self.router is None else _ROUTED_STEPS
        # the only read of the flag this request makes, so a flip between
        # two stages cannot leave half a span tree
        if not tracer.enabled:
            return self._account(ctx, steps, None)
        with tracer.span_in_trace(
            "request", traceparent, edge=edge.name, request_id=ctx.request_id
        ) as root:
            ctx.trace_id = root.trace_id
            try:
                with tracer.span("stage:account"):
                    result = self._account(ctx, steps, tracer)
            finally:
                root.tags["operation"] = ctx.operation
                # routing identity and the two times no stage span holds
                # ride on the root span, so a trace alone explains where its
                # wall time went
                for key in _ROOT_TAGS:
                    value = ctx.tags.get(key)
                    if value is not None:
                        root.tags[key] = value
                # every stage span has closed: the tree is complete
                telemetry.fold_trace(root)
        slow_entry = ctx.tags.get("slow_request")
        if slow_entry is not None:
            slow_entry["trace"] = root.to_dict()
        return result

    def _account(self, ctx: RequestContext, steps: Steps, tracer: "Tracer | None") -> Any:
        """The ``account`` stage: time the request and record it once,
        whatever its outcome."""
        ctx.started = self.clock.now()
        # an edge that runs requests on threads it does not own (the serving
        # gate's inline runs) names the worker itself, keeping labels bounded
        if "worker" not in ctx.tags:
            ctx.tags["worker"] = current_worker_label()
        try:
            if tracer is None:
                return self._fault_map(ctx, steps, None)
            with tracer.span("stage:fault-map"):
                return self._fault_map(ctx, steps, tracer)
        finally:
            ctx.finished = self.clock.now()
            self.telemetry.record_request(ctx)

    def _fault_map(self, ctx: RequestContext, steps: Steps, tracer: "Tracer | None") -> Any:
        """The ``fault-map`` stage: run the steps, and turn a RegistryError
        into the edge's fault (or re-raise it where the edge maps none)."""
        try:
            if tracer is None:
                for _name, step in steps:
                    if step(self, ctx):
                        break
            else:
                self._spanned(ctx, steps, tracer)
        except RegistryError as error:
            ctx.error = error
            if ctx.edge.fault_mapper is None:
                raise
            ctx.response = ctx.edge.fault_mapper(error)
        return ctx.response

    def _spanned(self, ctx: RequestContext, steps: Steps, tracer: "Tracer") -> None:
        """The same run, each step in a ``stage:<name>`` span that holds the
        spans of the steps after it."""
        (name, step), rest = steps[0], steps[1:]
        with tracer.span("stage:" + name):
            if not step(self, ctx) and rest:
                self._spanned(ctx, rest, tracer)

    # -- observability ---------------------------------------------------------

    def pipeline_stats(self, *, per_worker: bool = False) -> dict:
        """Per-edge → per-operation counts, latency aggregates, fault tallies.

        A view of the two series the account stage records into: every
        ``repro_request_latency_seconds{edge,operation,worker}`` child is one
        aggregate, its faults the ``repro_pipeline_fault_codes_total`` series
        beside it.  With ``per_worker=True`` the tree is reported under each
        worker label instead of fleet-merged (the ``repro stats
        --per-worker`` view).  A snapshot taken while requests are in flight
        is near-consistent; once they have finished it is exact.
        """
        fault_codes: dict[tuple[str, ...], dict[str, int]] = {}
        for (*key, code), child in self.telemetry.request_faults.series():
            fault_codes.setdefault(tuple(key), {})[code] = int(child.value)
        by_worker: dict[str, StatsTree] = {}
        for series, child in self.telemetry.request_latency.series():
            edge, operation, worker = series
            count, total, low, high = child.aggregates()
            codes = fault_codes.get(series, {})
            by_worker.setdefault(worker, {}).setdefault(edge, {})[operation] = {
                "count": count,
                "faults": sum(codes.values()),
                "total_latency_s": total,
                "mean_latency_s": total / count,
                "min_latency_s": low,
                "max_latency_s": high,
                "fault_codes": codes,
            }
        if per_worker:
            return dict(sorted(by_worker.items()))
        return fold_operation_stats(by_worker.values())
