"""Registry kernel — the unified request pipeline behind every protocol edge.

Historically each protocol entry point (``SoapRegistryBinding._dispatch``,
``HttpGetBinding``, the JAXR ``Connection`` local-call branches) hand-rolled
its own session lookup, authorization, fault mapping, and dispatch.  The
kernel centralizes that shape: a :class:`RequestContext` is created once at
the protocol edge and flows through an ordered **interceptor chain**

    account → fault-map → admit → resolve → authenticate → authorize →
    validate → dispatch

where ``account`` and ``fault-map`` are wrapping stages (they observe every
outcome, success or fault) and the inner stages follow the classic
authenticate → authorize → validate → dispatch request progression.  Edges
(SOAP, HTTP GET, in-process JAXR) differ only in an :class:`EdgeProfile`:
how a session is established, whether the read gate applies at the edge,
and how a :class:`~repro.util.errors.RegistryError` is mapped onto the wire
(SOAP/HTTP serialize faults; the local edge re-raises, preserving the
pre-kernel in-process semantics).

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
aggregates, and fault tallies by error code back off those series; custom
interceptors can be inserted anywhere in the chain (timing, admission
control, retries) without touching any binding.  Latency accounting runs
over an injectable
:class:`~repro.util.clock.Clock` (default: the monotonic
:class:`~repro.util.clock.PerfClock`), shared with the telemetry tracer so
pipeline latencies and span trees agree on one time source — deterministic
under ``ManualClock`` or simulation time.  With tracing enabled, every
request produces a span tree: one root ``request`` span with stage spans
nested in chain order (custom interceptors included), which the
:class:`~repro.obs.telemetry.Telemetry` facade folds into its per-stage
sums once the root closes, and keeps in its slow-request log when the
request exceeds its threshold.

This module deliberately imports nothing from :mod:`repro.soap` at module
level — the protocol packages depend on the kernel, never the reverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol

from repro.util.clock import Clock, PerfClock
from repro.util.errors import InvalidRequestError, RegistryError
from repro.util.workers import current_worker_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry
    from repro.registry.server import RegistryServer
    from repro.security.authn import Session


# -- request context -----------------------------------------------------------


@dataclass(slots=True)
class RequestContext:
    """One request's journey through the pipeline.

    Created at the protocol edge, enriched stage by stage: ``resolve`` sets
    :attr:`spec`, ``authenticate`` sets :attr:`session`, ``dispatch`` sets
    :attr:`response`.  The :attr:`tags` bag is free-form per-request state
    for custom interceptors (the observability seam).
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
    #: free-form per-request tag bag for interceptors
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def operation(self) -> str:
        """Resolved operation name, or a placeholder before/without resolve."""
        return self.spec.name if self.spec is not None else UNRESOLVED_OPERATION

    @property
    def latency(self) -> float:
        return self.finished - self.started


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

    ``authenticate(ctx, spec)`` must return the session for the request (or
    raise).  ``fault_mapper`` maps a RegistryError to the edge's wire fault
    representation; ``None`` means re-raise unchanged (the in-process JAXR
    edge, which must preserve exact exception semantics).  ``admit`` runs
    before operation resolution (the HTTP edge's anonymous read gate +
    interface check live here, exactly where the pre-kernel code had them).
    ``enforce_read_gate`` applies ``RegistryServer.check_read`` to read
    operations (the local edge is the trusted localCall path and skips it).
    """

    name: str
    authenticate: Callable[[RequestContext, OperationSpec], "Session | None"]
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


# -- interceptors --------------------------------------------------------------


Proceed = Callable[[], Any]


class Interceptor(Protocol):  # pragma: no cover - typing aid
    name: str

    def __call__(self, kernel: "RegistryKernel", ctx: RequestContext, proceed: Proceed) -> Any:
        ...


@dataclass(frozen=True)
class _Stage:
    """A named default stage, in one of two shapes.

    A **step** is linear: it does its work on the context and falls through
    to whatever follows, so consecutive steps can run back to back inside
    one layer.  A **wrapping** stage (``account``, ``fault-map``) owns a
    ``try`` block around the rest of the chain and therefore takes the
    ``proceed`` continuation, exactly like a custom :class:`Interceptor`.
    """

    name: str
    step: Callable[["RegistryKernel", RequestContext], None] | None = None
    wrap: Callable[["RegistryKernel", RequestContext, Proceed], Any] | None = None


def _account_stage(kernel: "RegistryKernel", ctx: RequestContext, proceed: Proceed) -> Any:
    ctx.started = kernel.clock.now()
    # an edge that runs requests on threads it does not own (the serving
    # gate's inline runs) names the worker itself, keeping labels bounded
    if "worker" not in ctx.tags:
        ctx.tags["worker"] = current_worker_label()
    try:
        return proceed()
    finally:
        ctx.finished = kernel.clock.now()
        kernel.telemetry.record_request(ctx)


def _fault_map_stage(kernel: "RegistryKernel", ctx: RequestContext, proceed: Proceed) -> Any:
    try:
        return proceed()
    except RegistryError as error:
        ctx.error = error
        if ctx.edge.fault_mapper is None:
            raise
        fault = ctx.edge.fault_mapper(error)
        ctx.response = fault
        return fault


def _admit_step(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    if ctx.edge.admit is not None:
        ctx.edge.admit(ctx)


def _resolve_step(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    if ctx.spec is None:
        if ctx.via_http:
            spec = kernel.operation_for_http_method(ctx.http_method)
            if spec.http_builder is not None:
                ctx.body = spec.http_builder(ctx.params)
            ctx.spec = spec
        else:
            ctx.spec = kernel.operation_for_body(ctx.body)


def _authenticate_step(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    assert ctx.spec is not None
    ctx.session = ctx.edge.authenticate(ctx, ctx.spec)


def _authorize_step(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    assert ctx.spec is not None
    if ctx.spec.read_gate and ctx.edge.enforce_read_gate:
        kernel.server.check_read(ctx.session)


def _validate_step(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    assert ctx.spec is not None
    if ctx.spec.validator is not None:
        ctx.spec.validator(ctx)


def _dispatch_step(kernel: "RegistryKernel", ctx: RequestContext) -> None:
    assert ctx.spec is not None
    ctx.response = ctx.spec.handler(ctx)


#: the default chain, outermost first; account/fault-map wrap everything
DEFAULT_CHAIN: tuple[_Stage, ...] = (
    _Stage("account", wrap=_account_stage),
    _Stage("fault-map", wrap=_fault_map_stage),
    _Stage("admit", step=_admit_step),
    _Stage("resolve", step=_resolve_step),
    _Stage("authenticate", step=_authenticate_step),
    _Stage("authorize", step=_authorize_step),
    _Stage("validate", step=_validate_step),
    _Stage("dispatch", step=_dispatch_step),
)

#: the stage that ends every request: it never proceeds, so whatever follows
#: it in the chain is unreachable
_DISPATCH = DEFAULT_CHAIN[-1]


def _terminal(ctx: RequestContext) -> Any:
    return ctx.response


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
        self._chain: list[Interceptor] = list(DEFAULT_CHAIN)
        #: lazily (re)composed chain per tracing state.  Benign race under
        #: concurrent execute: two threads may compose equivalent callables
        #: and one wins — chain *edits* (add/remove_interceptor) are
        #: configuration-time only.
        self._composed: dict[bool, Callable[[RequestContext], Any]] = {}
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

    # -- interceptor chain -----------------------------------------------------

    def interceptor_names(self) -> list[str]:
        return [stage.name for stage in self._chain]

    def add_interceptor(
        self,
        interceptor: Interceptor,
        *,
        before: str | None = None,
        after: str | None = None,
    ) -> None:
        """Insert a custom interceptor into the chain.

        ``before``/``after`` name an existing stage; default appends at the
        innermost position (just around dispatch's slot, i.e. chain end).
        """
        if before is not None and after is not None:
            raise ValueError("pass at most one of before/after")
        index = len(self._chain)
        anchor = before or after
        if anchor is not None:
            names = self.interceptor_names()
            if anchor not in names:
                raise ValueError(f"unknown pipeline stage: {anchor!r}")
            index = names.index(anchor) + (1 if after else 0)
        self._chain.insert(index, interceptor)
        self._composed = {}

    def remove_interceptor(self, name: str) -> bool:
        for i, stage in enumerate(self._chain):
            if getattr(stage, "name", None) == name and stage not in DEFAULT_CHAIN:
                del self._chain[i]
                self._composed = {}
                return True
        return False

    def _compose(self, tracing: bool) -> Callable[[RequestContext], Any]:
        """Fold the chain into one callable for one tracing state.

        What a layer needs is decided here, once per composition, not per
        request.  There are two kinds of layer: a run of default steps
        called back to back, and a wrapping stage or custom interceptor
        handed ``proceed``.  With tracing off, every stretch of consecutive
        steps is one run, split only where the chain puts a wrapper or an
        interceptor.  With tracing on, every stage — default or custom — is
        a layer of its own inside a span named after it (nesting naturally:
        account's span contains fault-map's, and so on down to dispatch).
        """
        composed: Callable[[RequestContext], Any] = _terminal
        run: list[Callable[["RegistryKernel", RequestContext], None]] = []

        def close_run() -> None:
            nonlocal composed, run
            if run:
                composed = self._fused(tuple(run), composed)
                run = []

        for stage in reversed(self._chain[: self._chain.index(_DISPATCH) + 1]):
            if isinstance(stage, _Stage) and stage.step is not None:
                run.insert(0, stage.step)
            else:
                close_run()
                composed = self._wrapped(
                    stage.wrap if isinstance(stage, _Stage) else stage, composed
                )
            if tracing:
                close_run()
                composed = self._traced(getattr(stage, "name", "interceptor"), composed)
        close_run()
        return composed

    def _fused(
        self,
        steps: tuple[Callable[["RegistryKernel", RequestContext], None], ...],
        following: Callable[[RequestContext], Any],
    ) -> Callable[[RequestContext], Any]:
        def layer(ctx: RequestContext) -> Any:
            for step in steps:
                step(self, ctx)
            return following(ctx)

        return layer

    def _wrapped(
        self, run: Interceptor, following: Callable[[RequestContext], Any]
    ) -> Callable[[RequestContext], Any]:
        def layer(ctx: RequestContext) -> Any:
            return run(self, ctx, lambda: following(ctx))

        return layer

    def _traced(
        self, name: str, inner: Callable[[RequestContext], Any]
    ) -> Callable[[RequestContext], Any]:
        span_name = "stage:" + name

        def layer(ctx: RequestContext) -> Any:
            with self.telemetry.tracer.span(span_name):
                return inner(ctx)

        return layer

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
        it to hand interceptors wire-level context (e.g. the SOAP binding
        marks requests another cluster member forwarded, so the ``route``
        interceptor serves them locally instead of forwarding again).
        """
        telemetry = self.telemetry
        # the only read of the flag this request makes: the chain composed
        # for this state carries no check of its own
        tracing = telemetry.tracer.enabled
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
        composed = self._composed.get(tracing)
        if composed is None:
            composed = self._composed[tracing] = self._compose(tracing)
        if not tracing:
            return composed(ctx)
        with telemetry.tracer.span_in_trace(
            "request", traceparent, edge=edge.name, request_id=ctx.request_id
        ) as root:
            ctx.trace_id = root.trace_id
            try:
                result = composed(ctx)
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
