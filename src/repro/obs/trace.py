"""Tracer — per-request span trees over the injectable Clock protocol.

A :class:`Span` covers one stage of work (a kernel pipeline stage, a DAO
resolve, a LoadStatus ranking, a transport attempt, a TimeHits sweep) and
nests children; the :class:`Tracer` maintains the active span stack and
keeps finished **root** spans in a bounded deque.  Time comes from a
:class:`repro.util.clock.Clock`, so under ``ManualClock`` or the simulation
engine's clock every trace is bit-for-bit deterministic — the same workload
produces the same span tree with the same timestamps.

Every root span opens a **trace**: it is assigned a 32-hex-digit trace id
(children inherit it) and each span gets a 16-hex-digit span id —
deterministic counters seeded from the tracer's name, not random bits, so
traces replay identically.  Cross-hop propagation uses the W3C Trace
Context wire shape: :meth:`Tracer.current_traceparent` renders the active
span as a ``00-<trace-id>-<span-id>-01`` header (carried in the SOAP
envelope / HTTP headers), and :meth:`Tracer.span_in_trace` opens a root
that *adopts* an incoming header's trace id — which is how client-side
transport spans and server-side pipeline spans join under one trace id
even when each side runs its own tracer.

Tracing is off by default and costs one attribute check at each
instrumentation point (``tracer is not None and tracer.enabled``); no span
objects are built while disabled.  Two export formats:

* :meth:`Tracer.export_jsonl` — one JSON object per root span (nested
  children), greppable and diffable;
* :meth:`Tracer.export_chrome` — Chrome trace-event format (``chrome://
  tracing`` / Perfetto), complete duration events with µs timestamps.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.util.clock import Clock, PerfClock

# -- W3C-traceparent-style context propagation ---------------------------------

#: header key carrying the trace context across hops
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a W3C-style ``version-traceid-spanid-flags`` header value."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a header, or None when malformed.

    Malformed/absent context must not fault a request — per the W3C spec a
    receiver that cannot parse ``traceparent`` restarts the trace.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip())
    if match is None:
        return None
    trace_id, span_id = match.group(1), match.group(2)
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


@dataclass
class Span:
    """One timed stage of work; ``end`` is None while the span is open.

    ``trace_id`` is shared by every span of one trace (roots mint it or
    adopt it from an incoming traceparent; children inherit); ``span_id``
    identifies this span within the trace.  Both are None on the throwaway
    spans a disabled tracer yields.
    """

    name: str
    start: float
    tags: dict[str, Any] = field(default_factory=dict)
    end: float | None = None
    children: list["Span"] = field(default_factory=list)
    trace_id: str | None = None
    span_id: str | None = None

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, children in order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> list["Span"]:
        """Every span named *name* in this subtree (depth-first order)."""
        return [s for s in self.iter_spans() if s.name == name]

    @property
    def traceparent(self) -> str | None:
        """This span's context as a propagatable header value."""
        if self.trace_id is None or self.span_id is None:
            return None
        return format_traceparent(self.trace_id, self.span_id)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _SpanContext:
    """Context manager opening a span on enter and closing it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self._span.tags.setdefault("error", type(exc).__name__)
        self._tracer._finish(self._span)


class _NoopContext:
    """Returned while tracing is disabled; yields a throwaway span."""

    __slots__ = ("_span",)

    def __init__(self, name: str) -> None:
        self._span = Span(name=name, start=0.0, end=0.0)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class Tracer:
    """Span-tree builder over one clock; stack-based, with one active-span
    stack **per thread**: concurrent requests (the serving workers) each
    build their own span tree, children nest under their own thread's
    parent, and finished roots land in the shared bounded deque (appends
    are atomic).  Trace/span ids come from ``itertools.count`` — one atomic
    ``next()`` each — so ids stay unique and deterministic under
    concurrency (interleaving may vary *which* request gets which id, but
    never duplicates one).  ``spans_recorded`` is a plain counter
    (observability, near-exact under contention; exact once quiescent).
    """

    def __init__(
        self,
        clock: Clock | None = None,
        *,
        enabled: bool = False,
        max_traces: int = 256,
        name: str = "tracer",
    ) -> None:
        self.clock: Clock = clock or PerfClock()
        self.enabled = enabled
        #: distinguishes this tracer's minted ids from its peers' (the id
        #: prefix), e.g. "client" vs "registry" in a cross-hop test
        self.name = name
        self._tls = threading.local()
        #: finished root spans, oldest dropped beyond ``max_traces``
        self.traces: deque[Span] = deque(maxlen=max_traces)
        self.spans_recorded = 0
        self.traces_started = 0
        #: roots opened with a *present but malformed* traceparent — the
        #: broken-propagation signal (``stats()``, the ``tracer`` snapshot)
        self.traces_restarted = 0
        self._id_prefix = f"{zlib.crc32(name.encode('utf-8')) & 0xFFFFFFFF:08x}"
        self._trace_seq = itertools.count(1)
        self._span_seq = itertools.count(1)

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's active-span stack."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- id minting ------------------------------------------------------------

    def _new_trace_id(self) -> str:
        """Deterministic 32-hex trace id: tracer-name prefix + trace counter."""
        seq = next(self._trace_seq)
        self.traces_started += 1
        return f"{self._id_prefix}{seq:024x}"

    def _new_span_id(self) -> str:
        return f"{next(self._span_seq):016x}"

    # -- span lifecycle --------------------------------------------------------

    def span(self, name: str, **tags: Any):
        """Open a child of the current span (or a new root) as a context manager."""
        if not self.enabled:
            return _NoopContext(name)
        stack = self._stack
        trace_id = stack[-1].trace_id if stack else self._new_trace_id()
        span = Span(
            name=name,
            start=self.clock.now(),
            tags=tags,
            trace_id=trace_id,
            span_id=self._new_span_id(),
        )
        stack.append(span)
        return _SpanContext(self, span)

    def span_in_trace(self, name: str, traceparent: str | None, **tags: Any):
        """Open a root span that *adopts* an incoming trace context.

        This is the server half of cross-hop propagation: a valid
        ``traceparent`` joins the caller's trace (the remote span id is kept
        as the ``remote_parent`` tag); a malformed or absent one starts a
        fresh trace, exactly like :meth:`span`.  With an active local parent
        span the in-process context wins — nesting already propagates the
        trace id.

        A *present but malformed* header must not fault the request (the
        W3C rule), but it must not restart the trace silently either: the
        new root is tagged ``trace_restarted`` and counted in
        :attr:`traces_restarted`, so broken propagation shows up in both
        the span tree and the tracer's stats.
        """
        if not self.enabled:
            return _NoopContext(name)
        if self._stack or traceparent is None:
            return self.span(name, **tags)
        parsed = parse_traceparent(traceparent)
        if parsed is None:
            self.traces_restarted += 1
            restarted = self.span(name, **tags)
            restarted._span.tags["trace_restarted"] = True
            return restarted
        trace_id, parent_span_id = parsed
        span = Span(
            name=name,
            start=self.clock.now(),
            tags={**tags, "remote_parent": parent_span_id},
            trace_id=trace_id,
            span_id=self._new_span_id(),
        )
        self._stack.append(span)
        return _SpanContext(self, span)

    def current_traceparent(self) -> str | None:
        """The active span's context as a header value (None when inactive)."""
        if not self.enabled or not self._stack:
            return None
        return self._stack[-1].traceparent

    def current_span(self) -> Span | None:
        """The calling thread's active span (None when disabled or idle).

        Lets in-stage code — the route step timing its forward hop —
        tag the span the kernel opened for its own stage.
        """
        if not self.enabled:
            return None
        stack = self._stack
        return stack[-1] if stack else None

    def event(self, name: str, **tags: Any) -> None:
        """A zero-duration marker span under the current span."""
        if not self.enabled:
            return
        now = self.clock.now()
        span = Span(
            name=name,
            start=now,
            end=now,
            tags=tags,
            trace_id=self._stack[-1].trace_id if self._stack else None,
            span_id=self._new_span_id(),
        )
        self._record(span)
        self.spans_recorded += 1

    def _finish(self, span: Span) -> None:
        span.end = self.clock.now()
        stack = self._stack
        assert stack and stack[-1] is span, "span closed out of order"
        stack.pop()
        self._record(span)
        self.spans_recorded += 1

    def _record(self, span: Span) -> None:
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        else:
            self.traces.append(span)

    # -- accessors -------------------------------------------------------------

    def clear(self) -> None:
        """Drop kept traces and the *calling thread's* active-span stack."""
        self.traces.clear()
        self._stack.clear()

    def last_trace(self) -> Span | None:
        return self.traces[-1] if self.traces else None

    def stats(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "traces_kept": len(self.traces),
            "spans_recorded": self.spans_recorded,
            "traces_restarted": self.traces_restarted,
        }

    # -- export ----------------------------------------------------------------

    def export_jsonl(self) -> str:
        """One JSON object per finished root span, oldest first."""
        return "\n".join(
            json.dumps(root.to_dict(), sort_keys=True) for root in self.traces
        ) + ("\n" if self.traces else "")

    def export_chrome(self) -> str:
        """Chrome trace-event JSON: complete ("X") events, µs timestamps."""
        events: list[dict[str, Any]] = []
        for root in self.traces:
            for span in root.iter_spans():
                event: dict[str, Any] = {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                }
                if span.tags:
                    event["args"] = dict(span.tags)
                events.append(event)
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
