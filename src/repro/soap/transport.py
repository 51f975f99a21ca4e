"""Simulated transport: a routed endpoint table with a latency model.

Replaces the HTTP/SOAP network between registry clients, the registry
server, and the per-host NodeStatus services.  Endpoints register a handler
under their URI; :meth:`SimTransport.request` routes an envelope to the
handler, samples the latency model for the round trip, and returns the
response.  Failures are injectable per endpoint (down hosts), which the
monitoring code must tolerate — the thesis' scheme silently skips
unreachable hosts.

The request path carries a client-side **mini-chain**, symmetric to the
server's kernel pipeline: an optional retry stage (exponential backoff on
:class:`TransportError`, capped by a per-transport retry budget) wraps the
wire attempt, and an accounting stage records every attempt — including
per-endpoint failure attribution — in :class:`TransportStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.rim.service import host_of_uri
from repro.sim.network import LatencyModel
from repro.util.errors import TransportError

Handler = Callable[[Any], Any]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry stage configuration.

    ``max_attempts`` counts the first attempt too (1 = no retries, the
    parity default).  Backoff is exponential, ``backoff_base * factor**n``
    simulated seconds before retry *n*, capped at ``backoff_cap``; the
    backoff is charged to :attr:`TransportStats.backoff_total` (the
    simulation engine's virtual clock is not advanced, matching how wire
    latency is accounted).  ``budget`` caps the *total* retries the
    transport may spend across its lifetime — once exhausted, failures
    surface immediately (retry-budget admission control, so a dead host
    cannot consume unbounded retry work).
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 1.0
    budget: int | None = None

    def backoff_for(self, retry_index: int) -> float:
        """Simulated backoff delay before the given retry (0-based)."""
        return min(self.backoff_cap, self.backoff_base * self.backoff_factor**retry_index)


@dataclass
class TransportStats:
    """Aggregate transport accounting (request counts, simulated wire time).

    ``per_endpoint`` counts every attempt per URI; ``per_endpoint_failures``
    attributes failed attempts to the endpoint that failed, so a flaky host
    is visible even when totals look healthy.  ``retries`` / ``backoff_total``
    account the client-side retry stage; each retried *request* additionally
    resolves to either ``recovered_after_retry`` (a later attempt succeeded)
    or ``exhausted_retries`` (every retry spent, the failure surfaced) — the
    split that separates a flaky endpoint from a dead one.
    """

    requests: int = 0
    failures: int = 0
    total_latency: float = 0.0
    per_endpoint: dict[str, int] = field(default_factory=dict)
    per_endpoint_failures: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    backoff_total: float = 0.0
    per_endpoint_retries: dict[str, int] = field(default_factory=dict)
    per_endpoint_backoff: dict[str, float] = field(default_factory=dict)
    recovered_after_retry: int = 0
    exhausted_retries: int = 0
    per_endpoint_recovered: dict[str, int] = field(default_factory=dict)
    per_endpoint_exhausted: dict[str, int] = field(default_factory=dict)

    def record(self, uri: str, latency: float, ok: bool) -> None:
        self.requests += 1
        if not ok:
            self.failures += 1
            self.per_endpoint_failures[uri] = self.per_endpoint_failures.get(uri, 0) + 1
        self.total_latency += latency
        self.per_endpoint[uri] = self.per_endpoint.get(uri, 0) + 1

    def record_retry(self, uri: str, backoff: float) -> None:
        """Account one retry (and its backoff) against the endpoint retried."""
        self.retries += 1
        self.backoff_total += backoff
        self.per_endpoint_retries[uri] = self.per_endpoint_retries.get(uri, 0) + 1
        self.per_endpoint_backoff[uri] = self.per_endpoint_backoff.get(uri, 0.0) + backoff

    def record_recovered(self, uri: str) -> None:
        """One retried request that ultimately succeeded (flaky endpoint)."""
        self.recovered_after_retry += 1
        self.per_endpoint_recovered[uri] = self.per_endpoint_recovered.get(uri, 0) + 1

    def record_exhausted(self, uri: str) -> None:
        """One retried request whose retries all failed (dead endpoint)."""
        self.exhausted_retries += 1
        self.per_endpoint_exhausted[uri] = self.per_endpoint_exhausted.get(uri, 0) + 1

    def forget(self, uri: str) -> None:
        """Drop the attribution kept under *uri*; the totals keep its share."""
        for per_endpoint in (
            self.per_endpoint,
            self.per_endpoint_failures,
            self.per_endpoint_retries,
            self.per_endpoint_backoff,
            self.per_endpoint_recovered,
            self.per_endpoint_exhausted,
        ):
            per_endpoint.pop(uri, None)

    def snapshot(self) -> dict[str, Any]:
        """Deterministic plain-dict view (the telemetry surface)."""
        return {
            "requests": self.requests,
            "failures": self.failures,
            "total_latency_s": self.total_latency,
            "retries": self.retries,
            "backoff_total_s": self.backoff_total,
            "recovered_after_retry": self.recovered_after_retry,
            "exhausted_retries": self.exhausted_retries,
            "per_endpoint": dict(sorted(self.per_endpoint.items())),
            "per_endpoint_failures": dict(sorted(self.per_endpoint_failures.items())),
            "per_endpoint_retries": dict(sorted(self.per_endpoint_retries.items())),
            "per_endpoint_backoff_s": dict(sorted(self.per_endpoint_backoff.items())),
            "per_endpoint_recovered": dict(sorted(self.per_endpoint_recovered.items())),
            "per_endpoint_exhausted": dict(sorted(self.per_endpoint_exhausted.items())),
        }


class SimTransport:
    """URI-routed request/response transport with simulated latency."""

    def __init__(
        self,
        *,
        latency: LatencyModel | None = None,
        client_host: str = "client",
        retry: RetryPolicy | None = None,
    ) -> None:
        self.latency = latency or LatencyModel(default_latency=0.0)
        self.client_host = client_host
        self.retry = retry
        self._endpoints: dict[str, Handler] = {}
        #: each registered endpoint's host, resolved once at registration
        self._hosts: dict[str, str] = {}
        self._down: set[str] = set()
        self.stats = TransportStats()
        #: optional telemetry tracer; spans each wire attempt when enabled
        self.tracer = None

    # -- endpoint management ----------------------------------------------------

    def register_endpoint(self, uri: str, handler: Handler) -> None:
        self._endpoints[uri] = handler
        self._hosts[uri] = host_of_uri(uri)

    def unregister_endpoint(self, uri: str) -> None:
        """Remove the endpoint and what was attributed to it: the per-endpoint
        maps hold the endpoints that exist, not every one that ever did."""
        self._endpoints.pop(uri, None)
        self._hosts.pop(uri, None)
        self.stats.forget(uri)

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)

    def set_host_down(self, host: str, down: bool = True) -> None:
        """Mark every endpoint on *host* unreachable (fault injection)."""
        if down:
            self._down.add(host)
        else:
            self._down.discard(host)

    def is_host_down(self, host: str) -> bool:
        return host in self._down

    # -- stats accessors ---------------------------------------------------------

    def transport_stats(self) -> dict[str, Any]:
        """The full accounting snapshot (the telemetry surface)."""
        snap = self.stats.snapshot()
        snap["retry_budget_remaining"] = self.retry_budget_remaining()
        return snap

    def endpoint_failures(self) -> dict[str, int]:
        """uri → failed attempt count, for every endpoint that ever failed."""
        return dict(self.stats.per_endpoint_failures)

    def retry_budget_remaining(self) -> int | None:
        """Retries left under the policy budget (None = no retry/unbounded)."""
        if self.retry is None or self.retry.budget is None:
            return None
        return max(0, self.retry.budget - self.stats.retries)

    # -- requests -----------------------------------------------------------------

    def request(self, uri: str, payload: Any, *, source: str | None = None) -> Any:
        """Send *payload* to the endpoint at *uri* and return its response.

        Raises :class:`TransportError` for unknown endpoints and down hosts.
        Latency is sampled per attempt and recorded in :attr:`stats` (the
        simulation engine's virtual clock is not advanced — requests are
        instantaneous at event granularity, as in-thread SOAP calls are to
        freebXML's timer).  With a :class:`RetryPolicy` installed, failed
        attempts are retried with exponential backoff until the attempt
        count or the transport-wide retry budget is exhausted.
        """
        policy = self.retry
        attempt = 0
        retried = False
        while True:
            try:
                response = self._traced_attempt(
                    uri, payload, source=source, attempt=attempt
                )
                if retried:
                    self.stats.record_recovered(uri)
                return response
            except TransportError:
                attempt += 1
                if (
                    policy is None
                    or attempt >= policy.max_attempts
                    or (
                        policy.budget is not None
                        and self.stats.retries >= policy.budget
                    )
                ):
                    if retried:
                        self.stats.record_exhausted(uri)
                    raise
                backoff = policy.backoff_for(attempt - 1)
                self.stats.record_retry(uri, backoff)
                retried = True
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    tracer.event(
                        "transport.retry", uri=uri, attempt=attempt, backoff_s=backoff
                    )

    def _traced_attempt(
        self, uri: str, payload: Any, *, source: str | None, attempt: int
    ) -> Any:
        """One attempt, wrapped in a ``transport.attempt`` span when tracing."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._attempt(uri, payload, source=source)
        with tracer.span("transport.attempt", uri=uri, attempt=attempt) as span:
            response = self._attempt(uri, payload, source=source)
            span.tags["ok"] = True
            return response

    def _attempt(self, uri: str, payload: Any, *, source: str | None = None) -> Any:
        """One wire attempt: route, sample latency, account."""
        source = source or self.client_host
        target_host = self._hosts.get(uri) or host_of_uri(uri)
        rtt = self.latency.sample(source, target_host) * 2.0
        if target_host in self._down:
            self.stats.record(uri, rtt, ok=False)
            raise TransportError(f"host unreachable: {target_host}")
        handler = self._endpoints.get(uri)
        if handler is None:
            self.stats.record(uri, rtt, ok=False)
            raise TransportError(f"no endpoint registered at {uri}")
        try:
            response = handler(payload)
        except TransportError:
            self.stats.record(uri, rtt, ok=False)
            raise
        self.stats.record(uri, rtt, ok=True)
        return response

    def estimated_delay(self, uri: str, *, source: str | None = None) -> float:
        """Base one-way delay to an endpoint (the §5.2 network-delay metric)."""
        return self.latency.base_latency(source or self.client_host, host_of_uri(uri))
