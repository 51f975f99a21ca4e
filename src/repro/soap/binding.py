"""Protocol bindings: SOAP dispatch and the HTTP-GET query binding.

Both bindings are thin protocol edges over the registry kernel
(:mod:`repro.registry.kernel`): they decode the wire form (envelope body /
URL query string), describe themselves to the kernel as an
:class:`~repro.registry.kernel.EdgeProfile`, and let the kernel's one
pipeline do session lookup, authorization, operation dispatch, fault mapping,
and accounting.  Neither keeps sessions: the kernel resolves a token against
the registry's :class:`~repro.security.authn.Authenticator`.

* :class:`SoapRegistryBinding` exposes one RegistryServer at a SOAP endpoint:
  the kernel authenticates the envelope's session token and dispatches each
  ebRS request message to the LifeCycleManager or QueryManager operation
  registered for its type.  LifeCycleManager requests without an open
  session fault with an authentication error; QueryManager requests fall
  back to the guest session (§1.3.2.4's public read access).
* :class:`HttpGetBinding` implements the mandatory REST-ish HTTP interface
  (§2.2.3): read-only URL access to query operations; publishes/modifies are
  rejected, exactly as freebXML's HTTP interface "does not support
  functionality to publish or modify registry contents".

Every error path funnels through the kernel's single fault mapper, so
``RegistryError.code`` values serialize identically whether a request
arrived via SOAP, HTTP GET, or the in-process JAXR edge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from urllib.parse import parse_qs, urlparse

from repro.registry.kernel import EdgeProfile, RequestContext
from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.util.errors import InvalidRequestError

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.server import RegistryServer
    from repro.security.authn import Session
    from repro.soap.messages import RegistryResponse

SOAP_PATH = "/omar/registry/soap"


class SoapRegistryBinding:
    """Server-side SOAP edge for one registry."""

    def __init__(self, registry: RegistryServer) -> None:
        self.registry = registry
        self.kernel = registry.kernel
        self.edge = EdgeProfile(name="soap", fault_mapper=SoapFault.from_error)

    @property
    def endpoint_uri(self) -> str:
        base = self.registry.home.split("/omar/", 1)[0]
        return base + SOAP_PATH

    def register_session(self, session: Session) -> None:
        """Kept for callers that still register: the registry's own adopt."""
        self.registry.authenticator.adopt(session)

    # -- dispatch ----------------------------------------------------------------

    def handle(self, envelope: SoapEnvelope) -> RegistryResponse | SoapFault:
        """Process one envelope; registry errors become SoapFaults."""
        forwarded_by = envelope.forwarded_by
        return self.kernel.execute(
            self.edge,
            body=envelope.body,
            token=envelope.session_token,
            traceparent=envelope.traceparent,
            tags={"forwarded_by": forwarded_by} if forwarded_by else None,
        )


class HttpGetBinding:
    """The mandatory read-only HTTP interface over the QueryManager.

    URL forms::

        <base>?interface=QueryManager&method=getRegistryObject&param-id=<id>
        <base>?interface=QueryManager&method=getRepositoryItem&param-id=<id>
        <base>?interface=QueryManager&method=executeQuery&param-query=<sql>

    ``getRepositoryItem`` serves the content bytes — Table 1.1's "any
    metadata or artifact … addressable via an HTTP URL".  Anything targeting
    the LifeCycleManager is rejected.  Duplicate query parameters keep the
    first value; the URL path is ignored (the query string alone selects the
    operation), both as in freebXML's servlet — with two operational
    exceptions: ``/metrics`` serves the registry's Prometheus exposition and
    ``/health`` a liveness document, both answered before the kernel
    pipeline (an exporter scrape is not a registry query).
    """

    def __init__(self, registry: RegistryServer) -> None:
        self.registry = registry
        self.kernel = registry.kernel
        self.edge = EdgeProfile(
            name="http",
            fault_mapper=SoapFault.from_error,
            # the admit hook already gated the anonymous read below
            enforce_read_gate=False,
            admit=self._admit,
        )

    def _admit(self, ctx: RequestContext) -> None:
        # the HTTP binding is anonymous: a non-public registry rejects it
        self.registry.check_read(self.registry.guest())
        interface = ctx.params.get("interface", "QueryManager")
        if interface != "QueryManager":
            raise InvalidRequestError(
                "HTTP interface binds only the QueryManager (read-only access)"
            )

    def get(
        self, url: str, headers: dict[str, str] | None = None
    ) -> RegistryResponse | SoapFault | str | dict:
        parsed = urlparse(url)
        if parsed.path.endswith("/metrics"):
            return self.registry.telemetry.render_prometheus()
        if parsed.path.endswith("/health"):
            return self.registry.telemetry.health()
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        return self.kernel.execute(
            self.edge,
            params=params,
            http_method=params.get("method"),
            via_http=True,
            traceparent=(headers or {}).get(SoapEnvelope.TRACEPARENT_HEADER),
        )
