"""JAXR-style client API (thesis §2.2.2, Figures 2.2/2.3).

The freebXML JAXR provider gives clients Connection / RegistryService /
BusinessLifeCycleManager / BusinessQueryManager objects, and supports two
wire modes:

* ``localCall = False`` (default): every operation is marshalled into an
  ebRS request, wrapped in a SOAP envelope, and sent to the registry's SOAP
  endpoint through the transport;
* ``localCall = True``: the provider bypasses SOAP and calls the registry
  server's QueryManager / LifeCycleManager interfaces directly (the Web-UI
  optimization of §2.2.1).

Both paths are implemented so tests can assert they are observably
equivalent.  Both run the registry kernel's one session rule: a connection's
session is the one ``registry.login`` recorded in the registry's
authenticator, and it holds on either path until the authenticator closes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.registry.kernel import EdgeProfile, OperationSpec
from repro.registry.server import RegistryServer
from repro.rim import (
    Association,
    AssociationType,
    Organization,
    RegistryObject,
    Service,
    ServiceBinding,
)
from repro.security.authn import Session
from repro.security.certs import Credential
from repro.soap.binding import SoapRegistryBinding
from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.soap.messages import (
    AdhocQueryRequest,
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    RegistryResponse,
    RemoveObjectsRequest,
    SubmitObjectsRequest,
    UpdateObjectsRequest,
)
from repro.soap.serializer import deserialize, serialize
from repro.soap.transport import SimTransport
from repro.soap.xml_binding import envelope_from_xml, envelope_to_xml
from repro.util.errors import InvalidRequestError, RegistryError


#: the in-process JAXR edge: trusted localCall path — no read gate, and
#: faults re-raise unchanged (fault_mapper None) instead of serializing
LOCAL_EDGE = EdgeProfile(name="local", fault_mapper=None, enforce_read_gate=False)


@dataclass
class ConnectionFactory:
    """Creates client connections to one registry.

    ``transport`` + the registry's SOAP binding model the remote path; when
    ``local_call`` is True the connection calls the server objects directly.
    ``wire_xml`` serializes every envelope to literal SOAP 1.1 XML on the
    wire (and parses responses back) — the most faithful transport mode.
    """

    registry: RegistryServer
    transport: SimTransport | None = None
    binding: SoapRegistryBinding | None = None
    local_call: bool = False
    wire_xml: bool = False

    def __post_init__(self) -> None:
        if not self.local_call:
            if self.binding is None:
                self.binding = SoapRegistryBinding(self.registry)
            if self.transport is None:
                self.transport = SimTransport()
            if self.wire_xml:
                def xml_endpoint(wire_text: str) -> str:
                    try:
                        envelope = envelope_from_xml(wire_text)
                    except InvalidRequestError as error:
                        # undecodable wire text faults like any other bad request
                        response = SoapFault.from_error(error)
                    else:
                        response = self.binding.handle(envelope)
                    return envelope_to_xml(SoapEnvelope(body=response))

                self.transport.register_endpoint(self.binding.endpoint_uri, xml_endpoint)
            else:
                self.transport.register_endpoint(
                    self.binding.endpoint_uri, self.binding.handle
                )

    def create_connection(self, credential: Credential | None = None) -> "Connection":
        """Open a connection; without a credential only queries are possible."""
        session: Session | None = None
        if credential is not None:
            session = self.registry.login(credential)
        return Connection(factory=self, session=session)


@dataclass
class Connection:
    factory: ConnectionFactory
    session: Session | None

    def get_registry_service(self) -> "RegistryService":
        return RegistryService(self)

    @property
    def registry(self) -> RegistryServer:
        return self.factory.registry

    # -- wire plumbing -----------------------------------------------------

    def _send(self, body) -> RegistryResponse:
        if self.factory.local_call:
            raise RegistryError("local-call connections do not use the SOAP path")
        assert self.factory.binding is not None and self.factory.transport is not None
        tracer = self.factory.transport.tracer
        if tracer is not None and tracer.enabled:
            # the client-side span: transport attempts/retries nest under it,
            # and its context rides the envelope so the server joins the trace
            with tracer.span("client.send", operation=type(body).__name__):
                return self._send_wire(body, tracer.current_traceparent())
        return self._send_wire(body, None)

    def _send_wire(self, body, traceparent: str | None) -> RegistryResponse:
        envelope = SoapEnvelope.with_session(
            body,
            self.session.token if self.session else None,
            traceparent=traceparent,
        )
        if self.factory.wire_xml:
            wire = envelope_to_xml(envelope)
            raw = self.factory.transport.request(
                self.factory.binding.endpoint_uri, wire
            )
            response = envelope_from_xml(raw).body
        else:
            response = self.factory.transport.request(
                self.factory.binding.endpoint_uri, envelope
            )
        if isinstance(response, SoapFault):
            response.raise_()
        return response

    def _invoke_local(self, name: str, call, *, requires_session: bool = False):
        """Run one local-call operation through the registry kernel.

        The kernel's local edge preserves the pre-kernel in-process
        semantics (no read gate, no serialization, faults re-raise
        unchanged) while the pipeline authenticates the connection's session
        as it would its SOAP token and accounts the request under the
        ``local`` protocol edge in ``pipeline_stats()``.
        """
        spec = OperationSpec(
            name=name,
            requires_session=requires_session,
            handler=lambda ctx: call(ctx.session),
        )
        return self.registry.kernel.execute(
            LOCAL_EDGE, session=self.session, spec=spec
        )


class RegistryService:
    """JAXR RegistryService: access to the two business-level managers."""

    def __init__(self, connection: Connection) -> None:
        self.connection = connection

    def get_business_life_cycle_manager(self) -> "BusinessLifeCycleManager":
        return BusinessLifeCycleManager(self.connection)

    def get_business_query_manager(self) -> "BusinessQueryManager":
        return BusinessQueryManager(self.connection)


class BusinessLifeCycleManager:
    """High-level publish/update/delete operations (JAXR level-0 surface)."""

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self._ids = connection.registry.ids

    # -- factory helpers (JAXR create* methods) ---------------------------------

    def create_organization(self, name: str, *, description: str = "") -> Organization:
        return Organization(self._ids.new_id(), name=name, description=description)

    def create_service(self, name: str, *, description: str = "") -> Service:
        return Service(self._ids.new_id(), name=name, description=description)

    def create_service_binding(self, service: Service, access_uri: str) -> ServiceBinding:
        return ServiceBinding(self._ids.new_id(), service=service.id, access_uri=access_uri)

    def create_offers_service_association(
        self, organization: Organization, service: Service
    ) -> Association:
        return Association(
            self._ids.new_id(),
            source_object=organization.id,
            target_object=service.id,
            association_type=AssociationType.OFFERS_SERVICE,
        )

    # -- save / delete ------------------------------------------------------------

    def save_objects(self, objects: list[RegistryObject]) -> list[str]:
        if self.connection.factory.local_call:
            return self.connection._invoke_local(
                "submitObjects",
                lambda session: self.connection.registry.lcm.submit_objects(
                    session, objects
                ),
                requires_session=True,
            )
        response = self.connection._send(
            SubmitObjectsRequest(objects=[serialize(o) for o in objects])
        )
        return response.ids

    def update_objects(self, objects: list[RegistryObject]) -> list[str]:
        if self.connection.factory.local_call:
            return self.connection._invoke_local(
                "updateObjects",
                lambda session: self.connection.registry.lcm.update_objects(
                    session, objects
                ),
                requires_session=True,
            )
        response = self.connection._send(
            UpdateObjectsRequest(objects=[serialize(o) for o in objects])
        )
        return response.ids

    def delete_objects(self, ids: list[str]) -> list[str]:
        if self.connection.factory.local_call:
            return self.connection._invoke_local(
                "removeObjects",
                lambda session: self.connection.registry.lcm.remove_objects(
                    session, ids
                ),
                requires_session=True,
            )
        response = self.connection._send(RemoveObjectsRequest(ids=ids))
        return response.ids

    # -- composite convenience ----------------------------------------------------

    def publish_organization_with_services(
        self,
        organization: Organization,
        services: list[tuple[Service, list[ServiceBinding]]],
    ) -> list[str]:
        """Publish an organization, its services, bindings and associations."""
        objects: list[RegistryObject] = [organization]
        for service, bindings in services:
            objects.append(service)
        saved = self.save_objects(objects)
        extras: list[RegistryObject] = []
        for service, bindings in services:
            extras.extend(bindings)
            extras.append(
                self.create_offers_service_association(organization, service)
            )
        if extras:
            saved += self.save_objects(extras)
        return saved


class BusinessQueryManager:
    """High-level discovery operations."""

    def __init__(self, connection: Connection) -> None:
        self.connection = connection

    def get_registry_object(self, object_id: str) -> RegistryObject:
        if self.connection.factory.local_call:
            return self.connection._invoke_local(
                "getRegistryObject",
                lambda _s: self.connection.registry.qm.get_registry_object(object_id),
            )
        response = self.connection._send(GetRegistryObjectRequest(object_id=object_id))
        return deserialize(response.objects[0])

    def find_organizations(self, name_pattern: str) -> list[Organization]:
        if self.connection.factory.local_call:
            return self.connection._invoke_local(
                "findOrganizations",
                lambda _s: self.connection.registry.qm.find_organizations(name_pattern),
            )
        escaped = name_pattern.replace("'", "''")
        response = self.connection._send(
            AdhocQueryRequest(
                query=f"SELECT id FROM Organization WHERE name LIKE '{escaped}' ORDER BY name"
            )
        )
        return [self.get_registry_object(row["id"]) for row in response.rows]  # type: ignore[misc]

    def find_services(self, name_pattern: str) -> list[Service]:
        if self.connection.factory.local_call:
            return self.connection._invoke_local(
                "findServices",
                lambda _s: self.connection.registry.qm.find_services(name_pattern),
            )
        escaped = name_pattern.replace("'", "''")
        response = self.connection._send(
            AdhocQueryRequest(
                query=f"SELECT id FROM Service WHERE name LIKE '{escaped}' ORDER BY name"
            )
        )
        return [self.get_registry_object(row["id"]) for row in response.rows]  # type: ignore[misc]

    def get_service_bindings(self, service_id: str) -> list[ServiceBinding]:
        """Load-balanced binding discovery (the thesis' modified answer)."""
        if self.connection.factory.local_call:
            return self.connection._invoke_local(
                "getServiceBindings",
                lambda _s: self.connection.registry.qm.get_service_bindings(service_id),
            )
        response = self.connection._send(GetServiceBindingsRequest(service_id=service_id))
        return [deserialize(data) for data in response.objects]  # type: ignore[list-item]

    def get_access_uris(self, service_id: str) -> list[str]:
        return [
            b.access_uri for b in self.get_service_bindings(service_id) if b.access_uri
        ]
