"""Behavior parity: the kernel pipeline vs the pre-refactor dispatch.

The kernel refactor's hard constraint is that responses are bit-identical.
This module embeds a faithful copy of the pre-kernel code paths — the
``SoapRegistryBinding._dispatch`` if/elif chain, the ``HttpGetBinding._get``
method ladder, and the JAXR local-call branches — and replays a
representative operation mix (saves, updates, status transitions, slots,
queries, discovery, ad-hoc SQL, and every fault family) through both
implementations on twin seeded registries, asserting equal responses at
every step.
"""

from __future__ import annotations

from urllib.parse import parse_qs, urlparse

import pytest

from repro.registry import RegistryConfig, RegistryServer
from repro.rim import QUERY_LANGUAGE_SQL, ExtrinsicObject, Organization
from repro.rim.slots import Slot
from repro.soap import (
    AddSlotsRequest,
    AdhocQueryRequest,
    ApproveObjectsRequest,
    DeprecateObjectsRequest,
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    HttpGetBinding,
    RemoveObjectsRequest,
    RemoveSlotsRequest,
    SoapEnvelope,
    SoapFault,
    SoapRegistryBinding,
    SubmitObjectsRequest,
    UndeprecateObjectsRequest,
    UpdateObjectsRequest,
    deserialize,
    serialize,
)
from repro.soap.messages import RegistryResponse
from repro.util.clock import ManualClock
from repro.util.errors import (
    AuthenticationError,
    InvalidRequestError,
    RegistryError,
)


# -- the pre-refactor reference implementation (verbatim logic) ----------------


class LegacySoapDispatch:
    """The seed's SoapRegistryBinding dispatch, kept as the parity oracle."""

    def __init__(self, registry: RegistryServer) -> None:
        self.registry = registry
        self._sessions: dict[str, object] = {}

    def register_session(self, session) -> None:
        self._sessions[session.token] = session

    def _session_for(self, envelope, *, required: bool):
        token = envelope.session_token
        if token and token in self._sessions:
            return self._sessions[token]
        if required:
            raise AuthenticationError(
                "LifeCycleManager access requires an authenticated session"
            )
        return self.registry.guest()

    def handle(self, envelope):
        try:
            return self._dispatch(envelope)
        except RegistryError as error:
            return SoapFault.from_error(error)

    def _dispatch(self, envelope):
        body = envelope.body
        lcm = self.registry.lcm
        qm = self.registry.qm
        if isinstance(body, SubmitObjectsRequest):
            session = self._session_for(envelope, required=True)
            objects = [deserialize(data) for data in body.objects]
            return RegistryResponse(ids=lcm.submit_objects(session, objects))
        if isinstance(body, UpdateObjectsRequest):
            session = self._session_for(envelope, required=True)
            objects = [deserialize(data) for data in body.objects]
            return RegistryResponse(ids=lcm.update_objects(session, objects))
        if isinstance(body, ApproveObjectsRequest):
            session = self._session_for(envelope, required=True)
            return RegistryResponse(ids=lcm.approve_objects(session, body.ids))
        if isinstance(body, DeprecateObjectsRequest):
            session = self._session_for(envelope, required=True)
            return RegistryResponse(ids=lcm.deprecate_objects(session, body.ids))
        if isinstance(body, UndeprecateObjectsRequest):
            session = self._session_for(envelope, required=True)
            return RegistryResponse(ids=lcm.undeprecate_objects(session, body.ids))
        if isinstance(body, RemoveObjectsRequest):
            session = self._session_for(envelope, required=True)
            return RegistryResponse(ids=lcm.remove_objects(session, body.ids))
        if isinstance(body, AddSlotsRequest):
            session = self._session_for(envelope, required=True)
            slots = [
                Slot(name=s["name"], values=s["values"], slot_type=s.get("slotType"))
                for s in body.slots
            ]
            lcm.add_slots(session, body.object_id, slots)
            return RegistryResponse(ids=[body.object_id])
        if isinstance(body, RemoveSlotsRequest):
            session = self._session_for(envelope, required=True)
            lcm.remove_slots(session, body.object_id, body.names)
            return RegistryResponse(ids=[body.object_id])
        if isinstance(body, AdhocQueryRequest):
            session = self._session_for(envelope, required=False)
            self.registry.check_read(session)
            response = qm.execute_adhoc_query(
                body.query,
                query_language=body.query_language,
                start_index=body.start_index,
                max_results=body.max_results,
            )
            return RegistryResponse(
                rows=response.rows, total_result_count=response.total_result_count
            )
        if isinstance(body, GetRegistryObjectRequest):
            session = self._session_for(envelope, required=False)
            self.registry.check_read(session)
            obj = qm.get_registry_object(body.object_id)
            return RegistryResponse(objects=[serialize(obj)])
        if isinstance(body, GetServiceBindingsRequest):
            session = self._session_for(envelope, required=False)
            self.registry.check_read(session)
            bindings = qm.get_service_bindings(body.service_id)
            return RegistryResponse(objects=[serialize(b) for b in bindings])
        raise InvalidRequestError(f"unknown request type: {type(body).__name__}")


class LegacyHttpGet:
    """The seed's HttpGetBinding, kept as the parity oracle."""

    def __init__(self, registry: RegistryServer) -> None:
        self.registry = registry

    def get(self, url: str):
        try:
            return self._get(url)
        except RegistryError as error:
            return SoapFault.from_error(error)

    def _get(self, url: str):
        parsed = urlparse(url)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        self.registry.check_read(self.registry.guest())
        interface = params.get("interface", "QueryManager")
        if interface != "QueryManager":
            raise InvalidRequestError(
                "HTTP interface binds only the QueryManager (read-only access)"
            )
        method = params.get("method")
        if method == "getRegistryObject":
            object_id = params.get("param-id")
            if not object_id:
                raise InvalidRequestError("getRegistryObject requires param-id")
            obj = self.registry.qm.get_registry_object(object_id)
            return RegistryResponse(objects=[serialize(obj)])
        if method == "getRepositoryItem":
            object_id = params.get("param-id")
            if not object_id:
                raise InvalidRequestError("getRepositoryItem requires param-id")
            item = self.registry.repository.retrieve(object_id)
            return RegistryResponse(
                rows=[
                    {
                        "id": item.object_id,
                        "mimeType": item.mime_type,
                        "content": item.content.decode("utf-8", errors="replace"),
                        "digest": item.digest,
                    }
                ]
            )
        if method == "executeQuery":
            query = params.get("param-query")
            if not query:
                raise InvalidRequestError("executeQuery requires param-query")
            response = self.registry.qm.execute_adhoc_query(
                query, query_language=params.get("param-lang", QUERY_LANGUAGE_SQL)
            )
            return RegistryResponse(
                rows=response.rows, total_result_count=response.total_result_count
            )
        raise InvalidRequestError(f"unknown HTTP method parameter: {method!r}")


# -- twin-registry replay ------------------------------------------------------


SEED = 4242


def make_registry() -> RegistryServer:
    return RegistryServer(RegistryConfig(seed=SEED), clock=ManualClock())


def operation_mix(registry: RegistryServer, session, guest_queryable_id: str | None):
    """The representative envelope mix (same object payloads on both twins).

    Yields (label, envelope) pairs; registries are seeded so ids generated
    here line up across twins.
    """
    ids = registry.ids
    org = Organization(ids.new_id(), name="ParityOrg", description="d")
    org2 = Organization(ids.new_id(), name="ParityOrg2")
    token = session.token
    yield "submit", SoapEnvelope.with_session(
        SubmitObjectsRequest(objects=[serialize(org), serialize(org2)]), token
    )
    updated = Organization(org.id, name="ParityOrg-renamed")
    yield "update", SoapEnvelope.with_session(
        UpdateObjectsRequest(objects=[serialize(updated)]), token
    )
    yield "approve", SoapEnvelope.with_session(
        ApproveObjectsRequest(ids=[org.id]), token
    )
    yield "deprecate", SoapEnvelope.with_session(
        DeprecateObjectsRequest(ids=[org.id]), token
    )
    yield "undeprecate", SoapEnvelope.with_session(
        UndeprecateObjectsRequest(ids=[org.id]), token
    )
    yield "add-slots", SoapEnvelope.with_session(
        AddSlotsRequest(
            object_id=org.id,
            slots=[{"name": "tier", "values": ["gold"], "slotType": None}],
        ),
        token,
    )
    yield "remove-slots", SoapEnvelope.with_session(
        RemoveSlotsRequest(object_id=org.id, names=["tier"]), token
    )
    yield "adhoc", SoapEnvelope(
        body=AdhocQueryRequest(query="SELECT id, name FROM Organization ORDER BY name")
    )
    yield "adhoc-windowed", SoapEnvelope(
        body=AdhocQueryRequest(
            query="SELECT id FROM Organization ORDER BY name",
            start_index=1,
            max_results=1,
        )
    )
    yield "get-object", SoapEnvelope(body=GetRegistryObjectRequest(object_id=org.id))
    if guest_queryable_id:
        yield "get-bindings", SoapEnvelope(
            body=GetServiceBindingsRequest(service_id=guest_queryable_id)
        )
    # fault mix: every error family
    yield "fault-no-session", SoapEnvelope(
        body=SubmitObjectsRequest(objects=[serialize(Organization(ids.new_id()))])
    )
    yield "fault-unknown-type", SoapEnvelope(body=("not", "a", "request"))
    yield "fault-not-found", SoapEnvelope.with_session(
        RemoveObjectsRequest(ids=["urn:missing:object"]), token
    )
    yield "fault-bad-sql", SoapEnvelope(
        body=AdhocQueryRequest(query="SELEC id FRO Organization")
    )
    yield "fault-empty-submit", SoapEnvelope.with_session(
        SubmitObjectsRequest(objects=[]), token
    )
    yield "remove", SoapEnvelope.with_session(
        RemoveObjectsRequest(ids=[org2.id]), token
    )


def setup_twin(make_dispatch):
    """Build one registry + its dispatch impl + a logged-in session."""
    registry = make_registry()
    _, credential = registry.register_user("parity")
    session = registry.login(credential)
    dispatch = make_dispatch(registry)
    dispatch.register_session(session)
    # a published service so discovery has something to resolve
    from conftest import publish_service_with_bindings

    _, service = publish_service_with_bindings(registry, session)
    # a repository item for the HTTP getRepositoryItem leg
    meta = ExtrinsicObject(registry.ids.new_id(), name="doc.txt", mime_type="text/plain")
    registry.lcm.submit_objects(session, [meta])
    registry.repository.store(meta, b"artifact body")
    return registry, dispatch, session, service.id, meta.id


class TestSoapParity:
    def test_operation_mix_bit_identical(self):
        legacy_reg, legacy, legacy_session, legacy_svc, _ = setup_twin(LegacySoapDispatch)
        kernel_reg, kernel, kernel_session, kernel_svc, _ = setup_twin(SoapRegistryBinding)
        assert legacy_svc == kernel_svc  # seeded twins stay in lockstep
        legacy_ops = operation_mix(legacy_reg, legacy_session, legacy_svc)
        kernel_ops = operation_mix(kernel_reg, kernel_session, kernel_svc)
        for (label, legacy_env), (_, kernel_env) in zip(legacy_ops, kernel_ops):
            expected = legacy.handle(legacy_env)
            actual = kernel.handle(kernel_env)
            assert actual == expected, f"divergence at {label!r}"

    def test_fault_types_match(self):
        _, legacy, _, _, _ = setup_twin(LegacySoapDispatch)
        _, kernel, _, _, _ = setup_twin(SoapRegistryBinding)
        env = SoapEnvelope(body=object())
        legacy_fault = legacy.handle(env)
        kernel_fault = kernel.handle(env)
        assert isinstance(kernel_fault, SoapFault)
        assert kernel_fault.fault_code == legacy_fault.fault_code
        assert kernel_fault.fault_string == legacy_fault.fault_string


HTTP_URLS = [
    "http://x/omar?interface=QueryManager&method=executeQuery"
    "&param-query=SELECT id, name FROM Organization ORDER BY name",
    "http://x/omar?interface=QueryManager&method=executeQuery"
    "&param-query=SELECT id FROM Service ORDER BY name&param-lang={sql}",
    "http://x/omar?interface=QueryManager&method=getRegistryObject&param-id={object_id}",
    "http://x/omar?interface=QueryManager&method=getRepositoryItem&param-id={item_id}",
    # fault legs
    "http://x/omar?interface=LifeCycleManager&method=submitObjects",
    "http://x/omar?interface=QueryManager&method=mystery",
    "http://x/omar?interface=QueryManager&method=getRegistryObject",
    "http://x/omar?interface=QueryManager&method=getRepositoryItem&param-id=urn:nope",
    "http://x/omar?interface=QueryManager&method=executeQuery",
    "http://x/omar?interface=QueryManager",
]


class TestHttpParity:
    def test_url_mix_bit_identical(self):
        legacy_reg, _, s1, _, legacy_item = setup_twin(LegacySoapDispatch)
        kernel_reg, _, s2, _, kernel_item = setup_twin(SoapRegistryBinding)
        assert legacy_item == kernel_item
        legacy_http = LegacyHttpGet(legacy_reg)
        kernel_http = HttpGetBinding(kernel_reg)
        org_id = legacy_reg.qm.find_organizations("SDSU")[0].id
        for template in HTTP_URLS:
            url = template.format(
                object_id=org_id, item_id=legacy_item, sql=QUERY_LANGUAGE_SQL
            )
            expected = legacy_http.get(url)
            actual = kernel_http.get(url)
            assert actual == expected, f"divergence at {url!r}"


class TestJaxrLocalParity:
    """The in-process edge must keep exact pre-kernel local-call semantics."""

    def _connections(self):
        from repro.client.jaxr import ConnectionFactory

        out = []
        for _ in range(2):
            registry = make_registry()
            user, credential = registry.register_user("parity")
            factory = ConnectionFactory(registry, local_call=True)
            out.append((registry, factory.create_connection(credential)))
        return out

    def test_local_roundtrip_identity_and_results(self):
        (reg_a, conn) = self._connections()[0]
        service = conn.get_registry_service()
        blm = service.get_business_life_cycle_manager()
        bqm = service.get_business_query_manager()
        org = blm.create_organization("LocalOrg")
        saved = blm.save_objects([org])
        assert saved == [org.id]
        # the local edge returns exactly what a direct manager call returns
        fetched = bqm.get_registry_object(org.id)
        assert fetched == reg_a.qm.get_registry_object(org.id)
        assert bqm.find_organizations("Local%")[0].id == org.id

    def test_local_faults_raise_unserialized(self):
        from repro.client.jaxr import ConnectionFactory
        from repro.util.errors import ObjectNotFoundError

        registry = make_registry()
        conn = ConnectionFactory(registry, local_call=True).create_connection()
        bqm = conn.get_registry_service().get_business_query_manager()
        # exact exception class survives (no fault-map on the local edge)
        with pytest.raises(ObjectNotFoundError) as excinfo:
            bqm.get_registry_object("urn:missing")
        assert excinfo.value.object_id == "urn:missing"
        blm = conn.get_registry_service().get_business_life_cycle_manager()
        with pytest.raises(
            AuthenticationError,
            match="LifeCycleManager access requires an authenticated session",
        ):
            blm.save_objects([blm.create_organization("X")])

    def test_pipeline_stats_cover_local_edge(self):
        registry = make_registry()
        from repro.client.jaxr import ConnectionFactory

        _, credential = registry.register_user("parity")
        conn = ConnectionFactory(registry, local_call=True).create_connection(credential)
        blm = conn.get_registry_service().get_business_life_cycle_manager()
        blm.save_objects([blm.create_organization("StatsOrg")])
        stats = registry.pipeline_stats()
        assert stats["local"]["submitObjects"]["count"] == 1
