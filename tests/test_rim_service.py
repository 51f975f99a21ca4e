"""Tests for Service, ServiceBinding, SpecificationLink, and host extraction."""

import pytest

from repro.rim import Service, ServiceBinding, SpecificationLink, host_of_uri
from repro.util.errors import InvalidRequestError
from repro.util.ids import IdFactory

from conftest import publish_service_with_bindings

ids = IdFactory(3)


class TestHostOfUri:
    @pytest.mark.parametrize(
        "uri,host",
        [
            ("http://exergy.sdsu.edu:8080/Adder/addService", "exergy.sdsu.edu"),
            ("https://volta.sdsu.edu:8443/omar/registry/soap", "volta.sdsu.edu"),
            ("http://localhost/x", "localhost"),
            ("http://10.0.0.1:8080/svc", "10.0.0.1"),
            ("http://user:pw@host.example.com:80/p", "host.example.com"),
            ("host.example.com:8080/p", "host.example.com"),
            ("http://[::1]:8080/svc", "::1"),
        ],
    )
    def test_extraction(self, uri, host):
        assert host_of_uri(uri) == host

    def test_empty_raises(self):
        with pytest.raises(InvalidRequestError):
            host_of_uri("")


class TestService:
    def test_binding_order_preserved(self):
        svc = Service(ids.new_id(), name="Adder")
        b1, b2, b3 = ids.new_ids(3)
        for b in (b1, b2, b3):
            svc.add_binding(b)
        assert svc.binding_ids == [b1, b2, b3]

    def test_duplicate_binding_rejected(self):
        svc = Service(ids.new_id())
        bid = ids.new_id()
        svc.add_binding(bid)
        with pytest.raises(InvalidRequestError):
            svc.add_binding(bid)

    def test_remove_missing_binding_rejected(self):
        svc = Service(ids.new_id())
        with pytest.raises(InvalidRequestError):
            svc.remove_binding(ids.new_id())

    def test_copy_independent_binding_list(self):
        svc = Service(ids.new_id())
        svc.add_binding(ids.new_id())
        clone = svc.copy()
        clone.add_binding(ids.new_id())
        assert len(svc.binding_ids) == 1
        assert len(clone.binding_ids) == 2


class TestServiceBinding:
    def test_requires_service_id(self):
        with pytest.raises(InvalidRequestError):
            ServiceBinding(ids.new_id(), service="", access_uri="http://h/x")

    def test_requires_uri_or_target(self):
        with pytest.raises(InvalidRequestError):
            ServiceBinding(ids.new_id(), service=ids.new_id())

    def test_target_binding_alone_is_valid(self):
        b = ServiceBinding(
            ids.new_id(), service=ids.new_id(), target_binding=ids.new_id()
        )
        assert b.access_uri is None
        assert b.host is None

    def test_host_property(self):
        b = ServiceBinding(
            ids.new_id(),
            service=ids.new_id(),
            access_uri="http://thermo.sdsu.edu:8080/NodeStatus/NodeStatusService",
        )
        assert b.host == "thermo.sdsu.edu"

    @pytest.mark.parametrize("name", ["service", "access_uri", "target_binding"])
    def test_a_value_neither_text_nor_null_is_refused(self, registry, session, name):
        """Set after construction, on a new binding or a stored one: the store's door
        refuses it on submit and on update, and discovery answers as it did."""
        _, service = publish_service_with_bindings(registry, session)
        uris, version = registry.qm.get_access_uris(service.id), registry.store.version
        new = ServiceBinding(registry.ids.new_id(), service=service.id, access_uri="http://h/x")
        stored = registry.store.get_object(registry.store.get_object(service.id).binding_ids[0])
        lcm = registry.lcm
        for binding, write in ((new, lcm.submit_objects), (stored, lcm.update_objects)):
            setattr(binding, name, 5)
            with pytest.raises(InvalidRequestError, match=f"{name} must be a string"):
                write(session, [binding])
            assert registry.store.version == version
            assert registry.qm.get_access_uris(service.id) == uris

    def test_an_update_cannot_move_a_binding_to_another_service(self, registry, session):
        """Relocation is remove plus submit: both services answer as before."""
        _, first = publish_service_with_bindings(registry, session, hosts=["a.x", "b.x"])
        _, second = publish_service_with_bindings(registry, session, hosts=["c.x"])
        before = [registry.qm.get_access_uris(s.id) for s in (first, second)]
        binding = registry.store.get_object(registry.store.get_object(first.id).binding_ids[0])
        binding.service = second.id
        with pytest.raises(InvalidRequestError, match="service"):
            registry.lcm.update_objects(session, [binding])
        assert [registry.qm.get_access_uris(s.id) for s in (first, second)] == before
        assert registry.store.get_object(binding.id).service == first.id

    def test_an_ill_typed_uri_faults_and_discovery_still_answers(self, registry, session):
        _, service = publish_service_with_bindings(registry, session)
        uris = registry.qm.get_access_uris(service.id)
        with pytest.raises(InvalidRequestError, match="access_uri"):
            registry.lcm.submit_objects(
                session,
                [ServiceBinding(registry.ids.new_id(), service=service.id, access_uri=5)],
            )
        assert registry.qm.get_access_uris(service.id) == uris


class TestSpecificationLink:
    def test_requires_both_references(self):
        with pytest.raises(InvalidRequestError):
            SpecificationLink(
                ids.new_id(), service_binding="", specification_object=ids.new_id()
            )

    def test_valid(self):
        link = SpecificationLink(
            ids.new_id(),
            service_binding=ids.new_id(),
            specification_object=ids.new_id(),
            usage_description="WSDL for the adder",
        )
        assert link.usage_description == "WSDL for the adder"
