"""Tests for the DAO layer, including the pluggable binding resolver seam."""

import pytest

from repro.persistence import DataStore, DAORegistry
from repro.rim import (
    Association,
    AssociationType,
    Organization,
    Service,
    ServiceBinding,
)
from repro.util.errors import InvalidRequestError, ObjectNotFoundError
from repro.util.ids import IdFactory

ids = IdFactory(20)


@pytest.fixture
def daos() -> DAORegistry:
    return DAORegistry(DataStore())


def _service_with_bindings(daos, uris):
    svc = Service(ids.new_id(), name="Adder")
    daos.services.insert(svc)
    for uri in uris:
        binding = ServiceBinding(ids.new_id(), service=svc.id, access_uri=uri)
        svc.add_binding(binding.id)
        daos.service_bindings.insert(binding)
    daos.services.save(svc)
    return daos.services.require(svc.id)


class TestGenericDAO:
    def test_type_enforcement(self, daos):
        with pytest.raises(InvalidRequestError):
            daos.services.insert(Organization(ids.new_id()))

    def test_get_wrong_type_returns_none(self, daos):
        org = Organization(ids.new_id())
        daos.organizations.insert(org)
        assert daos.services.get(org.id) is None

    def test_require_missing(self, daos):
        with pytest.raises(ObjectNotFoundError):
            daos.organizations.require(ids.new_id())

    def test_find_by_name_and_prefix(self, daos):
        daos.organizations.insert(Organization(ids.new_id(), name="DemoOrg_A"))
        daos.organizations.insert(Organization(ids.new_id(), name="DemoOrg_B"))
        daos.organizations.insert(Organization(ids.new_id(), name="Other"))
        assert len(daos.organizations.find_by_name("DemoOrg_A")) == 1
        assert len(daos.organizations.find_by_name_prefix("DemoOrg_")) == 2

    def test_count(self, daos):
        assert daos.organizations.count() == 0
        daos.organizations.insert(Organization(ids.new_id()))
        assert daos.organizations.count() == 1


class TestServiceBindingDAO:
    def test_for_service_preserves_publisher_order(self, daos):
        uris = [f"http://h{i}.x:8080/svc" for i in range(4)]
        svc = _service_with_bindings(daos, uris)
        got = [b.access_uri for b in daos.service_bindings.for_service(svc)]
        assert got == uris

    def test_find_by_host(self, daos):
        _service_with_bindings(daos, ["http://a.x:8080/svc", "http://b.x:8080/svc"])
        assert len(daos.service_bindings.find_by_host("a.x")) == 1


class TestServiceDAOResolver:
    def test_default_resolver_returns_all(self, daos):
        uris = ["http://a.x/1", "http://b.x/2"]
        svc = _service_with_bindings(daos, uris)
        assert [b.access_uri for b in daos.services.resolve_bindings(svc)] == uris

    def test_custom_resolver_installed(self, daos):
        svc = _service_with_bindings(daos, ["http://a.x/1", "http://b.x/2"])

        class ReverseResolver:
            def resolve(self, service, bindings):
                return list(reversed(bindings))

        daos.services.set_resolver(ReverseResolver())
        resolved = daos.services.resolve_bindings(svc)
        assert [b.access_uri for b in resolved] == ["http://b.x/2", "http://a.x/1"]


class TestAssociationDAO:
    def test_find_by_endpoints(self, daos):
        org = Organization(ids.new_id())
        svc = Service(ids.new_id())
        daos.organizations.insert(org)
        daos.services.insert(svc)
        assoc = Association(
            ids.new_id(),
            source_object=org.id,
            target_object=svc.id,
            association_type=AssociationType.OFFERS_SERVICE,
        )
        daos.associations.insert(assoc)
        assert len(daos.associations.find_by_source(org.id)) == 1
        assert len(daos.associations.find_by_target(svc.id)) == 1
        assert len(daos.associations.find_involving(svc.id)) == 1
        assert len(daos.associations.offers_service(org.id)) == 1
        assert daos.associations.offers_service(svc.id) == []


class TestDaoRouting:
    def test_dao_for_routes_by_type(self, daos):
        org = Organization(ids.new_id())
        assert daos.dao_for(org) is daos.organizations
        svc = Service(ids.new_id())
        assert daos.dao_for(svc) is daos.services
