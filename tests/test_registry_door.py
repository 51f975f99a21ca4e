"""The store's door: every in-process write runs the checks the wire's reader runs.

``LifeCycleManager.submit_objects`` and ``update_objects`` pass each object through
``serializer.admit``: each text attribute of the type's codec holds a string or
null, and every class's ``_check`` holds.  Replay, replication and snapshot
restore store what was checked on entry, and do not run it.
"""

import dataclasses

import pytest

from test_soap_serializer import populated_objects
from repro.persistence.changelog import apply
from repro.persistence.snapshot import dump_registry, load_registry
from repro.registry import RegistryConfig, RegistryServer
from repro.registry.federation import ReplicationLink
from repro.rim import CONCRETE_TYPES, Organization, Service, ServiceBinding, Slot
from repro.soap import SoapEnvelope, SoapFault, SoapRegistryBinding, serialize, serializer
from repro.soap.messages import SubmitObjectsRequest
from repro.util.clock import ManualClock
from repro.util.errors import InvalidRequestError

from conftest import publish_service_with_bindings

#: values no text attribute may hold
NOT_TEXT = (5, 1.5, True, ["x"], {"x": "y"})

#: per type, assignments after construction that one of its classes' ``_check``
#: refuses; every type also gets ``id = "x"``
BROKEN = {
    "AdhocQuery": [{"query": "  "}, {"query_language": "xquery"}],
    "Association": [{"source_object": ""}, {"target_object": "urn:uuid:00000000-0000-4000-8000-000000000001"}],  # fmt: skip
    "AuditableEvent": [{"affected_object": ""}],
    "Classification": [{"classified_object": ""}, {"node_representation": None}],
    "ClassificationNode": [{"code": ""}, {"parent": ""}],
    "ExternalIdentifier": [{"registry_object": ""}, {"value": ""}],
    "ExternalLink": [{"external_uri": ""}],
    "ServiceBinding": [{"service": ""}, {"access_uri": None, "target_binding": None}],
    "SpecificationLink": [{"service_binding": ""}],
    "Subscription": [{"selector": ""}, {"actions": []}],
    "User": [{"alias": ""}],
}


def _registry(home="http://reg0.example:8080/registry"):
    return RegistryServer(RegistryConfig(seed=47, home=home), clock=ManualClock())


def _admin(registry):
    _, credential = registry.register_user("admin", roles={"RegistryAdministrator"})
    return registry.login(credential)


def _assign(obj, attr, value):
    head, _, name = attr.rpartition(".")
    if head:  # a field of a frozen value object, such as a user's name
        value = dataclasses.replace(getattr(obj, head), **{name: value})
        attr = head
    setattr(obj, attr, value)


@pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
def test_an_object_mutated_after_construction_is_refused_on_submit_and_update(type_name):
    valid = populated_objects()[type_name]
    registry = _registry()
    admin = _admin(registry)
    with registry.store.transaction():
        registry.store.insert_object(valid.copy())
    version = registry.store.version
    texts = serializer._BY_NAME[type_name].texts
    cases = [({attr: value}, attr) for attr in texts for value in NOT_TEXT]
    cases += [(broken, None) for broken in [{"id": "x"}, *BROKEN.get(type_name, [])]]
    assert "id" in texts and "owner" in texts
    for assignments, named in cases:
        for write in (registry.lcm.submit_objects, registry.lcm.update_objects):
            obj = valid.copy()
            for attr, value in assignments.items():
                _assign(obj, attr, value)
            with pytest.raises(InvalidRequestError, match=named):
                write(admin, [obj])
            assert registry.store.version == version, (assignments, write)
    assert serialize(registry.store.get_object(valid.id)) == serialize(valid)


def test_an_organization_whose_parent_is_a_number_is_refused(registry, session):
    org = Organization(registry.ids.new_id(), name="SDSU")
    org.parent = 3
    with pytest.raises(InvalidRequestError, match="Organization parent must be a string"):
        registry.lcm.submit_objects(session, [org])
    assert not registry.store.contains(org.id)


class TestSlots:
    """A slot's values are a list of strings, however the slot is made."""

    @pytest.mark.parametrize("values", [[1, 2], "abc", [["nested"]], ("a",)])
    def test_a_slot_of_other_values_is_refused(self, registry, session, values):
        _, service = publish_service_with_bindings(registry, session)
        version = registry.store.version
        with pytest.raises(InvalidRequestError, match="is not a slot"):
            registry.lcm.add_slots(session, service.id, [Slot("copyright", values)])
        assert registry.store.version == version
        assert "copyright" not in registry.store.get_object(service.id).slots

    def test_add_slot_refuses_a_value_that_is_no_string(self):
        service = Service("urn:uuid:00000000-0000-4000-8000-000000000002")
        with pytest.raises(InvalidRequestError, match="is not a slot"):
            service.add_slot("copyright", 1, 2)
        assert "copyright" not in service.slots

    def test_a_stored_slot_reads_back_over_the_wire(self, registry, session):
        _, service = publish_service_with_bindings(registry, session)
        registry.lcm.add_slots(session, service.id, [Slot("copyright", ["2011", "SDSU"])])
        stored = registry.store.get_object(service.id)
        assert serializer.deserialize(serialize(stored)).slots.get("copyright").values == [
            "2011",
            "SDSU",
        ]


class TestTheDoorRunsOnce:
    """Once per object a write stores, and never for what replay, replication or a
    snapshot restore store."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        admit = serializer.admit

        def spy(obj):
            calls.append(obj.id)
            admit(obj)

        monkeypatch.setattr(serializer, "admit", spy)
        return calls

    def test_a_wire_submit_of_n_objects_runs_it_n_times_and_nothing_else_does(self, calls):
        source = _registry()
        _, credential = source.register_user("gold")
        session = source.login(credential)
        org = Organization(source.ids.new_id(), name="SDSU")
        service = Service(source.ids.new_id(), name="Adder")
        binding = ServiceBinding(
            source.ids.new_id(), service=service.id, access_uri="http://h1:8080/s"
        )
        edge = SoapRegistryBinding(source)
        edge.register_session(session)
        submit = SubmitObjectsRequest(objects=[serialize(o) for o in (org, service, binding)])
        answer = edge.handle(SoapEnvelope.with_session(submit, session.token))
        assert not isinstance(answer, SoapFault)
        assert calls == [org.id, service.id, binding.id]

        del calls[:]
        replayed = _registry()
        apply(replayed.store, source.store.changelog.records_since(0))
        follower = _registry(home="http://reg1.example:8080/registry")
        assert ReplicationLink(source, follower).pump() > 0
        restored = _registry()
        load_registry(restored, dump_registry(source))
        assert calls == []
        for registry in (replayed, follower, restored):
            assert registry.qm.get_access_uris(service.id) == ["http://h1:8080/s"]
