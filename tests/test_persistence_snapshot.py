"""Tests for registry state snapshots (save/load across processes)."""

import pytest

from repro.persistence.snapshot import (
    dump_registry,
    load_registry,
    load_registry_file,
    save_registry_file,
)
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import ExtrinsicObject, Organization
from repro.persistence.nodestate import NodeSample
from repro.util.clock import ManualClock
from repro.util.errors import InvalidRequestError

from conftest import publish_service_with_bindings


def fresh_registry(seed=1):
    return RegistryServer(RegistryConfig(seed=seed), clock=ManualClock())


class TestDumpLoad:
    def test_objects_round_trip(self, registry, session):
        org, svc = publish_service_with_bindings(registry, session)
        state = dump_registry(registry)
        restored = fresh_registry(seed=2)
        count = load_registry(restored, state)
        assert count == registry.store.count()
        restored_org = restored.daos.organizations.require(org.id)
        assert restored_org.name.value == org.name.value
        assert restored.qm.get_access_uris(svc.id) == registry.qm.get_access_uris(svc.id)

    def test_node_state_round_trips(self, registry):
        registry.node_state.record_sample(
            NodeSample(host="h.x", load=1.5, memory=4 << 30, swap_memory=2 << 30, updated=9.0)
        )
        restored = fresh_registry(seed=2)
        load_registry(restored, dump_registry(registry))
        sample = restored.node_state.get("h.x")
        assert sample.load == 1.5
        assert sample.updated == 9.0

    def test_restored_node_state_is_one_generation(self, registry):
        registry.node_state.record_sweep(
            NodeSample(host=f"h{n}.x", load=0.1 * n, memory=1, swap_memory=1, updated=9.0)
            for n in range(5)
        )
        restored = fresh_registry(seed=2)
        before = restored.node_state.generation()[0]
        load_registry(restored, dump_registry(registry))
        assert restored.node_state.generation()[0] == before + 1
        assert restored.node_state.all_samples() == registry.node_state.all_samples()

    def test_restore_publishes_one_generation(self, registry, session):
        """The objects go in as one store transaction: one version, however
        many objects the snapshot holds."""
        publish_service_with_bindings(registry, session)
        state = dump_registry(registry)
        restored = fresh_registry(seed=2)
        before = restored.store.version
        assert load_registry(restored, state) == len(state["objects"]) > 1
        assert restored.store.version == before + 1
        assert restored.store.count() == registry.store.count()

    def test_a_malformed_object_leaves_the_store_empty(self, registry, session):
        """A snapshot whose last object does not read back restores nothing:
        the objects before it are rolled back with it."""
        publish_service_with_bindings(registry, session)
        state = dump_registry(registry)
        state["objects"][-1] = {"_type": "Service"}  # no id
        restored = fresh_registry(seed=2)
        before = restored.store.version
        with pytest.raises(InvalidRequestError):
            load_registry(restored, state)
        assert restored.store.count() == 0 and restored.store.all_ids() == []
        assert restored.store.version == before

    def test_repository_items_round_trip(self, registry, session):
        meta = ExtrinsicObject(registry.ids.new_id(), name="blob", mime_type="application/octet-stream")
        registry.lcm.submit_objects(session, [meta])
        registry.repository.store(meta, b"\x00\x01binary\xff")
        restored = fresh_registry(seed=2)
        load_registry(restored, dump_registry(registry))
        assert restored.repository.retrieve(meta.id).content == b"\x00\x01binary\xff"

    def test_credentials_survive_reload(self, registry):
        _, credential = registry.register_user("gold")
        restored = fresh_registry(seed=2)
        load_registry(restored, dump_registry(registry))
        session = restored.login(credential)  # old credential still authenticates
        assert session.alias == "gold"

    def test_load_requires_empty_registry(self, registry, session):
        publish_service_with_bindings(registry, session)
        state = dump_registry(registry)
        with pytest.raises(ValueError, match="empty"):
            load_registry(registry, state)

    def test_format_version_checked(self):
        restored = fresh_registry()
        with pytest.raises(ValueError, match="format"):
            load_registry(restored, {"format": 99})

    def test_file_round_trip(self, registry, session, tmp_path):
        publish_service_with_bindings(registry, session)
        path = tmp_path / "state.json"
        save_registry_file(registry, str(path))
        restored = fresh_registry(seed=3)
        count = load_registry_file(restored, str(path))
        assert count == registry.store.count()

    def test_event_sequence_continues(self, registry, session, tmp_path):
        org, _ = publish_service_with_bindings(registry, session)
        path = tmp_path / "state.json"
        save_registry_file(registry, str(path))
        restored = fresh_registry(seed=4)
        load_registry_file(restored, str(path))
        _, cred = restored.register_user("next-user")
        next_session = restored.login(cred)
        restored.lcm.submit_objects(
            next_session, [Organization(restored.ids.new_id(), name="After Reload")]
        )
        # new audit events sort after all reloaded ones
        events = restored.daos.events.all()
        sequences = sorted(e.sequence for e in events)
        assert sequences == list(range(1, len(events) + 1))
