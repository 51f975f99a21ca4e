"""Tests for lifecycle idempotency keys: exactly-once under retries."""

import threading

import pytest

from repro.persistence import DataStore
from repro.query import QueryEngine
from repro.rim import Organization, Service
from repro.serving import ServingConfig, ServingSupervisor
from repro.soap import (
    SoapEnvelope,
    SoapFault,
    SoapRegistryBinding,
    SubmitObjectsRequest,
    serialize,
)
from repro.soap.messages import (
    AdhocQueryRequest,
    GetServiceBindingsRequest,
    UpdateObjectsRequest,
)
from repro.util.errors import InvalidRequestError

from conftest import publish_service_with_bindings


class TestLifecycleIdempotency:
    def test_duplicate_submit_replays_recorded_result(self, registry, session):
        org = Organization(registry.ids.new_id(), name="SDSU")
        first = registry.lcm.submit_objects(
            session, [org], idempotency_key="req-1"
        )
        # the retry carries the same payload; it must not re-run
        again = registry.lcm.submit_objects(
            session, [org], idempotency_key="req-1"
        )
        assert again == first
        assert registry.lcm.idempotent_duplicates == 1
        assert len(registry.daos.organizations.all()) == 1

    def test_duplicate_update_applies_once(self, registry, session):
        svc = Service(registry.ids.new_id(), name="v1")
        registry.lcm.submit_objects(session, [svc])
        writes_before = registry.store.writes
        updated = Service(svc.id, name="v2")
        registry.lcm.update_objects(session, [updated], idempotency_key="upd-1")
        writes_after_first = registry.store.writes
        registry.lcm.update_objects(session, [updated], idempotency_key="upd-1")
        assert registry.store.writes == writes_after_first > writes_before
        assert registry.daos.services.require(svc.id).name.value == "v2"

    def test_key_reuse_across_operations_rejected(self, registry, session):
        org = Organization(registry.ids.new_id(), name="SDSU")
        registry.lcm.submit_objects(session, [org], idempotency_key="shared")
        with pytest.raises(InvalidRequestError):
            registry.lcm.remove_objects(
                session, [org.id], idempotency_key="shared"
            )

    def test_unkeyed_requests_never_replay(self, registry, session):
        registry.lcm.submit_objects(
            session, [Organization(registry.ids.new_id(), name="a")]
        )
        registry.lcm.submit_objects(
            session, [Organization(registry.ids.new_id(), name="b")]
        )
        assert registry.lcm.idempotent_duplicates == 0
        assert len(registry.daos.organizations.all()) == 2

    def test_failed_request_records_nothing(self, registry, session):
        org = Organization(registry.ids.new_id(), name="SDSU")
        registry.lcm.submit_objects(session, [org], idempotency_key="f-1")
        with pytest.raises(Exception):
            # duplicate object id fails; the key must stay unrecorded...
            registry.lcm.submit_objects(session, [org], idempotency_key="f-2")
        # ...so a later retry under f-2 with a valid payload runs for real
        other = Organization(registry.ids.new_id(), name="Other")
        result = registry.lcm.submit_objects(
            session, [other], idempotency_key="f-2"
        )
        assert result == [other.id]

    def test_keys_are_scoped_per_user(self, registry, session):
        # another session presenting a previously-used key must not replay
        # the first session's recorded result (it would bypass authorization)
        _, credential = registry.register_user("silver")
        other = registry.login(credential)
        org = Organization(registry.ids.new_id(), name="SDSU")
        first = registry.lcm.submit_objects(session, [org], idempotency_key="req-1")
        mine = Organization(registry.ids.new_id(), name="Other")
        result = registry.lcm.submit_objects(other, [mine], idempotency_key="req-1")
        assert result == [mine.id] != first
        assert registry.lcm.idempotent_duplicates == 0
        assert len(registry.daos.organizations.all()) == 2

    def test_other_users_key_does_not_leak_operation(self, registry, session):
        # a different user reusing the key on a different op is a miss, not
        # the wrong-operation error (which would leak what the key ran)
        _, credential = registry.register_user("silver")
        other = registry.login(credential)
        org = Organization(registry.ids.new_id(), name="SDSU")
        registry.lcm.submit_objects(session, [org], idempotency_key="shared")
        theirs = Organization(registry.ids.new_id(), name="Theirs")
        registry.lcm.submit_objects(other, [theirs], idempotency_key="probe")
        registry.lcm.remove_objects(other, [theirs.id], idempotency_key="shared")
        assert not registry.store.contains(theirs.id)
        assert registry.store.contains(org.id)

    def test_idempotency_stats_surface(self, registry, session):
        registry.lcm.submit_objects(
            session,
            [Organization(registry.ids.new_id(), name="x")],
            idempotency_key="s-1",
        )
        stats = registry.lcm.idempotency_stats()
        assert stats == {"idempotency_keys": 1, "idempotent_duplicates": 0}


class TestKernelEdgeIdempotency:
    def test_retried_envelope_is_exactly_once(self, registry, session):
        binding = SoapRegistryBinding(registry)
        binding.register_session(session)
        org = Organization(registry.ids.new_id(), name="SDSU")
        request = SubmitObjectsRequest(
            objects=[serialize(org)], idempotency_key="soap-1"
        )
        first = binding.handle(SoapEnvelope.with_session(request, session.token))
        retry = binding.handle(SoapEnvelope.with_session(request, session.token))
        assert first.is_success and retry.is_success
        assert retry.ids == first.ids
        assert registry.lcm.idempotent_duplicates == 1
        assert len(registry.daos.organizations.all()) == 1


class TestRetriesThroughTheServingFleet:
    def test_retried_writes_beside_readers_apply_once_and_replay(self, registry, session):
        """Keyed writes, each sent twice through a 2-worker fleet while readers
        discover and query: every retry replays its first answer, the changelog
        rebuilds the heap, and planned answers equal scans on both stores."""
        published = [
            publish_service_with_bindings(
                registry, session, org_name=f"Org{i}", service_name=f"Svc{i}"
            )
            for i in range(4)
        ]
        writes = []
        for i in range(24):
            # two in three rewrite an organization, which discovery never reads
            org, service = published[i % 4]
            target = registry.store.get_object(service.id if i % 3 == 0 else org.id)
            target.description.set(f"rev-{i}")
            writes.append(
                UpdateObjectsRequest(objects=[serialize(target)], idempotency_key=f"w-{i}")
            )
        reads = [GetServiceBindingsRequest(service.id) for _, service in published]
        reads.append(AdhocQueryRequest(query="SELECT id FROM Service WHERE name = 'Svc1'"))
        writing_done = threading.Event()
        answered, failures = [], []
        sup = ServingSupervisor(registry, ServingConfig(workers=2))
        sup.register_session(session)

        def write(chunk):
            for body in chunk:
                first = sup.call(body=body, token=session.token, timeout=30.0)
                again = sup.call(body=body, token=session.token, timeout=30.0)
                if not (first.is_success and again.ids == first.ids):
                    failures.append((body, first, again))

        def read():
            while True:
                for body in reads:
                    answer = sup.call(body=body, timeout=30.0)
                    answered.append(answer)
                    if isinstance(answer, SoapFault):
                        failures.append((body, answer))
                if writing_done.is_set():
                    return

        writers = [
            threading.Thread(target=write, args=(writes[n::2],), daemon=True)
            for n in range(2)
        ]
        readers = [threading.Thread(target=read, daemon=True) for _ in range(2)]
        try:
            with sup:
                for thread in readers + writers:
                    thread.start()
                for thread in writers:
                    thread.join(60.0)
                writing_done.set()
                for thread in readers + writers:
                    thread.join(60.0)
                    assert not thread.is_alive()
                sup.drain()
                stats = sup.serving_stats()
        finally:
            writing_done.set()
            sup.close()
        assert failures == []
        assert stats["accepted"] == 2 * len(writes) + len(answered)
        assert registry.write_stats()["idempotent_duplicates"] == len(writes)

        store = registry.store
        rebuilt = DataStore()
        store.changelog.replay_into(rebuilt)
        assert sorted(rebuilt.all_ids()) == sorted(store.all_ids())
        for object_id in store.all_ids():
            assert serialize(rebuilt.get_object(object_id)) == serialize(
                store.get_object(object_id)
            ), object_id
        for query in (
            "SELECT * FROM Service ORDER BY name",
            "SELECT * FROM ServiceBinding ORDER BY id",
            "SELECT id FROM Service WHERE name LIKE 'Svc%'",
            "SELECT * FROM Organization ORDER BY name",
        ):
            planned = registry.engine.execute(query)
            assert planned == QueryEngine(store, planner=False).execute(query), query
            assert planned == QueryEngine(rebuilt, planner=False).execute(query), query
