"""Tests for the changelog views: delta application, parity, freshness.

This is the one invalidation suite every changelog consumer depends on: the
view classes themselves, the planner-vs-scan parity of the engine's result
and subquery views, and a generated-schedule machine asserting that every
cache-backed read equals its uncached recompute after every write.
"""

import sys
import threading
import time
from contextlib import nullcontext

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import (
    BalanceMode,
    ConstraintBindingResolver,
    LoadStatus,
    ServiceConstraint,
    attach_load_balancer,
)
from repro.core.constraints import parse_constraints
from repro.persistence import DataStore, ObjectView, QueryResultView
from repro.persistence.nodestate import NodeSample
from repro.persistence.views import ROW_CAP
from repro.query.evaluator import QueryEngine
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Organization, Service, ServiceBinding
from repro.sim import SimEngine
from repro.soap import (
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    RegistryResponse,
    SimTransport,
    SoapEnvelope,
    SoapRegistryBinding,
    envelope_to_xml,
    serialize,
)
from repro.soap.serializer import StoredObjects, object_json
from repro.util.clock import ManualClock
from repro.util.ids import IdFactory

ids = IdFactory(88)


@pytest.fixture
def store() -> DataStore:
    return DataStore()


def document(body) -> str:
    """What the wire writes of a header-less message."""
    return envelope_to_xml(SoapEnvelope(body=body))


def publish(store, name="Adder", hosts=("h1", "h2")):
    svc = Service(ids.new_id(), name=name, description="d")
    store.insert_object(svc)
    for host in hosts:
        store.insert_object(
            ServiceBinding(
                ids.new_id(), service=svc.id, access_uri=f"http://{host}:8080/a"
            )
        )
    return svc


class TestObjectView:
    def test_fill_and_hit(self, store):
        svc = publish(store)
        view = ObjectView(store)
        as_of = view.catch_up()
        view.put(svc.id, "tok", ["http://h1:8080/a"], as_of=as_of)
        assert view.get(svc.id) == ("tok", ["http://h1:8080/a"])
        assert len(view) == 1

    def test_unrelated_write_keeps_entry(self, store):
        svc = publish(store)
        view = ObjectView(store)
        view.put(svc.id, "tok", ["u"], as_of=view.catch_up())
        store.insert_object(Organization(ids.new_id(), name="SDSU"))
        view.catch_up()
        assert view.get(svc.id) == ("tok", ["u"])
        assert len(view) == 1

    def test_service_write_drops_entry(self, store):
        svc = publish(store)
        view = ObjectView(store)
        view.put(svc.id, "tok", ["u"], as_of=view.catch_up())
        store.save_object(Service(svc.id, name="renamed", description="d"))
        view.catch_up()
        assert view.get(svc.id) is None
        assert len(view) == 0

    def test_binding_repoint_drops_both_services(self, store):
        svc_a = publish(store, name="A", hosts=())
        svc_b = publish(store, name="B", hosts=())
        binding = ServiceBinding(
            ids.new_id(), service=svc_a.id, access_uri="http://h:1/a"
        )
        store.insert_object(binding)
        view = ObjectView(store)
        as_of = view.catch_up()
        view.put(svc_a.id, "ta", ["ua"], as_of=as_of)
        view.put(svc_b.id, "tb", ["ub"], as_of=as_of)
        repointed = ServiceBinding(
            binding.id, service=svc_b.id, access_uri="http://h:1/a"
        )
        store.save_object(repointed)
        view.catch_up()
        assert view.get(svc_a.id) is None  # pre-image side
        assert view.get(svc_b.id) is None  # post-image side

    def test_binding_record_drops_its_own_entry_and_its_services(self, store):
        svc, other = publish(store, name="A", hosts=("h1",)), publish(store, name="B", hosts=())
        (binding,) = [b for b in store.iter_views_of_type("ServiceBinding") if b.service == svc.id]
        view = ObjectView(store)
        as_of = view.catch_up()
        for key in (svc.id, other.id, binding.id):
            view.put(key, "tok", "value", as_of=as_of)
        store.save_object(store.get_object(binding.id))
        view.catch_up()
        gone = [view.get(key) is None for key in (svc.id, other.id, binding.id)]
        assert gone == [True, False, True]

    def test_stale_fill_is_stranded(self, store):
        svc = publish(store)
        view = ObjectView(store)
        as_of = view.catch_up()
        # a write lands between the fill's read and its put
        store.save_object(Service(svc.id, name="newer", description="d"))
        view.catch_up()
        view.put(svc.id, "tok", ["stale"], as_of=as_of)
        assert view.get(svc.id) is None

    def test_unapplied_records_do_not_strand_fill(self, store):
        svc = publish(store)
        view = ObjectView(store)
        as_of = view.catch_up()
        # the write happened but the view has not caught up yet: the put
        # lands, and the next catch-up drops it
        store.save_object(Service(svc.id, name="newer", description="d"))
        view.put(svc.id, "tok", ["u"], as_of=as_of)
        assert view.get(svc.id) is not None
        view.catch_up()
        assert view.get(svc.id) is None

    def test_rollback_barrier_clears_view(self, store):
        svc = publish(store)
        view = ObjectView(store)
        view.put(svc.id, "tok", ["u"], as_of=view.catch_up())
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(Organization(ids.new_id(), name="x"))
                raise RuntimeError("abort")
        view.catch_up()
        assert view.get(svc.id) is None
        assert view.resets_applied == 1


class TestServiceBindingsJoin:
    """``ServiceDAO.resolve_bindings`` reads a service's partition from a
    changelog view; each test fails if a write leaves the old join behind."""

    LS_1 = "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>"
    GR_1 = "<constraint><cpuLoad>load gr 1.0</cpuLoad></constraint>"

    @pytest.fixture
    def daos(self, store):
        from repro.core.balancer import BalanceMode
        from repro.persistence import DAORegistry

        clock = ManualClock(start=11 * 3600.0)
        node_state = store.node_state
        for host, load in (("h1", 0.2), ("h2", 0.1), ("h3", 5.0)):
            node_state.record_sample(
                NodeSample(host=host, load=load, memory=1, swap_memory=1, updated=clock.now())
            )
        daos = DAORegistry(store)
        daos.services.set_resolver(
            ConstraintBindingResolver(
                ServiceConstraint(clock),
                LoadStatus(node_state),
                mode=BalanceMode.FILTER,
            )
        )
        return daos

    @staticmethod
    def publish(store, description, hosts, name="Adder"):
        svc = Service(ids.new_id(), name=name, description=description)
        for host in hosts:
            binding = ServiceBinding(
                ids.new_id(), service=svc.id, access_uri=f"http://{host}:8080/a"
            )
            svc.binding_ids.append(binding.id)
            store.insert_object(binding)
        store.insert_object(svc)
        return svc

    @staticmethod
    def answer(daos, service_id):
        view = daos.services.get_view(service_id)
        first = [b.host for b in daos.services.resolve_bindings(view, copy=False)]
        # the repeat comes from the join view and must be the same answer
        assert [b.host for b in daos.services.resolve_bindings(view)] == first
        return first

    def test_join_is_filed_once_and_reused(self, store, daos):
        svc = self.publish(store, self.LS_1, ["h1", "h2", "h3"])
        assert self.answer(daos, svc.id) == ["h2", "h1"]
        join = daos.services._bindings_view
        assert len(join) == 1
        bound = join.get(svc.id)[1]
        assert [b.host for b in bound] == ["h1", "h2", "h3"]
        assert bound.positions == {"h1": 0, "h2": 1, "h3": 2}
        assert self.answer(daos, svc.id) == ["h2", "h1"]
        assert join.get(svc.id)[1] is bound

    def test_added_binding_changes_the_next_answer(self, store, daos):
        svc = self.publish(store, self.LS_1, ["h1"])
        assert self.answer(daos, svc.id) == ["h1"]
        service = store.get_object(svc.id)
        binding = ServiceBinding(ids.new_id(), service=svc.id, access_uri="http://h2:8080/a")
        service.binding_ids.append(binding.id)
        with store.transaction():
            store.insert_object(binding)
            store.save_object(service)
        assert self.answer(daos, svc.id) == ["h2", "h1"]

    def test_deleted_binding_changes_the_next_answer(self, store, daos):
        svc = self.publish(store, self.LS_1, ["h1", "h2"])
        assert self.answer(daos, svc.id) == ["h2", "h1"]
        service = store.get_object(svc.id)
        gone = service.binding_ids.pop()
        with store.transaction():
            store.delete_object(gone)
            store.save_object(service)
        assert self.answer(daos, svc.id) == ["h1"]

    def test_rewritten_access_uri_moves_the_binding_to_its_new_host(self, store, daos):
        svc = self.publish(store, self.LS_1, ["h1", "h3"])
        assert self.answer(daos, svc.id) == ["h1"]
        binding = store.get_object(svc.binding_ids[1])
        binding.access_uri = "http://h2:8080/a"
        store.save_object(binding)  # a ServiceBinding record, no Service record
        assert self.answer(daos, svc.id) == ["h2", "h1"]

    def test_repointed_binding_changes_both_services(self, store, daos):
        svc_a = self.publish(store, self.LS_1, ["h1", "h2"], name="A")
        svc_b = self.publish(store, self.LS_1, ["h1"], name="B")
        assert self.answer(daos, svc_a.id) == ["h2", "h1"]
        assert self.answer(daos, svc_b.id) == ["h1"]
        binding = store.get_object(svc_a.binding_ids[1])
        old, new = store.get_object(svc_a.id), store.get_object(svc_b.id)
        old.binding_ids.remove(binding.id)
        new.binding_ids.append(binding.id)
        binding.service = new.id
        with store.transaction():
            for obj in (binding, old, new):
                store.save_object(obj)
        assert self.answer(daos, svc_a.id) == ["h1"]
        assert self.answer(daos, svc_b.id) == ["h2", "h1"]

    def test_rewritten_constraints_change_the_next_answer(self, store, daos):
        svc = self.publish(store, self.LS_1, ["h1", "h2", "h3"])
        assert self.answer(daos, svc.id) == ["h2", "h1"]
        service = store.get_object(svc.id)
        service.description.set(self.GR_1)
        store.save_object(service)
        assert self.answer(daos, svc.id) == ["h3"]

    def test_reset_barrier_takes_back_a_join_filled_inside_the_transaction(self, store, daos):
        svc = self.publish(store, self.LS_1, ["h1", "h3"])
        with pytest.raises(RuntimeError):
            with store.transaction():
                binding = store.get_object(svc.binding_ids[1])
                binding.access_uri = "http://h2:8080/a"
                store.save_object(binding)
                # the first read of this service fills the view from the
                # transaction's own, soon to be taken back, heap
                assert self.answer(daos, svc.id) == ["h2", "h1"]
                raise RuntimeError("abort")
        # the binding list never changed: only the barrier can drop that join
        assert self.answer(daos, svc.id) == ["h1"]
        assert daos.services._bindings_view.resets_applied == 1

    def test_organization_write_drops_nothing(self, store, daos):
        svc = self.publish(store, self.LS_1, ["h1", "h2"])
        self.answer(daos, svc.id)
        join = daos.services._bindings_view
        bound = join.get(svc.id)[1]
        store.insert_object(Organization(ids.new_id(), name="SDSU"))
        assert self.answer(daos, svc.id) == ["h2", "h1"]
        assert join.get(svc.id)[1] is bound and len(join) == 1

    def test_an_unsaved_edit_of_the_binding_list_is_not_served_the_stored_join(self, store, daos):
        svc = self.publish(store, self.LS_1, ["h1", "h2"])
        assert self.answer(daos, svc.id) == ["h2", "h1"]
        edited = store.get_object(svc.id)
        edited.binding_ids.pop()
        assert [b.host for b in daos.services.resolve_bindings(edited)] == ["h1"]
        assert self.answer(daos, svc.id) == ["h2", "h1"]

    def test_a_partition_the_changelog_cannot_vouch_for_is_not_filed(self, store, daos):
        """A listed binding that is missing, or owned by another service, would
        change this answer through a record that names someone else."""
        svc = self.publish(store, self.LS_1, ["h1"])
        other = self.publish(store, self.LS_1, ["h2"], name="Other")
        service = store.get_object(svc.id)
        service.binding_ids.append(other.binding_ids[0])
        store.save_object(service)
        assert self.answer(daos, svc.id) == ["h2", "h1"]
        assert daos.services._bindings_view.get(svc.id) is None
        foreign = store.get_object(other.binding_ids[0])
        foreign.access_uri = "http://h3:8080/a"
        store.save_object(foreign)
        assert self.answer(daos, svc.id) == ["h1"]

    def test_ten_times_the_bound_in_services_does_not_grow_the_join_past_it(
        self, store, daos, monkeypatch
    ):
        """Stated bound: ``MAX_BOUND_SERVICES`` services, then the view starts over."""
        from repro.persistence import dao

        monkeypatch.setattr(dao, "MAX_BOUND_SERVICES", 8)
        for n in range(80):
            svc = self.publish(store, self.LS_1, ["h1", "h2"], name=f"S{n}")
            assert self.answer(daos, svc.id) == ["h2", "h1"]
            assert len(daos.services._bindings_view) <= 8


class TestStoredTexts:
    """The texts a read answer joins: one per live served object, dropped by id."""

    @pytest.fixture
    def world(self):
        registry = RegistryServer(RegistryConfig(seed=5), clock=ManualClock(start=11 * 3600.0))
        services = [
            TestServiceBindingsJoin.publish(registry.store, "d", ["h1", "h2"], name=f"S{n}")
            for n in range(4)
        ]
        return registry, SoapRegistryBinding(registry), services

    @staticmethod
    def read(edge, request):
        """One request: its answer's document, untouched, and the answer."""
        answer = edge.handle(SoapEnvelope(body=request))
        return document(answer), answer

    def test_a_record_for_an_id_drops_that_entry_and_no_other(self, store):
        kept, written, deleted = (publish(store, name=name, hosts=()) for name in "abc")
        view = ObjectView(store)
        for svc in (kept, written, deleted):
            view.put(svc.id, store.get_view(svc.id), "text", as_of=view.catch_up())
        store.save_object(store.get_object(written.id))
        store.delete_object(deleted.id)
        view.catch_up()
        assert [view.get(svc.id) is None for svc in (kept, written, deleted)] == [False, True, True]
        assert len(view) == 1

    def test_a_text_is_written_once_per_version(self, world):
        registry, edge, services = world
        request = GetServiceBindingsRequest(services[0].id)
        first, answer = self.read(edge, request)
        filed = {oid: registry.qm._texts.get(oid) for oid in services[0].binding_ids}
        assert [text for _, text in filed.values()] == list(map(object_json, answer.objects))
        assert self.read(edge, request)[0] == first
        assert all(registry.qm._texts.get(oid) is entry for oid, entry in filed.items())

    def test_a_version_the_store_no_longer_holds_is_written_as_itself_and_not_filed(self, world):
        registry, edge, services = world
        store, view = registry.store, registry.qm._texts
        binding_id = services[0].binding_ids[0]
        held = store.get_view(binding_id)  # what a lagging join would still hand over
        replacement = store.get_object(binding_id)
        replacement.access_uri = "http://h9:8080/moved"
        store.save_object(replacement)
        registry.daos.services.resolve_bindings = lambda service, copy: [held]
        for filed in (None, store.get_view(binding_id)):
            # with no text on file, then with the text of the version that replaced it
            written, answer = self.read(edge, GetServiceBindingsRequest(services[0].id))
            assert answer.objects == [serialize(held)]
            assert "http://h1:8080/a" in written and "http://h9:8080/moved" not in written
            assert (view.get(binding_id) or [None])[0] is filed
            current, _ = self.read(edge, GetRegistryObjectRequest(binding_id))
            assert "http://h9:8080/moved" in current

    def test_entries_stay_within_live_objects_over_ten_times_as_many_writes(self, world):
        """Stated bound: one text per live object that has been served."""
        registry, edge, services = world
        store, view = registry.store, registry.qm._texts
        served = [oid for svc in services for oid in (svc.id, *svc.binding_ids)]
        for n in range(10 * store.count()):
            target = store.get_object(served[n % len(served)])
            target.description.set(f"rewrite {n}")
            store.save_object(target)
            passing = Organization(ids.new_id(), name=f"O{n}")
            store.insert_object(passing)
            for oid in (*served, passing.id):
                self.read(edge, GetRegistryObjectRequest(oid))
            store.delete_object(passing.id)
            assert passing.id in view._entries  # until the view next hears of it
            view.catch_up()
            assert view.get(passing.id) is None
            assert len(view) <= store.count() == len(served)

    def test_five_readers_beside_a_writer_write_only_versions_the_store_held(self, world):
        registry, edge, services = world
        store = registry.store
        service_id, binding_id = services[0].id, services[0].binding_ids[0]
        held = {store.get_view(binding_id).access_uri}
        stop = threading.Event()
        wrong: list = []
        reads = [0]

        def writer():
            n = 0
            while not stop.is_set():
                binding = store.get_object(binding_id)
                binding.access_uri = f"http://h1:8080/{(n := n + 1)}"
                held.add(binding.access_uri)
                store.save_object(binding)

        def reader():
            requests = (GetRegistryObjectRequest(binding_id), GetServiceBindingsRequest(service_id))
            while not stop.is_set():
                for request in requests:
                    written, answer = self.read(edge, request)
                    # the joined texts are those of the versions this answer carries
                    carried = RegistryResponse(objects=list(answer.objects))
                    uri = answer.objects[0]["accessUri"]
                    if written != document(carried) or uri not in held:
                        wrong.append((uri, written))
                        return
                reads[0] += 1

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(5)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and reads[0] > 0 and len(held) > 1
        _, answer = self.read(edge, GetRegistryObjectRequest(binding_id))
        assert answer.objects == [serialize(store.get_object(binding_id))]
        assert len(registry.qm._texts) <= store.count()


class TestQueryResultView:
    def test_type_scoped_invalidation(self, store):
        publish(store)
        view = QueryResultView(store)
        as_of = view.catch_up()
        view.put("q-svc", {"Service"}, ({"name": "Adder"},), as_of=as_of)
        view.put("q-org", {"Organization"}, (), as_of=as_of)
        store.insert_object(Service(ids.new_id(), name="Other", description=""))
        view.catch_up()
        assert view.get("q-svc") is None
        assert view.get("q-org") == ()

    def test_union_entries_invalidate_on_any_type(self, store):
        view = QueryResultView(store)
        view.put("q-all", {"*"}, (), as_of=view.catch_up())
        store.insert_object(Organization(ids.new_id(), name="x"))
        view.catch_up()
        assert view.get("q-all") is None

    def test_lru_eviction_at_capacity(self, store):
        view = QueryResultView(store, capacity=2)
        as_of = view.catch_up()
        view.put("a", {"Service"}, (), as_of=as_of)
        view.put("b", {"Service"}, (), as_of=as_of)
        assert view.get("a") is not None  # refresh a
        view.put("c", {"Service"}, (), as_of=as_of)
        assert view.get("b") is None
        assert view.get("a") is not None and view.get("c") is not None

    def test_stale_fill_is_stranded(self, store):
        view = QueryResultView(store)
        as_of = view.catch_up()
        store.insert_object(Service(ids.new_id(), name="s", description=""))
        view.catch_up()
        view.put("q", {"Service"}, (), as_of=as_of)
        assert view.get("q") is None


class TestEngineParity:
    QUERIES = [
        "SELECT * FROM Service ORDER BY name",
        "SELECT * FROM Service WHERE name LIKE 'Svc%'",
        "SELECT * FROM RegistryObject ORDER BY id",
        "SELECT accessuri FROM ServiceBinding ORDER BY accessuri",
    ]

    def test_view_backed_results_match_scan_path(self, store):
        for n in range(4):
            publish(store, name=f"Svc{n:02d}")
        planned = QueryEngine(store, planner=True)
        scan = QueryEngine(store, planner=False)
        for query in self.QUERIES:
            first = planned.execute(query)
            assert first == scan.execute(query), query
            # repeat comes from the result view; must stay identical
            assert planned.execute(query) == first, query
        assert planned.stats["result_hits"] >= len(self.QUERIES)

    def test_parity_holds_across_interleaved_writes(self, store):
        publish(store, name="Svc00")
        planned = QueryEngine(store, planner=True)
        scan = QueryEngine(store, planner=False)
        query = "SELECT * FROM Service ORDER BY name"
        for n in range(1, 5):
            assert planned.execute(query) == scan.execute(query)
            publish(store, name=f"Svc{n:02d}")
        assert planned.execute(query) == scan.execute(query)
        assert len(planned.execute(query)) == 5

    def test_relational_subquery_tracks_table_writes(self, store):
        """Regression: the subquery memo was stamped with the heap version,
        which NodeState writes never bump — a NodeState subquery went stale."""
        store.insert_object(Service(ids.new_id(), name="h1", description="d"))
        node_state = store.node_state
        planned = QueryEngine(store, planner=True)
        scan = QueryEngine(store, planner=False)
        query = (
            "SELECT name FROM Service WHERE name IN "
            "(SELECT HOST FROM NodeState WHERE LOAD < 1)"
        )

        def sample(load):
            node_state.record_sample(
                NodeSample(host="h1", load=load, memory=1, swap_memory=1, updated=0.0)
            )

        sample(0.5)
        assert planned.execute(query) == scan.execute(query) == [{"name": "h1"}]
        sample(5.0)  # no heap write in between
        assert planned.execute(query) == scan.execute(query) == []
        sample(0.2)
        assert planned.execute(query) == scan.execute(query) == [{"name": "h1"}]

    def test_subquery_memo_is_scoped_to_the_types_it_reads(self, store):
        publish(store, hosts=("h1",))
        planned = QueryEngine(store, planner=True)
        scan = QueryEngine(store, planner=False)
        query = (
            "SELECT name FROM Service WHERE id IN "
            "(SELECT service FROM ServiceBinding WHERE host = 'h1')"
        )
        assert planned.execute(query) == scan.execute(query) == [{"name": "Adder"}]
        # an Organization write drops neither the subquery nor (on the
        # second run) forces a re-materialization
        store.insert_object(Organization(ids.new_id(), name="SDSU"))
        materializations = planned.stats["subquery_materializations"]
        assert planned.execute(query) == scan.execute(query)
        assert planned.stats["subquery_materializations"] == materializations
        # a ServiceBinding write is patched into it, not re-materialized
        publish(store, name="Other", hosts=("h1",))
        assert planned.execute(query) == scan.execute(query)
        assert {row["name"] for row in planned.execute(query)} == {"Adder", "Other"}
        assert planned.stats["subquery_materializations"] == materializations

    def test_a_type_change_under_one_id_reaches_the_old_types_entries(self, store):
        """A delete and re-insert as another type, coalesced into one save
        record of the new type, still patches a subquery over the old one."""
        org = Organization(ids.new_id(), name="SDSU")
        store.insert_object(org)
        planned = QueryEngine(store, planner=True)
        scan = QueryEngine(store, planner=False)
        query = "SELECT id FROM RegistryObject WHERE id IN (SELECT id FROM Organization)"
        assert planned.execute(query) == scan.execute(query) == [{"id": org.id}]
        with store.transaction():
            store.delete_object(org.id)
            store.insert_object(Service(org.id, name="SDSU", description="d"))
        assert planned.execute(query) == scan.execute(query) == []

    def test_cached_rows_are_isolated_copies(self, store):
        publish(store)
        planned = QueryEngine(store, planner=True)
        query = "SELECT * FROM Service"
        first = planned.execute(query)
        first[0]["name"] = "mutated-by-caller"
        assert planned.execute(query)[0]["name"] == "Adder"

    def test_parity_under_concurrent_writes(self, store):
        for n in range(4):
            publish(store, name=f"Svc{n:02d}")
        planned = QueryEngine(store, planner=True)
        scan = QueryEngine(store, planner=False)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            n = 100
            while not stop.is_set():
                publish(store, name=f"Svc{n}")
                n += 1

        def reader():
            try:
                while not stop.is_set():
                    rows = planned.execute("SELECT * FROM Service ORDER BY name")
                    names = [r["name"] for r in rows]
                    # every snapshot must be internally consistent: sorted,
                    # no duplicates (a torn read would violate both)
                    assert names == sorted(names)
                    assert len(names) == len(set(names))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        # after the dust settles, the view answer equals the scan answer
        assert planned.execute(
            "SELECT * FROM Service ORDER BY name"
        ) == scan.execute("SELECT * FROM Service ORDER BY name")

    def test_a_patched_subquery_beside_two_writers(self, store):
        """Two writers move bindings between hosts while two readers run a
        semi-join whose subquery is patched, not refilled.  A service pinned
        to h1 never leaves the answer, and once the writers stop the answer
        is the scan's: a lost or doubled patch would leave it wrong."""
        pinned = set()
        for n in range(4):
            pinned.add(publish(store, name=f"Pin{n}", hosts=("h1", "h2")).name.value)
            publish(store, name=f"Mover{n}", hosts=("h2",))
        movers = [b.id for b in store.iter_views_of_type("ServiceBinding") if b.host == "h2"]
        planned = QueryEngine(store, planner=True)
        scan = QueryEngine(store, planner=False)
        query = (
            "SELECT name FROM Service WHERE id IN "
            "(SELECT service FROM ServiceBinding WHERE host = 'h1')"
        )
        stop = threading.Event()
        missing: list = []
        reads = [0]

        def writer(seed):
            n = seed
            while not stop.is_set():
                binding = store.get_object(movers[n % len(movers)])
                binding.access_uri = f"http://h{1 + n % 3}:8080/{n}"
                store.save_object(binding)
                n += 7

        def reader():
            while not stop.is_set():
                names = {row["name"] for row in planned.execute(query)}
                if not pinned <= names:
                    missing.append(pinned - names)
                    return
                reads[0] += 1

        threads = [threading.Thread(target=writer, args=(seed,)) for seed in (0, 1)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert missing == [] and reads[0] > 0
        assert planned.execute(query) == scan.execute(query)


    def test_patched_results_beside_two_writers(self, store):
        """Two writers rename services in and out of a name prefix while two
        readers run statements whose kept rows are patched, not refilled.
        A pinned service never leaves the answer, every answer is in order
        with no id twice, and once the writers stop each answer is the
        scan's: a lost, doubled or unsorted patch would leave it wrong."""
        pinned = {publish(store, name=f"Pin{n}").id for n in range(4)}
        movers = [publish(store, name=f"Away{n}").id for n in range(4)]
        planned = QueryEngine(store, planner=True)
        scan = QueryEngine(store, planner=False)
        queries = (
            "SELECT id, name FROM Service WHERE name LIKE 'Pin%' ORDER BY name",
            "SELECT id FROM Service WHERE name BETWEEN 'Pin' AND 'Pin9' LIMIT 6",
        )
        stop = threading.Event()
        wrong: list = []
        reads = [0]

        def writer(seed):
            n = seed
            while not stop.is_set():
                service = store.get_object(movers[n % len(movers)])
                service.name.set(f"Pin{n % 3}" if n % 2 else f"Away{n}")
                store.save_object(service)
                n += 7

        def reader():
            while not stop.is_set():
                first = planned.execute(queries[0])
                ids_ = [row["id"] for row in first]
                names = [row["name"] for row in first]
                if not pinned <= set(ids_) or names != sorted(names) or len(
                    set(ids_)
                ) != len(ids_):
                    wrong.append(first)
                    return
                if not 4 <= len(planned.execute(queries[1])) <= 6:
                    wrong.append(queries[1])
                    return
                reads[0] += 1

        threads = [threading.Thread(target=writer, args=(seed,)) for seed in (0, 1)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and reads[0] > 0
        for query in queries:
            assert planned.execute(query) == scan.execute(query)
        # patched, not refilled: a miss is a fill a racing write stranded
        assert planned.stats["result_misses"] * 100 < planned.stats["result_hits"]


# -- generated schedules: every cache-backed read == its uncached recompute ----

HOST_NAMES = ["h0", "h1", "h2"]
#: service names: the monitor's service, and host names so the relational
#: subquery below (Service.name IN NodeState.HOST) has something to match
SERVICE_NAMES = ["NodeStatus", "h0", "h1"]
DESCRIPTIONS = [
    "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>",
    "<constraint><cpuLoad>load gr 1.0</cpuLoad></constraint>",
    "no constraints here",
    "<constraint><cpuLoad>load ls",
    # the machine's clock starts at 11:00, on this window's first minute
    "<constraint><cpuLoad>load ls 1.0</cpuLoad>"
    "<starttime>1100</starttime><endtime>1130</endtime></constraint>",
    # every bisection of the load order: ls, gr above; leq, geq, eq; none
    "<constraint><cpuLoad>load leq 1.0</cpuLoad><memory>memory gr 512MB</memory></constraint>",
    "<constraint><cpuLoad>load geq 5.0</cpuLoad></constraint>",
    "<constraint><cpuLoad>load eq 0.5</cpuLoad></constraint>",
    "<constraint><memory>memory gr 512MB</memory></constraint>",
]
#: sample loads: a sweep of three hosts draws a tie often
LOADS = [0.5, 1.0, 5.0]
#: the first ids the machine hands out, whatever it builds with them
FIRST_IDS = IdFactory(99).new_ids(3)
PARITY_QUERIES = [
    "SELECT id, name FROM Service ORDER BY name, id",
    "SELECT COUNT(*) FROM ServiceBinding",
    "SELECT name FROM Service WHERE id IN "
    "(SELECT service FROM ServiceBinding WHERE host = 'h1')",
    "SELECT name FROM Service WHERE name IN "
    "(SELECT HOST FROM NodeState WHERE LOAD < 1)",
    "SELECT id FROM Service WHERE name IN (SELECT HOST FROM NodeState WHERE LOAD < 1) "
    "AND id IN (SELECT service FROM ServiceBinding WHERE host = 'h0')",
    "SELECT name FROM Service WHERE id IN (SELECT DISTINCT service "
    "FROM ServiceBinding WHERE host = 'h2' ORDER BY service DESC)",
    "SELECT name FROM Service WHERE id IN "
    "(SELECT service FROM ServiceBinding WHERE host = 'h1' LIMIT 1)",
    "SELECT id FROM ServiceBinding WHERE service IN "
    "(SELECT id FROM RegistryObject WHERE description LIKE '%gr%')",
    "SELECT id FROM ServiceBinding WHERE service IN (SELECT service FROM "
    "ServiceBinding WHERE service IN (SELECT id FROM Service WHERE name = 'h0'))",
    "SELECT name FROM Service WHERE id NOT IN "
    "(SELECT service FROM ServiceBinding WHERE host = 'h0')",
    # top-level statements kept per object and patched: ties of twin names
    # must keep their id order, a rename must leave a prefix and a range
    "SELECT id, name FROM Service ORDER BY name",
    "SELECT id, name FROM Service WHERE name LIKE 'h%' ORDER BY name DESC LIMIT 2",
    "SELECT COUNT(*) FROM Service WHERE name LIKE 'h%'",
    "SELECT COUNT(*) FROM ServiceBinding WHERE accessuri LIKE '%h1%'",
    "SELECT DISTINCT name FROM Service WHERE description LIKE '%gr%' ORDER BY name",
    "SELECT * FROM Service WHERE name BETWEEN 'NodeStatus' AND 'h0'",
    f"SELECT id, description FROM Service WHERE id = '{FIRST_IDS[0]}'",
    f"SELECT id FROM RegistryObject WHERE id IN ('{FIRST_IDS[1]}', '{FIRST_IDS[2]}')",
    "SELECT id FROM Service WHERE name LIKE '%1'",
    # the union view kept per object: no ORDER BY, so the answer is in id
    # order across types, and a type change under one id stays one row
    "SELECT id, objecttype FROM RegistryObject LIMIT 3",
    "SELECT DISTINCT name FROM RegistryObject WHERE name IN ('h0', 'h1', 'g9')",
    "SELECT COUNT(*) FROM RegistryObject WHERE description LIKE '%ls%'",
    # a union subquery with ORDER BY breaks name ties type by type: not kept
    "SELECT id FROM ServiceBinding WHERE service IN "
    "(SELECT id FROM RegistryObject WHERE name LIKE 'h%' ORDER BY name LIMIT 2)",
    "SELECT name FROM Service WHERE id IN (SELECT service FROM ServiceBinding "
    "WHERE host = 'h0' ORDER BY accessuri DESC LIMIT 2)",
    # organization inserts grow this subquery past ROW_CAP: the drop rule
    "SELECT id FROM Service WHERE name IN (SELECT name FROM Organization)",
]


class FreshnessMachine(RuleBasedStateMachine):
    """Interleaves every kind of write with reads through every cache."""

    def __init__(self) -> None:
        super().__init__()
        self.registry = RegistryServer(
            RegistryConfig(seed=77), clock=ManualClock(start=11 * 3600.0)
        )
        self.store = self.registry.store
        self.lb = attach_load_balancer(
            self.registry, SimTransport(), SimEngine(), start_monitor=False
        )
        self.scan = QueryEngine(self.store, planner=False)
        self.edge = SoapRegistryBinding(self.registry)
        self.ids = IdFactory(99)
        self.service_ids: list[str] = []
        self.binding_ids: list[str] = []
        self.organization_ids: list[str] = []

    # -- writes ---------------------------------------------------------------

    def _new_service(self, name, description) -> Service:
        service = Service(self.ids.new_id(), name=name, description=description)
        self.service_ids.append(service.id)
        return service

    def _new_binding(self, service: Service, host) -> ServiceBinding:
        binding = ServiceBinding(
            self.ids.new_id(),
            service=service.id,
            access_uri=f"http://{host}:8080/{len(self.binding_ids)}",
        )
        service.binding_ids.append(binding.id)
        self.binding_ids.append(binding.id)
        return binding

    @rule(name=st.sampled_from(SERVICE_NAMES), description=st.sampled_from(DESCRIPTIONS))
    def insert_service(self, name, description):
        self.store.insert_object(self._new_service(name, description))

    @rule(name=st.sampled_from(SERVICE_NAMES))
    def insert_twin_services(self, name):
        """Two services of one name: a patch must re-sort the tie by id."""
        for _ in range(2):
            self.store.insert_object(self._new_service(name, DESCRIPTIONS[1]))

    @precondition(lambda self: self.service_ids)
    @rule(data=st.data(), name=st.sampled_from(SERVICE_NAMES + ["g9"]))
    def rename_service(self, data, name):
        """A new name moves the service into or out of name probes."""
        service = self.store.get_object(data.draw(st.sampled_from(self.service_ids)))
        service.name.set(name)
        self.store.save_object(service)

    def _insert_organization(self, name):
        organization = Organization(self.ids.new_id(), name=name)
        self.organization_ids.append(organization.id)
        self.store.insert_object(organization)

    @rule(name=st.text(min_size=1, max_size=6) | st.sampled_from(SERVICE_NAMES))
    def insert_organization(self, name):
        self._insert_organization(name)

    @precondition(lambda self: len(self.organization_ids) < ROW_CAP)
    @rule()
    def organization_burst(self):
        """Organizations up to ``ROW_CAP``, in one transaction: the next
        insert grows a kept Organization subquery past the cap."""
        with self.store.transaction():
            while len(self.organization_ids) < ROW_CAP:
                self._insert_organization(SERVICE_NAMES[len(self.organization_ids) % 3])

    @precondition(lambda self: self.organization_ids)
    @rule(data=st.data(), name=st.sampled_from(SERVICE_NAMES), in_transaction=st.booleans())
    def retype_under_the_same_id(self, data, name, in_transaction):
        """An organization deleted and a service inserted under its id — one
        coalesced record in a transaction: a union entry sees the object
        change type."""
        object_id = data.draw(st.sampled_from(self.organization_ids))
        self.organization_ids.remove(object_id)
        with self.store.transaction() if in_transaction else nullcontext():
            self.store.delete_object(object_id)
            self.store.insert_object(Service(object_id, name=name, description=DESCRIPTIONS[1]))
        self.service_ids.append(object_id)

    @precondition(lambda self: self.service_ids)
    @rule(data=st.data(), description=st.sampled_from(DESCRIPTIONS))
    def rewrite_description(self, data, description):
        service = self.store.get_object(data.draw(st.sampled_from(self.service_ids)))
        service.description.set(description)
        self.store.save_object(service)

    @precondition(lambda self: self.service_ids)
    @rule(data=st.data(), host=st.sampled_from(HOST_NAMES), twins=st.booleans())
    def add_binding(self, data, host, twins):
        """One binding, or two of one service on one host."""
        service = self.store.get_object(data.draw(st.sampled_from(self.service_ids)))
        with self.store.transaction():
            for _ in range(1 + twins):
                self.store.insert_object(self._new_binding(service, host))
            self.store.save_object(service)

    def _rehost(self, binding_id, host):
        binding = self.store.get_object(binding_id)
        binding.access_uri = f"http://{host}:8080/{binding_id}"
        self.store.save_object(binding)

    @precondition(lambda self: self.binding_ids)
    @rule(data=st.data(), host=st.sampled_from(HOST_NAMES))
    def rehost_binding(self, data, host):
        """A new access URI moves the binding between ``host = …`` sets."""
        self._rehost(data.draw(st.sampled_from(self.binding_ids)), host)

    @precondition(lambda self: self.binding_ids)
    @rule(data=st.data(), host=st.sampled_from(HOST_NAMES), delete=st.booleans())
    def committed_transaction_read_midway(self, data, host, delete):
        """Reads inside a transaction fill caches from its writes on the live
        heap; the writes' records arrive at commit, past those fills'
        watermark, and must not count twice.  The subquery and result views
        are emptied first, or every read would be a hit kept current since
        the last step's reads."""
        binding_id = data.draw(st.sampled_from(self.binding_ids))
        with self.store.transaction():
            self._rehost(binding_id, host)
            if delete:
                binding = self.store.get_object(
                    data.draw(st.sampled_from(self.binding_ids))
                )
                service = self.store.get_object(binding.service)
                service.binding_ids.remove(binding.id)
                self.store.save_object(service)
                self.store.delete_object(binding.id)
                self.binding_ids.remove(binding.id)
            self.registry.engine._subqueries.invalidate_all()
            self.registry.engine._results.invalidate_all()
            self._cached_reads(self.service_ids)

    @precondition(lambda self: self.binding_ids and len(self.service_ids) > 1)
    @rule(data=st.data())
    def repoint_binding(self, data):
        binding = self.store.get_object(data.draw(st.sampled_from(self.binding_ids)))
        old = self.store.get_object(binding.service)
        new = self.store.get_object(data.draw(st.sampled_from(self.service_ids)))
        if new.id == old.id:
            return
        old.binding_ids.remove(binding.id)
        new.binding_ids.append(binding.id)
        binding.service = new.id
        with self.store.transaction():
            for obj in (binding, old, new):
                self.store.save_object(obj)

    @precondition(lambda self: self.service_ids)
    @rule(data=st.data())
    def delete_service(self, data):
        service = self.store.get_object(data.draw(st.sampled_from(self.service_ids)))
        with self.store.transaction():
            for binding_id in service.binding_ids:
                self.store.delete_object(binding_id)
                self.binding_ids.remove(binding_id)
            self.store.delete_object(service.id)
        self.service_ids.remove(service.id)

    @precondition(lambda self: self.service_ids + self.binding_ids)
    @rule(data=st.data(), description=st.sampled_from(DESCRIPTIONS), in_transaction=st.booleans())
    def delete_and_reinsert_under_the_same_id(self, data, description, in_transaction):
        """Two records — one, coalesced, in a transaction — and a new stored instance."""
        obj = self.store.get_object(
            data.draw(st.sampled_from(self.service_ids + self.binding_ids))
        )
        obj.description.set(description)
        with self.store.transaction() if in_transaction else nullcontext():
            self.store.delete_object(obj.id)
            self.store.insert_object(obj)

    @rule(
        name=st.sampled_from(SERVICE_NAMES),
        description=st.sampled_from(DESCRIPTIONS),
        hosts=st.lists(st.sampled_from(HOST_NAMES), max_size=3),
    )
    def transaction_burst(self, name, description, hosts):
        """insert + save of one object in a transaction coalesce to one record."""
        service = self._new_service(name, DESCRIPTIONS[2])
        with self.store.transaction():
            self.store.insert_object(service)
            for host in hosts:
                self.store.insert_object(self._new_binding(service, host))
            service.description.set(description)
            self.store.save_object(service)

    @rule(
        data=st.data(),
        name=st.sampled_from(SERVICE_NAMES),
        description=st.sampled_from(DESCRIPTIONS),
        host=st.sampled_from(HOST_NAMES),
        load=st.sampled_from([0.5, 5.0]),
    )
    def rolled_back_transaction(self, data, name, description, host, load):
        """Reads inside the transaction fill caches from generations that the
        rollback then takes back — the reset barrier must drop those fills."""
        doomed = Service(self.ids.new_id(), name=name, description=description)
        victim_id = (
            data.draw(st.sampled_from(self.service_ids)) if self.service_ids else None
        )
        with pytest.raises(RuntimeError):
            with self.store.transaction():
                binding = ServiceBinding(
                    self.ids.new_id(),
                    service=doomed.id,
                    access_uri=f"http://{host}:8080/doomed",
                )
                doomed.binding_ids.append(binding.id)
                self.store.insert_object(binding)
                self.store.insert_object(doomed)
                if victim_id is not None:
                    victim = self.store.get_object(victim_id)
                    victim.description.set(description)
                    self.store.save_object(victim)
                self._sample(host, load)
                self._cached_reads(self.service_ids + [doomed.id])
                raise RuntimeError("abort")

    @rule(host=st.sampled_from(HOST_NAMES), load=st.sampled_from([0.5, 5.0]))
    def record_sample(self, host, load):
        self._sample(host, load)

    def _sample(self, host, load):
        self.registry.node_state.record_sample(self._reading(host, load))

    def _reading(self, host, load, memory=1 << 30):
        return NodeSample(
            host=host,
            load=load,
            memory=memory,
            swap_memory=1 << 30,
            updated=self.registry.clock.now(),
        )

    @rule(
        reached=st.lists(st.sampled_from(HOST_NAMES), unique=True),
        loads=st.lists(st.sampled_from(LOADS), min_size=3, max_size=3),
        memories=st.lists(st.sampled_from([1 << 20, 1 << 30]), min_size=3, max_size=3),
    )
    def record_sweep(self, reached, loads, memories):
        """A whole map: the hosts it left out are gone, and loads often tie."""
        self.registry.node_state.record_sweep(
            map(self._reading, reached, loads, memories)
        )

    @rule(minutes=st.sampled_from([20, 24 * 60 - 20]))
    def move_clock(self, minutes):
        """20 minutes on or back: in and out across the 11:00–11:30 window's edges."""
        self.registry.clock.advance(minutes * 60.0)

    @rule()
    def swap_resolver_mode(self):
        """A resolver of the other mode, over the joins the first one kept on."""
        services = self.registry.daos.services
        modes = {BalanceMode.PREFER: BalanceMode.FILTER, BalanceMode.FILTER: BalanceMode.PREFER}
        services.set_resolver(
            ConstraintBindingResolver(
                self.lb.service_constraint, self.lb.load_status, mode=modes[services.resolver.mode]
            )
        )

    # -- reads ----------------------------------------------------------------

    def _answer(self, request) -> str:
        """What the kernel's answer to *request* puts on the wire."""
        return document(self.edge.handle(SoapEnvelope(body=request)))

    def _cached_reads(self, service_ids):
        """Every cache-backed read of the system, through its public surface."""
        return {
            "binding_documents": {
                sid: self._answer(GetServiceBindingsRequest(sid)) for sid in service_ids
            },
            "object_documents": {
                oid: self._answer(GetRegistryObjectRequest(oid))
                for oid in service_ids + self.binding_ids
            },
            "uris": {sid: self.registry.qm.get_access_uris(sid) for sid in service_ids},
            "targets": self.lb.monitor.target_uris(),
            "queries": [self.registry.engine.execute(q) for q in PARITY_QUERIES],
            "constraints": {
                sid: self.lb.service_constraint.check(self.store.get_view(sid))
                for sid in service_ids
            },
        }

    def _recomputed_reads(self, service_ids):
        """The same answers from the live heap and NodeState, nothing cached."""
        store = self.store
        resolver = self._fresh_resolver()

        def bindings_of(service):
            found = (store.get_view(bid) for bid in service.binding_ids)
            return [b for b in found if b is not None]

        targets: list[str] = []
        for service in store.iter_views_of_type("Service"):  # id order
            if service.name.value == "NodeStatus":
                for binding in bindings_of(service):
                    if binding.access_uri not in targets:
                        targets.append(binding.access_uri)
        def fresh_document(object_ids):
            """The answer carrying those objects, every one serialized afresh."""
            objects = [serialize(store.get_object(oid)) for oid in object_ids]
            return document(RegistryResponse(objects=objects))

        uris, constraints, binding_documents = {}, {}, {}
        for sid in service_ids:
            service = store.get_view(sid)
            resolved = resolver.resolve(service, bindings_of(service))
            uris[sid] = [b.access_uri for b in resolved]
            binding_documents[sid] = fresh_document(b.id for b in resolved)
            constraints[sid] = parse_constraints(service.description.value)
        return {
            "binding_documents": binding_documents,
            "object_documents": {
                oid: fresh_document([oid]) for oid in service_ids + self.binding_ids
            },
            "uris": uris,
            "targets": targets,
            "queries": [self.scan.execute(q) for q in PARITY_QUERIES],
            "constraints": constraints,
        }

    def _fresh_resolver(self):
        """A resolver of the installed one's mode, with empty memos, on the registry's clock."""
        return ConstraintBindingResolver(
            ServiceConstraint(self.registry.clock),
            LoadStatus(self.store.node_state),
            mode=self.registry.daos.services.resolver.mode,
        )

    @invariant()
    def cached_reads_equal_uncached_recompute(self):
        cached = self._cached_reads(self.service_ids)
        fresh = self._recomputed_reads(self.service_ids)
        assert cached["uris"] == fresh["uris"]
        assert cached["targets"] == fresh["targets"]
        for query, planned, scanned in zip(
            PARITY_QUERIES, cached["queries"], fresh["queries"]
        ):
            assert planned == scanned, query
        for sid, check in cached["constraints"].items():
            assert check.constraints == fresh["constraints"][sid]
            assert check.present == (fresh["constraints"][sid] is not None)
        assert cached["binding_documents"] == fresh["binding_documents"]
        assert cached["object_documents"] == fresh["object_documents"]
        # ... and what is kept to write them is the store's, nothing else
        texts = self.registry.qm._texts
        texts.catch_up()
        for object_id, (version, text) in texts._entries.items():
            assert self.store.get_view(object_id) is version
            assert text == object_json(serialize(version))
        join = self.registry.daos.services._bindings_view
        join.catch_up()
        for service_id, (binding_ids, bound) in join._entries.items():
            service = self.store.get_view(service_id)
            assert service is not None
            assert binding_ids == vars(service).get("binding_ids", [])
            assert all(self.store.get_view(binding.id) is binding for binding in bound)
            # every kept answer whose tags hold now is a fresh resolve's, and
            # so is the text it keeps (the reads above kept one per service)
            if bound.kept is None:
                continue
            version, constraints, mode, answer = bound.kept
            resolver = self._fresh_resolver()
            if (version, constraints, mode) != (
                self.store.node_state.generation()[0],
                parse_constraints(service.description.value),
                resolver.mode,
            ):
                continue
            fresh = resolver.resolve(service, list(bound))
            if not resolver.balanced_resolutions:
                continue  # out of its time window: kept until the window opens
            assert list(answer) == list(fresh)
            assert answer.texts is not None
            assert document(RegistryResponse(objects=StoredObjects(answer, answer.texts))) == (
                document(RegistryResponse(objects=[serialize(b) for b in fresh]))
            )


FreshnessMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None, derandomize=True
)
TestFreshnessSchedules = FreshnessMachine.TestCase
