"""Discovery fast-path tests: constraint cache, heap indexes, snapshot ranking.

Covers the invalidation/consistency corners the fast path introduces:

* the constraint cache serves steady-state discovery without re-parsing and
  picks up a republished description on the very next query;
* the heap's secondary indexes (sorted ids, name index) stay consistent
  across ``DataStore.transaction`` rollback;
* the single-snapshot ranking path orders by load, ties in publisher order;
* read-only views alias stored state while the copying accessors still
  isolate callers;
* the TimeHits target-list cache invalidates on NodeStatus publishes;
* the seed's discovery (per-query copies, parses and an O(n²) rank), replayed
  against the shipped path over every service, answers the same URIs.
"""

from contextlib import contextmanager

import pytest

from repro.core import (
    ConstraintBindingResolver,
    LoadStatus,
    ServiceConstraint,
    TimeHits,
    attach_load_balancer,
)
from repro.core.constraints import Operator, parse_constraints
from repro.persistence import DataStore
from repro.persistence.dao import DefaultBindingResolver
from repro.persistence.nodestate import NodeSample, NodeStateStore
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Organization, Service, ServiceBinding
from repro.rim.service import host_of_uri
from repro.sim.nodestatus import nodestatus_uri
from repro.util.clock import ManualClock
from repro.util.ids import IdFactory

from conftest import HOSTS, publish_nodestatus, publish_service_with_bindings

ids = IdFactory(7)

CONSTRAINT_LS = "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>"
CONSTRAINT_GR = "<constraint><cpuLoad>load gr 1.0</cpuLoad></constraint>"


def record(registry, host, load):
    registry.node_state.record_sample(
        NodeSample(
            host=host, load=load, memory=1 << 32, swap_memory=1 << 32,
            updated=registry.clock.now(),
        )
    )


@pytest.fixture
def balanced(sim_registry, transport, engine):
    lb = attach_load_balancer(sim_registry, transport, engine, start_monitor=False)
    return sim_registry, lb


class TestConstraintCache:
    def test_steady_state_parses_once(self, balanced):
        registry, lb = balanced
        _, cred = registry.register_user("owner")
        session = registry.login(cred)
        _, service = publish_service_with_bindings(
            registry, session, description=CONSTRAINT_LS
        )
        for host in HOSTS:
            record(registry, host, 0.5)
        sc = lb.service_constraint
        baseline_misses = sc.cache_stats()["misses"]
        first = registry.qm.get_access_uris(service.id)
        assert sc.cache_stats()["misses"] == baseline_misses + 1
        # fresh samples force the resolver to re-rank each time, but the
        # description is unchanged: the constraint cache hits, zero re-parses
        for _ in range(10):
            record(registry, HOSTS[0], 0.5)
            assert registry.qm.get_access_uris(service.id) == first
        assert sc.cache_stats()["misses"] == baseline_misses + 1
        assert sc.cache_stats()["hits"] >= 10

    def test_republished_constraints_take_effect_next_discovery(self, balanced):
        registry, lb = balanced
        _, cred = registry.register_user("owner")
        session = registry.login(cred)
        # publisher order deliberately puts the loaded host first
        _, service = publish_service_with_bindings(
            registry,
            session,
            description=CONSTRAINT_LS,
            hosts=[HOSTS[0], HOSTS[1]],
        )
        record(registry, HOSTS[0], 2.0)  # fails "load ls 1.0"
        record(registry, HOSTS[1], 0.5)  # satisfies it
        uris = registry.qm.get_access_uris(service.id)
        assert uris[0] == f"http://{HOSTS[1]}:8080/Adder/addService"
        # republish with the opposite constraint: now only the loaded host satisfies
        updated = registry.qm.get_registry_object(service.id)
        updated.description.set(CONSTRAINT_GR)
        registry.lcm.update_objects(session, [updated])
        uris = registry.qm.get_access_uris(service.id)
        assert uris[0] == f"http://{HOSTS[0]}:8080/Adder/addService"
        # and the cache actually re-parsed rather than serving the stale entry
        assert lb.service_constraint.cache_stats()["misses"] >= 2

    def test_cache_disabled_still_correct(self, clock):
        """The memo is keyed on the description text: a rewritten description
        is a new key, never served from the old parse."""
        sc = ServiceConstraint(clock)
        svc = Service(ids.new_id(), name="S", description=CONSTRAINT_LS)
        assert sc.check(svc).constraints == parse_constraints(CONSTRAINT_LS)
        rewritten = Service(svc.id, name="S", description=CONSTRAINT_GR)
        assert sc.check(rewritten).constraints == parse_constraints(CONSTRAINT_GR)
        assert not sc.check(Service(svc.id, name="S", description="plain")).present
        assert sc.cache_stats() == {"hits": 0, "misses": 3, "entries": 3}

    def test_ten_times_the_bound_in_descriptions_does_not_grow_the_memo_past_it(
        self, clock, monkeypatch
    ):
        """Stated bound: ``MAX_PARSES`` texts, however many services are seen."""
        from repro.core import service_constraint

        monkeypatch.setattr(service_constraint, "MAX_PARSES", 8)
        sc = ServiceConstraint(clock)
        for n in range(80):
            description = f"<constraint><cpuLoad>load ls {n}.5</cpuLoad></constraint>"
            svc = Service(ids.new_id(), name=f"S{n}", description=description)
            assert sc.check(svc).constraints == parse_constraints(description)
            assert sc.cache_stats()["entries"] <= 8
        twin = Service(ids.new_id(), name="Twin", description=description)
        assert sc.check(twin).constraints == parse_constraints(description)
        assert sc.cache_stats() == {"hits": 1, "misses": 80, "entries": 8}


def balanced_manual_registry(description=CONSTRAINT_LS):
    """A ManualClock registry with two bound hosts and the constraint resolver."""
    clock = ManualClock(start=11 * 3600.0)  # 11:00
    registry = RegistryServer(RegistryConfig(seed=7), clock=clock)
    service_constraint = ServiceConstraint(clock)
    load_status = LoadStatus(registry.node_state)
    resolver = ConstraintBindingResolver(service_constraint, load_status)
    registry.daos.services.set_resolver(resolver)
    service = Service(ids.new_id(), name="S", description=description)
    uris = ["http://hostA.test:80/s", "http://hostB.test:80/s"]
    for uri in uris:
        binding = ServiceBinding(ids.new_id(), service=service.id, access_uri=uri)
        service.binding_ids.append(binding.id)
        registry.store.insert_object(binding)
    registry.store.insert_object(service)
    record(registry, "hostA.test", 2.0)  # fails "load ls 1.0"
    record(registry, "hostB.test", 0.5)  # satisfies it
    return registry, resolver, service, uris


class TestResolutionCache:
    def test_sample_publish_invalidates(self):
        registry, resolver, service, uris = balanced_manual_registry()
        assert registry.qm.get_access_uris(service.id) == [uris[1], uris[0]]
        record(registry, "hostA.test", 0.1)  # load flips below hostB's 0.5
        record(registry, "hostB.test", 3.0)
        assert registry.qm.get_access_uris(service.id) == [uris[0], uris[1]]

    def test_binding_write_invalidates(self):
        registry, resolver, service, uris = balanced_manual_registry()
        assert registry.qm.get_access_uris(service.id) == [uris[1], uris[0]]
        resolutions = resolver.resolutions
        binding = registry.store.get_object(service.binding_ids[0])
        registry.store.save_object(binding)
        registry.qm.get_access_uris(service.id)
        assert resolver.resolutions == resolutions + 1  # re-resolved

    def test_service_write_invalidates(self):
        registry, resolver, service, _uris = balanced_manual_registry()
        registry.qm.get_access_uris(service.id)
        resolutions = resolver.resolutions
        registry.store.save_object(registry.store.get_object(service.id))
        registry.qm.get_access_uris(service.id)
        assert resolver.resolutions == resolutions + 1  # re-resolved

    def test_clock_minute_invalidates_time_window(self):
        windowed = (
            "<constraint><cpuLoad>load ls 1.0</cpuLoad>"
            "<starttime>1000</starttime><endtime>1200</endtime></constraint>"
        )
        registry, _resolver, service, uris = balanced_manual_registry(windowed)
        # 11:00 — inside the window: balanced order
        assert registry.qm.get_access_uris(service.id) == [uris[1], uris[0]]
        registry.clock.advance(2 * 3600.0)
        # 13:00 — window closed: publisher order, despite the cached entry
        assert registry.qm.get_access_uris(service.id) == [uris[0], uris[1]]


class TestIndexConsistency:
    def test_rollback_restores_name_and_type_indexes(self):
        store = DataStore()
        keep = Organization(ids.new_id(), name="KeepMe")
        store.insert_object(keep)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(Organization(ids.new_id(), name="Phantom"))
                renamed = store.get_object(keep.id)
                renamed.name.set("Renamed")
                store.save_object(renamed)
                store.delete_object(keep.id)
                raise RuntimeError("boom")
        assert [o.id for o in store.find_by_name("Organization", "KeepMe")] == [keep.id]
        assert store.find_by_name("Organization", "Phantom") == []
        assert store.find_by_name("Organization", "Renamed") == []
        assert [o.id for o in store.objects_of_type("Organization")] == [keep.id]
        assert store.count("Organization") == 1

    def test_save_moves_name_index(self):
        store = DataStore()
        org = Organization(ids.new_id(), name="Before")
        store.insert_object(org)
        renamed = store.get_object(org.id)
        renamed.name.set("After")
        store.save_object(renamed)
        assert store.find_by_name("Organization", "Before") == []
        assert [o.id for o in store.find_by_name("Organization", "After")] == [org.id]

    def test_prefix_search_uses_range_scan(self):
        store = DataStore()
        names = ["DemoOrg_1", "DemoOrg_2", "DemoOrg_10", "Other", "Demo"]
        by_name = {}
        for name in names:
            org = Organization(ids.new_id(), name=name)
            store.insert_object(org)
            by_name[name] = org.id
        found = store.find_by_name_prefix("Organization", "DemoOrg_")
        assert {o.name.value for o in found} == {"DemoOrg_1", "DemoOrg_2", "DemoOrg_10"}
        # id-sorted, matching the pre-index contract
        assert [o.id for o in found] == sorted(o.id for o in found)

    def test_delete_clears_indexes(self):
        store = DataStore()
        org = Organization(ids.new_id(), name="Gone")
        store.insert_object(org)
        store.delete_object(org.id)
        assert store.find_by_name("Organization", "Gone") == []
        assert store.find_by_name_prefix("Organization", "G") == []
        assert store.objects_of_type("Organization") == []


class TestViews:
    def test_views_alias_copies_isolate(self):
        store = DataStore()
        org = Organization(ids.new_id(), name="SDSU")
        store.insert_object(org)
        assert store.get_view(org.id) is store.get_view(org.id)
        assert store.get_object(org.id) is not store.get_object(org.id)
        listed = list(store.iter_views_of_type("Organization"))
        assert listed[0] is store.get_view(org.id)
        # copies still protect the heap
        fetched = store.get_object(org.id)
        fetched.name.set("mutated")
        assert store.get_view(org.id).name.value == "SDSU"

    def test_resolve_bindings_returns_safe_copies(self, registry, session):
        _, service = publish_service_with_bindings(registry, session)
        bindings = registry.qm.get_service_bindings(service.id)
        bindings[0].name.set("mutated-by-caller")
        again = registry.qm.get_service_bindings(service.id)
        assert again[0].name.value != "mutated-by-caller"


class TestSnapshotRanking:
    def test_rank_tie_break_keeps_publisher_order(self):
        node_state = NodeStateStore()
        ls = LoadStatus(node_state)
        constraints = parse_constraints(CONSTRAINT_LS)
        for host in ("c", "a", "b"):
            node_state.record_sample(
                NodeSample(host=host, load=0.5, memory=1, swap_memory=1, updated=0.0)
            )
        assert ls.rank(["c", "a", "b"], constraints) == ["c", "a", "b"]

    def test_rank_orders_by_load(self):
        node_state = NodeStateStore()
        ls = LoadStatus(node_state)
        constraints = parse_constraints(CONSTRAINT_LS)
        loads = {"x": 0.9, "y": 0.1, "z": 0.5}
        for host, load in loads.items():
            node_state.record_sample(
                NodeSample(host=host, load=load, memory=1, swap_memory=1, updated=0.0)
            )
        assert ls.rank(["x", "y", "z"], constraints) == ["y", "z", "x"]


@contextmanager
def count_binding_scans(registry):
    """Records each NodeStatus binding scan TimeHits makes (its only heap read)."""
    dao = registry.daos.service_bindings
    scans = []
    original = dao.for_service

    def counting(service, **kwargs):
        scans.append(service.id)
        return original(service, **kwargs)

    dao.for_service = counting
    try:
        yield scans
    finally:
        del dao.for_service


class TestMonitorTargetCache:
    def test_targets_cached_and_invalidated_on_publish(self, sim_registry, transport, engine):
        _, cred = sim_registry.register_user("admin", roles={"RegistryAdministrator"})
        admin = sim_registry.login(cred)
        service = publish_nodestatus(sim_registry, admin, hosts=HOSTS[:2])
        monitor = TimeHits(sim_registry, transport, engine)
        first = monitor.target_uris()
        assert first == [nodestatus_uri(h) for h in HOSTS[:2]]
        with count_binding_scans(sim_registry) as scans:
            assert monitor.target_uris() == first
        assert scans == []  # primed: answered without a registry scan
        # publishing another NodeStatus binding must invalidate the cache
        sim_registry.lcm.submit_objects(
            admin,
            [
                ServiceBinding(
                    sim_registry.ids.new_id(),
                    service=service.id,
                    access_uri=nodestatus_uri(HOSTS[2]),
                )
            ],
        )
        assert monitor.target_uris() == [nodestatus_uri(h) for h in HOSTS]

    def test_cache_survives_unrelated_writes_but_not_rollback(
        self, sim_registry, transport, engine
    ):
        _, cred = sim_registry.register_user("admin", roles={"RegistryAdministrator"})
        admin = sim_registry.login(cred)
        publish_nodestatus(sim_registry, admin)
        monitor = TimeHits(sim_registry, transport, engine)
        first = monitor.target_uris()
        sim_registry.lcm.submit_objects(
            admin, [Organization(sim_registry.ids.new_id(), name="Unrelated")]
        )
        with count_binding_scans(sim_registry) as scans:
            assert monitor.target_uris() == first
        assert scans == []
        with pytest.raises(RuntimeError):
            with sim_registry.store.transaction():
                raise RuntimeError("boom")
        with count_binding_scans(sim_registry) as scans:
            assert monitor.target_uris() == first
        assert len(scans) == 1  # the barrier dropped the list: one re-scan


class TestWindowing:
    def test_windowed_query_slices_once_with_total(self, registry, session):
        for i in range(7):
            registry.lcm.submit_objects(
                session, [Organization(registry.ids.new_id(), name=f"Org{i}")]
            )
        response = registry.qm.execute_adhoc_query(
            "SELECT name FROM Organization ORDER BY name",
            start_index=2,
            max_results=3,
        )
        assert [r["name"] for r in response.rows] == ["Org2", "Org3", "Org4"]
        assert response.total_result_count == 7
        assert response.start_index == 2
        # window past the end is empty but the total is still the full count
        tail = registry.qm.execute_adhoc_query(
            "SELECT name FROM Organization", start_index=100, max_results=5
        )
        assert tail.rows == [] and tail.total_result_count == 7


class TestHoistedDispatch:
    def test_operator_compare_table(self):
        assert Operator.GT.compare(2.0, 1.0)
        assert Operator.LEQ.compare(1.0, 1.0)
        assert not Operator.LS.compare(2.0, 1.0)

    def test_dao_registry_routes_every_type(self, registry):
        svc = Service(ids.new_id(), name="S")
        assert registry.daos.dao_for(svc) is registry.daos.services
        org = Organization(ids.new_id(), name="O")
        assert registry.daos.dao_for(org) is registry.daos.organizations


class LegacyDiscovery:
    """The seed's discovery path: per-query copies, parses and an O(n²) rank."""

    def __init__(self, registry, *, balanced):
        self.registry = registry
        self.balanced = balanced
        self.node_state = registry.node_state

    def _current_sample(self, host):
        return self.node_state.get(host)

    def _rank(self, hosts, constraints):
        satisfying = []
        for h in hosts:
            sample = self._current_sample(h)
            if sample is not None and constraints.satisfied_by(sample):
                satisfying.append(h)

        def load_of(host):
            sample = self._current_sample(host)
            return sample.load if sample is not None else float("inf")

        return sorted(satisfying, key=lambda h: (load_of(h), hosts.index(h)))

    def get_access_uris(self, service_id):
        daos = self.registry.daos
        service = daos.services.get(service_id)
        bindings = []
        for binding_id in service.binding_ids:
            binding = daos.service_bindings.get(binding_id)
            if binding is not None:
                bindings.append(binding)
        if self.balanced:
            constraints = parse_constraints(service.description.value)
            active = (
                constraints is not None
                and constraints.has_performance_constraints()
                and constraints.time_satisfied(self.registry.clock.minutes_of_day())
            )
            if active:
                with_host = [
                    b
                    for b in bindings
                    if b.access_uri and host_of_uri(b.access_uri) is not None
                ]
                hosts = [host_of_uri(b.access_uri) for b in with_host]
                by_host = {}
                for binding in with_host:
                    by_host.setdefault(host_of_uri(binding.access_uri), []).append(
                        binding
                    )
                satisfying = []
                for host in self._rank(hosts, constraints):
                    satisfying.extend(by_host.pop(host, ()))
                rest = [b for b in bindings if b not in satisfying]
                bindings = satisfying + rest
        return [b.access_uri for b in bindings if b.access_uri]


class TestSeedReplay:
    """DESIGN invariant (1): the seed path and the shipped path agree on every
    service, with the constraint resolver on and off."""

    SERVICES = 50
    #: one per host; half satisfy the constraint, two tie
    LOADS = [0.0, 3.5, 1.0, 1.5, 2.0, 2.5, 3.0, 1.0]
    CONSTRAINT = "<constraint><cpuLoad>load ls 2.0</cpuLoad></constraint>"

    @pytest.fixture(scope="class")
    def published(self):
        registry = RegistryServer(
            RegistryConfig(seed=7), clock=ManualClock(start=11 * 3600.0)
        )
        hosts = [f"host{i:03d}.bench" for i in range(len(self.LOADS))]
        for host, load in zip(hosts, self.LOADS):
            record(registry, host, load)
        service_ids = []
        for i in range(self.SERVICES):
            service = Service(
                registry.ids.new_id(), name=f"Svc{i:04d}", description=self.CONSTRAINT
            )
            # publisher order rotates so no two services share a tie-break
            turn = i % len(hosts)
            for host in hosts[turn:] + hosts[:turn]:
                binding = ServiceBinding(
                    registry.ids.new_id(),
                    service=service.id,
                    access_uri=f"http://{host}:8080/svc{i}/endpoint",
                )
                service.binding_ids.append(binding.id)
                registry.store.insert_object(binding)
            registry.store.insert_object(service)
            service_ids.append(service.id)
        return registry, service_ids

    @pytest.mark.parametrize("balanced", [True, False], ids=["resolver_on", "resolver_off"])
    def test_every_service_answers_as_the_seed_did(self, published, balanced):
        registry, service_ids = published
        if balanced:
            service_constraint = ServiceConstraint(registry.clock)
            resolver = ConstraintBindingResolver(
                service_constraint, LoadStatus(registry.node_state)
            )
        else:
            resolver = DefaultBindingResolver()
        registry.daos.services.set_resolver(resolver)
        legacy = LegacyDiscovery(registry, balanced=balanced)
        answers = [registry.qm.get_access_uris(sid) for sid in service_ids]
        assert answers == [legacy.get_access_uris(sid) for sid in service_ids]
        # a second, warm pass answers the same
        assert answers == [registry.qm.get_access_uris(sid) for sid in service_ids]
        if balanced:  # a ranking was replayed: host001 publishes first, host000 leads
            assert answers[1][0].startswith("http://host000.bench")
