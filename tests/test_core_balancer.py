"""Tests for the constraint-aware binding resolver — the thesis' modification."""

import sys

import pytest

from repro.core import BalanceMode, attach_load_balancer
from repro.rim import Organization
from repro.sim import Task

from conftest import HOSTS, publish_nodestatus, publish_service_with_bindings

CONSTRAINT = "<constraint><cpuLoad>load ls 2.0</cpuLoad></constraint>"
TIMED = (
    "<constraint><cpuLoad>load ls 2.0</cpuLoad>"
    "<starttime>1000</starttime><endtime>1200</endtime></constraint>"
)


@pytest.fixture
def admin(sim_registry):
    _, cred = sim_registry.register_user("admin", roles={"RegistryAdministrator"})
    return sim_registry.login(cred)


def deploy(sim_registry, admin, transport, engine, *, description=CONSTRAINT, **lb_kwargs):
    publish_nodestatus(sim_registry, admin)
    _, svc = publish_service_with_bindings(
        sim_registry, admin, service_name="Adder", description=description
    )
    balancer = attach_load_balancer(sim_registry, transport, engine, **lb_kwargs)
    return svc, balancer


def overload(cluster, host, n=4):
    for _ in range(n):
        cluster.submit_task(host, Task(cpu_seconds=10_000, memory=0))


class TestTransparency:
    def test_unconstrained_service_unaffected(
        self, sim_registry, admin, cluster, transport, engine
    ):
        svc, _ = deploy(
            sim_registry, admin, transport, engine, description="plain description"
        )
        overload(cluster, HOSTS[0])
        engine.run_until(engine.now + 50)
        uris = sim_registry.qm.get_access_uris(svc.id)
        assert [u.split("/")[2].split(":")[0] for u in uris] == HOSTS  # publisher order

    def test_constrained_service_balanced(
        self, sim_registry, admin, cluster, transport, engine
    ):
        svc, _ = deploy(sim_registry, admin, transport, engine)
        overload(cluster, HOSTS[0])
        engine.run_until(engine.now + 50)
        uris = sim_registry.qm.get_access_uris(svc.id)
        # overloaded first host demoted to last (prefer mode keeps it)
        assert uris[-1].startswith(f"http://{HOSTS[0]}")
        assert len(uris) == len(HOSTS)


class TestModes:
    def test_filter_mode_drops_unsatisfying(
        self, sim_registry, admin, cluster, transport, engine
    ):
        svc, _ = deploy(
            sim_registry, admin, transport, engine, mode=BalanceMode.FILTER
        )
        overload(cluster, HOSTS[0])
        engine.run_until(engine.now + 50)
        uris = sim_registry.qm.get_access_uris(svc.id)
        assert len(uris) == len(HOSTS) - 1
        assert all(not u.startswith(f"http://{HOSTS[0]}") for u in uris)

    def test_filter_mode_falls_back_when_none_satisfy(
        self, sim_registry, admin, cluster, transport, engine
    ):
        svc, _ = deploy(
            sim_registry, admin, transport, engine, mode=BalanceMode.FILTER
        )
        for host in HOSTS:
            overload(cluster, host)
        engine.run_until(engine.now + 50)
        uris = sim_registry.qm.get_access_uris(svc.id)
        assert len(uris) == len(HOSTS)  # never undiscoverable

    def test_prefer_mode_orders_by_load(
        self, sim_registry, admin, cluster, transport, engine
    ):
        svc, _ = deploy(sim_registry, admin, transport, engine)
        cluster.submit_task(HOSTS[1], Task(cpu_seconds=10_000, memory=0))  # load 1
        engine.run_until(engine.now + 50)
        uris = sim_registry.qm.get_access_uris(svc.id)
        hosts = [u.split("//")[1].split(":")[0] for u in uris]
        # loads: host0=0, host1=1, host2=0 → ties keep publisher order
        assert hosts == [HOSTS[0], HOSTS[2], HOSTS[1]]


class TestTimeWindow:
    def test_outside_window_behaves_vanilla(
        self, sim_registry, admin, cluster, transport, engine
    ):
        svc, _ = deploy(sim_registry, admin, transport, engine, description=TIMED)
        overload(cluster, HOSTS[0])
        # advance past 12:00 (engine starts at 10:00)
        engine.run_until(13 * 3600.0)
        uris = sim_registry.qm.get_access_uris(svc.id)
        hosts = [u.split("//")[1].split(":")[0] for u in uris]
        assert hosts == HOSTS  # thesis: time unsatisfied → no balancing

    def test_inside_window_balances(
        self, sim_registry, admin, cluster, transport, engine
    ):
        svc, _ = deploy(sim_registry, admin, transport, engine, description=TIMED)
        overload(cluster, HOSTS[0])
        engine.run_until(engine.now + 60)  # still before 12:00
        uris = sim_registry.qm.get_access_uris(svc.id)
        assert uris[-1].startswith(f"http://{HOSTS[0]}")


class TestStaleness:
    def test_unmonitored_hosts_trail_in_prefer_mode(
        self, sim_registry, admin, cluster, transport, engine
    ):
        svc, _balancer = deploy(sim_registry, admin, transport, engine)
        for host in HOSTS:
            transport.set_host_down(host)
        engine.run_until(engine.now + 30)  # one sweep reaches nobody
        uris = sim_registry.qm.get_access_uris(svc.id)
        # nothing is monitored → prefer mode returns everything, publisher order
        hosts = [u.split("//")[1].split(":")[0] for u in uris]
        assert hosts == HOSTS

    def test_down_host_ages_out(self, sim_registry, admin, cluster, transport, engine):
        svc, balancer = deploy(sim_registry, admin, transport, engine)
        transport.set_host_down(HOSTS[0])
        engine.run_until(engine.now + 30)  # the next sweep
        uris = sim_registry.qm.get_access_uris(svc.id)
        # the dead host's probe failed → no sample → cannot be certified → trails
        assert uris[-1].startswith(f"http://{HOSTS[0]}")


class TestAccounting:
    def test_resolution_counters(self, sim_registry, admin, cluster, transport, engine):
        svc, balancer = deploy(sim_registry, admin, transport, engine)
        engine.run_until(engine.now + 30)
        sim_registry.qm.get_access_uris(svc.id)
        sim_registry.qm.get_access_uris(svc.id)  # two discoveries, two resolutions
        assert balancer.resolver.resolutions == 2
        assert balancer.resolver.balanced_resolutions == 2
        engine.run_until(engine.now + 30)  # a monitoring sweep lands new samples
        sim_registry.qm.get_access_uris(svc.id)
        assert balancer.resolver.resolutions == 3
        assert balancer.resolver.balanced_resolutions == 3

    def test_detach_restores_vanilla(self, sim_registry, admin, cluster, transport, engine):
        svc, balancer = deploy(sim_registry, admin, transport, engine)
        overload(cluster, HOSTS[0])
        engine.run_until(engine.now + 50)
        balancer.detach(sim_registry)
        uris = sim_registry.qm.get_access_uris(svc.id)
        hosts = [u.split("//")[1].split(":")[0] for u in uris]
        assert hosts == HOSTS
        assert not balancer.monitor.running

    def test_attach_detach_cycles_leave_nothing_on_the_store(
        self, sim_registry, admin, transport, engine
    ):
        """Regression: every attach used to leave a TimeHits write listener on
        the store for good — run under the writer lock on every later write."""
        store = sim_registry.store

        def container_sizes():
            return {
                (type(owner).__name__, name): len(value)
                for owner in (store, store.changelog)
                for name, value in vars(owner).items()
                if isinstance(value, (list, dict, set))
            }

        def one_cycle():
            balancer = attach_load_balancer(
                sim_registry, transport, engine, start_monitor=False
            )
            balancer.monitor.target_uris()
            balancer.detach(sim_registry)

        publish_nodestatus(sim_registry, admin)
        one_cycle()
        before = container_sizes()
        for _ in range(20):
            one_cycle()
        assert container_sizes() == before

        # and a later write runs store code only: nothing of a detached
        # TimeHits / ServiceConstraint is called from inside it
        called: set[str] = set()

        def profiler(frame, event, _arg):
            if event == "call":
                called.add(frame.f_code.co_filename)

        sys.setprofile(profiler)
        try:
            store.insert_object(Organization(sim_registry.ids.new_id(), name="Later"))
        finally:
            sys.setprofile(None)
        assert called
        assert not [name for name in called if "/repro/core/" in name]
