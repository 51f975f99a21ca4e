"""Tests for the TimeHits periodic collector (thesis §3.2, Figure 3.1)."""

import pytest

from repro.core import attach_load_balancer
from repro.core.constraints import parse_constraints
from repro.core.monitor import DEFAULT_PERIOD, TimeHits
from repro.sim import Task
from repro.sim.nodestatus import nodestatus_uri

from conftest import HOSTS, publish_nodestatus, publish_service_with_bindings

CONSTRAINT = "<constraint><cpuLoad>load ls 2.0</cpuLoad></constraint>"


def swept_hosts(registry):
    return sorted(registry.node_state.generation()[1])


@pytest.fixture
def admin(sim_registry):
    _, cred = sim_registry.register_user("admin", roles={"RegistryAdministrator"})
    return sim_registry.login(cred)


@pytest.fixture
def monitor(sim_registry, admin, cluster, transport, engine):
    publish_nodestatus(sim_registry, admin)
    return TimeHits(sim_registry, transport, engine)


class TestTargetDiscovery:
    def test_targets_from_published_bindings(self, monitor):
        assert monitor.target_uris() == [
            f"http://{h}:8080/NodeStatus/NodeStatusService" for h in HOSTS
        ]

    def test_no_published_service_means_no_targets(self, sim_registry, transport, engine):
        th = TimeHits(sim_registry, transport, engine)
        assert th.target_uris() == []
        assert th.collect_once() == 0


class TestCollection:
    def test_collect_once_stores_all_hosts(self, monitor, sim_registry):
        stored = monitor.collect_once()
        assert stored == len(HOSTS)
        assert swept_hosts(sim_registry) == sorted(HOSTS)

    def test_samples_reflect_host_state(self, monitor, sim_registry, cluster, engine):
        cluster.submit_task(HOSTS[0], Task(cpu_seconds=1000, memory=1 << 30))
        cluster.submit_task(HOSTS[0], Task(cpu_seconds=1000, memory=1 << 30))
        monitor.collect_once()
        sample = sim_registry.node_state.get(HOSTS[0])
        assert sample.load == 2.0
        assert sample.memory == cluster.host(HOSTS[0]).memory_available()
        assert sample.updated == engine.now

    def test_down_host_skipped_not_fatal(self, monitor, sim_registry, transport):
        transport.set_host_down(HOSTS[1])
        stored = monitor.collect_once()
        assert stored == len(HOSTS) - 1
        assert monitor.failures == 1
        assert HOSTS[1] not in swept_hosts(sim_registry)

    def test_sample_overwritten_each_sweep(self, monitor, sim_registry, cluster, engine):
        monitor.collect_once()
        cluster.submit_task(HOSTS[0], Task(cpu_seconds=1000, memory=0))
        monitor.collect_once()
        assert sim_registry.node_state.get(HOSTS[0]).load == 1.0
        assert len(sim_registry.node_state) == len(HOSTS)


class TestScheduling:
    def test_default_period_is_25s(self, monitor):
        assert monitor.period == DEFAULT_PERIOD == 25.0

    def test_periodic_collection(self, monitor, engine):
        monitor.start(immediate=False)
        engine.run_until(engine.now + 100.0)
        assert monitor.collections == 4  # at +25, +50, +75, +100

    def test_immediate_start_collects_now(self, monitor, engine):
        monitor.start(immediate=True)
        assert monitor.collections == 1

    def test_stop(self, monitor, engine):
        monitor.start(immediate=False)
        engine.run_until(engine.now + 50.0)
        monitor.stop()
        engine.run_until(engine.now + 100.0)
        assert monitor.collections == 2
        assert not monitor.running

    def test_reconfigure_period(self, monitor, engine):
        monitor.set_period(5.0)
        monitor.start(immediate=False)
        engine.run_until(engine.now + 25.0)
        assert monitor.collections == 5

    def test_start_idempotent(self, monitor, engine):
        monitor.start(immediate=False)
        monitor.start(immediate=False)
        engine.run_until(engine.now + 25.0)
        assert monitor.collections == 1


class TestEndpointFailures:
    def test_failures_attributed_to_monitored_endpoint(self, monitor, transport):
        transport.set_host_down(HOSTS[1])
        monitor.collect_once()
        monitor.collect_once()
        failures = monitor.endpoint_failures()
        assert failures == {
            f"http://{HOSTS[1]}:8080/NodeStatus/NodeStatusService": 2
        }

    def test_only_monitored_targets_reported(self, monitor, transport):
        # a failure on a non-NodeStatus endpoint is not this monitor's problem
        from repro.util.errors import TransportError

        with pytest.raises(TransportError):
            transport.request("http://unrelated.x:9/svc", "ping")
        assert monitor.endpoint_failures() == {}

    def test_healthy_sweep_reports_nothing(self, monitor):
        monitor.collect_once()
        assert monitor.endpoint_failures() == {}


class TestEjection:
    """A sweep certifies exactly the hosts it reached."""

    def test_a_failed_probe_ejects_the_host_at_once(
        self, sim_registry, admin, transport, engine
    ):
        publish_nodestatus(sim_registry, admin)
        _, svc = publish_service_with_bindings(sim_registry, admin, description=CONSTRAINT)
        balancer = attach_load_balancer(sim_registry, transport, engine, start_monitor=False)
        balancer.monitor.collect_once()
        assert swept_hosts(sim_registry) == sorted(HOSTS)
        transport.set_host_down(HOSTS[1])
        balancer.monitor.collect_once()
        assert swept_hosts(sim_registry) == sorted([HOSTS[0], HOSTS[2]])
        constraints = parse_constraints(CONSTRAINT)
        assert balancer.load_status.rank(HOSTS, constraints) == [HOSTS[0], HOSTS[2]]
        uris = sim_registry.qm.get_access_uris(svc.id)
        assert [u.split("/")[2].split(":")[0] for u in uris] == [HOSTS[0], HOSTS[2], HOSTS[1]]
        transport.set_host_down(HOSTS[1], down=False)
        balancer.monitor.collect_once()  # back on its first good probe
        assert swept_hosts(sim_registry) == sorted(HOSTS)

    def test_a_retired_binding_leaves_node_state_at_the_next_sweep(
        self, sim_registry, admin, monitor
    ):
        monitor.collect_once()
        (retired,) = [
            b for b in sim_registry.store.objects_of_type("ServiceBinding")
            if b.access_uri == nodestatus_uri(HOSTS[2])
        ]
        sim_registry.lcm.remove_objects(admin, [retired.id])
        monitor.collect_once()
        assert swept_hosts(sim_registry) == sorted(HOSTS[:2])

    def test_a_sweep_that_reaches_nobody_leaves_node_state_empty(
        self, sim_registry, monitor, transport
    ):
        monitor.collect_once()
        for host in HOSTS:
            transport.set_host_down(host)
        assert monitor.collect_once() == 0
        assert len(sim_registry.node_state) == 0
        assert monitor.staleness_check()["status"] == "unhealthy"
        assert monitor.staleness_check()["unreached_hosts"] == sorted(HOSTS)
