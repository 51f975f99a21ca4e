"""REG-1 — registry operation micro/meso benchmarks (engineering baseline).

Not a thesis figure: establishes the cost of the registry substrate so the
load-balancing numbers can be read in context — publish, discovery with and
without the constraint resolver, SQL query cost at growing registry sizes,
and SOAP-path overhead vs localCall.
"""

import pytest

from repro.client.jaxr import ConnectionFactory
from repro.core import attach_load_balancer
from repro.persistence.nodestate import NodeSample
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Organization, Service, ServiceBinding
from repro.sim import SimEngine
from repro.soap import SimTransport
from repro.util.clock import ManualClock

CONSTRAINT = "<constraint><cpuLoad>load ls 2.0</cpuLoad></constraint>"


def build_registry(n_services: int, *, constrained: bool = False):
    registry = RegistryServer(RegistryConfig(seed=61), clock=ManualClock())
    _, cred = registry.register_user("bench", roles={"RegistryAdministrator"})
    session = registry.login(cred)
    description = CONSTRAINT if constrained else ""
    batch = []
    for i in range(n_services):
        svc = Service(registry.ids.new_id(), name=f"Svc{i:05d}", description=description)
        batch.append(svc)
    if batch:
        registry.lcm.submit_objects(session, batch)
        bindings = []
        for svc in batch:
            for h in range(3):
                bindings.append(
                    ServiceBinding(
                        registry.ids.new_id(),
                        service=svc.id,
                        access_uri=f"http://host{h}.x:8080/{svc.name.value}",
                    )
                )
        registry.lcm.submit_objects(session, bindings)
    for h in range(3):
        registry.node_state.record_sample(
            NodeSample(host=f"host{h}.x", load=float(h), memory=8 << 30, swap_memory=8 << 30, updated=0.0)
        )
    return registry, session, batch


class TestPublishThroughput:
    def test_publish_100_services(self, benchmark):
        def publish():
            registry, session, services = build_registry(100)
            return registry.store.count()

        count = benchmark.pedantic(publish, rounds=3, iterations=1)
        assert count > 400  # 100 services + 300 bindings + user + events


class TestDiscoveryLatency:
    @pytest.mark.parametrize("constrained", [False, True], ids=["vanilla", "balanced"])
    def test_binding_resolution(self, benchmark, constrained):
        registry, session, services = build_registry(50, constrained=constrained)
        if constrained:
            engine = SimEngine()
            attach_load_balancer(
                registry, SimTransport(), engine,
                clock=ManualClock(10 * 3600.0), start_monitor=False,
            )
        target = services[25].id

        uris = benchmark(lambda: registry.qm.get_access_uris(target))
        assert len(uris) == 3


class TestQueryScaling:
    @pytest.mark.parametrize("size", [100, 1000, 5000])
    def test_like_query_cost(self, benchmark, size):
        registry, _, _ = build_registry(0)
        _, cred = registry.register_user("filler")
        session = registry.login(cred)
        batch = [
            Organization(registry.ids.new_id(), name=f"Org{i:05d}") for i in range(size)
        ]
        registry.lcm.submit_objects(session, batch)
        query = "SELECT id, name FROM Organization WHERE name LIKE 'Org00%' ORDER BY name"

        rows = benchmark(lambda: registry.qm.execute_adhoc_query(query).rows)
        # names are zero-padded to 5 digits, so 'Org00%' matches the first 1000
        assert len(rows) == min(size, 1000)


class TestWireOverhead:
    @pytest.mark.parametrize("local_call", [False, True], ids=["soap", "localCall"])
    def test_find_organizations(self, benchmark, local_call):
        registry, _, _ = build_registry(0)
        _, cred = registry.register_user("wire")
        session = registry.login(cred)
        registry.lcm.submit_objects(
            session, [Organization(registry.ids.new_id(), name="SDSU")]
        )
        factory = ConnectionFactory(registry, local_call=local_call)
        connection = factory.create_connection(cred)
        bqm = connection.get_registry_service().get_business_query_manager()

        found = benchmark(lambda: bqm.find_organizations("SDSU"))
        assert len(found) == 1
