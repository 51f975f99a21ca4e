"""Shared fixtures: registries, sessions, clusters, and a full deployment."""

from __future__ import annotations

import threading

import pytest

from repro.client.access import ClientEnvironment
from repro.registry import RegistryConfig, RegistryServer
from repro.registry.kernel import OperationSpec
from repro.rim import (
    Association,
    AssociationType,
    Organization,
    Service,
    ServiceBinding,
)
from repro.sim import Cluster, HostSpec, SimEngine
from repro.sim.nodestatus import nodestatus_uri
from repro.soap import SimTransport
from repro.util.clock import ManualClock, SimClockAdapter

HOSTS = ["exergy.sdsu.edu", "thermo.sdsu.edu", "romulus.sdsu.edu"]


class Gated:
    """A handler that reports who entered it and blocks until released:
    ``submit(spec=gated.spec)`` holds a serving worker for as long as a test
    needs it busy."""

    def __init__(self) -> None:
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        self.idents: list[int] = []
        self.spec = OperationSpec(name="gated", handler=self)

    def __call__(self, ctx) -> str:
        self.idents.append(threading.get_ident())
        self.entered.release()
        assert self.release.wait(30.0)
        return "done"


@pytest.fixture
def clock() -> ManualClock:
    return ManualClock()


@pytest.fixture
def registry(clock: ManualClock) -> RegistryServer:
    return RegistryServer(RegistryConfig(seed=42), clock=clock)


@pytest.fixture
def session(registry: RegistryServer):
    _, credential = registry.register_user("gold")
    return registry.login(credential)


@pytest.fixture
def admin_session(registry: RegistryServer):
    _, credential = registry.register_user("admin", roles={"RegistryAdministrator"})
    return registry.login(credential)


@pytest.fixture
def engine() -> SimEngine:
    # virtual day starts at 10:00 so default time windows are in business hours
    return SimEngine(start=10 * 3600.0)


@pytest.fixture
def sim_registry(engine: SimEngine) -> RegistryServer:
    return RegistryServer(RegistryConfig(seed=42), clock=SimClockAdapter(engine))


@pytest.fixture
def cluster(engine: SimEngine) -> Cluster:
    cl = Cluster(engine)
    cl.add_hosts([HostSpec(name, cores=2) for name in HOSTS])
    return cl


@pytest.fixture
def transport(cluster: Cluster) -> SimTransport:
    t = SimTransport()
    for monitor in cluster.monitors():
        t.register_endpoint(monitor.access_uri, lambda req, m=monitor: m.invoke())
    return t


@pytest.fixture
def client_env(registry: RegistryServer) -> ClientEnvironment:
    return ClientEnvironment.for_registry(registry)


@pytest.fixture
def connection(client_env: ClientEnvironment):
    return client_env.register_client("gold", "gold123")


def publish_service_with_bindings(
    registry: RegistryServer,
    session,
    *,
    org_name: str = "SDSU",
    service_name: str = "Adder",
    description: str = "",
    hosts: list[str] | None = None,
    path: str = "Adder/addService",
):
    """Publish org + service + one binding per host + OffersService assoc."""
    hosts = hosts if hosts is not None else HOSTS
    ids = registry.ids
    org = Organization(ids.new_id(), name=org_name)
    service = Service(ids.new_id(), name=service_name, description=description)
    registry.lcm.submit_objects(session, [org, service])
    batch = [
        ServiceBinding(
            ids.new_id(), service=service.id, access_uri=f"http://{h}:8080/{path}"
        )
        for h in hosts
    ]
    batch.append(
        Association(
            ids.new_id(),
            source_object=org.id,
            target_object=service.id,
            association_type=AssociationType.OFFERS_SERVICE,
        )
    )
    registry.lcm.submit_objects(session, batch)
    return org, service


def publish_nodestatus(registry: RegistryServer, session, hosts: list[str] | None = None):
    """Publish the NodeStatus monitoring service with per-host URIs."""
    hosts = hosts if hosts is not None else HOSTS
    ids = registry.ids
    service = Service(
        ids.new_id(), name="NodeStatus", description="Service to monitor node status"
    )
    registry.lcm.submit_objects(session, [service])
    registry.lcm.submit_objects(
        session,
        [
            ServiceBinding(ids.new_id(), service=service.id, access_uri=nodestatus_uri(h))
            for h in hosts
        ],
    )
    return service
