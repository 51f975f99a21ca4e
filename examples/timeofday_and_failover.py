"""Time-of-day windows and host-failure behaviour.

Demonstrates two operational corners of the scheme:

1. the ``starttime``/``endtime`` constraint (§3.2): inside the window the
   registry balances on live load; outside it, per the thesis, the
   constraints do not apply and discovery reverts to publisher order;
2. failure handling: when a host stops answering NodeStatus, the next
   monitoring sweep leaves it out of NodeState and the balancer stops
   certifying it — the host drops to the back of the answer until its first
   good probe after it recovers.

Run:  python examples/timeofday_and_failover.py
"""

from repro.core import attach_load_balancer
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Service, ServiceBinding
from repro.sim import Cluster, HostSpec, SimEngine, Task
from repro.sim.nodestatus import nodestatus_uri
from repro.soap import SimTransport
from repro.util.clock import SimClockAdapter

HOSTS = ["alpha.cluster", "beta.cluster", "gamma.cluster"]


def hosts_of(uris):
    return [u.split("//")[1].split(":")[0].split(".")[0] for u in uris]


def main() -> None:
    engine = SimEngine(start=9 * 3600.0)  # 09:00
    registry = RegistryServer(RegistryConfig(seed=7), clock=SimClockAdapter(engine))
    cluster = Cluster(engine)
    cluster.add_hosts([HostSpec(h, cores=2) for h in HOSTS])
    transport = SimTransport()
    for monitor in cluster.monitors():
        transport.register_endpoint(monitor.access_uri, lambda req, m=monitor: m.invoke())

    _, cred = registry.register_user("admin", roles={"RegistryAdministrator"})
    session = registry.login(cred)

    node_status = Service(registry.ids.new_id(), name="NodeStatus")
    windowed = Service(
        registry.ids.new_id(),
        name="BusinessHoursService",
        description=(
            "<constraint><cpuLoad>load ls 2.0</cpuLoad>"
            "<starttime>1000</starttime><endtime>1200</endtime></constraint>"
        ),
    )
    registry.lcm.submit_objects(session, [node_status, windowed])
    bindings = []
    for host in HOSTS:
        bindings.append(
            ServiceBinding(registry.ids.new_id(), service=node_status.id, access_uri=nodestatus_uri(host))
        )
        bindings.append(
            ServiceBinding(
                registry.ids.new_id(), service=windowed.id, access_uri=f"http://{host}:8080/svc"
            )
        )
    registry.lcm.submit_objects(session, bindings)
    attach_load_balancer(registry, transport, engine)

    # overload alpha so balancing is visible whenever it is active
    for _ in range(6):
        cluster.host(HOSTS[0]).submit(Task(cpu_seconds=100_000, memory=0))
    engine.run_until(engine.now + 30)

    def minutes():
        h, m = divmod(registry.clock.minutes_of_day(), 60)
        return f"{h:02d}:{m:02d}"

    print(f"[{minutes()}] before the 10:00-12:00 window (no balancing applies):")
    print("   ", hosts_of(registry.qm.get_access_uris(windowed.id)))

    engine.run_until(10.5 * 3600.0)  # 10:30 — inside the window
    print(f"[{minutes()}] inside the window (overloaded alpha demoted):")
    print("   ", hosts_of(registry.qm.get_access_uris(windowed.id)))

    # beta's NodeStatus stops answering; the next sweep leaves it out
    transport.set_host_down(HOSTS[1])
    engine.run_until(engine.now + 30)
    print(f"[{minutes()}] beta down for 30 s (probe failed → not certified):")
    print("   ", hosts_of(registry.qm.get_access_uris(windowed.id)))

    transport.set_host_down(HOSTS[1], down=False)
    engine.run_until(engine.now + 30)
    print(f"[{minutes()}] beta recovered:")
    print("   ", hosts_of(registry.qm.get_access_uris(windowed.id)))

    engine.run_until(13 * 3600.0)  # 13:00 — outside the window
    print(f"[{minutes()}] after the window (publisher order again):")
    print("   ", hosts_of(registry.qm.get_access_uris(windowed.id)))


if __name__ == "__main__":
    main()
