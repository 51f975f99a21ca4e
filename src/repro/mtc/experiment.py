"""End-to-end experiment runner: registry + cluster + workload + metrics.

One :func:`run_experiment` call builds the whole thesis deployment
(Figure 3.7): a simulated cluster, a registry with the NodeStatus service
published per host, the application service published with its constraint
block, the TimeHits monitor, and an MTC client dispatching a workload
through registry discovery under a chosen policy.  Deterministic under the
config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core import BalanceMode, attach_load_balancer
from repro.core.monitor import DEFAULT_PERIOD
from repro.mtc.client import MTCClient
from repro.mtc.metrics import (
    ClusterSampler,
    LoadUniformity,
    ResponseSummary,
    RunMetrics,
    jain_fairness,
)
from repro.mtc.policies import (
    ORACLE_POLICIES,
    REGISTRY_BALANCED_POLICIES,
    OracleLeastLoadedPolicy,
    make_policy,
)
from repro.mtc.workload import Distribution, WorkloadSpec, generate_workload
from repro.obs.slo import SLO
from repro.registry.server import RegistryConfig, RegistryServer
from repro.rim import Association, AssociationType, Organization, Service, ServiceBinding
from repro.sim import Cluster, HostSpec, SimEngine, Task
from repro.sim.nodestatus import nodestatus_uri
from repro.soap import RetryPolicy, SimTransport
from repro.util.clock import SimClockAdapter

#: default application-service constraint used by the load-balance benches
DEFAULT_CONSTRAINT = (
    "<constraint>"
    "<cpuLoad>load ls 4.0</cpuLoad>"
    "<memory>memory gr 512MB</memory>"
    "</constraint>"
)


def adhoc_query_mix(
    *,
    service_ids: tuple[str, ...] = (),
    name_prefixes: tuple[str, ...] = (),
    classification_nodes: tuple[str, ...] = (),
    load_ceiling: float = 2.0,
) -> list[str]:
    """The ebRS ad-hoc searches a §3.3 client runs before binding.

    Four shapes, mirroring how MTC clients actually browse the registry:
    point lookups of known services, name-prefix searches, taxonomy
    (classification) semi-joins, and a NodeState scan to eyeball cluster
    load.  Used by :meth:`ExperimentHarness.adhoc_discovery_queries`.
    """
    queries: list[str] = []
    for service_id in service_ids:
        escaped = service_id.replace("'", "''")
        queries.append(f"SELECT * FROM Service WHERE id = '{escaped}'")
    for prefix in name_prefixes:
        escaped = prefix.replace("'", "''")
        queries.append(
            f"SELECT id, name FROM Service WHERE name LIKE '{escaped}%' ORDER BY name"
        )
    for node_id in classification_nodes:
        escaped = node_id.replace("'", "''")
        queries.append(
            "SELECT name FROM Service WHERE id IN "
            "(SELECT classifiedobject FROM Classification "
            f"WHERE classificationnode = '{escaped}')"
        )
    queries.append(
        f"SELECT HOST, LOAD FROM NodeState WHERE LOAD < {load_ceiling} ORDER BY LOAD"
    )
    return queries


@dataclass(frozen=True)
class HostFailure:
    """A crash/recovery episode injected into one host mid-run.

    Times are relative to workload start.  While down, the host rejects
    submissions, loses its running tasks, and stops answering NodeStatus.
    """

    host: str
    fail_at: float
    recover_at: float | None = None


@dataclass(frozen=True)
class BackgroundLoad:
    """External load injected on one host (what makes hosts heterogeneous)."""

    host: str
    #: tasks per second of background arrivals
    rate: float
    cpu_seconds: float = 30.0
    memory: int = 512 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one load-balancing experiment run."""

    policy: str = "constraint-lb"
    hosts: tuple[HostSpec, ...] = (
        HostSpec("host0.cluster", cores=2),
        HostSpec("host1.cluster", cores=2),
        HostSpec("host2.cluster", cores=2),
        HostSpec("host3.cluster", cores=2),
    )
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(
            arrival_rate=0.4,
            cpu_seconds=Distribution.fixed(10.0),
            memory=Distribution.fixed(256 << 20),
            seed=0,
        )
    )
    duration: float = 1800.0
    monitor_period: float = DEFAULT_PERIOD
    #: what the NodeStatus LOAD field reports: "runqueue" (thesis) or "loadavg"
    load_metric: str = "runqueue"
    constraint_xml: str = DEFAULT_CONSTRAINT
    balance_mode: BalanceMode = BalanceMode.PREFER
    background: tuple[BackgroundLoad, ...] = ()
    failures: tuple[HostFailure, ...] = ()
    sample_period: float = 5.0
    warmup: float = 120.0
    #: virtual start-of-day offset in seconds (affects time-of-day constraints)
    start_of_day: float = 10 * 3600.0
    seed: int = 0
    service_name: str = "MTCService"
    organization_name: str = "MTC Organization"
    #: client-side transport retry stage (None = no retries, the seed
    #: behaviour); exercised by TimeHits sweeps against failed hosts and,
    #: with :attr:`dispatch_via_transport`, by task invocation itself
    transport_retry: RetryPolicy | None = None
    #: route task invocation through the transport mini-chain instead of
    #: submitting directly to the cluster (makes retry/backoff observable
    #: under HostFailure episodes)
    dispatch_via_transport: bool = False
    #: record per-request span trees (deterministic under the sim clock);
    #: off by default — tracing is an observability knob, not a policy one
    trace: bool = False
    #: record longitudinal time series (node sweeps, request latencies)
    history: bool = False
    #: emit structured JSON log records into the bounded in-memory sink
    log: bool = False
    #: SLOs to evaluate during the run (each monitor period); their alert
    #: timeline lands in :attr:`ExperimentResult.slo_timeline`
    slos: tuple[SLO, ...] = ()

    def with_policy(self, policy: str) -> "ExperimentConfig":
        return replace(self, policy=policy)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: RunMetrics
    dispatch_counts: dict[str, int]
    node_samples: int
    monitor_collections: int
    #: client-side retry stage accounting (transport mini-chain)
    transport_retries: int = 0
    invoke_failures: int = 0
    #: lifecycle retries suppressed by idempotency keys (exactly-once)
    idempotent_duplicates: int = 0
    endpoint_failures: dict[str, int] = field(default_factory=dict)
    #: merged registry telemetry snapshot (see RegistryServer.telemetry_snapshot)
    telemetry: dict = field(default_factory=dict)
    #: SLO alert-state transitions, in order (deterministic under the seed)
    slo_timeline: list = field(default_factory=list)
    #: final alert state per configured SLO
    slo_states: dict = field(default_factory=dict)


class ExperimentHarness:
    """Builds the full deployment for one config; reusable by the benches."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.engine = SimEngine(start=config.start_of_day)
        self.clock = SimClockAdapter(self.engine)
        # the sim clock doubles as the monotonic source, so request latency
        # accounting and span timestamps are deterministic under the seed
        self.registry = RegistryServer(
            RegistryConfig(seed=config.seed), clock=self.clock, monotonic=self.clock
        )
        self.cluster = Cluster(self.engine, load_metric=config.load_metric)
        self.cluster.add_hosts(list(config.hosts))
        self.transport = SimTransport(retry=config.transport_retry)
        if config.trace:
            self.registry.enable_tracing()
            self.transport.tracer = self.registry.telemetry.tracer
        telemetry = self.registry.telemetry
        if config.history:
            telemetry.history.enabled = True
        if config.log:
            telemetry.log.enabled = True
        for slo in config.slos:
            telemetry.slos.add(slo)
        if config.slos:
            # evaluate burn rates each monitor period; transitions accumulate
            # on the engine's deterministic timeline
            self.engine.schedule_periodic(
                config.monitor_period, telemetry.slos.evaluate
            )
        self._register_monitors()
        self.session = self._admin_session()
        self.service_id = self._publish_services()
        if config.dispatch_via_transport:
            self._register_app_endpoints()
        self.balancer = None
        if config.policy in REGISTRY_BALANCED_POLICIES:
            self.balancer = attach_load_balancer(
                self.registry,
                self.transport,
                self.engine,
                period=config.monitor_period,
                mode=config.balance_mode,
            )
        if config.policy in ORACLE_POLICIES:
            policy = OracleLeastLoadedPolicy(self.cluster)
        else:
            policy = make_policy(config.policy, seed=config.seed)
        self.client = MTCClient(
            self.registry,
            self.cluster,
            self.engine,
            service_id=self.service_id,
            policy=policy,
            transport=self.transport if config.dispatch_via_transport else None,
        )
        self.sampler = ClusterSampler(
            self.cluster, self.engine, period=config.sample_period
        )

    # -- deployment ------------------------------------------------------------

    def _register_monitors(self) -> None:
        for monitor in self.cluster.monitors():
            self.transport.register_endpoint(
                monitor.access_uri, lambda req, m=monitor: m.invoke()
            )

    def _register_app_endpoints(self) -> None:
        """Expose each host's application service as a transport endpoint, so
        task invocation exercises the client-side retry mini-chain."""
        for host in self.cluster.host_names():
            self.transport.register_endpoint(
                f"http://{host}:8080/{self.config.service_name}/invoke",
                lambda task, h=host: self.cluster.submit_task(h, task),
            )

    def _admin_session(self):
        _, credential = self.registry.register_user(
            "mtc-admin", roles={"RegistryAdministrator"}
        )
        return self.registry.login(credential)

    def _publish_services(self) -> str:
        cfg = self.config
        ids = self.registry.ids
        org = Organization(ids.new_id(), name=cfg.organization_name)
        node_status = Service(
            ids.new_id(), name="NodeStatus", description="Service to monitor node status"
        )
        app = Service(ids.new_id(), name=cfg.service_name, description=cfg.constraint_xml)
        self.registry.lcm.submit_objects(
            self.session,
            [org, node_status, app],
            idempotency_key="mtc-publish-services",
        )
        bindings: list = []
        host_names = self.cluster.host_names()
        for host in host_names:
            bindings.append(
                ServiceBinding(
                    ids.new_id(), service=node_status.id, access_uri=nodestatus_uri(host)
                )
            )
            bindings.append(
                ServiceBinding(
                    ids.new_id(),
                    service=app.id,
                    access_uri=f"http://{host}:8080/{cfg.service_name}/invoke",
                )
            )
        bindings.append(
            Association(
                ids.new_id(),
                source_object=org.id,
                target_object=app.id,
                association_type=AssociationType.OFFERS_SERVICE,
            )
        )
        self.registry.lcm.submit_objects(
            self.session, bindings, idempotency_key="mtc-publish-bindings"
        )
        self.cluster.deploy_service("NodeStatus", host_names)
        self.cluster.deploy_service(cfg.service_name, host_names)
        return app.id

    def adhoc_discovery_queries(self) -> list[str]:
        """The ad-hoc search mix for this deployment's published services.

        Replaying these through ``registry.qm`` (e.g. once at start-up)
        warms the query-plan cache for the statements clients repeat all
        run long.
        """
        return adhoc_query_mix(
            service_ids=(self.service_id,),
            name_prefixes=(self.config.service_name[:3], "Node"),
        )

    def _schedule_failures(self) -> None:
        for failure in self.config.failures:
            host = self.cluster.host(failure.host)

            def crash(h=host, name=failure.host):
                h.crash()
                self.transport.set_host_down(name)

            self.engine.schedule_at(
                self.config.start_of_day + failure.fail_at, crash
            )
            if failure.recover_at is not None:

                def recover(h=host, name=failure.host):
                    h.recover()
                    self.transport.set_host_down(name, down=False)

                self.engine.schedule_at(
                    self.config.start_of_day + failure.recover_at, recover
                )

    def _schedule_background(self) -> None:
        for bg in self.config.background:
            host = self.cluster.host(bg.host)
            interval = 1.0 / bg.rate
            time = self.config.start_of_day + interval
            end = self.config.start_of_day + self.config.duration
            index = 0
            while time < end:
                index += 1
                self.engine.schedule_at(
                    time,
                    lambda h=host, i=index, b=bg: h.submit(
                        Task(cpu_seconds=b.cpu_seconds, memory=b.memory, name=f"bg-{h.name}-{i}")
                    ),
                )
                time += interval

    # -- run -----------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        cfg = self.config
        arrivals = generate_workload(cfg.workload, duration=cfg.duration)
        shifted = [
            type(a)(time=cfg.start_of_day + a.time, task=a.task) for a in arrivals
        ]
        self.client.schedule_arrivals(shifted)
        self._schedule_background()
        self._schedule_failures()
        self.sampler.start()
        end = cfg.start_of_day + cfg.duration
        self.engine.run_until(end)
        # measurement window ends with the workload: the drain below would
        # otherwise dilute the uniformity metrics with idle samples
        self.sampler.stop()
        # drain: let in-flight tasks finish (bounded)
        self.engine.run_until(end + 10 * 3600)
        uniformity = LoadUniformity.from_sampler(
            self.sampler, warmup=cfg.start_of_day + cfg.warmup
        )
        responses = ResponseSummary.from_tasks(self.client.tasks)
        per_host_completed = {
            h.name: h.tasks_completed for h in self.cluster.hosts()
        }
        work = [h.work_done for h in self.cluster.hosts()]
        metrics = RunMetrics(
            policy=cfg.policy,
            uniformity=uniformity,
            responses=responses,
            fairness=jain_fairness(work),
            tasks_submitted=len(self.client.tasks),
            tasks_completed=self.cluster.total_completed(),
            tasks_rejected=self.cluster.total_rejected(),
            makespan=self.engine.now - cfg.start_of_day,
            per_host_completed=per_host_completed,
        )
        return ExperimentResult(
            config=cfg,
            metrics=metrics,
            dispatch_counts=self.client.dispatch_counts(),
            node_samples=len(self.registry.node_state),
            monitor_collections=(
                self.balancer.monitor.collections if self.balancer else 0
            ),
            transport_retries=self.transport.stats.retries,
            invoke_failures=self.client.invoke_failures,
            idempotent_duplicates=self.registry.lcm.idempotent_duplicates,
            endpoint_failures=self.transport.endpoint_failures(),
            telemetry=self.registry.telemetry_snapshot(),
            slo_timeline=list(self.registry.telemetry.slos.timeline),
            slo_states=self.registry.telemetry.slos.states(),
        )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build and run one experiment."""
    return ExperimentHarness(config).run()


def compare_policies(
    base: ExperimentConfig, policies: list[str] | None = None
) -> dict[str, ExperimentResult]:
    """Run the same workload under several policies (the LB-1 table)."""
    policies = policies or ["first-uri", "random", "round-robin", "constraint-lb"]
    return {policy: run_experiment(base.with_policy(policy)) for policy in policies}
