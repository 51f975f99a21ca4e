"""Tests for the telemetry facade: adapter parity, /metrics, /health, tracing."""

import pytest

from repro.core import attach_load_balancer
from repro.mtc import ExperimentConfig, run_experiment
from repro.obs import Telemetry, parse_exposition
from repro.registry import RegistryConfig, RegistryServer
from repro.sim import Cluster, HostSpec, SimEngine
from repro.soap import SimTransport
from repro.soap.binding import HttpGetBinding
from repro.util.clock import ManualClock, SimClockAdapter

from conftest import HOSTS, publish_nodestatus, publish_service_with_bindings

CONSTRAINT = "<constraint><cpuLoad>load ls 4.0</cpuLoad></constraint>"


def series(parsed, name, **labels):
    return parsed[name][frozenset(labels.items())]


class TestAdapterParity:
    """Exported values must match the legacy *_stats() surfaces exactly."""

    def test_pipeline_metrics_match_pipeline_stats(self, registry, session):
        org, _service = publish_service_with_bindings(registry, session)
        http = HttpGetBinding(registry)
        for _ in range(3):
            http.get(
                f"http://x/omar?interface=QueryManager"
                f"&method=getRegistryObject&param-id={org.id}"
            )
        http.get("http://x/omar?interface=QueryManager&method=mystery")  # fault
        parsed = parse_exposition(registry.telemetry.render_prometheus())
        stats = registry.pipeline_stats()["http"]
        op = stats["getRegistryObject"]
        served = {"edge": "http", "operation": "getRegistryObject", "worker": "main"}
        assert (
            series(parsed, "repro_request_latency_seconds_count", **served)
            == op["count"]
            == 3
        )
        assert (
            series(parsed, "repro_request_latency_seconds_sum", **served)
            == op["total_latency_s"]
        )
        unresolved = stats["<unresolved>"]
        (code,) = unresolved["fault_codes"]
        assert (
            series(
                parsed,
                "repro_pipeline_fault_codes_total",
                edge="http",
                operation="<unresolved>",
                worker="main",
                code=code,
            )
            == unresolved["faults"]
            == 1
        )
        # the families that only restated the histogram are gone
        assert not {
            "repro_pipeline_requests_total",
            "repro_pipeline_faults_total",
            "repro_pipeline_latency_seconds_total",
            "repro_pipeline_latency_seconds_max",
        } & set(parsed)

    def test_planner_metrics_match_query_plan_stats(self, registry):
        for _ in range(2):
            registry.qm.execute_adhoc_query("SELECT id FROM Service")
        parsed = parse_exposition(registry.telemetry.render_prometheus())
        for key, value in registry.qm.query_plan_stats().items():
            assert series(parsed, f"repro_query_{key}_total") == value

    def test_request_latency_histogram_pushed(self, registry, session):
        org, _service = publish_service_with_bindings(registry, session)
        http = HttpGetBinding(registry)
        http.get(
            f"http://x/omar?interface=QueryManager"
            f"&method=getRegistryObject&param-id={org.id}"
        )
        parsed = parse_exposition(registry.telemetry.render_prometheus())
        labels = {"edge": "http", "operation": "getRegistryObject", "worker": "main"}
        assert series(parsed, "repro_request_latency_seconds_count", **labels) == 1
        assert (
            series(parsed, "repro_request_latency_seconds_bucket", le="+Inf", **labels)
            == 1
        )


class TestLoadBalancedDeployment:
    """attach_load_balancer mounts the scheme's surfaces on the facade."""

    @pytest.fixture
    def deployment(self, engine, sim_registry, cluster, transport):
        _, credential = sim_registry.register_user(
            "admin", roles={"RegistryAdministrator"}
        )
        admin = sim_registry.login(credential)
        publish_nodestatus(sim_registry, admin)
        publish_service_with_bindings(
            sim_registry, admin, description=CONSTRAINT
        )
        balancer = attach_load_balancer(
            sim_registry, transport, engine, start_monitor=False
        )
        return sim_registry, balancer

    def test_sources_mounted_and_exposition_covers_all_surfaces(self, deployment):
        sim_registry, balancer = deployment
        balancer.monitor.collect_once()
        snapshot = sim_registry.telemetry_snapshot()
        for source in (
            "pipeline",
            "planner",
            "constraint_cache",
            "collector",
            "load_status",
            "transport",
        ):
            assert source in snapshot, source
        parsed = parse_exposition(sim_registry.telemetry.render_prometheus())
        collector_stats = balancer.monitor.collector_stats()
        assert series(parsed, "repro_monitor_collections_total") == 1
        # read by nothing, so in the snapshot only
        assert snapshot["collector"]["samples_stored"] == len(HOSTS)
        assert collector_stats["targets"] == len(HOSTS)
        assert "repro_monitor_samples_stored_total" not in parsed
        transport_stats = snapshot["transport"]
        assert (
            series(parsed, "repro_transport_requests_total")
            == transport_stats["requests"]
            == len(HOSTS)
        )
        cache_stats = balancer.service_constraint.cache_stats()
        assert series(parsed, "repro_constraint_cache_misses_total") == cache_stats["misses"]
        assert snapshot["load_status"]["rankings"] == 0

    def test_rankings_counted_and_synced(self, deployment):
        sim_registry, balancer = deployment
        balancer.monitor.collect_once()
        service = sim_registry.daos.services.find_views_by_name("Adder")[0]
        uris = sim_registry.qm.get_access_uris(service.id)
        assert uris
        assert balancer.load_status.load_status_stats()["rankings"] == 1
        assert sim_registry.telemetry_snapshot()["load_status"]["rankings"] == 1
        parsed = parse_exposition(sim_registry.telemetry.render_prometheus())
        assert series(parsed, "repro_resolver_resolutions_total") == 1
        assert series(parsed, "repro_resolver_balanced_resolutions_total") == 1

    def test_detach_unmounts_sources(self, deployment):
        sim_registry, balancer = deployment
        balancer.detach(sim_registry)
        remaining = sim_registry.telemetry.sources()
        assert remaining == ["pipeline", "planner", "writes"]


class TestHttpEdges:
    def test_metrics_path_serves_exposition(self, registry):
        http = HttpGetBinding(registry)
        text = http.get("http://localhost:8080/omar/registry/metrics")
        assert isinstance(text, str)
        parsed = parse_exposition(text)
        assert "repro_query_plans_built_total" in parsed
        # the scrape itself bypasses the kernel: no pipeline traffic recorded
        assert registry.pipeline_stats() == {}

    def test_health_path(self, registry):
        http = HttpGetBinding(registry)
        health = http.get("http://localhost:8080/omar/registry/health")
        assert health["status"] == "ok"
        assert "pipeline" in health["sources"]


class TestSlowRequestLog:
    def make_registry(self, threshold: float) -> tuple[RegistryServer, ManualClock]:
        monotonic = ManualClock()
        telemetry = Telemetry(
            clock=monotonic, slow_request_threshold=threshold, trace=True
        )
        registry = RegistryServer(
            RegistryConfig(seed=42),
            clock=ManualClock(),
            monotonic=monotonic,
            telemetry=telemetry,
        )
        return registry, monotonic

    def test_slow_request_captured_with_trace(self):
        registry, _ = self.make_registry(threshold=0.0)
        http = HttpGetBinding(registry)
        http.get("http://x/omar?interface=QueryManager&method=mystery")
        (entry,) = registry.telemetry.slow_requests
        assert entry["edge"] == "http"
        assert entry["operation"] == "<unresolved>"
        assert entry["fault_code"] is not None
        trace = entry["trace"]
        assert trace["name"] == "request"
        stage_names = [child["name"] for child in trace["children"]]
        assert stage_names[0] == "stage:account"

    def test_fast_requests_not_captured(self):
        registry, _ = self.make_registry(threshold=10.0)
        http = HttpGetBinding(registry)
        http.get("http://x/omar?interface=QueryManager&method=mystery")
        assert list(registry.telemetry.slow_requests) == []


class TestDeterministicKernelTraces:
    def test_span_tree_stable_across_runs(self):
        def run() -> dict:
            monotonic = ManualClock()
            registry = RegistryServer(
                RegistryConfig(seed=42),
                clock=ManualClock(),
                monotonic=monotonic,
                telemetry=Telemetry(clock=monotonic, trace=True),
            )
            http = HttpGetBinding(registry)
            http.get(
                "http://x/omar?interface=QueryManager"
                "&method=executeQuery&param-query=SELECT id FROM Service"
            )
            return registry.telemetry.tracer.last_trace().to_dict()

        first, second = run(), run()
        assert first == second
        assert first["name"] == "request"
        # stages nest (each wraps the next), so walk the single-child chain
        stages, node = [], first
        while node.get("children"):
            node = node["children"][0]
            stages.append(node["name"])
        assert stages == [
            "stage:account",
            "stage:fault-map",
            "stage:admit",
            "stage:resolve",
            "stage:authenticate",
            "stage:authorize",
            "stage:validate",
            "stage:dispatch",
        ]


class TestTracedExperiment:
    def test_experiment_smoke_with_tracing(self):
        config = ExperimentConfig(
            duration=120.0,
            hosts=(HostSpec("host0.cluster", cores=2), HostSpec("host1.cluster", cores=2)),
            trace=True,
        )
        result = run_experiment(config)
        telemetry = result.telemetry
        assert telemetry["tracer"]["enabled"] is True
        assert telemetry["tracer"]["spans_recorded"] > 0
        assert telemetry["collector"]["collections"] > 0
        assert telemetry["transport"]["requests"] > 0
        # the traced run still produced work, and the trace trees are real
        harness_registry_sources = set(telemetry) - {"tracer", "slow_requests"}
        assert {
            "pipeline",
            "planner",
            "constraint_cache",
            "collector",
            "load_status",
            "transport",
        } <= harness_registry_sources

    def test_experiment_untraced_by_default(self):
        config = ExperimentConfig(
            duration=150.0,
            hosts=(HostSpec("host0.cluster", cores=2),),
        )
        result = run_experiment(config)
        assert result.telemetry["tracer"]["enabled"] is False
        assert result.telemetry["tracer"]["spans_recorded"] == 0
