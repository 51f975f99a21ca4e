"""Longitudinal observability wiring: sweeps, staleness health, flaps, SLOs.

Integration-level coverage of the PR-5 surfaces: TimeHits feeding the
time-series store and the probe SLO, the ``node_staleness`` health check
degrading :meth:`Telemetry.health`, LoadStatus eligibility flags, the
kernel's correlated request accounting, the Web UI monitor panel, and the
experiment harness' deterministic SLO alert timeline.
"""

import pytest

from repro.core.constraints import ConstraintSet, Operator, ScalarConstraint
from repro.core.load_status import LoadStatus
from repro.core.monitor import TimeHits
from repro.mtc.experiment import ExperimentConfig, HostFailure, run_experiment
from repro.obs.slo import SLO, default_slos
from repro.obs.telemetry import Telemetry
from repro.persistence.nodestate import NodeSample, NodeStateStore
from repro.registry import RegistryConfig, RegistryServer
from repro.util.clock import ManualClock, SimClockAdapter

from conftest import HOSTS, publish_nodestatus

PROBE_SLO = SLO(
    name="probe-availability", kind="availability", source="probe",
    objective=0.9, windows=(100.0,),
)


@pytest.fixture
def sim_registry(engine):
    # monotonic = sim time too, so telemetry windows read the engine clock
    adapter = SimClockAdapter(engine)
    return RegistryServer(RegistryConfig(seed=42), clock=adapter, monotonic=adapter)


@pytest.fixture
def monitor(sim_registry, cluster, transport, engine):
    _, cred = sim_registry.register_user("admin", roles={"RegistryAdministrator"})
    publish_nodestatus(sim_registry, sim_registry.login(cred))
    return TimeHits(sim_registry, transport, engine)


class TestSweepHistory:
    def test_sweep_records_per_host_series(self, monitor, sim_registry, engine):
        sim_registry.enable_history()
        monitor.collect_once()
        history = sim_registry.telemetry.history
        host = HOSTS[0]
        for metric in ("load", "memory", "swap", "failure", "probe_latency"):
            assert f"node.{host}.{metric}" in history.names()
        assert history.series(f"node.{host}.failure").last() == (engine.now, 0.0)

    def test_failed_probe_recorded_as_failure_and_slo_event(
        self, monitor, sim_registry, transport
    ):
        sim_registry.enable_history()
        sim_registry.telemetry.slos.add(PROBE_SLO)
        transport.set_host_down(HOSTS[1])
        monitor.collect_once()
        history = sim_registry.telemetry.history
        assert history.series(f"node.{HOSTS[1]}.failure").last_value == 1.0
        assert f"node.{HOSTS[1]}.load" not in history.names()
        events = sim_registry.telemetry.slos.events
        assert events.series("probe.err").recorded == 1
        assert events.series("probe.ok").recorded == len(HOSTS) - 1

    def test_silent_host_is_listed_unreached(
        self, monitor, sim_registry, transport, engine
    ):
        sim_registry.enable_history()
        monitor.collect_once()
        transport.set_host_down(HOSTS[1])
        engine.run_until(engine.now + 25.0)
        monitor.collect_once()
        history = sim_registry.telemetry.history
        assert history.series(f"node.{HOSTS[1]}.failure").last() == (engine.now, 1.0)
        assert monitor.staleness_check()["unreached_hosts"] == [HOSTS[1]]
        assert not any(name.endswith(".age") for name in history.names())

    def test_sweep_disabled_history_records_nothing(self, monitor, sim_registry):
        monitor.collect_once()
        assert sim_registry.telemetry.history.names() == []

    def test_sweep_emits_structured_log(self, monitor, sim_registry, transport):
        sim_registry.enable_logging()
        transport.set_host_down(HOSTS[2])
        monitor.collect_once()
        records = sim_registry.telemetry.log.find("timehits.sweep")
        assert len(records) == 1
        assert records[0]["cycle"] == 1
        assert records[0]["stored"] == len(HOSTS) - 1
        assert records[0]["failed"] == 1
        assert records[0]["unreached"] == [HOSTS[2]]
        assert records[0]["targets"] == len(HOSTS)


class TestStalenessHealth:
    def test_health_ok_after_fresh_sweep(self, monitor, sim_registry):
        monitor.collect_once()
        health = sim_registry.telemetry.health()
        assert health["status"] == "ok"
        assert health["checks"]["node_staleness"] == {
            "status": "ok", "unreached_hosts": [], "threshold_s": 50.0,
        }

    def test_all_samples_stale_is_unhealthy(self, monitor, sim_registry, engine):
        monitor.collect_once()
        # no sweeps for 60 s > 2x the 25 s period: monitoring is blind
        engine.run_until(engine.now + 60.0)
        health = sim_registry.telemetry.health()
        assert health["status"] == "unhealthy"
        assert health["checks"]["node_staleness"]["unreached_hosts"] == []

    def test_one_silent_host_degrades(self, monitor, sim_registry, engine, transport):
        monitor.collect_once()
        engine.run_until(engine.now + 60.0)
        transport.set_host_down(HOSTS[1])
        monitor.collect_once()  # refreshes every host except the down one
        health = sim_registry.telemetry.health()
        assert health["status"] == "degraded"
        assert health["checks"]["node_staleness"]["unreached_hosts"] == [HOSTS[1]]

    def test_no_samples_is_ok(self, monitor, sim_registry):
        assert sim_registry.telemetry.health()["status"] == "ok"

    def test_staleness_gauge_feeds_slo(self, monitor, sim_registry, engine):
        slo = SLO(
            name="node-staleness", kind="staleness", source="node_staleness",
            objective=0.99, threshold=50.0, windows=(100.0,),
        )
        sim_registry.telemetry.slos.add(slo)
        monitor.collect_once()
        assert sim_registry.telemetry.slos.evaluate() == {"node-staleness": "ok"}
        engine.run_until(engine.now + 60.0)
        assert sim_registry.telemetry.slos.evaluate() == {"node-staleness": "page"}
        assert sim_registry.telemetry.health()["status"] == "unhealthy"


class TestEligibilityFlaps:
    def _load_status(self):
        clock = ManualClock()
        telemetry = Telemetry(clock=clock, history=True)
        node_state = NodeStateStore()
        load_status = LoadStatus(node_state)
        load_status.telemetry = telemetry
        constraints = ConstraintSet(
            cpu_load=ScalarConstraint("load", Operator.LS, 2.0)
        )
        return clock, telemetry, node_state, load_status, constraints

    def test_rank_records_transitions_only(self):
        clock, telemetry, node_state, load_status, constraints = self._load_status()
        for t, load in enumerate([1.0, 1.5, 3.0, 1.0, 3.0]):
            clock.set(float(t * 10))
            node_state.record_sample(
                NodeSample(host="h1", load=load, memory=1 << 30,
                           swap_memory=1 << 30, updated=clock.now())
            )
            load_status.rank(["h1"], constraints)
        series = telemetry.history.series("eligible.h1")
        # establishing point + three eligibility flips
        assert [v for _, v in series.points] == [1.0, 0.0, 1.0, 0.0]
        assert telemetry.history.flapping(1000.0) == ["h1"]

    def test_rank_logs_the_decision(self):
        clock, telemetry, node_state, load_status, constraints = self._load_status()
        telemetry.log.enabled = True
        for host, load in (("h1", 1.5), ("h2", 0.5), ("h3", 9.0)):
            node_state.record_sample(
                NodeSample(host=host, load=load, memory=1 << 30,
                           swap_memory=1 << 30, updated=0.0)
            )
        ranked = load_status.rank(["h1", "h2", "h3"], constraints)
        assert ranked == ["h2", "h1"]
        records = telemetry.log.find("loadstatus.rank")
        assert records[-1]["hosts"] == 3
        assert records[-1]["satisfying"] == 2
        assert records[-1]["preferred"] == "h2"

    def test_no_telemetry_rank_still_works(self):
        clock, _, node_state, load_status, constraints = self._load_status()
        load_status.telemetry = None
        node_state.record_sample(
            NodeSample(host="h1", load=0.5, memory=1 << 30,
                       swap_memory=1 << 30, updated=0.0)
        )
        assert load_status.rank(["h1"], constraints) == ["h1"]


class TestRequestAccounting:
    def test_kernel_request_feeds_history_log_and_slo(self):
        clock = ManualClock()
        registry = RegistryServer(
            RegistryConfig(seed=42), clock=clock, monotonic=clock
        )
        registry.enable_history()
        registry.enable_logging()
        registry.enable_tracing()
        registry.telemetry.slos.add(
            SLO(name="req", kind="availability", source="request",
                objective=0.9, windows=(100.0,))
        )
        from repro.soap.binding import SoapRegistryBinding
        from repro.soap.envelope import SoapEnvelope
        from repro.soap.messages import AdhocQueryRequest

        binding = SoapRegistryBinding(registry)
        binding.handle(
            SoapEnvelope(body=AdhocQueryRequest(query="SELECT id FROM Service"))
        )
        telemetry = registry.telemetry
        assert telemetry.history.series("request.soap.latency").recorded == 1
        assert telemetry.slos.events.series("request.ok").recorded == 1
        records = telemetry.log.find("request", edge="soap")
        assert len(records) == 1
        assert records[0]["operation"] == "executeQuery"
        # log correlates with the pipeline span's trace id
        root = next(t for t in telemetry.tracer.traces if t.name == "request")
        assert records[0]["trace_id"] == root.trace_id
        assert "fault_code" not in records[0]


class TestMonitorPanel:
    def test_panel_surfaces(self, monitor, sim_registry, engine, transport):
        from repro.ui.webui import WebUI

        sim_registry.enable_history()
        sim_registry.enable_logging()
        monitor.collect_once()
        engine.run_until(engine.now + 5.0)
        panel = WebUI(sim_registry).monitor()
        rows = panel.node_rows()
        assert [r.host for r in rows] == sorted(HOSTS)
        assert all(r.age_s == 5.0 for r in rows)
        assert panel.health()["status"] == "ok"
        assert panel.slo_states() == {}
        assert panel.flapping_hosts() == []
        assert [r["event"] for r in panel.recent_log()] == ["timehits.sweep"]


EXPERIMENT = ExperimentConfig(
    duration=450.0,
    failures=(HostFailure(host="host1.cluster", fail_at=120.0),),
    slos=default_slos(windows=(60.0, 300.0)),
    history=True,
    log=True,
)


class TestExperimentSloTimeline:
    def test_outage_pages_deterministically(self):
        first = run_experiment(EXPERIMENT)
        second = run_experiment(EXPERIMENT)
        assert first.slo_timeline == second.slo_timeline
        assert first.slo_states == second.slo_states

        probe = [e for e in first.slo_timeline if e["slo"] == "probe-availability"]
        assert [e["to"] for e in probe] == ["warning", "page"]
        assert first.slo_states["probe-availability"] == "page"
        # the timeline is ordered and stamped in sim time
        times = [e["t"] for e in first.slo_timeline]
        assert times == sorted(times)
        assert all(t >= EXPERIMENT.start_of_day + 120.0 for t in times)

    def test_healthy_run_never_alerts(self):
        config = ExperimentConfig(
            duration=300.0, slos=default_slos(windows=(60.0, 300.0))
        )
        result = run_experiment(config)
        assert result.slo_timeline == []
        assert set(result.slo_states.values()) == {"ok"}

    def test_history_stays_bounded_and_lands_in_telemetry(self):
        result = run_experiment(EXPERIMENT)
        marks = result.telemetry["timeseries"]
        assert marks["enabled"] is True
        assert marks["max_points"] <= marks["capacity"]
        assert marks["points_recorded"] > marks["capacity"]  # ring actually wrapped
        assert result.telemetry["slo"]["transitions"] == len(result.slo_timeline)
        assert result.telemetry["log"]["records_emitted"] > 0
