"""Tests for the cost-attribution plane: queue-wait/stage/hop splits.

Every request's wall time decomposes into ``queue_wait + stage +
forward_hop == total`` by construction; these tests pin the
identity, the serving queue-wait accounting, the forwarded-request trace
stitching (one trace id, one hop, hop time on the routing span), and the
trace-restart satellite for malformed-but-present traceparents.
"""

import pytest

from repro.obs.trace import format_traceparent
from repro.registry import RegistryConfig, RegistryFederation, RegistryServer
from repro.registry.kernel import EdgeProfile
from repro.rim import Organization
from repro.serving import ServingConfig, ServingSupervisor
from repro.serving.worker import RegistryWorker, WorkItem
from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.soap.messages import GetRegistryObjectRequest
from repro.util.clock import ManualClock


class TickingClock:
    """``now()`` advances a fixed tick per call — every span gets duration."""

    def __init__(self, tick: float = 0.001) -> None:
        self.t = 0.0
        self.tick = tick

    def now(self) -> float:
        self.t += self.tick
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


def _edge(registry):
    """A minimal trusted edge (guest session, no read gate)."""
    return EdgeProfile(
        name="test",
        authenticate=lambda ctx, spec: registry.guest(),
        enforce_read_gate=False,
    )


def _publish(registry, name="AttributedOrg", object_id=None):
    _, credential = registry.register_user(f"user-{name}")
    session = registry.login(credential)
    org = Organization(object_id or registry.ids.new_id(), name=name)
    registry.lcm.submit_objects(session, [org])
    return org


class TestAttributionSplit:
    def test_disabled_by_default(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        org = _publish(registry)
        registry.kernel.execute(_edge(registry), body=GetRegistryObjectRequest(org.id))
        stats = registry.telemetry.attribution_stats()
        assert stats["enabled"] is False
        assert stats["requests"] == 0
        text = registry.telemetry.render_prometheus()
        assert "repro_request_cost_seconds" not in text
        assert "repro_request_stage_seconds" not in text

    def test_components_sum_to_total_exactly(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        registry.enable_attribution()
        registry.enable_tracing()
        org = _publish(registry)
        registry.kernel.execute(
            _edge(registry),
            body=GetRegistryObjectRequest(org.id),
            tags={"queue_wait_s": 2.0},
        )
        attr = registry.telemetry.tracer.last_trace().tags["attribution"]
        assert attr["queue_wait_s"] == 2.0
        assert attr["forward_hop_s"] == 0.0
        assert attr["total_s"] == (
            attr["queue_wait_s"] + attr["stage_s"] + attr["forward_hop_s"]
        )
        stats = registry.telemetry.attribution_stats()
        assert stats["requests"] == 1
        assert stats["attributed_s"] == attr["total_s"]

    def test_stage_exclusives_sum_to_stage_component(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=TickingClock())
        registry.enable_attribution()
        registry.enable_tracing()
        org = _publish(registry)
        registry.kernel.execute(_edge(registry), body=GetRegistryObjectRequest(org.id))
        attr = registry.telemetry.tracer.last_trace().tags["attribution"]
        assert attr["stage_s"] > 0.0
        # telescoped exclusives: outermost (account) inclusive == latency,
        # so the per-stage detail re-sums to the stage component exactly
        assert sum(attr["stages"].values()) == pytest.approx(attr["stage_s"])
        assert set(attr["stages"]) >= {"account", "dispatch", "resolve"}

    def test_attribution_metric_families_appear(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        registry.enable_attribution()
        org = _publish(registry)
        registry.kernel.execute(
            _edge(registry),
            body=GetRegistryObjectRequest(org.id),
            tags={"queue_wait_s": 0.5},
        )
        text = registry.telemetry.render_prometheus()
        assert (
            'repro_request_cost_seconds_bucket{edge="test",component="queue_wait"'
            in text
        )
        assert 'repro_request_stage_seconds_bucket{stage="dispatch"' in text


class TestQueueWaitAccounting:
    def test_worker_measures_wait_from_enqueue_stamp(self):
        clock = ManualClock()
        registry = RegistryServer(
            RegistryConfig(seed=5), clock=clock, monotonic=clock
        )
        supervisor = ServingSupervisor(registry, ServingConfig(workers=1))
        worker = RegistryWorker("worker-0", registry.kernel, supervisor._queue)
        item = WorkItem(edge=supervisor.edge, kwargs={}, enqueued_at=clock.now())
        clock.advance(3.0)
        worker._measure_queue_wait(item)
        assert worker.queue_wait_count == 1
        assert worker.queue_wait_total_s == 3.0
        assert worker.queue_wait_max_s == 3.0
        assert item.kwargs["tags"]["queue_wait_s"] == 3.0
        text = registry.telemetry.render_prometheus()
        assert 'repro_serving_queue_wait_seconds_bucket{worker="worker-0"' in text

    def test_serving_stats_and_high_water(self):
        registry = RegistryServer(RegistryConfig(seed=5))
        registry.enable_attribution()
        org = _publish(registry)
        supervisor = ServingSupervisor(registry, ServingConfig(workers=2))
        with supervisor:
            futures = [
                supervisor.submit(body=GetRegistryObjectRequest(org.id))
                for _ in range(8)
            ]
            for future in futures:
                future.result(timeout=30.0)
            supervisor.drain()
            snap = supervisor.serving_stats()
        assert snap["queue_wait"]["count"] == 8
        assert snap["queue_wait"]["total_s"] >= 0.0
        assert snap["queue_wait"]["max_s"] >= snap["queue_wait"]["mean_s"]
        assert isinstance(snap["queue_depth_high_water"], int)
        stats = registry.telemetry.attribution_stats()
        assert stats["requests"] == 8
        text = registry.telemetry.render_prometheus()
        assert "repro_serving_queue_depth_high_water" in text
        assert "repro_serving_queue_wait_seconds_count" in text


def _id_owned_by(fed, reg):
    """Mint an object id the shard map assigns to *reg*."""
    for _ in range(256):
        object_id = reg.ids.new_id()
        if fed.shard_map.owner(object_id) == reg.home:
            return object_id
    raise AssertionError("shard map never chose the target member")


class TestForwardedTraceStitching:
    def build(self):
        clock = ManualClock()
        fed = RegistryFederation("attr-fed")
        registries = []
        for i in range(2):
            registry = RegistryServer(
                RegistryConfig(
                    seed=200 + i, home=f"http://m{i}.fed:8080/omar/registry"
                ),
                clock=clock,
                monotonic=clock,
            )
            registry.enable_tracing()
            registry.enable_attribution()
            fed.join(registry)
            registries.append(registry)
        return clock, fed, registries

    def test_one_trace_one_hop_hop_time_on_routing_span(self):
        clock, fed, (home, owner) = self.build()
        object_id = _id_owned_by(fed, owner)
        _publish(owner, name="Owned", object_id=object_id)

        # the owner-side endpoint costs 0.25 s on the shared clock, so the
        # home member's forward hop has a deterministic, nonzero duration
        endpoint = fed.endpoint_for(owner.home)
        inner = fed.transport._endpoints[endpoint]

        def slow_endpoint(payload):
            clock.advance(0.25)
            return inner(payload)

        fed.transport.register_endpoint(endpoint, slow_endpoint)

        client_header = format_traceparent("ab" * 16, "cd" * 8)
        envelope = SoapEnvelope.with_session(
            GetRegistryObjectRequest(object_id), None, traceparent=client_header
        )
        response = fed.transport.request(fed.endpoint_for(home.home), envelope)
        assert not isinstance(response, SoapFault)

        home_root = home.telemetry.tracer.last_trace()
        owner_root = owner.telemetry.tracer.last_trace()
        # exactly one trace id: client → home member → owning member
        assert home_root.trace_id == "ab" * 16
        spans = [*home_root.iter_spans(), *owner_root.iter_spans()]
        assert {span.trace_id for span in spans} == {"ab" * 16}

        # exactly one hop, and the receiving side knows who forwarded
        assert fed.router_for(home.home).stats()["forwarded"] == 1
        assert fed.router_for(owner.home).stats()["forwarded"] == 0
        assert fed.router_for(owner.home).stats()["forwarded_served"] == 1
        assert owner_root.tags["forwarded_by"] == home.home
        assert home_root.tags["route"] == "forwarded"
        assert home_root.tags["route_owner"] == owner.home

        # the hop's wall time rides on the home member's routing span
        (route_span,) = home_root.find("stage:route")
        assert route_span.tags["forward_hop_s"] == pytest.approx(0.25)
        assert route_span.tags["forward_owner"] == owner.home
        assert fed.router_for(home.home).stats()[
            "forward_hop_total_s"
        ] == pytest.approx(0.25)

        # and the root attribution split carries it as the hop component
        attr = home_root.tags["attribution"]
        assert attr["forward_hop_s"] == pytest.approx(0.25)
        assert attr["total_s"] == pytest.approx(
            attr["queue_wait_s"] + attr["stage_s"] + attr["forward_hop_s"]
        )


class TestTraceRestart:
    def test_malformed_traceparent_tags_and_counts(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        registry.enable_tracing()
        org = _publish(registry)
        registry.kernel.execute(
            _edge(registry),
            body=GetRegistryObjectRequest(org.id),
            traceparent="not-a-traceparent",
        )
        root = registry.telemetry.tracer.last_trace()
        assert root.tags["trace_restarted"] is True
        assert registry.telemetry.tracer.traces_restarted == 1
        text = registry.telemetry.render_prometheus()
        assert "repro_trace_restarts_total 1" in text

    def test_restart_counter_family_absent_until_first_restart(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        registry.enable_tracing()
        org = _publish(registry)
        valid = format_traceparent("ab" * 16, "cd" * 8)
        registry.kernel.execute(
            _edge(registry),
            body=GetRegistryObjectRequest(org.id),
            traceparent=valid,
        )
        assert registry.telemetry.tracer.traces_restarted == 0
        assert "repro_trace_restarts_total" not in registry.telemetry.render_prometheus()
