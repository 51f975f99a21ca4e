"""Where a request's time went: the span-tree fold behind ``attribution_stats()``.

A traced request's span tree is folded, once its root closes, into
queue-wait / stage / forward-hop sums and per-stage exclusive times.  These
tests hold the sums to an independent walk of the kept traces and pin the
identities ``attributed == queue_wait + stage + forward_hop`` and
``sum(stages) == stage``, the serving queue-wait accounting, the
forwarded-request trace stitching (one trace id, one hop, hop time on the
routing span and kept out of the route stage), and trace restarts on
malformed-but-present traceparents.
"""

import dataclasses

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


#: a minimal trusted edge (tokenless requests run as guest, no read gate)
_EDGE = EdgeProfile(name="test", enforce_read_gate=False)


def _publish(registry, name="AttributedOrg", object_id=None):
    _, credential = registry.register_user(f"user-{name}")
    session = registry.login(credential)
    org = Organization(object_id or registry.ids.new_id(), name=name)
    registry.lcm.submit_objects(session, [org])
    return org


#: the families the retired cost-attribution histograms exported
RETIRED_FAMILIES = ("repro_request_cost_seconds", "repro_request_stage_seconds")


def walk(roots):
    """The attribution sums, recomputed from the kept span trees.

    Every ``stage:`` span under ``stage:account`` (found by a full subtree
    search, not by following the chain) counts its duration less its
    ``stage:`` children's and less a hop tagged on it.
    """
    sums = dict.fromkeys(("queue_wait_s", "stage_s", "forward_hop_s"), 0.0)
    stages: dict[str, float] = {}
    for root in roots:
        (account,) = root.find("stage:account")
        hop = root.tags.get("forward_hop_s", 0.0)
        sums["queue_wait_s"] += root.tags.get("queue_wait_s", 0.0)
        sums["stage_s"] += account.duration - hop
        sums["forward_hop_s"] += hop
        for span in account.iter_spans():
            if not span.name.startswith("stage:"):
                continue
            inner = sum(
                child.duration
                for child in span.children
                if child.name.startswith("stage:")
            )
            name = span.name.split(":", 1)[1]
            stages[name] = stages.get(name, 0.0) + (
                span.duration - inner - span.tags.get("forward_hop_s", 0.0)
            )
    return sums, stages


class TestAttributionSplit:
    def test_disabled_by_default(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        org = _publish(registry)
        registry.kernel.execute(_EDGE, body=GetRegistryObjectRequest(org.id))
        stats = registry.telemetry.attribution_stats()
        assert stats["enabled"] is False
        assert stats["requests"] == 0
        assert stats["attributed_s"] == 0.0 and stats["stages"] == {}

    def test_components_sum_to_total_exactly(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=TickingClock())
        registry.enable_tracing()
        org = _publish(registry)
        registry.kernel.execute(
            _EDGE,
            body=GetRegistryObjectRequest(org.id),
            tags={"queue_wait_s": 2.0},
        )
        root = registry.telemetry.tracer.last_trace()
        assert root.tags["queue_wait_s"] == 2.0
        assert "forward_hop_s" not in root.tags
        stats = registry.telemetry.attribution_stats()
        assert stats["enabled"] is True and stats["requests"] == 1
        assert stats["queue_wait_s"] == 2.0 and stats["forward_hop_s"] == 0.0
        (account,) = root.find("stage:account")
        assert stats["stage_s"] == account.duration
        assert stats["attributed_s"] == (
            stats["queue_wait_s"] + stats["stage_s"] + stats["forward_hop_s"]
        )

    def test_stage_exclusives_sum_to_stage_component(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=TickingClock())
        registry.enable_tracing()
        org = _publish(registry)
        registry.kernel.execute(_EDGE, body=GetRegistryObjectRequest(org.id))
        stats = registry.telemetry.attribution_stats()
        assert stats["stage_s"] > 0.0
        # telescoped exclusives: the stages re-sum to the account span
        assert sum(stats["stages"].values()) == pytest.approx(stats["stage_s"])
        assert set(stats["stages"]) >= {"account", "dispatch", "resolve"}
        assert all(seconds > 0.0 for seconds in stats["stages"].values())

    def test_attribution_metric_families_are_gone(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=TickingClock())
        registry.enable_tracing()
        registry.enable_history()
        org = _publish(registry)
        registry.kernel.execute(
            _EDGE,
            body=GetRegistryObjectRequest(org.id),
            tags={"queue_wait_s": 0.5},
        )
        assert registry.telemetry.attribution_stats()["requests"] == 1
        text = registry.telemetry.render_prometheus()
        for family in RETIRED_FAMILIES:
            assert family not in text
        assert not [
            name
            for name in registry.telemetry.history.names()
            if name.startswith("attribution.")
        ]

    def test_stats_equal_an_independent_walk_of_the_traces(self):
        registry = RegistryServer(
            RegistryConfig(seed=5), clock=ManualClock(), monotonic=TickingClock()
        )
        registry.enable_tracing()
        org = _publish(registry)
        # a fault comes back as the response, as on the SOAP edge
        edge = dataclasses.replace(_EDGE, fault_mapper=lambda error: error)
        for body, tags in (
            (GetRegistryObjectRequest(org.id), {"queue_wait_s": 0.125}),
            (GetRegistryObjectRequest("urn:uuid:missing"), None),
            (object(), {"queue_wait_s": 0.5}),
            (GetRegistryObjectRequest(org.id), None),
        ):
            registry.kernel.execute(edge, body=body, tags=tags)
        traces = list(registry.telemetry.tracer.traces)
        assert len(traces) == 4
        sums, stages = walk(traces)
        stats = registry.telemetry.attribution_stats()
        assert stats["requests"] == 4
        for key, seconds in sums.items():
            assert stats[key] == pytest.approx(seconds)
        assert stats["stages"] == pytest.approx(stages)
        assert sum(stats["stages"].values()) == pytest.approx(stats["stage_s"])
        assert stats["attributed_s"] == (
            stats["queue_wait_s"] + stats["stage_s"] + stats["forward_hop_s"]
        )


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
        registry.enable_tracing()
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

        # the root span carries it as the hop component, and the fold keeps
        # it out of the route stage: on this clock only the hop took time
        assert home_root.tags["forward_hop_s"] == pytest.approx(0.25)
        assert route_span.duration == pytest.approx(0.25)
        stats = home.telemetry.attribution_stats()
        assert stats["forward_hop_s"] == pytest.approx(0.25)
        assert stats["stages"]["route"] == pytest.approx(0.0)
        assert stats["stage_s"] == pytest.approx(0.0)
        assert stats["attributed_s"] == (
            stats["queue_wait_s"] + stats["stage_s"] + stats["forward_hop_s"]
        )


class TestTraceRestart:
    def test_malformed_traceparent_tags_and_counts(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        registry.enable_tracing()
        org = _publish(registry)
        registry.kernel.execute(
            _EDGE,
            body=GetRegistryObjectRequest(org.id),
            traceparent="not-a-traceparent",
        )
        root = registry.telemetry.tracer.last_trace()
        assert root.tags["trace_restarted"] is True
        assert registry.telemetry.tracer.traces_restarted == 1
        # counted in the tracer's snapshot, which ``repro stats`` prints
        assert registry.telemetry.snapshot()["tracer"]["traces_restarted"] == 1
        assert "repro_trace_restarts_total" not in registry.telemetry.render_prometheus()

    def test_valid_traceparent_restarts_nothing(self):
        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        registry.enable_tracing()
        org = _publish(registry)
        valid = format_traceparent("ab" * 16, "cd" * 8)
        registry.kernel.execute(
            _EDGE,
            body=GetRegistryObjectRequest(org.id),
            traceparent=valid,
        )
        root = registry.telemetry.tracer.last_trace()
        assert root.trace_id == "ab" * 16 and "trace_restarted" not in root.tags
        assert registry.telemetry.tracer.traces_restarted == 0
