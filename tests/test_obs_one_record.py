"""One number, one place.

A finished request is recorded once, into the request-latency histogram
(plus the fault-code counter on a fault); ``pipeline_stats()`` is a view of
the instruments, and ``attribution_stats()`` the fold of the traced
requests' span trees.  These tests pin the views to the exposition on a
fully mounted registry, replay a fixed request list against a recorded
snapshot, hold the documented family table to what ``/metrics`` renders,
hold every labelled family to its series budget, and check that a scrape
names exactly the families of the sources mounted when it is taken.
"""

import math
import pathlib
import re

import pytest

from repro.core import attach_load_balancer
from repro.obs import parse_exposition
from repro.registry import RegistryConfig, RegistryFederation, RegistryServer
from repro.registry.kernel import UNRESOLVED_OPERATION, EdgeProfile, OperationSpec
from repro.rim import Organization, host_of_uri
from repro.serving import ServingConfig, ServingSupervisor
from repro.soap import GetRegistryObjectRequest, HttpGetBinding, SoapEnvelope, SoapFault
from repro.util.clock import ManualClock, SimClockAdapter
from repro.util.errors import (
    AuthorizationError,
    InvalidRequestError,
    error_code_registry,
)
from repro.util.workers import CALLER_WORKER_LABEL, MAIN_WORKER_LABEL

from conftest import publish_nodestatus, publish_service_with_bindings

CONSTRAINT = "<constraint><cpuLoad>load ls 4.0</cpuLoad></constraint>"
DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "observability.md"

BALANCER_FAMILIES = (
    "repro_monitor_collections_total",
    "repro_transport_requests_total",
    "repro_resolver_resolutions_total",
    "repro_constraint_cache_misses_total",
)


def families(text: str) -> set[str]:
    """Every family a scrape announces, with or without series."""
    return set(re.findall(r"^# TYPE (\S+) ", text, flags=re.MULTILINE))


def summed(parsed, name, **fixed):
    """Σ of *name*'s series whose labels include *fixed*, in label order."""
    return sum(
        value
        for labels, value in sorted(parsed.get(name, {}).items(), key=lambda kv: sorted(kv[0]))
        if fixed.items() <= dict(labels).items()
    )


@pytest.fixture
def mounted(engine, transport):
    """A registry with every source mounted and every kind of request served:
    balancer attached, fleet started, tracing on, inline, queued,
    faulted, forwarded and trace-restarting requests."""
    fed = RegistryFederation("one-record")
    home, owner = (
        RegistryServer(
            RegistryConfig(seed=300 + i, home=f"http://m{i}.fed:8080/omar/registry"),
            clock=SimClockAdapter(engine),
        )
        for i in range(2)
    )
    for member in (home, owner):
        fed.join(member)
    _, credential = home.register_user("admin", roles={"RegistryAdministrator"})
    admin = home.login(credential)
    publish_nodestatus(home, admin)
    local, service = publish_service_with_bindings(home, admin, description=CONSTRAINT)
    balancer = attach_load_balancer(home, transport, engine, start_monitor=False)
    balancer.monitor.collect_once()
    home.enable_tracing()

    owned_id = next(
        object_id
        for object_id in (owner.ids.new_id() for _ in range(256))
        if fed.shard_map.owner(object_id) == owner.home
    )
    _, credential = owner.register_user("publisher")
    owner.lcm.submit_objects(owner.login(credential), [Organization(owned_id, name="Owned")])

    supervisor = ServingSupervisor(home, ServingConfig(workers=2)).start()
    for _ in range(3):
        supervisor.call(body=GetRegistryObjectRequest(local.id))  # inline: "caller"
    supervisor.submit(body=GetRegistryObjectRequest(local.id)).result(timeout=30.0)
    supervisor.drain()
    home.qm.get_access_uris(service.id)  # one ranking
    http = HttpGetBinding(home)
    http.get("http://x/omar?interface=QueryManager&method=mystery")  # fault
    http.get(
        "http://x/omar?interface=QueryManager&method=getRegistryObject"
        f"&param-id={local.id}",
        headers={"traceparent": "not-a-traceparent"},  # restarts the trace
    )
    forwarded = fed.transport.request(
        fed.endpoint_for(home.home),
        SoapEnvelope.with_session(GetRegistryObjectRequest(owned_id), None),
    )
    assert not isinstance(forwarded, SoapFault)
    assert fed.router_for(home.home).stats()["forwarded"] == 1
    yield home, supervisor, balancer
    supervisor.close()


class TestViewsEqualTheExposition:
    def test_pipeline_stats_is_the_latency_histogram_summed_over_worker(self, mounted):
        home, _supervisor, _balancer = mounted
        parsed = parse_exposition(home.telemetry.render_prometheus())
        stats = home.pipeline_stats()
        assert set(stats) == {"http", "serving", "soap"}
        for edge, ops in stats.items():
            for operation, op in ops.items():
                key = {"edge": edge, "operation": operation}
                assert op["count"] == summed(
                    parsed, "repro_request_latency_seconds_count", **key
                )
                assert op["total_latency_s"] == summed(
                    parsed, "repro_request_latency_seconds_sum", **key
                )
                assert op["faults"] == summed(
                    parsed, "repro_pipeline_fault_codes_total", **key
                )
                for code, n in op["fault_codes"].items():
                    assert n == summed(
                        parsed, "repro_pipeline_fault_codes_total", code=code, **key
                    )
        assert stats["http"]["<unresolved>"]["faults"] == 1
        assert stats["serving"]["getRegistryObject"]["count"] == 4
        # per worker, the same numbers before the sum
        per_worker = home.pipeline_stats(per_worker=True)
        assert set(per_worker) >= {"caller", "main"}
        assert per_worker["caller"]["serving"]["getRegistryObject"]["count"] == 3
        assert sum(
            tree["serving"]["getRegistryObject"]["count"]
            for tree in per_worker.values()
            if "serving" in tree
        ) == 4

    def test_attribution_stats_is_the_span_fold(self, mounted):
        home, _supervisor, _balancer = mounted
        attr = home.telemetry.attribution_stats()
        # every request ran traced, so every one was folded
        assert attr["requests"] == sum(
            op["count"] for ops in home.pipeline_stats().values() for op in ops.values()
        )
        assert attr["forward_hop_s"] > 0.0 and attr["queue_wait_s"] >= 0.0
        assert attr["attributed_s"] == (
            attr["queue_wait_s"] + attr["stage_s"] + attr["forward_hop_s"]
        )
        assert set(attr["stages"]) >= {"account", "route", "dispatch"}
        assert sum(attr["stages"].values()) == pytest.approx(attr["stage_s"])
        # a view of the span trees, not an exported family
        text = home.telemetry.render_prometheus()
        assert "repro_request_cost_seconds" not in text
        assert "repro_request_stage_seconds" not in text

    def test_every_exported_sample_is_its_sources_snapshot_value(self, mounted, transport):
        home, _supervisor, balancer = mounted
        # a failed probe, so the per-endpoint family has series to compare
        transport.set_host_down(host_of_uri(transport.endpoints()[0]))
        balancer.monitor.collect_once()
        telemetry = home.telemetry
        text = telemetry.render_prometheus()
        parsed = parse_exposition(text)
        snapshot = telemetry.snapshot()
        exported = set()
        for source in telemetry.sources():
            for export in telemetry.exports(source):
                value = snapshot[source][export.key]
                if export.label is None:
                    expected = {frozenset(): value}
                else:
                    assert value, export.family
                    expected = {
                        frozenset({(export.label, label_value)}): number
                        for label_value, number in value.items()
                    }
                assert parsed[export.family] == expected, export.family
                exported.add(export.family)
        assert {
            "repro_resolver_resolutions_total",
            "repro_resolver_balanced_resolutions_total",
            "repro_transport_endpoint_failures_total",
        } <= exported
        # every family of the scrape is pushed or some source's export
        pushed = {metric.name for metric in telemetry.metrics.metrics()}
        assert families(text) == pushed | exported

    def test_documented_family_table_is_what_metrics_renders(self, mounted):
        home, _supervisor, _balancer = mounted
        section = DOC.read_text(encoding="utf-8").split("## Metric families", 1)[1]
        table = section.split("\n## ", 1)[0]
        documented = set()
        for row in re.findall(r"^\| `(repro_[^`]+)` \|", table, flags=re.MULTILINE):
            if "<counter>" in row:
                documented |= {
                    row.replace("<counter>", key) for key in home.qm.query_plan_stats()
                }
            else:
                documented.add(row)
        assert documented == families(home.telemetry.render_prometheus())
        # every row says who reads it
        for line in table.splitlines():
            if line.startswith("| `repro_"):
                assert len(line.strip("|").split("|")) == 5, line


#: (edge, operation or None for a body no operation takes, seconds, fault)
REPLAY = (
    ("front", "lookup", 0.1, None),
    ("front", "lookup", 0.2, None),
    ("front", "lookup", 0.3, InvalidRequestError),
    ("front", "publish", 0.7, AuthorizationError),
    ("back", "lookup", 0.05, None),
    ("front", "lookup", 0.025, InvalidRequestError),
    ("back", None, 0.0, None),
    ("front", "publish", 1.5, None),
)

#: ``pipeline_stats()`` of the replay at the commit that still kept
#: PipelineStats beside the histogram — float for float
RECORDED = {
    "back": {
        "<unresolved>": {
            "count": 1,
            "faults": 1,
            "total_latency_s": 0.0,
            "mean_latency_s": 0.0,
            "min_latency_s": 0.0,
            "max_latency_s": 0.0,
            "fault_codes": {"urn:repro:error:InvalidRequest": 1},
        },
        "lookup": {
            "count": 1,
            "faults": 0,
            "total_latency_s": 0.050000000000000044,
            "mean_latency_s": 0.050000000000000044,
            "min_latency_s": 0.050000000000000044,
            "max_latency_s": 0.050000000000000044,
            "fault_codes": {},
        },
    },
    "front": {
        "lookup": {
            "count": 4,
            "faults": 2,
            "total_latency_s": 0.625,
            "mean_latency_s": 0.15625,
            "min_latency_s": 0.02499999999999991,
            "max_latency_s": 0.30000000000000004,
            "fault_codes": {"urn:repro:error:InvalidRequest": 2},
        },
        "publish": {
            "count": 2,
            "faults": 1,
            "total_latency_s": 2.2,
            "mean_latency_s": 1.1,
            "min_latency_s": 0.7,
            "max_latency_s": 1.5,
            "fault_codes": {"urn:repro:error:AuthorizationFailed": 1},
        },
    },
}


def test_manual_clock_replay_equals_the_recorded_snapshot():
    monotonic = ManualClock()
    registry = RegistryServer(
        RegistryConfig(seed=42), clock=ManualClock(), monotonic=monotonic
    )

    def handler(ctx):
        monotonic.advance(ctx.params["cost"])
        if ctx.params["error"] is not None:
            raise ctx.params["error"]("replayed fault")

    edges = {
        name: EdgeProfile(name=name, fault_mapper=lambda error: error)
        for name in ("front", "back")
    }
    specs = {
        name: OperationSpec(name=name, handler=handler) for name in ("lookup", "publish")
    }
    for edge, operation, cost, error in REPLAY:
        registry.kernel.execute(
            edges[edge],
            body=object(),
            spec=specs.get(operation),
            params={"cost": cost, "error": error},
        )
    stats = registry.pipeline_stats()
    assert stats == RECORDED
    assert [list(ops) for ops in stats.values()] == [list(ops) for ops in RECORDED.values()]
    assert registry.pipeline_stats(per_worker=True) == {"main": RECORDED}


class TestScrapeNamesTheMountedSources:
    def test_closed_supervisor_leaves_the_scrape(self, registry):
        supervisor = ServingSupervisor(registry, ServingConfig(workers=4)).start()
        before = parse_exposition(registry.telemetry.render_prometheus())
        assert before["repro_serving_accepted_total"][frozenset()] == 0
        supervisor.close()
        assert "serving" not in registry.telemetry.sources()
        after = families(registry.telemetry.render_prometheus())
        assert not {name for name in after if name.startswith("repro_serving_")}
        # what the kernel pushed stays
        assert "repro_request_latency_seconds" in after

    def test_detached_balancer_leaves_the_scrape(self, mounted):
        home, _supervisor, balancer = mounted
        before = families(home.telemetry.render_prometheus())
        assert before >= set(BALANCER_FAMILIES)
        balancer.detach(home)
        after = families(home.telemetry.render_prometheus())
        gone = before - after
        assert gone >= set(BALANCER_FAMILIES)
        assert {name.split("_")[1] for name in gone} == {
            "monitor", "transport", "resolver", "constraint"
        }
        # pushed histograms persist, and so do the sources still mounted
        assert after >= {
            "repro_request_latency_seconds",
            "repro_serving_queue_wait_seconds",
            "repro_serving_accepted_total",
            "repro_query_plans_built_total",
        }

    def test_unregistered_endpoint_leaves_the_per_endpoint_series(
        self, mounted, transport
    ):
        home, _supervisor, balancer = mounted
        for uri in transport.endpoints():
            transport.set_host_down(host_of_uri(uri))
        balancer.monitor.collect_once()  # one failed probe per endpoint
        gone, *kept = transport.endpoints()

        def endpoints() -> set[str]:
            scrape = parse_exposition(home.telemetry.render_prometheus())
            return {
                dict(labels)["endpoint"]
                for labels in scrape["repro_transport_endpoint_failures_total"]
            }

        assert endpoints() == {gone, *kept}
        transport.unregister_endpoint(gone)
        assert endpoints() == set(kept)
        assert gone not in transport.transport_stats()["per_endpoint_failures"]


class TestCardinalityBudget:
    """Every label of every exported family takes values from a bounded set
    the registry's shape fixes, however much traffic it serves."""

    def test_every_labelled_family_stays_within_its_budget(self, mounted, transport):
        home, supervisor, balancer = mounted
        # a failed probe, so the per-endpoint family has series too
        transport.set_host_down(host_of_uri(transport.endpoints()[0]))
        balancer.monitor.collect_once()
        budgets = {
            # the URIs the transport has registered
            "endpoint": set(transport.endpoints()),
            # the fleet, the serving gate's inline label, the main thread
            "worker": {
                *(f"worker-{i}" for i in range(supervisor.config.workers)),
                CALLER_WORKER_LABEL,
                MAIN_WORKER_LABEL,
            },
            # the protocol edges, and the operations one may resolve to
            "edge": {"soap", "http", "serving", "local"},
            "operation": {*home.kernel.operations(), UNRESOLVED_OPERATION},
            "code": set(error_code_registry()),
        }
        scrape = home.telemetry.collect()
        labelled = [metric for metric in scrape.metrics() if metric.labelnames]
        assert {metric.name for metric in labelled} >= {
            "repro_request_latency_seconds",
            "repro_pipeline_fault_codes_total",
            "repro_serving_queue_wait_seconds",
            "repro_transport_endpoint_failures_total",
        }
        for metric in labelled:
            assert set(metric.labelnames) <= set(budgets), metric.name
            series = [values for values, _child in metric.series()]
            assert series, metric.name
            for values in series:
                for label, value in zip(metric.labelnames, values):
                    assert value in budgets[label], (metric.name, label, value)
            assert len(series) <= math.prod(
                len(budgets[label]) for label in metric.labelnames
            ), metric.name
