"""Tests for the simulated transport: routing, latency accounting, faults."""

import pytest

from repro.sim.network import LatencyModel
from repro.soap import RetryPolicy, SimTransport
from repro.util.errors import TransportError


@pytest.fixture
def transport() -> SimTransport:
    t = SimTransport()
    t.register_endpoint("http://a.x:8080/svc", lambda req: ("a", req))
    t.register_endpoint("http://b.x:8080/svc", lambda req: ("b", req))
    return t


class TestRouting:
    def test_request_reaches_handler(self, transport):
        assert transport.request("http://a.x:8080/svc", "ping") == ("a", "ping")

    def test_unknown_endpoint(self, transport):
        with pytest.raises(TransportError, match="no endpoint"):
            transport.request("http://c.x:8080/svc", "ping")

    def test_unregister(self, transport):
        transport.unregister_endpoint("http://a.x:8080/svc")
        with pytest.raises(TransportError):
            transport.request("http://a.x:8080/svc", "ping")

    def test_endpoints_listing(self, transport):
        assert transport.endpoints() == ["http://a.x:8080/svc", "http://b.x:8080/svc"]


class TestFaultInjection:
    def test_down_host_unreachable(self, transport):
        transport.set_host_down("a.x")
        with pytest.raises(TransportError, match="unreachable"):
            transport.request("http://a.x:8080/svc", "ping")
        # other hosts unaffected
        transport.request("http://b.x:8080/svc", "ping")

    def test_host_recovery(self, transport):
        transport.set_host_down("a.x")
        transport.set_host_down("a.x", down=False)
        transport.request("http://a.x:8080/svc", "ping")

    def test_is_host_down(self, transport):
        transport.set_host_down("a.x")
        assert transport.is_host_down("a.x")
        assert not transport.is_host_down("b.x")


class TestStats:
    def test_requests_counted(self, transport):
        transport.request("http://a.x:8080/svc", 1)
        transport.request("http://a.x:8080/svc", 2)
        transport.request("http://b.x:8080/svc", 3)
        assert transport.stats.requests == 3
        assert transport.stats.per_endpoint["http://a.x:8080/svc"] == 2

    def test_failures_counted(self, transport):
        transport.set_host_down("a.x")
        with pytest.raises(TransportError):
            transport.request("http://a.x:8080/svc", 1)
        assert transport.stats.failures == 1


class TestLatency:
    def test_latency_recorded(self):
        model = LatencyModel(default_latency=0.01)
        t = SimTransport(latency=model)
        t.register_endpoint("http://a.x/svc", lambda req: req)
        t.request("http://a.x/svc", "ping")
        assert t.stats.total_latency == pytest.approx(0.02)  # round trip

    def test_estimated_delay_uses_base(self):
        model = LatencyModel(default_latency=0.01)
        model.set_latency("client", "a.x", 0.2)
        t = SimTransport(latency=model)
        assert t.estimated_delay("http://a.x/svc") == 0.2
        assert t.estimated_delay("http://b.x/svc") == 0.01


class TestRetryPolicy:
    def test_backoff_schedule_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0, backoff_cap=0.15)
        assert policy.backoff_for(0) == pytest.approx(0.05)
        assert policy.backoff_for(1) == pytest.approx(0.10)
        assert policy.backoff_for(2) == pytest.approx(0.15)  # capped
        assert policy.backoff_for(9) == pytest.approx(0.15)

    def test_default_policy_means_no_retries(self, transport):
        # parity default: SimTransport() without a policy fails fast
        transport.set_host_down("a.x")
        with pytest.raises(TransportError):
            transport.request("http://a.x:8080/svc", "ping")
        assert transport.stats.retries == 0
        assert transport.retry_budget_remaining() is None

    def test_retry_recovers_after_transient_failure(self):
        calls = {"n": 0}

        def flaky(req):
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransportError("transient")
            return "ok"

        t = SimTransport(retry=RetryPolicy(max_attempts=3))
        t.register_endpoint("http://a.x/svc", flaky)
        assert t.request("http://a.x/svc", "ping") == "ok"
        assert t.stats.retries == 2
        assert t.stats.requests == 3
        assert t.stats.failures == 2

    def test_retries_exhausted_reraises(self):
        t = SimTransport(retry=RetryPolicy(max_attempts=3))
        t.register_endpoint("http://a.x/svc", lambda req: req)
        t.set_host_down("a.x")
        with pytest.raises(TransportError, match="unreachable"):
            t.request("http://a.x/svc", "ping")
        assert t.stats.requests == 3  # every attempt accounted
        assert t.stats.retries == 2

    def test_backoff_charged_to_stats(self):
        t = SimTransport(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.1, backoff_factor=2.0)
        )
        t.register_endpoint("http://a.x/svc", lambda req: req)
        t.set_host_down("a.x")
        with pytest.raises(TransportError):
            t.request("http://a.x/svc", "ping")
        assert t.stats.backoff_total == pytest.approx(0.1 + 0.2)

    def test_budget_caps_total_retries_across_requests(self):
        t = SimTransport(retry=RetryPolicy(max_attempts=5, budget=3))
        t.register_endpoint("http://a.x/svc", lambda req: req)
        t.set_host_down("a.x")
        with pytest.raises(TransportError):
            t.request("http://a.x/svc", "one")  # burns 3 retries, hits budget
        assert t.stats.retries == 3
        assert t.retry_budget_remaining() == 0
        with pytest.raises(TransportError):
            t.request("http://a.x/svc", "two")  # budget gone: fails fast
        assert t.stats.retries == 3


class TestEndpointFailureAttribution:
    def test_failures_attributed_per_endpoint(self, transport):
        transport.set_host_down("a.x")
        for _ in range(2):
            with pytest.raises(TransportError):
                transport.request("http://a.x:8080/svc", "ping")
        transport.request("http://b.x:8080/svc", "ping")
        assert transport.endpoint_failures() == {"http://a.x:8080/svc": 2}
        stats, a, b = transport.transport_stats(), "http://a.x:8080/svc", "http://b.x:8080/svc"
        assert stats["per_endpoint"] == {a: 2, b: 1}
        assert stats["per_endpoint_failures"] == {a: 2}
        # no retry, backoff, recovery or exhausted budget on either: 0 for both
        for key in ("retries", "backoff_s", "recovered", "exhausted"):
            assert stats[f"per_endpoint_{key}"] == {}, key

    def test_unknown_endpoint_failure_attributed(self, transport):
        with pytest.raises(TransportError, match="no endpoint"):
            transport.request("http://c.x:8080/svc", "ping")
        assert transport.endpoint_failures() == {"http://c.x:8080/svc": 1}

    def test_handler_transport_error_attributed(self):
        t = SimTransport()
        t.register_endpoint(
            "http://a.x/svc", lambda req: (_ for _ in ()).throw(TransportError("boom"))
        )
        with pytest.raises(TransportError, match="boom"):
            t.request("http://a.x/svc", "ping")
        assert t.transport_stats()["per_endpoint_failures"]["http://a.x/svc"] == 1

    def test_never_failed_endpoint_absent_from_failures(self, transport):
        transport.request("http://a.x:8080/svc", "ping")
        assert transport.endpoint_failures() == {}
