"""Tests for the §5.2 network-delay ranking extension."""

import pytest

from repro.core import (
    NETWORK_DELAY_SLOT,
    LoadStatus,
    NetworkAwareResolver,
    parse_delay_cap,
)
from repro.core.constraints import Operator
from repro.persistence import (
    DefaultBindingResolver,
    NodeSample,
    NodeStateStore,
)
from repro.rim import Service, ServiceBinding
from repro.sim.network import LatencyModel
from repro.soap import SimTransport
from repro.util.errors import ConstraintSyntaxError
from repro.util.ids import IdFactory

ids = IdFactory(60)


def make_bindings(service_id, hosts):
    return [
        ServiceBinding(ids.new_id(), service=service_id, access_uri=f"http://{h}:8080/svc")
        for h in hosts
    ]


@pytest.fixture
def transport():
    latency = LatencyModel(default_latency=0.010)
    latency.set_latency("client", "near.x", 0.001)
    latency.set_latency("client", "far.x", 0.200)
    return SimTransport(latency=latency)


class TestParseDelayCap:
    def test_valid(self):
        cap = parse_delay_cap("networkdelay ls 0.05")
        assert cap.op is Operator.LS
        assert cap.seconds == 0.05
        assert cap.satisfied_by(0.01)
        assert not cap.satisfied_by(0.1)

    def test_gr_spelling(self):
        assert parse_delay_cap("networkdelay gr 1").op is Operator.GT

    @pytest.mark.parametrize("text", ["delay ls 1", "networkdelay ls", "networkdelay ls fast"])
    def test_invalid(self, text):
        with pytest.raises(ConstraintSyntaxError):
            parse_delay_cap(text)


class TestRanking:
    def test_nearest_host_first(self, transport):
        svc = Service(ids.new_id(), name="svc")
        bindings = make_bindings(svc.id, ["far.x", "mid.x", "near.x"])
        resolver = NetworkAwareResolver(DefaultBindingResolver(), transport)
        ranked = resolver.resolve(svc, bindings)
        assert [b.host for b in ranked] == ["near.x", "mid.x", "far.x"]

    def test_cap_drops_slow_hosts(self, transport):
        svc = Service(ids.new_id(), name="svc")
        svc.add_slot(NETWORK_DELAY_SLOT, "networkdelay ls 0.05")
        bindings = make_bindings(svc.id, ["far.x", "near.x"])
        resolver = NetworkAwareResolver(DefaultBindingResolver(), transport)
        ranked = resolver.resolve(svc, bindings)
        assert [b.host for b in ranked] == ["near.x"]

    def test_cap_never_empties_answer(self, transport):
        svc = Service(ids.new_id(), name="svc")
        svc.add_slot(NETWORK_DELAY_SLOT, "networkdelay ls 0.0001")
        bindings = make_bindings(svc.id, ["far.x", "near.x"])
        resolver = NetworkAwareResolver(DefaultBindingResolver(), transport)
        ranked = resolver.resolve(svc, bindings)
        assert len(ranked) == 2  # fallback: ranked, not filtered

    def test_load_weight_combines_with_delay(self, transport):
        node_state = NodeStateStore()
        node_state.record_sample(
            NodeSample(host="near.x", load=10.0, memory=1, swap_memory=1, updated=0.0)
        )
        node_state.record_sample(
            NodeSample(host="mid.x", load=0.0, memory=1, swap_memory=1, updated=0.0)
        )
        load_status = LoadStatus(node_state)
        svc = Service(ids.new_id(), name="svc")
        bindings = make_bindings(svc.id, ["near.x", "mid.x"])
        resolver = NetworkAwareResolver(
            DefaultBindingResolver(),
            transport,
            load_status=load_status,
            load_weight=0.05,
        )
        ranked = resolver.resolve(svc, bindings)
        # near.x: 0.001 + 10*0.05 = 0.501; mid.x: 0.010 + 0 = 0.010
        assert [b.host for b in ranked] == ["mid.x", "near.x"]

    def test_composes_with_base_resolver(self, transport):
        svc = Service(ids.new_id(), name="svc")
        bindings = make_bindings(svc.id, ["far.x", "near.x"])

        class OnlyFar:
            def resolve(self, service, bs):
                return [b for b in bs if b.host == "far.x"]

        resolver = NetworkAwareResolver(OnlyFar(), transport)
        ranked = resolver.resolve(svc, bindings)
        assert [b.host for b in ranked] == ["far.x"]
