"""Tests for the NodeState monitoring table (thesis Figure 3.2)."""

import pytest

from repro.persistence import DataStore, NodeSample, NodeStateStore


@pytest.fixture
def node_state() -> NodeStateStore:
    return NodeStateStore(DataStore())


def sample(host="exergy.sdsu.edu", load=0.5, memory=4 << 30, swap=2 << 30, updated=0.0):
    return NodeSample(host=host, load=load, memory=memory, swap_memory=swap, updated=updated)


class TestRecording:
    def test_record_and_get(self, node_state):
        node_state.record_sample(sample())
        got = node_state.get("exergy.sdsu.edu")
        assert got.load == 0.5
        assert got.memory == 4 << 30

    def test_record_overwrites_previous(self, node_state):
        node_state.record_sample(sample(load=0.5, updated=0.0))
        node_state.record_sample(sample(load=3.0, updated=25.0))
        assert len(node_state) == 1
        got = node_state.get("exergy.sdsu.edu")
        assert got.load == 3.0
        assert got.updated == 25.0

    def test_missing_host_returns_none(self, node_state):
        assert node_state.get("nope") is None

    def test_remove(self, node_state):
        node_state.record_sample(sample())
        node_state.remove("exergy.sdsu.edu")
        assert node_state.get("exergy.sdsu.edu") is None
        node_state.remove("exergy.sdsu.edu")  # idempotent

    def test_hosts_sorted(self, node_state):
        node_state.record_sample(sample(host="zeta"))
        node_state.record_sample(sample(host="alpha"))
        assert node_state.hosts() == ["alpha", "zeta"]


class TestFreshness:
    def test_fresh_samples_filters_by_age(self, node_state):
        node_state.record_sample(sample(host="old", updated=0.0))
        node_state.record_sample(sample(host="new", updated=90.0))
        fresh = node_state.fresh_samples(now=100.0, max_age=25.0)
        assert [s.host for s in fresh] == ["new"]

    def test_no_max_age_returns_all(self, node_state):
        node_state.record_sample(sample(host="old", updated=0.0))
        assert len(node_state.fresh_samples(now=1e9, max_age=None)) == 1

    def test_boundary_age_is_fresh(self, node_state):
        node_state.record_sample(sample(host="edge", updated=75.0))
        fresh = node_state.fresh_samples(now=100.0, max_age=25.0)
        assert [s.host for s in fresh] == ["edge"]


class TestRowMapping:
    def test_round_trip(self):
        s = sample(load=1.25, updated=12.5)
        assert NodeSample.from_row(s.as_row()) == s

    def test_shares_datastore_table(self):
        store = DataStore()
        a = NodeStateStore(store)
        b = NodeStateStore(store)
        a.record_sample(sample())
        assert b.get("exergy.sdsu.edu") is not None


class TestGeneration:
    """Reads share one ``host → sample`` map per table version."""

    def test_reads_between_writes_share_the_samples(self, node_state):
        node_state.record_samples([sample("a"), sample("b")])
        assert node_state.get("a") is node_state.get("a")
        assert node_state.all_samples()[0] is node_state.get("a")
        assert node_state.generation() == (node_state.version, node_state.generation()[1])

    def test_every_kind_of_write_starts_a_new_generation(self):
        store = DataStore()
        node_state, other = NodeStateStore(store), NodeStateStore(store)
        node_state.record_sample(sample("a", load=1.0))
        assert node_state.get("a").load == 1.0
        other.record_sample(sample("a", load=2.0))  # a second facade
        assert node_state.get("a").load == 2.0
        store.table("NodeState").update("a", {"LOAD": 3.0})  # a direct table write
        assert node_state.get("a").load == 3.0
        with pytest.raises(RuntimeError):
            with store.transaction():
                node_state.record_samples([sample("a", load=4.0), sample("b")])
                assert node_state.get("a").load == 4.0 and len(node_state.all_samples()) == 2
                raise RuntimeError("abort")
        assert node_state.get("a").load == 3.0 and node_state.get("b") is None
        node_state.remove("a")
        node_state.remove("a")  # absent: nothing to do
        assert node_state.get("a") is None and node_state.all_samples() == []

    def test_empty_sweep_stores_nothing(self, node_state):
        node_state.record_samples([])
        assert len(node_state) == 0 and node_state.all_samples() == []
