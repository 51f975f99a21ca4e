"""Tests for NodeState, the monitoring store (thesis Figure 3.2)."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.persistence import DataStore, NodeSample, NodeStateStore
from repro.query import QueryEngine
from repro.registry import RegistryServer
from repro.util.errors import InvalidRequestError


@pytest.fixture
def node_state() -> NodeStateStore:
    return NodeStateStore()


def sample(host="exergy.sdsu.edu", load=0.5, memory=4 << 30, swap=2 << 30, updated=0.0):
    return NodeSample(host=host, load=load, memory=memory, swap_memory=swap, updated=updated)


def loads(node_state):
    return {host: s.load for host, s in node_state.generation()[1].items()}


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
        """A sweep that did not reach a host removes it."""
        node_state.record_sweep([sample(), sample(host="zeta")])
        node_state.record_sweep([sample(host="zeta")])
        assert node_state.get("exergy.sdsu.edu") is None
        assert [s.host for s in node_state.all_samples()] == ["zeta"]


class TestWrites:
    def test_a_write_replaces(self, node_state):
        node_state.record_sweep([sample("a", load=1.0), sample("b", load=1.0)])
        node_state.record_sample(sample("a", load=2.0))
        assert loads(node_state) == {"a": 2.0, "b": 1.0}
        assert [s.host for s in node_state.all_samples()] == ["a", "b"]  # keeps its place

    def test_one_sweep_is_one_version(self, node_state):
        node_state.record_sweep([sample("a", load=1.0), sample("b", load=1.0)])
        before = node_state.generation()[0]
        node_state.record_sweep([sample("b", load=2.0), sample("c", load=2.0)])
        assert node_state.generation()[0] == before + 1
        assert loads(node_state) == {"b": 2.0, "c": 2.0}

    def test_a_reader_holding_an_old_generation_sees_none_of_a_later_write(self, node_state):
        node_state.record_sample(sample("a", load=1.0))
        version, samples = held = node_state.generation()
        node_state.record_sweep([sample("a", load=9.0), sample("b", load=9.0)])
        node_state.record_sweep([sample("b", load=9.0)])
        assert held == (version, samples) and {h: s.load for h, s in samples.items()} == {"a": 1.0}
        assert loads(node_state) == {"b": 9.0}

    def test_a_refused_sample_leaves_the_map_untouched(self, node_state):
        node_state.record_sample(sample("a", load=1.0))
        before = node_state.generation()
        with pytest.raises(InvalidRequestError):
            node_state.record_sweep([sample("b", load=2.0), sample(None)])
        with pytest.raises(InvalidRequestError):
            node_state.record_sample(sample(None))
        assert node_state.generation() is before

    @given(
        st.lists(
            st.lists(st.tuples(st.sampled_from("abcdef"), st.floats(0.0, 8.0)), max_size=4),
            max_size=12,
        )
    )
    def test_a_host_appears_once_however_often_it_is_written(self, sweeps):
        node_state = NodeStateStore()
        latest: dict[str, float] = {}
        for n, sweep in enumerate(sweeps):
            samples = [sample(host, load=load) for host, load in sweep]
            if len(samples) == 1 and n % 2:
                node_state.record_sample(samples[0])
                latest.update(sweep)
            else:
                node_state.record_sweep(samples)
                latest = dict(sweep)
        assert len(node_state) == len(node_state.all_samples()) == len(latest)
        assert loads(node_state) == latest
        assert node_state.generation()[0] == len(sweeps)


class TestRowMapping:
    def test_round_trip(self):
        """A sample read back as a SQL row, by either engine, is the sample."""
        store = DataStore()
        s = sample(load=1.25, updated=12.5)
        store.node_state.record_sample(s)
        for planner in (True, False):
            (row,) = QueryEngine(store, planner=planner).execute("SELECT * FROM NodeState")
            assert NodeSample(
                row["host"], row["load"], row["memory"], row["swapmemory"], row["updated"]
            ) == s

    def test_shares_datastore_table(self):
        """The store owns one NodeState: the monitor's, the ranking's and SQL's."""
        registry = RegistryServer()
        assert registry.node_state is registry.store.node_state
        registry.node_state.record_sample(sample())
        rows = registry.engine.execute("SELECT HOST FROM NodeState")
        assert rows == [{"HOST": "exergy.sdsu.edu"}]


class TestGeneration:
    """Reads share one ``host → sample`` map per version."""

    def test_reads_between_writes_share_the_samples(self, node_state):
        node_state.record_sweep([sample("a"), sample("b")])
        assert node_state.get("a") is node_state.get("a")
        assert node_state.all_samples()[0] is node_state.get("a")
        assert node_state.generation() is node_state.generation()

    def test_every_kind_of_write_starts_a_new_generation(self):
        store = DataStore()
        node_state = store.node_state
        versions = [node_state.generation()[0]]
        node_state.record_sample(sample("a", load=1.0))
        versions.append(node_state.generation()[0])
        assert node_state.get("a").load == 1.0
        node_state.record_sweep([sample("a", load=2.0)])
        versions.append(node_state.generation()[0])
        assert node_state.get("a").load == 2.0
        with pytest.raises(RuntimeError):
            with store.transaction():
                node_state.record_sweep([sample("a", load=4.0), sample("b")])
                assert node_state.get("a").load == 4.0 and len(node_state.all_samples()) == 2
                raise RuntimeError("abort")
        # a rollback undoes the heap, not NodeState: the sweep stands
        assert node_state.get("a").load == 4.0 and node_state.get("b") is not None
        versions.append(node_state.generation()[0])
        node_state.record_sweep([sample("b")])
        versions.append(node_state.generation()[0])
        assert versions == sorted(set(versions))
        assert node_state.get("a") is None and [s.host for s in node_state.all_samples()] == ["b"]

    def test_empty_sweep_stores_nothing(self, node_state):
        node_state.record_sample(sample("a"))
        node_state.record_sweep([])
        assert len(node_state) == 0 and node_state.all_samples() == []


class TestRollback:
    def test_a_rollback_keeps_a_sweep_stored_while_it_was_open(self):
        """Regression: a transaction snapshotted NodeState on entry, so a
        request that rolled back rewound a sweep the monitor stored beside it
        — ``h1`` back to its old load and ``h2`` unmonitored until the next
        sweep."""
        store = DataStore()
        node_state = store.node_state
        node_state.record_sample(sample("h1", load=0.1))
        opened, swept = threading.Event(), threading.Event()

        def sweep():
            assert opened.wait(timeout=30.0)
            node_state.record_sweep([sample("h1", load=9.0), sample("h2", load=0.2)])
            swept.set()

        sweeper = threading.Thread(target=sweep)
        sweeper.start()
        try:
            with pytest.raises(RuntimeError):
                with store.transaction():
                    opened.set()
                    assert swept.wait(timeout=30.0)
                    raise RuntimeError("the request fails")
        finally:
            opened.set()
            sweeper.join(timeout=30.0)
        assert loads(node_state) == {"h1": 9.0, "h2": 0.2}


class TestConcurrentWriters:
    def test_writers_racing_each_other_lose_no_sample(self):
        """Every write copies the published map: without the writers' lock,
        two racing merges would each publish a map missing the other's host."""
        node_state = NodeStateStore()
        sweeps, hosts, writers = 60, 2, 4
        start = threading.Barrier(writers)

        def write(n):
            start.wait(timeout=30.0)
            for k in range(sweeps):
                for h in range(hosts):
                    node_state.record_sample(sample(f"w{n}-{k:02d}-{h}"))

        threads = [threading.Thread(target=write, args=(n,)) for n in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(node_state) == node_state.generation()[0] == writers * sweeps * hosts
