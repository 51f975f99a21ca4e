"""Tests for the changelog write spine: records, coalescing, subscriptions, replay."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistence import ChangeLog, DataStore, changelog
from repro.persistence.changelog import OP_DELETE, OP_INSERT, OP_RESET, OP_SAVE
from repro.query.evaluator import QueryEngine
from repro.rim import Organization, Service, ServiceBinding
from repro.soap.serializer import serialize
from repro.util.ids import IdFactory

ids = IdFactory(77)


@pytest.fixture
def store() -> DataStore:
    return DataStore()


class TestAppend:
    def test_sequence_numbers_are_monotonic(self):
        log = ChangeLog()
        first = log.append(OP_INSERT, type_name="Service", object_id="a")
        second = log.append(OP_SAVE, type_name="Service", object_id="a")
        assert (first.seq, second.seq) == (1, 2)
        assert log.last_seq == 2
        assert len(log) == 2

    def test_records_since_slices_by_watermark(self):
        log = ChangeLog()
        for n in range(5):
            log.append(OP_INSERT, object_id=str(n))
        assert [r.object_id for r in log.records_since(3)] == ["3", "4"]
        assert log.records_since(5) == []

    def test_mutations_append_typed_records(self, store):
        svc = Service(ids.new_id(), name="Svc")
        store.insert_object(svc)
        store.save_object(Service(svc.id, name="Svc-v2"))
        store.delete_object(svc.id)
        ops = [r.op for r in store.changelog.records_since(0)]
        assert ops == [OP_INSERT, OP_SAVE, OP_DELETE]
        insert, save, delete = store.changelog.records_since(0)
        assert insert.payload.name.value == "Svc" and insert.previous is None
        assert save.payload.name.value == "Svc-v2"
        assert save.previous.name.value == "Svc"
        assert delete.payload is None and delete.previous.name.value == "Svc-v2"
        assert all(r.type_name == "Service" for r in (insert, save, delete))

    def test_save_of_new_id_logs_as_insert(self, store):
        svc = Service(ids.new_id(), name="fresh")
        store.save_object(svc)
        (record,) = store.changelog.records_since(0)
        assert record.op == OP_INSERT

    def test_records_stamped_with_published_version(self, store):
        store.insert_object(Service(ids.new_id(), name="a"))
        (record,) = store.changelog.records_since(0)
        assert record.version == store.version


class TestTransactions:
    def test_commit_flushes_buffered_records(self, store):
        a, b = Service(ids.new_id(), name="a"), Service(ids.new_id(), name="b")
        with store.transaction():
            store.insert_object(a)
            store.insert_object(b)
            # not visible until the outermost commit
            assert len(store.changelog) == 0
        assert [r.object_id for r in store.changelog.records_since(0)] == [a.id, b.id]
        assert all(r.version == store.version for r in store.changelog.records_since(0))

    def test_rollback_drops_records_and_appends_barrier(self, store):
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(Service(ids.new_id(), name="doomed"))
                raise RuntimeError("abort")
        (barrier,) = store.changelog.records_since(0)
        assert barrier.op == OP_RESET
        assert store.changelog.resets == 1


class TestCommitInOneStep:
    def test_a_reader_never_sees_part_of_a_commit(self, store):
        """Every tail a lock-free reader slices ends on a whole commit, with
        the interpreter switching threads as often as it can."""
        services = [Service(ids.new_id(), name=f"s{n}") for n in range(9000)]
        done = threading.Event()

        def write():
            try:
                for n in range(3000):
                    for _ in range(n * 7919 % 2003):  # vary where the switches land
                        pass
                    with store.transaction():
                        for svc in services[3 * n : 3 * n + 3]:
                            store.insert_object(svc)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        seen, torn = 0, 0
        try:
            writer = threading.Thread(target=write)
            writer.start()
            while not done.is_set():
                tail = store.changelog.records_since(seen)
                if len(tail) % 3:
                    torn += 1
                else:
                    seen += len(tail)
            writer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert len(store.changelog) == 9000
        assert torn == 0


class TestBatching:
    """A transaction publishes one generation and coalesces its records."""

    def test_batch_publishes_one_generation(self, store):
        before = store.version
        with store.transaction():
            for n in range(4):
                store.insert_object(Service(ids.new_id(), name=f"s{n}"))
        assert store.version == before + 1  # one bump per transaction, not per op
        assert len(store.changelog) == 4

    def test_insert_then_save_coalesces_to_insert(self, store):
        svc = Service(ids.new_id(), name="v1")
        with store.transaction():
            store.insert_object(svc)
            store.save_object(Service(svc.id, name="v2"))
        (record,) = store.changelog.records_since(0)
        assert record.op == OP_INSERT
        assert record.payload.name.value == "v2"
        assert store.coalesced_writes == 1
        assert store.batched_writes == 2

    def test_insert_then_delete_coalesces_to_nothing(self, store):
        svc = Service(ids.new_id(), name="ephemeral")
        with store.transaction():
            store.insert_object(svc)
            store.delete_object(svc.id)
        assert len(store.changelog) == 0
        assert store.get_object(svc.id) is None

    def test_save_then_delete_keeps_first_preimage(self, store):
        svc = Service(ids.new_id(), name="v1")
        store.insert_object(svc)
        with store.transaction():
            store.save_object(Service(svc.id, name="v2"))
            store.delete_object(svc.id)
        record = store.changelog.records_since(0)[-1]
        assert record.op == OP_DELETE
        assert record.previous.name.value == "v1"

    def test_nested_batches_join_outermost(self, store):
        before = store.version
        with store.transaction():
            store.insert_object(Service(ids.new_id(), name="outer"))
            with store.transaction():
                store.insert_object(Service(ids.new_id(), name="inner"))
        assert store.version == before + 1
        assert len(store.changelog) == 2


class TestReplay:
    def _mixed_history(self, store):
        svc = Service(ids.new_id(), name="Adder", description="d")
        store.insert_object(svc)
        for host in ("h1", "h2", "h3"):
            store.insert_object(
                ServiceBinding(
                    ids.new_id(), service=svc.id, access_uri=f"http://{host}:8080/a"
                )
            )
        store.insert_object(Organization(ids.new_id(), name="SDSU"))
        store.save_object(Service(svc.id, name="Adder-v2", description="d"))
        doomed = Service(ids.new_id(), name="doomed")
        store.insert_object(doomed)
        store.delete_object(doomed.id)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(Service(ids.new_id(), name="rolled-back"))
                raise RuntimeError("abort")
        with store.transaction():
            store.insert_object(Service(ids.new_id(), name="batched"))
        return svc

    def test_replay_reconstructs_identical_state(self, store):
        self._mixed_history(store)
        rebuilt = DataStore()
        applied = store.changelog.replay_into(rebuilt)
        assert applied == len(store.changelog) - store.changelog.resets
        assert sorted(store.all_ids()) == sorted(rebuilt.all_ids())
        for object_id in store.all_ids():
            assert serialize(rebuilt.get_object(object_id)) == serialize(
                store.get_object(object_id)
            )

    def test_replay_publishes_one_generation(self, store):
        """A replay is one transaction of the target: one version bump for the
        whole history, and still one count per record applied."""
        self._mixed_history(store)
        rebuilt = DataStore()
        before = rebuilt.version
        applied = store.changelog.replay_into(rebuilt)
        assert applied == len(store.changelog) - store.changelog.resets > 1
        assert rebuilt.version == before + 1
        assert sorted(rebuilt.all_ids()) == sorted(store.all_ids())

    def test_replayed_store_answers_queries_bit_identically(self, store):
        self._mixed_history(store)
        rebuilt = DataStore()
        store.changelog.replay_into(rebuilt)
        queries = [
            "SELECT * FROM Service ORDER BY name",
            "SELECT * FROM ServiceBinding ORDER BY id",
            "SELECT * FROM RegistryObject ORDER BY id",
            "SELECT name FROM Service WHERE name LIKE 'Adder%'",
        ]
        source = QueryEngine(store, planner=True)
        target = QueryEngine(rebuilt, planner=True)
        for query in queries:
            assert source.execute(query) == target.execute(query), query


def _batches(records, batch_size: int):
    """*records* in contiguous chunks of *batch_size*, as a follower pulls them."""
    return [records[i : i + batch_size] for i in range(0, len(records), batch_size)]


def _assert_bit_identical(source: DataStore, rebuilt: DataStore) -> None:
    assert sorted(source.all_ids()) == sorted(rebuilt.all_ids())
    for object_id in source.all_ids():
        assert serialize(rebuilt.get_object(object_id)) == serialize(
            source.get_object(object_id)
        )


class TestReplayProperties:
    """Satellite property: batch-size-agnostic replay, rollback isolation."""

    def _mixed_store(self) -> DataStore:
        store = DataStore()
        svc = Service(ids.new_id(), name="Adder")
        store.insert_object(svc)
        for n in range(3):
            store.insert_object(
                ServiceBinding(
                    ids.new_id(), service=svc.id, access_uri=f"http://h{n}:8080/a"
                )
            )
        store.save_object(Service(svc.id, name="Adder-v2"))
        doomed = Service(ids.new_id(), name="doomed")
        store.insert_object(doomed)
        store.delete_object(doomed.id)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(Service(ids.new_id(), name="rolled-back"))
                raise RuntimeError("abort")
        store.insert_object(Organization(ids.new_id(), name="SDSU"))
        return store

    @settings(max_examples=30, deadline=None)
    @given(batch_size=st.integers(min_value=1, max_value=16))
    def test_any_batch_size_rebuilds_bit_identical_store(self, batch_size):
        store = self._mixed_store()
        rebuilt = DataStore()
        for batch in _batches(store.changelog.records_since(0), batch_size):
            changelog.apply(rebuilt, batch)
        _assert_bit_identical(store, rebuilt)

    @settings(max_examples=30, deadline=None)
    @given(
        txns=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=3)),
            min_size=1,
            max_size=6,
        ),
        batch_size=st.integers(min_value=1, max_value=8),
    )
    def test_reset_barriers_isolate_rolled_back_transactions(self, txns, batch_size):
        store = DataStore()
        committed_ids, rolled_back_ids = [], []
        for n, (commit, size) in enumerate(txns):
            objects = [
                Service(ids.new_id(), name=f"txn{n}-{k}") for k in range(size)
            ]
            if commit:
                with store.transaction():
                    for obj in objects:
                        store.insert_object(obj)
                committed_ids.extend(obj.id for obj in objects)
            else:
                with pytest.raises(RuntimeError):
                    with store.transaction():
                        for obj in objects:
                            store.insert_object(obj)
                        raise RuntimeError("abort")
                rolled_back_ids.extend(obj.id for obj in objects)
        rebuilt = DataStore()
        for batch in _batches(store.changelog.records_since(0), batch_size):
            changelog.apply(rebuilt, batch)
        # rolled-back writes never reached the log, only their barriers did
        assert store.changelog.resets == sum(1 for commit, _ in txns if not commit)
        assert all(not rebuilt.contains(oid) for oid in rolled_back_ids)
        assert all(rebuilt.contains(oid) for oid in committed_ids)
        _assert_bit_identical(store, rebuilt)


class TestWriteStats:
    def test_write_stats_surface(self, store):
        with store.transaction():
            svc = Service(ids.new_id(), name="a")
            store.insert_object(svc)
            store.save_object(Service(svc.id, name="b"))
        stats = store.write_stats()
        assert stats["changelog_records"] == 1
        assert stats["last_seq"] == 1
        assert stats["batched_writes"] == 2
        assert stats["coalesced_writes"] == 1
        assert stats["coalesce_ratio"] == 0.5
        assert stats["resets"] == 0
        # `writes` counts committed records: the coalesced pair is one
        assert stats["writes"] == 1
