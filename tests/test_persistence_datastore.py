"""Tests for the DataStore: object heap, type partitions, transactions."""

import re
import threading
import tracemalloc
from contextlib import nullcontext

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.persistence import DataStore, NodeSample
from repro.persistence.datastore import _LEAF, _Run
from repro.rim import AuditableEvent, EventType, Organization, Service
from repro.util.errors import (
    InvalidRequestError,
    ObjectExistsError,
    ObjectNotFoundError,
)
from repro.util.ids import IdFactory

ids = IdFactory(10)


@pytest.fixture
def store() -> DataStore:
    return DataStore()


class TestObjectHeap:
    def test_insert_and_get_returns_copy(self, store):
        org = Organization(ids.new_id(), name="SDSU")
        store.insert_object(org)
        fetched = store.get_object(org.id)
        fetched.name.set("changed")
        assert store.get_object(org.id).name.value == "SDSU"

    def test_store_owns_copy_of_input(self, store):
        org = Organization(ids.new_id(), name="SDSU")
        store.insert_object(org)
        org.name.set("mutated-after-insert")
        assert store.get_object(org.id).name.value == "SDSU"

    def test_duplicate_insert_rejected(self, store):
        org = Organization(ids.new_id())
        store.insert_object(org)
        with pytest.raises(ObjectExistsError):
            store.insert_object(org)

    def test_save_upserts(self, store):
        org = Organization(ids.new_id(), name="v1")
        store.save_object(org)
        org2 = Organization(org.id, name="v2")
        store.save_object(org2)
        assert store.get_object(org.id).name.value == "v2"

    def test_save_rejects_type_change(self, store):
        oid = ids.new_id()
        store.save_object(Organization(oid))
        with pytest.raises(InvalidRequestError):
            store.save_object(Service(oid))

    def test_delete(self, store):
        org = Organization(ids.new_id())
        store.insert_object(org)
        store.delete_object(org.id)
        assert store.get_object(org.id) is None
        with pytest.raises(ObjectNotFoundError):
            store.delete_object(org.id)

    def test_require_object(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.require_object(ids.new_id())


class TestTypePartitions:
    def test_objects_of_type(self, store):
        store.insert_object(Organization(ids.new_id()))
        store.insert_object(Service(ids.new_id()))
        store.insert_object(Service(ids.new_id()))
        assert store.count("Service") == 2
        assert store.count("Organization") == 1
        assert store.count() == 3
        assert {o.type_name for o in store.objects_of_type("Service")} == {"Service"}

    def test_type_names_excludes_empty(self, store):
        org = Organization(ids.new_id())
        store.insert_object(org)
        store.delete_object(org.id)
        assert "Organization" not in store.type_names()

    def test_select_objects_with_predicate(self, store):
        a = Organization(ids.new_id(), name="A")
        b = Organization(ids.new_id(), name="B")
        store.insert_object(a)
        store.insert_object(b)
        found = store.select_objects("Organization", lambda o: o.name.value == "B")
        assert [o.id for o in found] == [b.id]


class TestTransactions:
    def test_commit_keeps_changes(self, store):
        org = Organization(ids.new_id())
        with store.transaction():
            store.insert_object(org)
        assert store.contains(org.id)

    def test_rollback_on_error(self, store):
        pre = Organization(ids.new_id(), name="pre")
        store.insert_object(pre)
        org = Organization(ids.new_id())
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(org)
                store.delete_object(pre.id)
                raise RuntimeError("boom")
        assert not store.contains(org.id)
        assert store.contains(pre.id)

    def test_nested_transactions_join_outer(self, store):
        org1 = Organization(ids.new_id())
        org2 = Organization(ids.new_id())
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(org1)
                with store.transaction():
                    store.insert_object(org2)
                raise RuntimeError("boom")
        assert not store.contains(org1.id)
        assert not store.contains(org2.id)

    def test_inner_success_outer_failure_rolls_back_both(self, store):
        org = Organization(ids.new_id())
        with store.transaction():
            with store.transaction():
                store.insert_object(org)
        assert store.contains(org.id)

    def test_transaction_then_batch_then_nested_transaction_rolls_back(self, store):
        # batch() is the transaction's old name: both nest into the
        # outermost transaction, whose rollback takes every write back
        org = Organization(ids.new_id())
        with pytest.raises(RuntimeError):
            with store.transaction():
                with store.batch():
                    with store.transaction():
                        store.insert_object(org)
                    raise RuntimeError("boom")
        assert not store.contains(org.id)

    def test_a_rollback_publishes_no_generation(self, store, monkeypatch):
        """Lock-free index readers never see a rolled-back write: the
        transaction publishes nothing, and the version does not move."""
        kept = Organization(ids.new_id(), name="kept")
        store.insert_object(kept)
        published = record_publications(store, monkeypatch)
        before = store.version
        doomed = Organization(ids.new_id(), name="doomed")
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(doomed)
                store.save_object(Organization(kept.id, name="renamed"))
                raise RuntimeError("abort")
        assert [ids for ids in published if doomed.id in ids] == []
        assert published == [] and store.version == before
        assert store.find_ids_by_name("Organization", "kept") == [kept.id]
        assert store.get_view(kept.id).name.value == "kept"


    def test_count_reads_the_committed_generation(self, store):
        """``count()`` is an index read like ``count(type)``: another thread's
        open transaction's insert is not counted, before or after it rolls
        back."""
        store.insert_object(Service(ids.new_id(), name="committed"))
        inserted, release = threading.Event(), threading.Event()

        def open_insert():
            with pytest.raises(RuntimeError):
                with store.transaction():
                    store.insert_object(Service(ids.new_id(), name="open"))
                    inserted.set()
                    release.wait(10)
                    raise RuntimeError("abort")

        writer = threading.Thread(target=open_insert)
        writer.start()
        try:
            assert inserted.wait(10)
            assert store.count() == store.count("Service") == len(store.all_ids()) == 1
        finally:
            release.set()
            writer.join(10)
        assert store.count() == 1


def record_publications(store: DataStore, monkeypatch) -> list[set[str]]:
    """The ids of every index generation *store* publishes from now on."""
    published: list[set[str]] = []
    publish = store._publish

    def recording(ids, pairs, names):
        published.append({oid for run in ids.values() for oid in run})
        publish(ids, pairs, names)

    monkeypatch.setattr(store, "_publish", recording)
    return published


class TestWriteBudget:
    """Clock-free guard: a heap write copies a leaf, never its whole partition."""

    #: bytes one insert, renaming save or delete may allocate at its peak
    #: (a partition-wide copy of 16 000 ids is ~1 MB)
    BUDGET = 64 * 1024

    @staticmethod
    def peak_bytes(write) -> int:
        """The least tracemalloc peak of three ``write(n)`` calls: a list that
        grows inside one call (the changelog's) is not the index's copy."""
        peaks = []
        for n in range(3):
            tracemalloc.start()
            try:
                write(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return min(peaks)

    def write_peaks(self, size: int, one_name: bool) -> dict[str, int]:
        store = DataStore()
        factory = IdFactory(size)
        for n in range(size):
            store.insert_object(
                Service(factory.new_id(), name="Event" if one_name else f"S{n:05d}")
            )
        fresh = [Service(factory.new_id(), name="New") for _ in range(4)]
        renamed = [Service(obj.id, name="Renamed") for obj in fresh]
        store.insert_object(fresh.pop())  # warm: first write of a new name
        return {
            "insert": self.peak_bytes(lambda n: store.insert_object(fresh[n])),
            "rename": self.peak_bytes(lambda n: store.save_object(renamed[n])),
            "delete": self.peak_bytes(lambda n: store.delete_object(fresh[n].id)),
        }

    @pytest.mark.parametrize("one_name", [False, True], ids=["unique-names", "one-name"])
    def test_a_write_costs_a_leaf_whatever_the_partition(self, one_name):
        small = self.write_peaks(1_000, one_name)
        large = self.write_peaks(16_000, one_name)
        for write, peak in large.items():
            assert peak <= self.BUDGET, (write, peak)
            assert peak <= 2 * small[write], (write, peak, small[write])

    def test_a_bulk_transaction_builds_each_run_once(self, monkeypatch):
        """Counted, no clock: one transaction of ``3 * _LEAF + 1`` inserts of
        one type builds each of its three runs once (a run per insert and
        index would be 4 611), and a one-object write after it shares every
        leaf it does not touch with the generation before."""
        store = DataStore()
        factory = IdFactory(3)
        built: list[_Run] = []
        init = _Run.__init__

        def counting(run, *args):
            built.append(run)
            init(run, *args)

        monkeypatch.setattr(_Run, "__init__", counting)
        with store.transaction():
            for n in range(3 * _LEAF + 1):
                store.insert_object(Service(factory.new_id(), name=f"S{n:05d}"))
        assert store.count("Service") == 3 * _LEAF + 1
        assert len(built) <= 3, len(built)

        before = store._indexes
        store.insert_object(Service(factory.new_id(), name="S00100+"))
        after = store._indexes
        for runs in ("ids", "pairs", "names"):
            old, new = getattr(before, runs)["Service"], getattr(after, runs)["Service"]
            assert len(old.leaves) >= 3, runs
            shared = [leaf for leaf in old.leaves if any(leaf is kept for kept in new.leaves)]
            assert len(shared) == len(old.leaves) - 1, runs

    def test_a_transaction_does_not_copy_node_state(self):
        """Entering and committing an empty transaction allocates the same
        with 64 monitored hosts as with none: NodeState is not snapshotted.

        The first tracemalloc start/stop cycles of a process read a few
        hundred bytes high, on whichever side is measured first.  So both
        stores are built up front and the two sides alternate until each
        reads the same peak twice in a row."""
        stores = []
        for hosts in (0, 64):
            store = DataStore()
            store.node_state.record_sweep(
                NodeSample(f"h{n:02d}", 0.5, 1 << 30, 1 << 20, 0.0) for n in range(hosts)
            )
            stores.append(store)

        def empty_transaction(store):
            with store.transaction():
                pass

        last: list[int | None] = [None, None]
        for _ in range(50):
            settled = True
            for side, store in enumerate(stores):
                empty_transaction(store)  # warm
                peak = self.peak_bytes(lambda _n: empty_transaction(store))
                settled &= peak == last[side]
                last[side] = peak
            if settled:
                break
        without_hosts, with_hosts = last
        assert with_hosts == without_hosts

    def test_a_rollback_costs_what_it_touched(self):
        """Rolling back an insert, a rename and a delete allocates what those
        writes touched: no copy of the heap map, no rebuild of every run."""

        def rollback_peak(size: int) -> int:
            store = DataStore()
            factory = IdFactory(size)
            stored = [Service(factory.new_id(), name=f"S{n:05d}") for n in range(size)]
            for obj in stored:
                store.insert_object(obj)
            fresh = [Service(factory.new_id(), name="New") for _ in range(3)]
            renamed = Service(stored[size // 2].id, name="Renamed")
            victim = stored[size // 3].id

            def rolled_back(n):
                try:
                    with store.transaction():
                        store.insert_object(fresh[n])
                        store.save_object(renamed)
                        store.delete_object(victim)
                        raise RuntimeError("abort")
                except RuntimeError:
                    pass

            rolled_back(0)  # warm
            peak = self.peak_bytes(rolled_back)
            assert store.count() == size and store.contains(victim)
            return peak

        small, large = rollback_peak(1_000), rollback_peak(16_000)
        assert large <= self.BUDGET, large
        assert large <= 2 * small, (large, small)


# -- one index oracle: every read against a scan of a plain dict -------------------

#: AuditableEvent is the one-name partition (every event is unnamed)
KINDS = ("Service", "Organization", "AuditableEvent")
#: the alphabet reaches the edges of string order: "\x00" is the least
#: character, U+10FFFF the greatest (a prefix ending in it has no bump)
NAMES = st.text(alphabet="ab\x00\U0010ffff", max_size=3)
PROBE_NAMES = ["", "a", "ab", "a\x00", "b", "\U0010ffff", "a\U0010ffff", None, 5]
PREFIXES = ["", "a", "ab", "b", "\U0010ffff", "a\U0010ffff"]
#: (low, high) — reversed, equal, and at both ends of string order
RANGES = [
    ("a", "b"),
    ("b", "a"),
    ("a", "a"),
    ("a\x00", "ab"),
    ("", "\U0010ffff"),
    ("\U0010ffff", "\U0010ffff\U0010ffff"),
]
#: (literal prefix, pattern) as the planner hands a LIKE to the store
PATTERNS = [("", r".*b\Z"), ("a", r"a.?\x00.*\Z"), ("", r".*\U0010ffff\Z"), ("b", r"b\Z")]


def _new_object(kind: str, object_id: str, name: str):
    if kind == "AuditableEvent":
        return AuditableEvent(
            object_id,
            event_type=EventType.CREATED,
            affected_object="urn:affected",
            user_id="urn:user",
            timestamp=0.0,
        )
    return {"Service": Service, "Organization": Organization}[kind](object_id, name=name)


def _expected(model: dict, type_name: str) -> list[tuple[str, str]]:
    """(id, name) of the model's objects of one type, in id order — by scan."""
    return sorted((oid, name) for oid, (kind, name) in model.items() if kind == type_name)


def _check_reads(store: DataStore, model: dict, known_ids: list[str]) -> None:
    """Every index and point read of *store*, against a scan of the model."""
    assert store.type_names() == sorted({kind for kind, _ in model.values()})
    assert store.count() == len(model)
    assert store.all_ids() == sorted(model)
    probed = known_ids[::5] + known_ids[:3]  # duplicates included
    for type_name in KINDS + ("User",):
        objs = _expected(model, type_name)
        views = list(store.iter_views_of_type(type_name))
        assert [(v.id, v.name.value) for v in views] == objs
        assert store.count(type_name) == len(objs)
        for name in PROBE_NAMES + sorted({n for _, n in objs}):
            want = [oid for oid, n in objs if n == name]
            assert store.find_ids_by_name(type_name, name) == want, (type_name, name)
        by_name = sorted((n, oid) for oid, n in objs)
        assert store.find_ids_by_names(type_name, PROBE_NAMES + ["a"]) == sorted(
            oid for oid, n in objs if n in PROBE_NAMES
        )
        for prefix in PREFIXES:
            assert store.find_ids_by_name_prefix(type_name, prefix) == sorted(
                oid for n, oid in by_name if n.startswith(prefix)
            ), (type_name, prefix)
        for prefix, pattern in PATTERNS:
            match = re.compile(pattern, re.S).match
            assert store.find_ids_by_name_match(type_name, prefix, match) == sorted(
                oid for n, oid in by_name if n.startswith(prefix) and match(n)
            ), (type_name, pattern)
        for low, high in RANGES:
            assert store.find_ids_by_name_range(type_name, low, high) == sorted(
                oid for n, oid in by_name if low <= n <= high
            ), (type_name, low, high)
        assert store.filter_ids_of_type(type_name, probed + [None, 5]) == sorted(
            {oid for oid in probed if model.get(oid, ("",))[0] == type_name}
        )
    for oid in known_ids + [None, 5]:
        assert store.contains(oid) == (oid in model)


class StoreIndexMachine(RuleBasedStateMachine):
    """Every write shape of the store, every index read checked after each."""

    def __init__(self) -> None:
        super().__init__()
        self.store = DataStore()
        self.ids = IdFactory(17)
        #: object id → (type name, name): what the store should hold
        self.model: dict[str, tuple[str, str]] = {}
        #: every id ever written, deleted ones too (membership probes)
        self.known: list[str] = []

    def _insert(
        self, kind: str, name: str, object_id: str | None = None, *, via_save: bool = False
    ) -> None:
        obj = _new_object(kind, object_id or self.ids.new_id(), name)
        (self.store.save_object if via_save else self.store.insert_object)(obj)
        self.model[obj.id] = (kind, obj.name.value)
        if object_id is None:
            self.known.append(obj.id)

    def _rename(self, object_id: str, name: str) -> None:
        kind, _ = self.model[object_id]
        obj = _new_object(kind, object_id, name)
        self.store.save_object(obj)
        self.model[object_id] = (kind, obj.name.value)

    def _delete(self, object_id: str) -> None:
        self.store.delete_object(object_id)
        del self.model[object_id]

    def _scope(self, in_transaction: bool):
        """One transaction around the rule's writes, or each write autocommits."""
        return self.store.transaction() if in_transaction else nullcontext()

    @rule(
        kind=st.sampled_from(KINDS),
        name=NAMES,
        via_save=st.booleans(),
        in_transaction=st.booleans(),
    )
    def insert(self, kind, name, via_save, in_transaction):
        with self._scope(in_transaction):
            self._insert(kind, name, via_save=via_save)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), name=NAMES, in_transaction=st.booleans())
    def save_with_a_rename(self, data, name, in_transaction):
        with self._scope(in_transaction):
            self._rename(data.draw(st.sampled_from(sorted(self.model))), name)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), in_transaction=st.booleans())
    def delete(self, data, in_transaction):
        with self._scope(in_transaction):
            self._delete(data.draw(st.sampled_from(sorted(self.model))))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), name=NAMES, in_transaction=st.booleans())
    def delete_and_reinsert_under_the_same_id(self, data, name, in_transaction):
        object_id = data.draw(st.sampled_from(sorted(self.model)))
        kind, _ = self.model[object_id]
        with self._scope(in_transaction):
            self._delete(object_id)
            self._insert(kind, name, object_id)

    @rule(
        data=st.data(),
        kind=st.sampled_from(KINDS),
        names=st.lists(NAMES, min_size=4, max_size=4),
        writes=st.integers(2, 4),
    )
    def write_one_id_again_and_again_in_a_transaction(self, data, kind, names, writes):
        """Up to four writes of one id in one committed transaction — a new id
        inserted → renamed → deleted → reinserted, or a stored one renamed →
        deleted → reinserted → renamed — coalesce into one record or none."""
        if self.model and data.draw(st.booleans()):
            object_id = data.draw(st.sampled_from(sorted(self.model)))
            kind, _ = self.model[object_id]
            chain = ("rename", "delete", "insert", "rename")
        else:
            object_id = self.ids.new_id()
            self.known.append(object_id)
            chain = ("insert", "rename", "delete", "insert")
        with self.store.transaction():
            for write, name in zip(chain[:writes], names):
                if write == "insert":
                    self._insert(kind, name, object_id)
                elif write == "rename":
                    self._rename(object_id, name)
                else:
                    self._delete(object_id)

    @precondition(lambda self: len(self.model) < 3 * _LEAF)
    @rule(kind=st.sampled_from(KINDS), names=st.lists(NAMES, min_size=1, max_size=5))
    def transaction_past_twice_the_leaf_bound(self, kind, names):
        """One generation for enough inserts to split leaves more than once."""
        with self.store.transaction():
            for n in range(2 * _LEAF + 1):
                self._insert(kind, names[n % len(names)])

    @precondition(
        lambda self: any(len(_expected(self.model, k)) > _LEAF for k in KINDS)
    )
    @rule(data=st.data(), in_transaction=st.booleans())
    def delete_a_stretch_of_ids(self, data, in_transaction):
        """Deletes more than a leaf of neighbouring ids: a leaf empties out."""
        kind = data.draw(
            st.sampled_from([k for k in KINDS if len(_expected(self.model, k)) > _LEAF])
        )
        objs = _expected(self.model, kind)
        start = data.draw(st.integers(0, len(objs) - _LEAF - 1))
        with self._scope(in_transaction):
            for oid, _ in objs[start : start + _LEAF + 1]:
                self._delete(oid)

    @precondition(
        lambda self: any(len(_expected(self.model, k)) > _LEAF for k in KINDS)
    )
    @rule(data=st.data(), prefix=NAMES, every=st.integers(1, 4))
    def rename_a_stretch_then_some_back(self, data, prefix, every):
        """Renames more than a leaf (up to two) of neighbouring ``(name, id)``
        pairs to as many new names in one transaction, then every *every*-th
        of them back: pairs and names leaves grow past the bound and empty
        out within one commit."""
        kind = data.draw(
            st.sampled_from([k for k in KINDS if len(_expected(self.model, k)) > _LEAF])
        )
        pairs = sorted((name, oid) for oid, name in _expected(self.model, kind))
        start = data.draw(st.integers(0, len(pairs) - _LEAF - 1))
        stretch = pairs[start : start + 2 * _LEAF]
        with self.store.transaction():
            for n, (_, oid) in enumerate(stretch):
                self._rename(oid, f"{prefix}{n:04d}")
            for name, oid in stretch[::every]:
                self._rename(oid, name)

    @rule(
        data=st.data(),
        kind=st.sampled_from(KINDS),
        name=NAMES,
        nested=st.booleans(),
    )
    def rolled_back_transaction(self, data, kind, name, nested):
        existing = sorted(self.model)
        model = dict(self.model)
        with pytest.raises(RuntimeError):
            with self.store.transaction(), self._scope(nested):
                self._insert(kind, name)
                if existing:
                    self._rename(data.draw(st.sampled_from(existing)), name)
                    self._delete(data.draw(st.sampled_from(existing)))
                raise RuntimeError("abort")
        self.model = model  # the doomed insert's id stays known, as absent

    @invariant()
    def every_read_equals_the_scan(self):
        _check_reads(self.store, self.model, self.known)

    def teardown(self):
        # the committed records, coalesced or not, replay to the model
        replayed = DataStore()
        self.store.changelog.replay_into(replayed)
        _check_reads(replayed, self.model, self.known)


StoreIndexMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None, derandomize=True
)
TestStoreIndexOracle = StoreIndexMachine.TestCase
