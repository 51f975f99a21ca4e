"""The registry's persistent store: object heap + NodeState + transactions.

freebXML persists ebRIM objects through ``SQLPersistenceManagerImpl`` over
JDBC; here a :class:`DataStore` provides the same contract in memory:

* an **object heap** keyed by registry-object id, partitioned by type so the
  SQL-92 engine can treat each ebRIM class as a virtual table;
* the one relation of the thesis, ``NodeState``
  (:class:`~repro.persistence.nodestate.NodeStateStore`, ``store.node_state``),
  which the monitor writes and which the heap's transactions do not cover;
* per-request **transactions** with commit/rollback over the heap, giving the
  ACID-at-request-granularity behaviour the registry needs.  A transaction is
  the one write scope: its writes record their index changes and fill one
  record buffer (coalesced per object), a commit applies the changes and
  publishes one index generation, and a rollback puts back only the objects
  it wrote.

Discovery fast path: the heap keeps three sorted runs per type (:class:`_Run`)
— ids, ``(name, id)`` pairs, distinct names — so scans never re-sort, name
lookups bisect and a ``LIKE`` regex runs once per name, while a commit copies
each leaf it touches once per run, not the partition: a one-object write one
leaf per run, a bulk load each leaf once.  Read paths that can tolerate
aliasing opt into **views** (``get_view`` / ``iter_views_of_type`` /
``find_views_by_name``) which return the stored instances without the
per-object ``copy()``; views are read-only by contract — all writes still go
through ``insert_object``/``save_object``/``delete_object`` copy-on-write.

Concurrency model (the serving core's substrate):

* **single writer lock** — every mutator runs under :attr:`_lock`; writers
  never block readers and readers never take the lock;
* **atomically published index generations** — all iterable index state
  lives in one immutable :class:`HeapIndexes` value.  Writers build new
  (leaf-level copy-on-write) runs and publish them with a single
  attribute store, so a reader that captured ``self._indexes`` sees one
  self-consistent generation end to end: no list resized mid-iteration, no
  "set changed size", no mixed-generation id lists;
* **stored-object immutability** — the heap never mutates a stored instance
  in place (``save_object`` stores a fresh copy), so any object a reader
  holds is internally consistent forever.

That is the one read model.  Reads are lock-free and see the latest
committed state: each index-driven call (scans, counts, name lookups) runs
over one published generation, resolving its ids against the live heap (an
id deleted since that generation resolves to nothing and is skipped), and
point reads (``get_view``, ``contains``) see the live heap.  Two successive
calls may span a write.  A consistent image of the whole heap, should one be
needed, is a shallow copy of :attr:`_objects` taken under the writer lock —
stored instances are immutable, so the copy is the image.

Freshness: nothing is called back from a write.  Every cache derived from
the heap is a :class:`~repro.persistence.views.ChangelogView` that pulls the
changelog tail up to its own watermark; the writer's critical section runs
store code only (see DESIGN.md "Freshness").
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from repro.persistence.changelog import (
    OP_DELETE,
    OP_INSERT,
    OP_RESET,
    OP_SAVE,
    ChangeLog,
)
from repro.persistence.nodestate import NodeStateStore
from repro.rim.base import RegistryObject
from repro.util.errors import (
    InvalidRequestError,
    ObjectExistsError,
    ObjectNotFoundError,
)

#: the most items one leaf of a :class:`_Run` holds: a commit copies each leaf
#: it touches (~4 kB of references) once, plus the leaf table (one entry per
#: leaf) once
_LEAF = 512


class _Run:
    """An immutable sorted set of strings or ``(name, id)`` pairs.

    The items sit in a tuple of sorted leaves of at most ``_LEAF`` items,
    beside the tuple of each leaf's largest item.  :meth:`merged` returns a
    new run sharing every leaf but the ones its changes touch, so a commit
    never copies the set; readers bisect the leaf table, then one leaf.
    Every item of one run has the same type.
    """

    __slots__ = ("leaves", "maxes", "size")

    def __init__(self, leaves: tuple = (), maxes: tuple = (), size: int = 0) -> None:
        self.leaves = leaves
        self.maxes = maxes
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self.leaves)

    def ceiling(self, item: Any) -> Any:
        """The least item ``>= item``, or None."""
        maxes = self.maxes
        i = bisect_left(maxes, item)
        if i == len(maxes):
            return None
        leaf = self.leaves[i]
        return leaf[bisect_left(leaf, item)]

    def spans(self, low: Any, high: Any = None) -> tuple[tuple, ...]:
        """Leaf slices that, joined, are the items ``low <= item < high`` (no
        *high*: to the end) — so a C-level filter or map can run per slice."""
        leaves, maxes = self.leaves, self.maxes
        i = bisect_left(maxes, low)
        if i == len(maxes):
            return ()
        leaf = leaves[i]
        a = bisect_left(leaf, low)
        if high is not None and maxes[i] >= high:  # one leaf holds the range
            return (leaf[a : bisect_left(leaf, high, a)],)
        j = len(maxes) if high is None else bisect_left(maxes, high, i)
        spans = (leaf[a:],) + leaves[i + 1 : j]
        if j < len(maxes):
            leaf = leaves[j]
            spans += (leaf[: bisect_left(leaf, high)],)
        return spans

    def merged(self, changes: dict) -> "_Run":
        """This run with each item of *changes* added (True) or removed (False).

        Each item goes to the leaf it falls in (past every leaf's max: the
        last one), whose first change copies it into a list that takes that
        leaf's changes in item order.  A touched leaf that grew past
        ``_LEAF`` is cut into equal leaves of about half that, as splitting
        it in two would; an emptied one is dropped.  The leaf table is
        rebuilt once, every other leaf is shared, and with nothing to change
        this run is returned.
        """
        leaves, maxes = self.leaves or ((),), self.maxes
        last = len(leaves) - 1
        touched: dict[int, list] = {}
        for item in sorted(changes):
            i = bisect_left(maxes, item)
            if i > last:
                i = last
            out = touched.get(i, leaves[i])
            j = bisect_left(out, item)
            if (j < len(out) and out[j] == item) != changes[item]:
                if out is leaves[i]:
                    out = touched[i] = list(out)
                if changes[item]:
                    out.insert(j, item)
                else:
                    del out[j]
        if not touched:
            return self
        new_leaves, new_maxes, grown = list(leaves), list(maxes), 0
        # back to front: a splice leaves the indexes below it valid
        for i, out in sorted(touched.items(), reverse=True):
            grown += len(out) - len(leaves[i])
            n = len(out)
            parts = n // (_LEAF // 2) if n > _LEAF else min(n, 1)
            if parts == 1:
                cut = [tuple(out)]
            else:
                cut = [tuple(out[n * p // parts : n * (p + 1) // parts]) for p in range(parts)]
            new_leaves[i : i + 1] = cut
            new_maxes[i : i + 1] = [leaf[-1] for leaf in cut]
        return _Run(tuple(new_leaves), tuple(new_maxes), self.size + grown)


_EMPTY_RUN = _Run()
_second = itemgetter(1)


class HeapIndexes(NamedTuple):
    """One atomically-published generation of the heap's index state.

    Three immutable :class:`_Run` per type name, which writers replace, never
    mutate: readers capture ``store._indexes`` once and iterate lock-free.
    """

    version: int
    #: type name → its ids (ordered scans, membership probes)
    ids: dict[str, _Run]
    #: type name → its ``(name, id)`` pairs (name lookups: exact, prefix, range)
    pairs: dict[str, _Run]
    #: type name → its distinct names (``LIKE`` runs its regex once per name)
    names: dict[str, _Run]


def _above(prefix: str) -> str | None:
    """The least string above every string starting with *prefix*, or None.

    The prefix with its last character bumped; trailing U+10FFFF cannot be
    bumped and carry into the character before them (none left: no bound).
    """
    bumpable = prefix.rstrip("\U0010ffff")
    if not bumpable:
        return None
    return bumpable[:-1] + chr(ord(bumpable[-1]) + 1)


def _ids_named(pairs: _Run, names: Iterable[Any]) -> list[str]:
    """Ids of the pairs named any of *names* (a non-string names nothing), name
    by name in id order: ``name + "\\0"`` is the least string above *name*."""
    out: list[str] = []
    for name in names:
        if isinstance(name, str):
            for span in pairs.spans((name,), (name + "\0",)):
                out += map(_second, span)
    return out


def _ids_between(pairs: _Run, low: tuple, high: tuple | None) -> list[str]:
    """Sorted ids of the pairs ``low <= pair < high`` (no *high*: to the end)."""
    return sorted(map(_second, chain.from_iterable(pairs.spans(low, high))))


class _WriteScope:
    """Writer-lock-private state of one open transaction (or one autocommit).

    Holds its index changes, applied at commit (each touched leaf rebuilt
    once, one publish), and its change records, coalesced by object id so a
    request that touches one object N times commits one record: the
    post-image of the last write, the pre-image of the first — which is also
    what a rollback puts back.
    """

    __slots__ = ("changes", "ops", "pending")

    def __init__(self) -> None:
        #: (type name, name, id, added) per index change, in write order
        self.changes: list[tuple[str, str, str, bool]] = []
        self.ops = 0
        #: object id → (op, type_name, payload, previous), insertion-ordered
        self.pending: dict[str, tuple] = {}

    def record(self, op, type_name, object_id, payload, previous) -> None:
        self.ops += 1
        prev = self.pending.get(object_id)
        if prev is None:
            self.pending[object_id] = (op, type_name, payload, previous)
            return
        prev_op, _, _, first_previous = prev
        if prev_op == OP_INSERT:
            if op == OP_DELETE:
                # inserted and deleted in one scope: never visible outside it
                del self.pending[object_id]
            else:  # insert + save keeps insert, with the newest payload
                self.pending[object_id] = (OP_INSERT, type_name, payload, None)
        elif prev_op == OP_SAVE:
            # save+save → save; save+delete → delete (first pre-image kept)
            self.pending[object_id] = (op, type_name, payload, first_previous)
        else:  # delete then re-insert: net effect is a replace
            self.pending[object_id] = (OP_SAVE, type_name, payload, first_previous)


class DataStore:
    """In-memory persistence for one registry instance."""

    def __init__(self) -> None:
        #: id → stored object.  Mutated only by writers (single-key atomic
        #: operations); stored instances are never modified in place.
        self._objects: dict[str, RegistryObject] = {}
        #: the atomically-published immutable index generation
        self._indexes = HeapIndexes(version=0, ids={}, pairs={}, names={})
        #: the monitoring samples: written by the monitor, never rolled back
        self.node_state = NodeStateStore()
        #: the single writer lock (re-entrant: transactions nest mutators)
        self._lock = threading.RLock()
        #: the write spine: every committed heap mutation appends a record
        self.changelog = ChangeLog()
        #: the open transaction's scope, if any (see :meth:`transaction`)
        self._scope: _WriteScope | None = None
        # write counters (the write_stats() surface)
        self.writes = 0
        self.batched_writes = 0
        self.coalesced_writes = 0

    @property
    def version(self) -> int:
        """The published generation's number; stamps change records and
        stats — caches validate against the changelog watermark, never
        against this."""
        return self._indexes.version

    # -- index publication (writer-side, under the lock) -----------------------

    def _publish(
        self, ids: dict[str, _Run], pairs: dict[str, _Run], names: dict[str, _Run]
    ) -> None:
        self._indexes = HeapIndexes(
            version=self._indexes.version + 1, ids=ids, pairs=pairs, names=names
        )

    def _open_scope(self) -> _WriteScope:
        """The open transaction's scope, or a one-write scope to autocommit."""
        return self._scope or _WriteScope()

    # -- write spine (changelog) -----------------------------------------------

    def _record(self, scope: _WriteScope, op, type_name, object_id, payload, previous):
        """Finish one mutator: into its transaction, or committed on its own."""
        scope.record(op, type_name, object_id, payload, previous)
        if scope is not self._scope:
            self._commit(scope)

    def _commit(self, scope: _WriteScope) -> None:
        """Apply the scope's index changes as one generation, publish it, then
        append its records."""
        if scope.ops == 0:
            return
        # type name → ({id: added}, {(name, id): added}, {name: added}): the
        # last change wins; a name whose last pair went is looked up below
        changed: dict[str, tuple[dict, dict, dict]] = {}
        for type_name, name, oid, added in scope.changes:
            runs = changed.get(type_name)
            if runs is None:
                runs = changed[type_name] = ({}, {}, {})
            runs[0][oid] = runs[1][name, oid] = runs[2][name] = added
        idx = self._indexes
        ids, pairs, names = dict(idx.ids), dict(idx.pairs), dict(idx.names)
        for type_name, (id_changes, pair_changes, name_changes) in changed.items():
            ids[type_name] = ids.get(type_name, _EMPTY_RUN).merged(id_changes)
            merged = pairs[type_name] = pairs.get(type_name, _EMPTY_RUN).merged(pair_changes)
            for name, added in name_changes.items():
                if not added:  # kept while a merged pair has it (ceiling: its first)
                    name_changes[name] = (merged.ceiling((name,)) or (None,))[0] == name
            names[type_name] = names.get(type_name, _EMPTY_RUN).merged(name_changes)
        self._publish(ids, pairs, names)
        self.changelog.commit(self.version, scope.pending)
        self.writes += len(scope.pending)

    def write_stats(self) -> dict[str, Any]:
        """The write-spine telemetry surface: changelog + coalescing counters
        (``batched_writes`` counts the writes made inside transactions)."""
        log = self.changelog
        batched = self.batched_writes
        coalesced = self.coalesced_writes
        return {
            "changelog_records": len(log),
            "last_seq": log.last_seq,
            "resets": log.resets,
            "version": self.version,
            "writes": self.writes,
            "batched_writes": batched,
            "coalesced_writes": coalesced,
            "coalesce_ratio": (coalesced / batched) if batched else 0.0,
        }

    # -- object heap ---------------------------------------------------------

    def insert_object(self, obj: RegistryObject) -> None:
        with self._lock:
            if obj.id in self._objects:
                raise ObjectExistsError(obj.id)
            stored = obj.copy()
            scope = self._open_scope()
            scope.changes.append((stored.type_name, stored.name.value, stored.id, True))
            self._objects[obj.id] = stored
            self._record(scope, OP_INSERT, stored.type_name, stored.id, stored, None)

    def save_object(self, obj: RegistryObject) -> None:
        """Insert-or-replace; type changes for an existing id are rejected."""
        with self._lock:
            existing = self._objects.get(obj.id)
            if existing is not None and type(existing) is not type(obj):
                raise InvalidRequestError(
                    f"object {obj.id} cannot change type "
                    f"{existing.type_name} → {obj.type_name}"
                )
            stored = obj.copy()
            scope = self._open_scope()
            type_name, oid, new_name = stored.type_name, stored.id, stored.name.value
            if existing is None:
                scope.changes.append((type_name, new_name, oid, True))
            elif existing.name.value != new_name:
                # id and type are unchanged; only the name index may move.
                scope.changes += (
                    (type_name, existing.name.value, oid, False),
                    (type_name, new_name, oid, True),
                )
            self._objects[obj.id] = stored
            op = OP_SAVE if existing is not None else OP_INSERT
            self._record(scope, op, stored.type_name, stored.id, stored, existing)

    def get_object(self, object_id: str) -> RegistryObject | None:
        obj = self._objects.get(object_id)
        return obj.copy() if obj is not None else None

    def get_view(self, object_id: str) -> RegistryObject | None:
        """The stored instance itself — read-only by contract, no copy.

        Callers must not mutate the returned object; writes go through
        :meth:`save_object`.  This is the discovery hot path's accessor.
        """
        return self._objects.get(object_id)

    def require_object(self, object_id: str) -> RegistryObject:
        obj = self.get_object(object_id)
        if obj is None:
            raise ObjectNotFoundError(object_id)
        return obj

    def delete_object(self, object_id: str) -> None:
        with self._lock:
            obj = self._objects.get(object_id)
            if obj is None:
                raise ObjectNotFoundError(object_id)
            scope = self._open_scope()
            scope.changes.append((obj.type_name, obj.name.value, object_id, False))
            del self._objects[object_id]
            self._record(scope, OP_DELETE, obj.type_name, object_id, None, obj)

    def contains(self, object_id: str) -> bool:
        return object_id in self._objects

    def objects_of_type(self, type_name: str) -> list[RegistryObject]:
        """All stored objects of one ebRIM class (copies), in id order."""
        objects = self._objects
        out = []
        for object_id in self._indexes.ids.get(type_name, _EMPTY_RUN):
            obj = objects.get(object_id)
            if obj is not None:
                out.append(obj.copy())
        return out

    def iter_views_of_type(self, type_name: str) -> Iterator[RegistryObject]:
        """Stored objects of one class in id order — read-only, no copies."""
        objects = self._objects
        for object_id in self._indexes.ids.get(type_name, _EMPTY_RUN):
            obj = objects.get(object_id)
            if obj is not None:
                yield obj

    def select_objects(
        self,
        type_name: str,
        predicate: Callable[[RegistryObject], bool] | None = None,
    ) -> list[RegistryObject]:
        if predicate is None:
            return self.objects_of_type(type_name)
        # evaluate the predicate on the stored instances, copy only matches
        return [o.copy() for o in self.iter_views_of_type(type_name) if predicate(o)]

    # -- name lookups (index-backed) -----------------------------------------

    def find_ids_by_name(self, type_name: str, name: str) -> list[str]:
        """Ids of objects of *type_name* whose name equals *name* (sorted)."""
        return _ids_named(self._indexes.pairs.get(type_name, _EMPTY_RUN), (name,))

    def find_by_name(self, type_name: str, name: str) -> list[RegistryObject]:
        return [
            obj.copy()
            for i in self.find_ids_by_name(type_name, name)
            if (obj := self._objects.get(i)) is not None
        ]

    def find_views_by_name(self, type_name: str, name: str) -> list[RegistryObject]:
        """Read-only variant of :meth:`find_by_name` (no copies)."""
        return [
            obj
            for i in self.find_ids_by_name(type_name, name)
            if (obj := self._objects.get(i)) is not None
        ]

    def find_ids_by_names(self, type_name: str, names: Iterable[str]) -> list[str]:
        """Ids of objects of *type_name* whose name is any of *names* (sorted).

        The query planner's ``name IN (...)`` probe: one bisection pair per
        name over the type's ``(name, id)`` run instead of a partition scan.
        """
        pairs = self._indexes.pairs.get(type_name, _EMPTY_RUN)
        return sorted(set(_ids_named(pairs, names)))

    def filter_ids_of_type(
        self, type_name: str, candidate_ids: Iterable[str]
    ) -> list[str]:
        """The subset of *candidate_ids* stored under *type_name* (sorted).

        The query planner's id-equality / ``id IN (...)`` probe: one
        bisection per candidate into the type's id run, never a scan.
        """
        ids = self._indexes.ids.get(type_name, _EMPTY_RUN)
        return sorted({i for i in candidate_ids if isinstance(i, str) and ids.ceiling(i) == i})

    def find_ids_by_name_prefix(self, type_name: str, prefix: str) -> list[str]:
        """Ids of objects whose name starts with *prefix*, via a range scan."""
        pairs, above = self._indexes.pairs.get(type_name, _EMPTY_RUN), _above(prefix)
        return _ids_between(pairs, (prefix,), None if above is None else (above,))

    def find_ids_by_name_match(
        self, type_name: str, prefix: str, match: Callable[[str], object]
    ) -> list[str]:
        """Ids of objects whose name starts with *prefix* and satisfies *match*.

        The query planner's ``name LIKE`` probe: *match* (an anchored regex's
        ``match``) runs once per **distinct name** of the sorted range that
        shares the pattern's literal prefix — not once per object, and no
        object is touched.
        """
        idx = self._indexes
        names: list[str] = []
        for span in idx.names.get(type_name, _EMPTY_RUN).spans(prefix, _above(prefix)):
            names += filter(match, span)
        return sorted(_ids_named(idx.pairs.get(type_name, _EMPTY_RUN), names))

    def find_ids_by_name_range(self, type_name: str, low: str, high: str) -> list[str]:
        """Ids of objects with ``low <= name <= high`` (string order, sorted).

        The query planner's ``name BETWEEN`` probe: two bisections over the
        type's ``(name, id)`` run; reversed bounds select nothing.
        """
        pairs = self._indexes.pairs.get(type_name, _EMPTY_RUN)
        return _ids_between(pairs, (low,), (high + "\0",))

    def find_by_name_prefix(self, type_name: str, prefix: str) -> list[RegistryObject]:
        return [
            obj.copy()
            for i in self.find_ids_by_name_prefix(type_name, prefix)
            if (obj := self._objects.get(i)) is not None
        ]

    def all_ids(self) -> list[str]:
        # derived from the published generation, not the mutable heap map,
        # so the result is one consistent membership list
        return sorted(chain.from_iterable(self._indexes.ids.values()))

    def count(self, type_name: str | None = None) -> int:
        # the published generation, as every index read: the live heap map
        # also holds an open transaction's uncommitted inserts
        if type_name is None:
            return sum(map(len, self._indexes.ids.values()))
        return len(self._indexes.ids.get(type_name, _EMPTY_RUN))

    def type_names(self) -> list[str]:
        return sorted(name for name, ids in self._indexes.ids.items() if ids)

    # -- transactions ----------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["DataStore"]:
        """The write scope: commit on success, roll back the object heap on error.

        Inside the transaction every mutator updates the heap map at once
        (point reads stay exact) but only records its index changes, and
        puts its change record into a per-object coalescing buffer.  Commit
        applies the changes run by run, copying each leaf it touches once,
        publishes a *single* new index generation (one version bump for N
        writes), then appends the coalesced records.

        Index-driven readers (scans, counts, name lookups) meanwhile see the
        pre-transaction generation over the live heap: its inserts are
        invisible to them and deleted ids resolve to nothing (the usual
        skip), the anomaly-free subset MVCC readers already tolerate between
        generations.  The writer lock
        is held throughout; nested transactions join the outermost one
        (savepoints are not needed by the registry's request granularity).

        Rollback publishes nothing — the recorded changes die with the scope — and
        puts back, in place, the first pre-image of each object the
        transaction wrote, so it costs what the transaction touched, not
        the heap.  NodeState is not covered: a rollback leaves the monitor's
        samples as they stand.
        """
        with self._lock:
            if self._scope is not None:
                yield self
                return
            scope = self._scope = self._open_scope()
            try:
                yield self
            except BaseException:
                self._scope = None
                self._rollback(scope)
                raise
            self._scope = None
            self.batched_writes += scope.ops
            self.coalesced_writes += scope.ops - len(scope.pending)
            self._commit(scope)

    #: the old name of the write scope, still called by the benchmark rig
    batch = transaction

    def _rollback(self, scope: _WriteScope) -> None:
        # stored instances are immutable by contract, so putting the
        # pre-image references back (no copies) is safe.  Index reads never
        # saw the transaction's writes (no generation holds them); point
        # reads of the live heap may have, which the barrier below covers
        objects = self._objects
        for object_id, (_op, _type_name, _payload, previous) in scope.pending.items():
            if previous is None:  # inserted by the transaction
                del objects[object_id]
            else:
                objects[object_id] = previous
        # the records die with the scope; the barrier tells views that
        # entries filled from dirty point reads of the live heap are invalid
        self.changelog.append(OP_RESET, version=self.version)
        self.writes += 1
