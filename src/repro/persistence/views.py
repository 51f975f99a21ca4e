"""Changelog views — the one way a heap-derived cache learns about a write.

Each view tracks an applied-sequence watermark into the store's
:class:`~repro.persistence.changelog.ChangeLog` and, on
:meth:`~ChangelogView.catch_up`, drops exactly the entries each new record
affects (**per-record delta application**): a write to one service
invalidates one entry, not the population.  One kind of entry is patched
instead of dropped: a subquery value set kept per object
(:class:`SubqueryValueView`).  Nothing else signals
freshness for heap state — no callbacks from the writer, no version
stamps; NodeState is outside the changelog and rides the version of
``NodeStateStore.generation()`` instead; nothing is kept on the clock's say-so.

Fill protocol (the swap-publish discipline, sequenced): a reader calls
``catch_up()`` and keeps the returned watermark as its ``as_of`` token,
computes the answer from the live heap (which, by the changelog's
ordering contract, is at least as new as ``as_of``), then offers it via
``put(..., as_of=...)``.  The put is rejected when the view has applied
records past ``as_of`` — a racing write may have made the fill stale, so
it is stranded (a future miss) rather than cached.  Records not yet
applied at put time are harmless: the next catch-up applies them and
drops the entry if affected.

A ``"reset"`` barrier (transaction rollback) clears a view wholesale:
entries may have been filled from the transaction's intermediate,
since-rolled-back generations, and no per-record history of those exists.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.persistence.changelog import OP_RESET, ChangeRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.persistence.datastore import DataStore


class ChangelogView:
    """Base class: the watermark + catch-up loop shared by every view."""

    def __init__(self, store: "DataStore") -> None:
        self._store = store
        self._log = store.changelog
        #: guards entry mutation and the watermark; catch-up and put
        #: serialize on it so a fill can never outrun an invalidation
        self._lock = threading.Lock()
        self._applied = self._log.last_seq
        self.resets_applied = 0

    @property
    def applied_seq(self) -> int:
        """The changelog watermark this view has applied up to."""
        return self._applied

    def catch_up(self) -> int:
        """Apply every new changelog record; returns the new watermark.

        The fast path — no new records — is one integer compare, so read
        paths call this per lookup without measurable cost.
        """
        applied = self._applied
        if self._log.last_seq == applied:
            return applied
        with self._lock:
            pending = self._log.records_since(self._applied)
            for record in pending:
                if record.op == OP_RESET:
                    self._reset()
                    self.resets_applied += 1
                else:
                    self._apply(record)
            if pending:
                self._applied = pending[-1].seq
            return self._applied

    def invalidate_all(self) -> None:
        """Drop every entry and fast-forward past the current log tail."""
        with self._lock:
            self._reset()
            self._applied = self._log.last_seq

    # -- subclass hooks (called under ``_lock``) -------------------------------

    def _apply(self, record: ChangeRecord) -> None:  # pragma: no cover
        raise NotImplementedError

    def _reset(self) -> None:  # pragma: no cover
        raise NotImplementedError


class _KeyedView(ChangelogView):
    """key → (token, value); the subclass's ``_apply`` names the keys a record drops.

    A reader takes an entry only if its token is the one it would file now.
    """

    def __init__(self, store: "DataStore") -> None:
        super().__init__(store)
        self._entries: dict[str, tuple[object, object]] = {}

    def _reset(self) -> None:
        self._entries.clear()

    def get(self, key: str) -> tuple[object, object] | None:
        return self._entries.get(key)

    def put(self, key: str, token: object, value: object, *, as_of: int) -> None:
        with self._lock:
            if as_of < self._applied:
                return  # a write landed since the fill started: strand it
            self._entries[key] = (token, value)

    def __len__(self) -> int:
        return len(self._entries)


class ServiceUriView(_KeyedView):
    """service id → (binding ids, value) — the discovery path's binding join:
    ``binding_ids`` → :class:`BoundBindings`.

    Maintained deltas: a record touching a ``Service`` drops that service's
    entry; a record touching a ``ServiceBinding`` drops the owning
    service's entry — from the post-image *and* the pre-image, so a
    binding re-pointed between services invalidates both sides.  Every
    other write leaves the view intact (this is the whole point: an
    Organization churn burst no longer costs discovery its cache).
    """

    def __init__(self, store: "DataStore") -> None:
        super().__init__(store)
        self.invalidations = 0

    def _apply(self, record: ChangeRecord) -> None:
        if record.type_name == "Service":
            if self._entries.pop(record.object_id, None) is not None:
                self.invalidations += 1
        elif record.type_name == "ServiceBinding":
            for obj in (record.payload, record.previous):
                service_id = getattr(obj, "service", None)
                if service_id and self._entries.pop(service_id, None) is not None:
                    self.invalidations += 1


class StoredTextView(_KeyedView):
    """object id → (stored version, its wire text) — what a read answer joins.

    A record for an id drops that id's entry, whatever the record says.  The
    token is the stored instance itself: the heap never mutates one in place,
    so a text is good for exactly as long as ``entry[0] is version``, and the
    reader files one only for the version the store holds now.  At most one
    text per live object that has been served; nothing per history.
    """

    def _apply(self, record: ChangeRecord) -> None:
        self._entries.pop(record.object_id, None)


class BoundBindings(tuple):
    """A service's bindings in publisher order, joined to their hosts.

    ``positions`` (host → index of its first binding) is the candidate set
    :meth:`LoadStatus.rank` takes, ``by_host`` the way back from ranked
    hosts to bindings.  Read-only by contract.
    """

    def __new__(cls, bindings: Iterable) -> "BoundBindings":
        self = super().__new__(cls, bindings)
        self.positions, self.by_host = positions, by_host = {}, {}
        for index, binding in enumerate(self):
            host = binding.host
            if host in positions:
                by_host[host].append(binding)
            elif host is not None:
                positions[host], by_host[host] = index, [binding]
        return self


class QueryResultView(ChangelogView):
    """key → value derived from whole RIM types, dropped per written type.

    The engine keeps hot ad-hoc results (query text → projected rows) and
    subquery value sets (``Select`` node → values) here; TimeHits keeps its
    target list.  Entries register under every RIM type they were computed
    from — the ``RegistryObject`` union view registers under ``"*"`` — and
    a changelog record drops exactly the entries registered for its type
    (plus all ``"*"`` entries; a save's pre-image type counts too, for a
    delete and re-insert under one id that a transaction coalesced).
    Anything read from NodeState is never cached here: its samples bypass
    the heap and therefore the changelog.
    """

    def __init__(self, store: "DataStore", *, capacity: int = 256) -> None:
        super().__init__(store)
        self.capacity = capacity
        #: key → (registered type names, value); LRU-ordered
        self._entries: "OrderedDict[Hashable, tuple[frozenset[str], object]]" = (
            OrderedDict()
        )
        #: reverse index: type name → keys registered for it
        self._by_type: dict[str, set[Hashable]] = {}

    def _affected(self, record: ChangeRecord) -> set[Hashable]:
        """Keys registered for the record's type, its pre-image's, or ``"*"``."""
        previous = record.previous
        affected: set[Hashable] = set()
        for type_name in (
            record.type_name,
            previous.type_name if previous is not None else None,
            "*",
        ):
            keys = self._by_type.get(type_name)
            if keys:
                affected.update(keys)
        return affected

    def _apply(self, record: ChangeRecord) -> None:
        for key in self._affected(record):
            self._drop(key)

    def _drop(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for type_name in entry[0]:
            keys = self._by_type.get(type_name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_type[type_name]

    def _reset(self) -> None:
        self._entries.clear()
        self._by_type.clear()

    def get(self, key: Hashable):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(
        self, key: Hashable, type_names: Iterable[str], value: object, *, as_of: int
    ) -> None:
        with self._lock:
            if as_of < self._applied:
                return
            self._drop(key)  # re-registering: clear any old type links
            while len(self._entries) >= self.capacity:
                self._drop(next(iter(self._entries)))
            names = frozenset(type_names)
            self._entries[key] = (names, value)
            for type_name in names:
                self._by_type.setdefault(type_name, set()).add(key)

    def __len__(self) -> int:
        return len(self._entries)


class ValueSet:
    """One subquery's value set, kept as ``object id → projected value``.

    ``values`` (the frozenset a subquery cell reads) is built from a
    value → count map, so an object leaving the set drops its value only
    if no other object still gives it.
    """

    __slots__ = ("type_name", "admits", "value_of", "by_id", "counts", "values")

    def __init__(
        self,
        type_name: str,
        admits: Callable[[Any], bool],
        value_of: Callable[[Any], Hashable],
        by_id: dict[str, Hashable],
    ) -> None:
        self.type_name = type_name
        self.admits = admits
        self.value_of = value_of
        self.by_id = by_id
        self.counts = Counter(by_id.values())  # TypeError: an unhashable value
        self.values = frozenset(self.counts)

    def patch(self, record: ChangeRecord) -> None:
        """Replace what ``record.object_id`` gives with what its post-image gives."""
        obj, counts = record.payload, self.counts
        new = None
        if (
            obj is not None
            and self.type_name in ("*", obj.type_name)
            and self.admits(obj)
        ):
            new = self.value_of(obj)
        changed = False
        if new is not None:  # add before removing: a kept value never leaves
            changed = not counts[new]
            counts[new] += 1
        old = self.by_id.pop(record.object_id, None)
        if old is not None:
            counts[old] -= 1
            if not counts[old]:
                del counts[old]
                changed = True
        if new is not None:
            self.by_id[record.object_id] = new
        if changed:
            self.values = frozenset(counts)


class SubqueryValueView(QueryResultView):
    """Subquery ``Select`` → its value set, patched per record where it can be.

    An entry filed as a :class:`ValueSet` (a subquery over one virtual table
    whose WHERE the engine compiled to a test of one object) is *maintained*:
    a record of its type replaces its object's contribution — drop what
    ``object_id`` gave, add the post-image's value if the WHERE admits it —
    and a new frozenset is published only when membership changes.  Because
    contributions are keyed by object id, a patch is idempotent: a record
    whose write the fill already read (heap first, record after the fill's
    watermark) changes nothing.  So the ``as_of`` fill protocol stays the
    only synchronisation, and readers take no writer lock.  Every other
    entry keeps the drop rule, and a reset barrier clears both kinds.
    """

    def _apply(self, record: ChangeRecord) -> None:
        for key in self._affected(record):
            value = self._entries[key][1]
            if isinstance(value, ValueSet):
                try:
                    value.patch(record)
                    continue
                except TypeError:  # an unhashable value: fall back to a drop
                    pass
            self._drop(key)

    def get(self, key: Hashable):
        value = super().get(key)
        return value.values if isinstance(value, ValueSet) else value
