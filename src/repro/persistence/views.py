"""Changelog views — the one way a heap-derived cache learns about a write.

Each view tracks an applied-sequence watermark into the store's
:class:`~repro.persistence.changelog.ChangeLog` and, on
:meth:`~ChangelogView.catch_up`, drops exactly the entries each new record
affects (**per-record delta application**): a write to one service
invalidates one entry, not the population.  There are two: an
:class:`ObjectView` keeps one entry per object and drops it, and a
:class:`QueryResultView` keeps entries derived from whole types, patching a
:class:`KeptRows` (the survivors of an ad-hoc statement or of a subquery)
with only the records its access path admits.  Nothing else signals
freshness for heap state — no callbacks from the writer, no version
stamps; NodeState is outside the changelog and rides the version of
``NodeStateStore.generation()`` instead; nothing is kept on the clock's
say-so.  A memo of a pure function of its key (the constraint parses) needs
no freshness signal at all.

Fill protocol (the swap-publish discipline, sequenced): a reader calls
``catch_up()`` and keeps the returned watermark as its ``as_of`` token,
computes the answer from the live heap (which, by the changelog's
ordering contract, is at least as new as ``as_of``), then offers it via
``put(..., as_of=...)``.  The put is rejected when the view has applied
records past ``as_of`` — a racing write may have made the fill stale, so
it is stranded (a future miss) rather than cached.  Records not yet
applied at put time are harmless: the next catch-up applies them and
drops or patches the entry if affected (a patch keyed by object id is
idempotent, so a write the fill already read changes nothing).

A ``"reset"`` barrier (transaction rollback) clears a view wholesale:
entries may have been filled from the transaction's intermediate,
since-rolled-back generations, and no per-record history of those exists.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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


class ObjectView(ChangelogView):
    """object id → (token, value), dropped by the records that name the object.

    A record drops its own object's entry and the entry of the ``service``
    its pre- or post-image names (only a ``ServiceBinding`` has one), so a
    binding re-pointed between services drops both sides and every other
    write leaves an entry alone.  ``ServiceDAO`` keeps a service's binding
    join here (token: its ``binding_ids``); ``QueryManager`` keeps the wire
    text of each served version (token: the stored instance, which the heap
    never mutates in place).  A reader takes an entry only if its token is
    the one it would file now; ``get`` takes no lock.
    """

    def __init__(self, store: "DataStore") -> None:
        super().__init__(store)
        self._entries: dict[str, tuple[object, object]] = {}
        #: bound to the dict itself, so ``_reset`` must clear it, never replace it
        self.get = self._entries.get

    def _apply(self, record: ChangeRecord) -> None:
        entries = self._entries
        entries.pop(record.object_id, None)
        for obj in (record.payload, record.previous):
            service_id = getattr(obj, "service", None)
            if service_id:
                entries.pop(service_id, None)

    def _reset(self) -> None:
        self._entries.clear()

    def put(self, key: str, token: object, value: object, *, as_of: int) -> None:
        with self._lock:
            if as_of < self._applied:
                return  # a write landed since the fill started: strand it
            self._entries[key] = (token, value)

    def __len__(self) -> int:
        return len(self._entries)


class BoundBindings(tuple):
    """A service's bindings in publisher order, joined to their hosts.

    ``positions`` (host → index of its first binding) is the candidate set
    :meth:`LoadStatus.rank` takes, ``by_host`` the way back from ranked
    hosts to bindings, ``kept`` the balanced answer last resolved from it:
    ``(NodeState version, constraint set, mode, Resolved)``.  Read-only by contract.
    """

    kept: tuple | None = None

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


class Resolved(tuple):
    """A kept discovery answer, and ``texts``: once a wire answer carried it,
    each binding's text, the very strings the QueryManager's text view holds."""

    texts: tuple[str, ...] | None = None


#: the most survivors a kept entry holds, and the most rows of a finished
#: answer the drop rule keeps
ROW_CAP = 512

_ABSENT = object()


class Answer:
    """A statement's finished rows as a result view keeps them, and the JSON
    text they were written as.

    No one mutates the rows: an in-process reader gets copies.  ``write``
    (the plan's :meth:`~repro.query.planner.ShapePlan.rows_json`) makes the
    text, and the answer keeps what its second :meth:`json` wrote: an answer
    served once, as a cold text's mostly is, holds no text.  The text lives
    and goes with the answer: when a patch clears :attr:`KeptRows.answer` or
    the view drops the entry.
    """

    __slots__ = ("rows", "write", "text")

    def __init__(self, write: Callable[[tuple], str], rows: Iterable) -> None:
        #: ``None``, ``""`` once written, then the text
        self.rows, self.write, self.text = tuple(rows), write, None

    def json(self) -> str:
        text = self.text
        if not text:
            written = self.write(self.rows)
            # one store: a racing writer stores the same state or an equal text
            self.text = "" if text is None else written
            return written
        return text


class KeptRows:
    """A statement's survivors, kept as ``object id → row``, which a
    changelog record patches.

    ``plan`` is the compiled plan of the statement; the view reads three
    things off it: ``type_name`` (a RIM type, or ``"*"`` for the union
    view), ``access`` (the index path that routes records to the entry) and
    ``patch_filter()`` (its whole WHERE as a test of one stored object,
    ``None`` if it cannot be one).  A row holds the columns the statement's
    tail reads (the plan's ``kept_projection``: the full row for
    ``SELECT *``; ``None`` for ``COUNT(*)``).  ``shape`` turns the finished
    rows into what a reader gets (an :class:`Answer`, a subquery's value set).
    The plan's ``finish`` (order, columns, DISTINCT, LIMIT, COUNT) runs over
    the rows in id order — the scan path's pre-filter order within a type,
    and the union's order wherever no ORDER BY reorders it — and the shaped
    answer, with any text it was written as, is kept until a patch changes
    a row.  Keyed by object id, a patch is idempotent: a record whose write
    the fill already read changes nothing.  An entry that would grow past
    :data:`ROW_CAP` asks to be dropped.
    """

    __slots__ = ("plan", "shape", "by_id", "answer", "in_order")

    def __init__(self, plan: Any, shape: Callable[[list], Any], by_id: dict[str, Any]) -> None:
        self.plan = plan
        self.shape = shape
        self.by_id = by_id
        self.answer: Any = None
        #: union candidates arrive type by type; one type's in id order
        self.in_order = plan.type_name != "*"

    def patch(self, record: ChangeRecord) -> bool:
        """Replace what ``record.object_id`` gives with what its post-image
        gives; ``False`` when the entry cannot follow (the view drops it)."""
        obj, plan, by_id = record.payload, self.plan, self.by_id
        admits = plan.patch_filter()
        if admits is None:
            return False
        try:
            if obj is not None and (
                plan.type_name not in ("*", obj.type_name) or not admits(obj)
            ):
                obj = None
        except TypeError:  # an unhashable value
            return False
        if obj is None:
            if by_id.pop(record.object_id, _ABSENT) is not _ABSENT:
                self.answer = None
            return True
        row = None if plan.select.count else plan.kept_projection()(obj)
        old = by_id.get(record.object_id, _ABSENT)
        if old is _ABSENT:
            if len(by_id) >= ROW_CAP:
                return False
            self.in_order = False
        elif old == row:
            return True
        by_id[record.object_id] = row
        self.answer = None
        return True

    def read(self) -> Any:
        """What a reader of the entry gets."""
        answer = self.answer
        if answer is None:
            if not self.in_order:
                self.by_id = dict(sorted(self.by_id.items()))
                self.in_order = True
            answer = self.answer = self.shape(self.plan.finish(list(self.by_id.values())))
        return answer


def _link(index: dict, slot: Hashable, key: Hashable) -> None:
    index.setdefault(slot, set()).add(key)


def _unlink(index: dict, slot: Hashable, key: Hashable) -> None:
    keys = index.get(slot)
    if keys is not None:
        keys.discard(key)
        if not keys:
            del index[slot]


class _Routes:
    """One RIM type's entries, indexed by what their access path admits.

    A record reaches an entry only if the entry's path admits the name or
    id of the record's pre- or post-image: ``id-eq``/``id-in`` by id,
    ``name-eq``/``name-in`` by name, ``name-prefix`` and ``name-like`` by
    literal prefix (looked up once per distinct prefix length),
    ``name-range`` by its bounds.  Every other entry — a ``scan``, or one
    that is dropped rather than patched — is reached by every record.
    """

    __slots__ = ("scans", "ids", "names", "prefixes", "ranges")

    def __init__(self) -> None:
        self.scans: set[Hashable] = set()
        self.ids: dict[str, set[Hashable]] = {}
        self.names: dict[str, set[Hashable]] = {}
        #: prefix length → prefix → keys
        self.prefixes: dict[int, dict[str, set[Hashable]]] = {}
        self.ranges: dict[Hashable, tuple[str, str]] = {}

    def update(self, key: Hashable, access: Any, add: bool) -> None:
        """Link (``add``) or unlink *key* under its access path (``None``: scan)."""
        kind = "scan" if access is None else access.kind
        edit = _link if add else _unlink
        if kind in ("id-eq", "id-in"):
            for value in access.values:
                edit(self.ids, value, key)
        elif kind in ("name-eq", "name-in"):
            for value in access.values:
                edit(self.names, value, key)
        elif kind in ("name-prefix", "name-like"):
            prefix = access.values[0]
            by_prefix = self.prefixes.setdefault(len(prefix), {})
            edit(by_prefix, prefix, key)
            if not by_prefix:
                del self.prefixes[len(prefix)]
        elif kind == "name-range":
            if add:
                self.ranges[key] = access.values
            else:
                self.ranges.pop(key, None)
        elif add:
            self.scans.add(key)
        else:
            self.scans.discard(key)

    def reach(self, record: ChangeRecord, reached: set[Hashable]) -> None:
        """Add to *reached* the keys whose access path admits the record."""
        reached |= self.scans
        keys = self.ids.get(record.object_id)
        if keys:
            reached |= keys
        names = {obj.name.value for obj in (record.payload, record.previous) if obj is not None}
        for name in names:
            keys = self.names.get(name)
            if keys:
                reached |= keys
            for length, by_prefix in self.prefixes.items():
                keys = by_prefix.get(name[:length])
                if keys:
                    reached |= keys
            for key, (low, high) in self.ranges.items():
                if low <= name <= high:
                    reached.add(key)


class QueryResultView(ChangelogView):
    """key → value derived from whole RIM types, patched or dropped per record.

    The engine keeps hot ad-hoc results (query text → rows) and subquery
    value sets (``Select`` node → values) here; TimeHits keeps its target
    list.  Entries register under every RIM type they were computed from —
    the ``RegistryObject`` union view registers under ``"*"`` — and a
    changelog record reaches the entries registered for its type, its
    pre-image's type (a delete and re-insert under one id that a
    transaction coalesced) and ``"*"``, routed by access path
    (:class:`_Routes`).

    A :class:`KeptRows` entry is patched: a record replaces its object's
    row.  Because that is
    idempotent, the ``as_of`` fill protocol stays the only synchronisation
    and readers take no writer lock.  Any other entry is dropped, and a
    reset barrier clears both kinds.  Anything read from NodeState is never
    cached here: its samples bypass the heap and therefore the changelog.
    """

    def __init__(self, store: "DataStore", *, capacity: int = 256) -> None:
        super().__init__(store)
        self.capacity = capacity
        #: key → (registered type names, value, its access path or ``None``
        #: for an entry every record of those types reaches); LRU-ordered
        self._entries: "OrderedDict[Hashable, tuple[frozenset[str], object, Any]]" = (
            OrderedDict()
        )
        #: type name → its entries, by access path (one per type ever filed)
        self._routes: dict[str, _Routes] = {}

    def _apply(self, record: ChangeRecord) -> None:
        previous = record.previous
        reached: set[Hashable] = set()
        for type_name in {
            record.type_name,
            previous.type_name if previous is not None else None,
            "*",
        }:
            routes = self._routes.get(type_name)
            if routes is not None:
                routes.reach(record, reached)
        entries = self._entries
        for key in reached:
            value = entries[key][1]
            if not (isinstance(value, KeptRows) and value.patch(record)):
                self._drop(key)

    def _drop(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        type_names, _, access = entry
        for type_name in type_names:
            self._routes[type_name].update(key, access, add=False)

    def _reset(self) -> None:
        self._entries.clear()
        self._routes.clear()

    def get(self, key: Hashable):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            value = entry[1]
            return value.read() if isinstance(value, KeptRows) else value

    def put(
        self, key: Hashable, type_names: Iterable[str], value: object, *, as_of: int
    ) -> None:
        with self._lock:
            if as_of < self._applied:
                return
            self._drop(key)  # re-registering: clear any old links
            while len(self._entries) >= self.capacity:
                self._drop(next(iter(self._entries)))
            names = frozenset(type_names)
            access = value.plan.access if isinstance(value, KeptRows) else None
            self._entries[key] = (names, value, access)
            for type_name in names:
                routes = self._routes.get(type_name)
                if routes is None:
                    routes = self._routes[type_name] = _Routes()
                routes.update(key, access, add=True)

    def __len__(self) -> int:
        return len(self._entries)
