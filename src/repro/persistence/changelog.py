"""Append-only changelog — the registry's single write spine.

Every committed heap mutation (insert/save/delete) appends one typed
:class:`ChangeRecord` carrying a monotonic sequence number, the affected
object id and type, the post-image (and pre-image, when one exists) and the
published index generation.  The log is the source of truth that the
materialized discovery views (:mod:`repro.persistence.views`) key their
incremental invalidation on, and the stream a
:class:`~repro.registry.federation.ReplicationLink` ships to a replica.

Ordering contract (enforced by :class:`~repro.persistence.datastore.DataStore`
under its writer lock): the heap mutation happens first, then the index
generation is published, then the records are appended.  A reader that
observes record *N* therefore always sees a heap at least as new as *N* —
views can catch up to a sequence number and fill from the live heap
without ever caching data older than their applied watermark.

A transaction buffers its records; :meth:`ChangeLog.commit` appends them,
stamped with the one version the commit published, in one ``extend``, so a
reader's tail never ends inside a commit.  A rollback appends a ``"reset"``
barrier instead, so views know that entries filled from dirty point reads
of the live heap map (the transaction's writes, since taken back) must be
discarded wholesale.  :func:`apply` is the one rule that writes records
into a store, for replay and replication alike; it skips barriers.

Appends happen only under the store's writer lock; readers slice the
backing list without locking (an append or extend is one step under the
GIL, and records are immutable once appended).  The log calls nobody back:
every consumer — a :class:`~repro.persistence.views.ChangelogView`, a
replication link — keeps its own watermark and pulls the tail with
:meth:`ChangeLog.records_since`, so an append runs store code only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.persistence.datastore import DataStore
    from repro.rim.base import RegistryObject

#: record operations: three heap mutations plus the rollback barrier
OP_INSERT = "insert"
OP_SAVE = "save"
OP_DELETE = "delete"
OP_RESET = "reset"


class ChangeRecord(NamedTuple):
    """One committed heap mutation (or a rollback barrier).

    ``payload`` is the stored post-image — safe to hold by reference, the
    heap never mutates a stored instance in place — and is ``None`` for
    deletes and barriers.  ``previous`` is the pre-image a save replaced
    or a delete removed (``None`` for inserts and barriers); views use it
    to invalidate entries keyed off the *old* object state (e.g. a
    binding re-pointed to a different service).
    """

    seq: int
    op: str
    type_name: str | None
    object_id: str | None
    payload: "RegistryObject | None"
    previous: "RegistryObject | None"
    version: int


class ChangeLog:
    """The append-only record list behind one :class:`DataStore`."""

    def __init__(self) -> None:
        self._records: list[ChangeRecord] = []
        self.resets = 0

    # -- append (writer-side, under the store's writer lock) -------------------

    def append(
        self,
        op: str,
        *,
        type_name: str | None = None,
        object_id: str | None = None,
        payload: "RegistryObject | None" = None,
        previous: "RegistryObject | None" = None,
        version: int = 0,
    ) -> ChangeRecord:
        record = ChangeRecord(
            seq=len(self._records) + 1,
            op=op,
            type_name=type_name,
            object_id=object_id,
            payload=payload,
            previous=previous,
            version=version,
        )
        self._records.append(record)
        if op == OP_RESET:
            self.resets += 1
        return record

    def commit(self, version: int, pending: dict) -> None:
        """Append one commit's records (*pending*: object id → ``(op,
        type_name, payload, previous)``) in one step: readers see all or none."""
        first = len(self._records) + 1
        self._records.extend([
            ChangeRecord(seq, op, type_name, oid, payload, previous, version)
            for seq, (oid, (op, type_name, payload, previous)) in enumerate(pending.items(), first)
        ])

    # -- reads (lock-free) -----------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (0 when empty)."""
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def records_since(self, seq: int) -> Sequence[ChangeRecord]:
        """Every record with a sequence number greater than *seq*, in order."""
        return self._records[seq:]

    def stats(self) -> dict[str, int]:
        return {"records": len(self._records), "resets": self.resets}

    # -- replay ----------------------------------------------------------------

    def replay_into(self, store: "DataStore") -> int:
        """Rebuild *store* from every committed record: one :func:`apply`.

        *store* must hold none of the log's ids (a fresh store, typically)
        for it to land on exactly the source's state.  Returns the number of
        records applied.
        """
        return apply(store, self.records_since(0))


def apply(store: "DataStore", records: Iterable[ChangeRecord]) -> int:
    """Write *records* into *store* as one transaction; return how many applied.

    Inserts and saves upsert, a delete of an id *store* does not hold is
    skipped, and barriers are skipped (and not counted), so applying a
    record again changes nothing.
    """
    applied = 0
    with store.transaction():
        for record in records:
            if record.op == OP_RESET:
                continue
            if record.op != OP_DELETE:
                store.save_object(record.payload)
            elif store.contains(record.object_id):
                store.delete_object(record.object_id)
            applied += 1
    return applied
