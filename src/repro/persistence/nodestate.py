"""The NodeState table — the load-balancing scheme's monitoring store.

Thesis Figure 3.2: ``NodeState(HOST pk, LOAD, MEMORY, SWAPMEMORY)`` holds the
most recent performance sample per monitored host.  We add an ``UPDATED``
timestamp column (the registry needs it to age out dead hosts and it is what
the staleness ablation LB-2 measures) — freebXML overwrote rows in place,
which is exactly ``record_sample``'s upsert.

Readers see the table one *generation* at a time: per table version
(``Table.mutations``) the store publishes one read-only ``host → NodeSample``
map, built on the first read after a write; ``get`` / ``all_samples`` /
``fresh_samples`` and :class:`~repro.core.load_status.LoadStatus` read it.
A sweep stored with ``record_samples`` is one write, hence one generation.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.persistence.datastore import DataStore
from repro.persistence.table import Table
from repro.util.errors import ObjectNotFoundError

NODESTATE_TABLE = "NodeState"


@dataclass(frozen=True)
class NodeSample:
    """One monitoring sample for one host.

    ``load`` is the CPU load (run-queue length, like ``uptime``'s 1-minute
    load average); ``memory`` and ``swap_memory`` are *available* bytes.
    """

    host: str
    load: float
    memory: int
    swap_memory: int
    updated: float

    def as_row(self) -> dict:
        return {
            "HOST": self.host,
            "LOAD": self.load,
            "MEMORY": self.memory,
            "SWAPMEMORY": self.swap_memory,
            "UPDATED": self.updated,
        }

    @classmethod
    def from_row(cls, row: dict) -> "NodeSample":
        return cls(row["HOST"], row["LOAD"], row["MEMORY"], row["SWAPMEMORY"], row["UPDATED"])


class NodeStateStore:
    """Typed facade over the NodeState table.

    Reads are served from the current generation — a ``(version, samples)``
    pair validated against the table's mutation counter: nothing is copied
    or built between writes, and direct table writes, transaction rollback
    and other facades over the same table are all seen.  The pair is
    published by one attribute store and its version read *before* the rows
    are captured, so a map raced by a write is filed under a version no newer
    than its rows (the next read rebuilds it), never the reverse.
    """

    def __init__(self, store: DataStore) -> None:
        if store.has_table(NODESTATE_TABLE):
            self._table: Table = store.table(NODESTATE_TABLE)
        else:
            self._table = store.create_table(
                NODESTATE_TABLE,
                ["HOST", "LOAD", "MEMORY", "SWAPMEMORY", "UPDATED"],
                primary_key="HOST",
            )
        #: (table mutation counter, host → sample) — replaced, never edited
        self._generation: tuple[int, Mapping[str, NodeSample]] = (-1, {})

    @property
    def version(self) -> int:
        """The underlying table's mutation counter — changes on every write."""
        return self._table.mutations

    def generation(self) -> tuple[int, Mapping[str, NodeSample]]:
        """``(version, host → sample)`` of the table as it stands (read-only)."""
        version = self._table.mutations
        generation = self._generation
        if generation[0] != version:
            from_row = NodeSample.from_row
            samples = {row["HOST"]: from_row(row) for row in self._table.views()}
            self._generation = generation = (version, samples)
        return generation

    def record_sample(self, sample: NodeSample) -> None:
        """Store the latest sample for a host (overwrites the previous row)."""
        self._table.upsert(sample.as_row())

    def record_samples(self, samples: Iterable[NodeSample]) -> None:
        """Store one sweep's samples as a single write — one generation."""
        self._table.upsert_many([sample.as_row() for sample in samples])

    def get(self, host: str) -> NodeSample | None:
        return self.generation()[1].get(host)

    def remove(self, host: str) -> None:
        with suppress(ObjectNotFoundError):
            self._table.delete(host)

    def hosts(self) -> list[str]:
        return sorted(self._table.keys())

    def all_samples(self) -> list[NodeSample]:
        return list(self.generation()[1].values())

    def fresh_samples(self, *, now: float, max_age: float | None) -> list[NodeSample]:
        """Samples no older than *max_age* seconds (all samples if None)."""
        samples = self.all_samples()
        return [s for s in samples if max_age is None or now - s.updated <= max_age]

    def __len__(self) -> int:
        return len(self._table)
