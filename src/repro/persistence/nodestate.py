"""NodeState — the load-balancing scheme's monitoring store.

Thesis Figure 3.2: ``NodeState(HOST pk, LOAD, MEMORY, SWAPMEMORY)`` holds the
most recent performance sample per monitored host.  We add an ``UPDATED``
timestamp column (the sweep time, which the SQL relation and ``repro top``
show).

NodeState is one published ``(version, host → NodeSample)`` pair, replaced
and never edited: every write builds a new map, bumps the version and
publishes the pair with one attribute store.  ``get`` / ``all_samples``,
:class:`~repro.core.load_status.LoadStatus` and the SQL engine's
``NodeState`` relation read it.  The monitor stores each sweep with
``record_sweep``: one write, one version, and the map becomes exactly the
hosts that sweep reached — a host whose probe failed is gone until its next
good probe (an unmonitored host cannot be certified).  The store's
transactions do not cover NodeState, so a request that rolls back never
rewinds a sweep.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.util.errors import InvalidRequestError

#: the relation's name in SQL (matched case-insensitively, like a RIM table)
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

    def as_row(self) -> dict[str, Any]:
        """The sample as a row of the SQL ``NodeState`` relation."""
        return {
            "host": self.host,
            "load": self.load,
            "memory": self.memory,
            "swapmemory": self.swap_memory,
            "updated": self.updated,
        }


def _checked(sample: NodeSample) -> NodeSample:
    if sample.host is None:
        raise InvalidRequestError("a NodeState sample needs a host")
    return sample


class NodeStateStore:
    """The latest sample per host, one published generation at a time.

    Writers serialise on a small lock of their own; readers take the
    published pair without it.  A reader holding an old generation sees
    none of a later write.
    """

    def __init__(self) -> None:
        #: (version, host → sample) — replaced, never edited
        self._generation: tuple[int, Mapping[str, NodeSample]] = (0, {})
        self._lock = threading.Lock()

    def generation(self) -> tuple[int, Mapping[str, NodeSample]]:
        """``(version, host → sample)`` as it stands (read-only)."""
        return self._generation

    def record_sample(self, sample: NodeSample) -> None:
        """Store the latest sample for a host (replaces the previous one)."""
        _checked(sample)
        with self._lock:
            version, samples = self._generation
            self._generation = (version + 1, {**samples, sample.host: sample})

    def record_sweep(self, samples: Iterable[NodeSample]) -> None:
        """Store one sweep as the whole map — one version, no other host."""
        swept = {sample.host: sample for sample in map(_checked, samples)}
        with self._lock:
            self._generation = (self._generation[0] + 1, swept)

    def get(self, host: str) -> NodeSample | None:
        return self._generation[1].get(host)

    def all_samples(self) -> list[NodeSample]:
        return list(self._generation[1].values())

    def __len__(self) -> int:
        return len(self._generation[1])
