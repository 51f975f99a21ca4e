"""NodeState — the load-balancing scheme's monitoring store.

Thesis Figure 3.2: ``NodeState(HOST pk, LOAD, MEMORY, SWAPMEMORY)`` holds the
most recent performance sample per monitored host.  We add an ``UPDATED``
timestamp column (the registry needs it to age out dead hosts and it is what
the staleness ablation LB-2 measures) — freebXML overwrote rows in place,
which is exactly ``record_sample``'s replace.

NodeState is one published ``(version, host → NodeSample)`` pair, replaced
and never edited: every write builds a new map, bumps the version and
publishes the pair with one attribute store.  ``get`` / ``all_samples``,
:class:`~repro.core.load_status.LoadStatus` and the SQL engine's
``NodeState`` relation read it.  A sweep stored with
``record_samples`` is one write, hence one version.  The monitor is its one
writer; the store's transactions do not cover it, so a request that rolls
back never rewinds a sweep.
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

    @property
    def version(self) -> int:
        """Bumped by every write."""
        return self._generation[0]

    def generation(self) -> tuple[int, Mapping[str, NodeSample]]:
        """``(version, host → sample)`` as it stands (read-only)."""
        return self._generation

    def record_sample(self, sample: NodeSample) -> None:
        """Store the latest sample for a host (replaces the previous one)."""
        _checked(sample)
        with self._lock:
            version, samples = self._generation
            self._generation = (version + 1, {**samples, sample.host: sample})

    def record_samples(self, samples: Iterable[NodeSample]) -> None:
        """Store one sweep's samples as a single write — one version."""
        checked = [_checked(sample) for sample in samples]
        with self._lock:
            version, merged = self._generation
            merged = dict(merged)
            for sample in checked:
                merged[sample.host] = sample
            self._generation = (version + 1, merged)

    def get(self, host: str) -> NodeSample | None:
        return self._generation[1].get(host)

    def remove(self, host: str) -> None:
        with self._lock:
            version, samples = self._generation
            if host in samples:
                samples = dict(samples)
                del samples[host]
                self._generation = (version + 1, samples)

    def hosts(self) -> list[str]:
        return sorted(self._generation[1])

    def all_samples(self) -> list[NodeSample]:
        return list(self._generation[1].values())

    def __len__(self) -> int:
        return len(self._generation[1])
