"""ServiceConstraint — constraint validation at discovery time (thesis §3.2).

Figure 3.5's collaboration: *"A ServiceConstraint instance validates Web
Service constraints that are part of the service description field …
ServiceConstraint returns false if no valid service constraints are
specified or if the time constraint is not satisfied."*

:meth:`ServiceConstraint.check` reproduces exactly that contract: it parses
the service description leniently (malformed → treated as absent) and
returns the active :class:`ConstraintSet` only when performance constraints
exist *and* the time window (if any) contains "now"; otherwise ``None``,
which tells ServiceDAO to fall back to vanilla behaviour.

Fast path: parses are memoized per service id, keyed on the description
content (hash + equality), so steady-state discovery does **zero** XML
parsing.  The memo is self-validating — a republished description never
serves a stale parse — and, once :meth:`ServiceConstraint.follow` points it
at a store (:func:`repro.core.balancer.attach_load_balancer` does), entries
for rewritten or deleted services are evicted as the memo catches up with
that store's changelog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import ConstraintSet, parse_constraints
from repro.persistence.changelog import ChangeRecord
from repro.persistence.datastore import DataStore
from repro.persistence.views import ChangelogView
from repro.rim import Service
from repro.util.clock import Clock


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of validating one service's constraints at query time."""

    constraints: ConstraintSet | None
    #: parsed constraints were found in the description
    present: bool
    #: the time window (if any) contains the query time
    time_satisfied: bool

    @property
    def active(self) -> bool:
        """True when performance filtering should happen (the thesis' True path)."""
        return (
            self.present
            and self.time_satisfied
            and self.constraints is not None
            and self.constraints.has_performance_constraints()
        )


class _ServiceEvictions(ChangelogView):
    """Drops a memo entry when its Service is rewritten or deleted."""

    def __init__(self, store: DataStore, entries: dict) -> None:
        super().__init__(store)
        self._entries = entries

    def _apply(self, record: ChangeRecord) -> None:
        if record.type_name == "Service":
            self._entries.pop(record.object_id, None)

    def _reset(self) -> None:
        self._entries.clear()


class ServiceConstraint:
    """Validates a service's embedded constraints against the current time.

    Thread-safe without locks: memo entries are *self-validating* — each
    stores the description (hash + text) it was parsed from and a hit
    requires content equality, so a fill racing an eviction can at worst
    re-serve a parse of the exact same text or force a re-parse, never a
    stale answer (which is why fills need no ``as_of`` token here).  The
    hit/miss counters are plain ``+=`` (observability, near-exact).
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        #: service id → (description hash, description, parsed constraints)
        self._cache: dict[str, tuple[int, str, ConstraintSet | None]] = {}
        self._evictions: _ServiceEvictions | None = None
        self.cache_hits = 0
        self.cache_misses = 0

    # -- cache ---------------------------------------------------------------

    def follow(self, store: DataStore) -> None:
        """Evict rewritten or deleted services as *store*'s changelog advances."""
        self._evictions = _ServiceEvictions(store, self._cache)

    def constraints_of(self, service: Service) -> ConstraintSet | None:
        """The service's parsed constraint block, memoized by content."""
        if self._evictions is not None:
            self._evictions.catch_up()
        description = service.description.value
        description_hash = hash(description)
        cached = self._cache.get(service.id)
        if (
            cached is not None
            and cached[0] == description_hash
            and cached[1] == description
        ):
            self.cache_hits += 1
            return cached[2]
        self.cache_misses += 1
        constraints = parse_constraints(description)
        self._cache[service.id] = (description_hash, description, constraints)
        return constraints

    def cache_stats(self) -> dict[str, int]:
        """Parse-cache counters (the telemetry surface)."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
        }

    # -- validation ----------------------------------------------------------

    def check(self, service: Service) -> ConstraintCheck:
        constraints = self.constraints_of(service)
        if constraints is None:
            return ConstraintCheck(constraints=None, present=False, time_satisfied=True)
        time_ok = constraints.time_satisfied(self.clock.minutes_of_day())
        return ConstraintCheck(
            constraints=constraints, present=True, time_satisfied=time_ok
        )

    def validate(self, service: Service) -> bool:
        """The thesis' boolean contract: constraints valid *and* time satisfied."""
        return self.check(service).active
