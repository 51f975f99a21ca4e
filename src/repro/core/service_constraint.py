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

Fast path: parses are memoized on the description text, so steady-state
discovery does **zero** XML parsing.  ``parse_constraints`` is a pure
function of that text, so the memo is right without hearing of any write: a
republished description is a new key, and a bounded LRU
(:data:`MAX_PARSES` texts) keeps it from growing with the services ever seen.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.constraints import ConstraintSet, parse_constraints
from repro.rim import Service
from repro.util.clock import Clock

#: distinct description texts the parse memo keeps at most
MAX_PARSES = 4096


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


class ServiceConstraint:
    """Validates a service's embedded constraints against the current time.

    Thread-safe without locks: the memo is ``functools.lru_cache`` over a
    pure function, so two threads missing on one text at worst parse it twice.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._parse = functools.lru_cache(maxsize=MAX_PARSES)(parse_constraints)

    # -- cache ---------------------------------------------------------------

    def constraints_of(self, service: Service) -> ConstraintSet | None:
        """The service's parsed constraint block, memoized by its text."""
        return self._parse(service.description.value)

    def cache_stats(self) -> dict[str, int]:
        """Parse-cache counters (the telemetry surface)."""
        info = self._parse.cache_info()
        return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}

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
