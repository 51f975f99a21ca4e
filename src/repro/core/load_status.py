"""LoadStatus — NodeState lookup and host ranking (thesis §3.2, Figure 3.5).

*"Class LoadStatus is responsible for identifying hosts that deploy the Web
Service and satisfy the performance constraints.  This is done by querying
the NodeState table in the database for hosts that satisfy the
constraints."*

:meth:`LoadStatus.satisfying` is that query — ``host → load`` of every
monitored, fresh host satisfying a constraint set — answered once per
(NodeState generation, constraint set); :meth:`rank` joins it to a service's
hosts by ascending load, so the *first* access URI a client takes points at
the currently least-loaded satisfying host ("hosts that currently provide
optimal service conditions are given preference").

Staleness: a sample is *fresh* while ``now - updated > max_age`` is false
(always, with ``max_age=None``); a host without a fresh sample is *not*
satisfying — an unmonitored host cannot be certified.  The fresh/stale split
remembers the oldest ``updated`` it counted fresh and the newest it counted
stale and is redone exactly when the NodeState version moves or the clock
carries one of the two across ``max_age``: the clock is never rounded, so a
host ages out on the very request that first finds it too old.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.constraints import ConstraintSet
from repro.persistence.nodestate import NodeSample, NodeStateStore
from repro.util.clock import Clock

#: constraint sets answered per generation before the answers start over
MAX_ANSWERS = 256
_INF = float("inf")


class LoadStatus:
    """Constraint evaluation against the NodeState monitoring table.

    Safe to run concurrently with request dispatch and the monitoring
    sweep: a decision reads one generation (one table version, one
    fresh/stale split), published as a single tuple, so a write landing
    mid-rank can never mix two generations within one decision.  The
    ``rankings`` counter is a plain ``+=`` (observability, near-exact).
    """

    def __init__(
        self,
        node_state: NodeStateStore,
        *,
        clock: Clock,
        max_age: float | None = None,
    ) -> None:
        self.node_state = node_state
        self.clock = clock
        self.max_age = max_age
        self.rankings = 0
        #: (version, max_age, oldest fresh, newest stale) and what they vouch
        #: for: (fresh samples, constraint set → {host: load}) — one tuple
        self._memo: tuple = (-1, None, _INF, -_INF, {}, {})
        #: optional telemetry tracer; spans each ranking when enabled
        self.tracer = None
        #: optional Telemetry facade: with its history store enabled, each
        #: ranking records per-host eligibility *transitions* (the flag
        #: series flap detection reads); with its log enabled, each ranking
        #: decision emits one structured record
        self.telemetry = None

    def _generation(self) -> tuple[Mapping[str, NodeSample], dict]:
        version, samples = self.node_state.generation()
        max_age = self.max_age
        now = 0.0 if max_age is None else self.clock.now()
        was_version, was_max_age, oldest_fresh, newest_stale, fresh, answers = self._memo
        if was_version == version and was_max_age == max_age:
            if max_age is None or (
                not now - oldest_fresh > max_age and now - newest_stale > max_age
            ):
                return fresh, answers
        fresh, stale, answers = samples, (), {}
        if max_age is not None:
            fresh = {h: s for h, s in samples.items() if not now - s.updated > max_age}
            stale = [s.updated for h, s in samples.items() if h not in fresh]
        oldest_fresh = min([s.updated for s in fresh.values()], default=_INF)
        newest_stale = max(stale, default=-_INF)
        self._memo = (version, max_age, oldest_fresh, newest_stale, fresh, answers)
        return fresh, answers

    def satisfying(self, constraints: ConstraintSet) -> Mapping[str, float]:
        """``host → load`` of every fresh monitored host meeting *constraints*.

        The one place a sample meets a constraint; read-only, shared by
        every decision of the generation.
        """
        fresh, answers = self._generation()
        loads = answers.get(constraints)
        if loads is None:
            if len(answers) >= MAX_ANSWERS:
                answers.clear()
            loads = answers[constraints] = {
                host: sample.load
                for host, sample in fresh.items()
                if constraints.satisfied_by(sample)
            }
        return loads

    def current_sample(self, host: str) -> NodeSample | None:
        """The host's sample, or None when absent/stale."""
        return self._generation()[0].get(host)

    def snapshot(self, hosts: Sequence[str]) -> dict[str, NodeSample | None]:
        """One fresh sample (or None) per distinct host, all of one generation."""
        fresh = self._generation()[0]
        return {host: fresh.get(host) for host in hosts}

    def satisfying_hosts(
        self, hosts: Sequence[str], constraints: ConstraintSet
    ) -> list[str]:
        """The subset of *hosts* whose current sample satisfies *constraints*."""
        loads = self.satisfying(constraints)
        return [h for h in hosts if h in loads]

    def rank(
        self, hosts: Sequence[str] | dict[str, int], constraints: ConstraintSet
    ) -> list[str]:
        """Satisfying hosts ordered by ascending current load.

        *hosts* is the candidates in publisher order — or, from a caller that
        holds that join already, a ``host → first position`` dict.  Ties
        (equal load) keep the publisher order, so the ordering is
        deterministic; only hosts on both sides of the join are sorted.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("loadstatus.rank", hosts=len(hosts)) as span:
                ranked = self._rank(hosts, constraints)
                span.tags["satisfying"] = len(ranked)
            return ranked
        return self._rank(hosts, constraints)

    def _rank(self, hosts, constraints: ConstraintSet) -> list[str]:
        self.rankings += 1
        loads = self.satisfying(constraints)
        position = hosts
        if not isinstance(hosts, dict):  # first position: the earliest write lands last
            position = dict(zip(reversed(hosts), range(len(hosts) - 1, -1, -1)))
        if len(loads) < len(position):
            keyed = [(loads[h], position[h], h) for h in loads if h in position]
        else:
            keyed = [(loads[h], at, h) for h, at in position.items() if h in loads]
        keyed.sort()
        ranked = [h for _load, _at, h in keyed]
        if len(position) != len(hosts):  # a host listed twice ranks twice
            ranked = [h for h in ranked for _ in range(hosts.count(h))]
        telemetry = self.telemetry
        if telemetry is not None:
            if telemetry.history.enabled:
                for host in position:
                    telemetry.history.record_flag(f"eligible.{host}", host in loads)
            if telemetry.log.enabled:
                telemetry.log.emit(
                    "loadstatus.rank",
                    hosts=len(position),
                    satisfying=len(ranked),
                    preferred=ranked[0] if ranked else None,
                )
        return ranked

    def load_status_stats(self) -> dict[str, int]:
        """Ranking counter (the telemetry surface)."""
        return {"rankings": self.rankings}
