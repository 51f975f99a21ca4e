"""LoadStatus — NodeState lookup and host ranking (thesis §3.2, Figure 3.5).

*"Class LoadStatus is responsible for identifying hosts that deploy the Web
Service and satisfy the performance constraints.  This is done by querying
the NodeState table in the database for hosts that satisfy the
constraints."*

:meth:`LoadStatus.satisfying` is that query — ``host → load`` of every
monitored host satisfying a constraint set — answered once per (NodeState
generation, constraint set); :meth:`rank` joins it to a service's hosts by
ascending load, so the *first* access URI a client takes points at the
currently least-loaded satisfying host ("hosts that currently provide
optimal service conditions are given preference").

Freshness is the monitor's: NodeState holds exactly the hosts the latest
sweep reached, so a host without a sample — never probed, or its last probe
failed — is *not* satisfying (an unmonitored host cannot be certified).
Nothing here reads the time: the answers are redone when the NodeState
version moves, and only then.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.constraints import ConstraintSet
from repro.persistence.nodestate import NodeSample, NodeStateStore

#: constraint sets answered per generation before the answers start over
MAX_ANSWERS = 256


class LoadStatus:
    """Constraint evaluation against the NodeState monitoring table.

    Safe to run concurrently with request dispatch and the monitoring
    sweep: a decision reads one published generation, so a write landing
    mid-rank can never mix two generations within one decision.  The
    ``rankings`` counter is a plain ``+=`` (observability, near-exact).
    """

    def __init__(self, node_state: NodeStateStore) -> None:
        self.node_state = node_state
        self.rankings = 0
        #: (NodeState version, constraint set → {host: load}) — one tuple
        self._memo: tuple[int, dict] = (-1, {})
        #: optional telemetry tracer; spans each ranking when enabled
        self.tracer = None
        #: optional Telemetry facade: with its history store enabled, each
        #: ranking records per-host eligibility *transitions* (the flag
        #: series flap detection reads); with its log enabled, each ranking
        #: decision emits one structured record
        self.telemetry = None

    def satisfying(self, constraints: ConstraintSet) -> Mapping[str, float]:
        """``host → load`` of every monitored host meeting *constraints*.

        The one place a sample meets a constraint; read-only, shared by
        every decision of the generation.
        """
        version, samples = self.node_state.generation()
        was, answers = self._memo
        if was != version:
            answers = {}
            self._memo = (version, answers)
        loads = answers.get(constraints)
        if loads is None:
            if len(answers) >= MAX_ANSWERS:
                answers.clear()
            loads = answers[constraints] = {
                host: sample.load
                for host, sample in samples.items()
                if constraints.satisfied_by(sample)
            }
        return loads

    def current_sample(self, host: str) -> NodeSample | None:
        """The host's sample, or None when the latest sweep did not reach it."""
        return self.node_state.get(host)

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
