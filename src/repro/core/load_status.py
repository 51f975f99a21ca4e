"""LoadStatus — NodeState lookup and host ranking (thesis §3.2, Figure 3.5).

*"Class LoadStatus is responsible for identifying hosts that deploy the Web
Service and satisfy the performance constraints.  This is done by querying
the NodeState table in the database for hosts that satisfy the
constraints."*

:meth:`LoadStatus.satisfying` is that query — ``host → load`` of every
monitored host satisfying a constraint set, in ascending load — answered
once per (NodeState generation, constraint set): a ``cpuLoad`` clause takes
its range of the generation's samples sorted by load by bisection, and only
that range meets the other clauses.  :meth:`rank` filters it by a service's
hosts, so the *first* access URI a client takes points at the currently
least-loaded satisfying host ("hosts that currently provide optimal service
conditions are given preference").

Freshness is the monitor's: NodeState holds exactly the hosts the latest
sweep reached, so a host without a sample — never probed, or its last probe
failed — is *not* satisfying (an unmonitored host cannot be certified).
Nothing here reads the time: the answers are redone when the NodeState
version moves, and only then.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from operator import attrgetter
from typing import Mapping, Sequence

from repro.core.constraints import ConstraintSet, Operator
from repro.persistence.nodestate import NodeSample, NodeStateStore

#: constraint sets answered per generation before the answers start over
MAX_ANSWERS = 256

_LOAD = attrgetter("load")


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
        #: (NodeState version, constraint set → {host: load}, samples by load)
        self._memo: tuple[int, dict, list] = (-1, {}, [])
        #: optional telemetry tracer; spans each ranking when enabled
        self.tracer = None
        #: optional Telemetry facade: with its history store enabled, each
        #: ranking records per-host eligibility *transitions* (the flag
        #: series flap detection reads); with its log enabled, each ranking
        #: decision emits one structured record
        self.telemetry = None

    def satisfying(self, constraints: ConstraintSet) -> Mapping[str, float]:
        """``host → load``, in ascending load, of every monitored host meeting *constraints*.

        The one place a sample meets a constraint; read-only, shared by
        every decision of the generation.
        """
        return self._answer(constraints)[1]

    def _answer(self, constraints: ConstraintSet) -> tuple[int, dict[str, float]]:
        version, samples = self.node_state.generation()
        memo = self._memo
        if memo[0] != version:
            memo = self._memo = (version, {}, sorted(samples.values(), key=_LOAD))
        _version, answers, order = memo
        loads = answers.get(constraints)
        if loads is None:
            if len(answers) >= MAX_ANSWERS:
                answers.clear()
            cpu = constraints.cpu_load
            if cpu is not None:  # its range of the load order; loads in [low, high) equal its value
                low = bisect_left(order, cpu.value, key=_LOAD)
                high = bisect_right(order, cpu.value, key=_LOAD)
                start = {Operator.GT: high, Operator.GEQ: low, Operator.EQ: low}.get(cpu.op, 0)
                end = {Operator.LS: low, Operator.LEQ: high, Operator.EQ: high}.get(cpu.op)
                order = order[start:end] if cpu.value == cpu.value else []  # NaN admits none
            rest = replace(constraints, cpu_load=None)  # the clauses the range has yet to meet
            loads = answers[constraints] = {
                sample.host: sample.load for sample in order if rest.satisfied_by(sample)
            }
        return version, loads

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
        deterministic; :meth:`ranking` pairs it with the NodeState version read.
        """
        return self.ranking(hosts, constraints)[1]

    def ranking(self, hosts, constraints: ConstraintSet) -> tuple[int, list[str]]:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("loadstatus.rank", hosts=len(hosts)) as span:
                ranking = self._rank(hosts, constraints)
                span.tags["satisfying"] = len(ranking[1])
            return ranking
        return self._rank(hosts, constraints)

    def _rank(self, hosts, constraints: ConstraintSet) -> tuple[int, list[str]]:
        self.rankings += 1
        version, loads = self._answer(constraints)
        if isinstance(hosts, dict):
            candidates, position = hosts, hosts.__getitem__
        else:  # a list's ``index`` is its first position
            candidates, position = set(hosts), hosts.index
        ranked = [h for h in loads if h in candidates]  # the answer is in load order
        if len(set(map(loads.__getitem__, ranked))) < len(ranked):
            # two share a load: publisher order breaks the tie (both sorts stable)
            ranked.sort(key=position)
            ranked.sort(key=loads.__getitem__)
        if len(candidates) != len(hosts):  # a host listed twice ranks twice
            ranked = [h for h in ranked for _ in range(hosts.count(h))]
        telemetry = self.telemetry
        if telemetry is not None:
            if telemetry.history.enabled:
                for host in candidates:
                    telemetry.history.record_flag(f"eligible.{host}", host in loads)
            if telemetry.log.enabled:
                telemetry.log.emit(
                    "loadstatus.rank",
                    hosts=len(candidates),
                    satisfying=len(ranked),
                    preferred=ranked[0] if ranked else None,
                )
        return version, ranked

    def load_status_stats(self) -> dict[str, int]:
        """Ranking counter (the telemetry surface)."""
        return {"rankings": self.rankings}
