"""ClusterSupervisor — per-member serving fleets over a registry federation.

Composes one :class:`~repro.serving.supervisor.ServingSupervisor` per
federation member into a single serving surface: requests submitted to the
cluster are spread round-robin across the member fleets, each member's
``route`` kernel stage serves local objects directly and forwards shard
misses (see :mod:`repro.registry.federation`), and replication links keep
the members converging between pumps.

The supervisor is also the cluster's observability root.  It owns a
cluster-level :class:`~repro.obs.telemetry.Telemetry` facade with

* a ``replication.<source>-><target>.lag`` time series recorded at every
  :meth:`pump_replication` (plus ``replication.lag`` for the fleet-worst
  value),
* the ``replication-lag`` staleness SLO
  (:func:`repro.obs.slo.replication_lag_slo`) whose gauge reads the worst
  link lag — the bounded-lag eventual-consistency contract, alertable,
* a ``cluster`` snapshot source aggregating per-member serving stats, route
  counters, changelog positions, and link watermarks,

and :meth:`pipeline_stats` merges every member's per-edge/per-operation
kernel accounting next to the per-member trees — the fleet view ``repro
cluster`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.slo import REPLICATION_LAG_SOURCE, replication_lag_slo
from repro.obs.telemetry import Telemetry
from repro.registry.kernel import fold_operation_stats
from repro.serving.supervisor import ServingConfig, ServingSupervisor
from repro.util.clock import Clock

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Future

    from repro.registry.federation import RegistryFederation
    from repro.security.authn import Session


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing + consistency knobs for one registry cluster."""

    #: per-member serving fleet configuration
    serving: ServingConfig = field(default_factory=ServingConfig)
    #: the bounded-lag contract: worst acceptable changelog lag, in records
    max_replication_lag: float = 64.0
    #: create the full replication mesh on start() when no links exist yet
    mesh: bool = True


class ClusterSupervisor:
    """One serving + observability surface over a federation's members."""

    def __init__(
        self,
        federation: "RegistryFederation",
        config: ClusterConfig | None = None,
        *,
        telemetry: Telemetry | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.federation = federation
        self.config = config or ClusterConfig()
        self.telemetry = telemetry or Telemetry(clock=clock, history=True)
        self._supervisors: dict[str, ServingSupervisor] = {}
        self._round_robin = 0
        self.started = False
        self.telemetry.register_source("cluster", self.cluster_stats)
        self.telemetry.slos.add(
            replication_lag_slo(threshold=self.config.max_replication_lag)
        )
        self.telemetry.slos.register_gauge(
            REPLICATION_LAG_SOURCE, lambda: float(self.federation.replication_lag())
        )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ClusterSupervisor":
        if self.started:
            return self
        if self.config.mesh and not self.federation.links():
            self.federation.link_all()
        for registry in self.federation.members():
            supervisor = ServingSupervisor(registry, self.config.serving)
            self._supervisors[registry.home] = supervisor
            supervisor.start()
        self.started = True
        return self

    def stop(self) -> None:
        if not self.started:
            return
        for supervisor in self._supervisors.values():
            supervisor.stop()
        self.started = False

    def close(self) -> None:
        """Stop every member fleet and unmount all telemetry sources."""
        self.stop()
        for supervisor in self._supervisors.values():
            supervisor.close()
        self._supervisors.clear()
        self.telemetry.unregister_source("cluster")

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- member access ---------------------------------------------------------

    def homes(self) -> list[str]:
        return sorted(self._supervisors)

    def supervisor(self, home: str) -> ServingSupervisor | None:
        return self._supervisors.get(home)

    def register_session(self, session: "Session") -> None:
        """Make one session valid at every member: each authenticator adopts
        it, so its token also holds on a read forwarded to the owner."""
        for registry in self.federation.members():
            registry.authenticator.adopt(session)

    # -- admission -------------------------------------------------------------

    def _next_member(self) -> ServingSupervisor:
        """The next member's fleet, round-robin.

        The chosen member serves or forwards per its ``route`` stage, so the
        caller needs no placement knowledge — any member is a valid edge.
        """
        if not self.started:
            raise RuntimeError("ClusterSupervisor is not started")
        homes = self.homes()
        home = homes[self._round_robin % len(homes)]
        self._round_robin += 1
        return self._supervisors[home]

    def submit(self, **kwargs: Any) -> "Future":
        """Enqueue one request on the next member."""
        return self._next_member().submit(**kwargs)

    def call(self, *, timeout: float | None = None, **kwargs: Any) -> Any:
        """The next member's ``call``: inline if its gate admits, else queued."""
        return self._next_member().call(timeout=timeout, **kwargs)

    def drain(self) -> None:
        for supervisor in self._supervisors.values():
            supervisor.drain()

    # -- replication -----------------------------------------------------------

    def pump_replication(self, max_records: int | None = None) -> dict[str, int]:
        """Pump every link once; record lag series and re-evaluate the SLO."""
        applied = self.federation.pump_replication(max_records)
        history = self.telemetry.history
        worst = 0
        for link in self.federation.links():
            lag = link.lag()
            worst = max(worst, lag)
            history.record(
                f"replication.{link.source.home}->{link.target.home}.lag", float(lag)
            )
        history.record("replication.lag", float(worst))
        if self.telemetry.slos.active:
            self.telemetry.slos.evaluate()
        return applied

    def pump_until_converged(self, *, max_pumps: int = 16) -> int:
        """Pump repeatedly until every link's lag is zero; returns pump count.

        Applying a record to a follower appends to the follower's own
        changelog, so after one mesh pass the reverse links lag by records
        they will only *filter* (non-native homes never re-replicate) — a
        second pass drains them.  The mesh therefore converges in a small
        number of passes; ``max_pumps`` bounds the loop regardless.
        """
        pumps = 0
        while self.federation.replication_lag() > 0 and pumps < max_pumps:
            self.pump_replication()
            pumps += 1
        return pumps

    def replication_lag(self) -> int:
        return self.federation.replication_lag()

    # -- surfaces --------------------------------------------------------------

    def cluster_stats(self) -> dict[str, Any]:
        """The ``cluster`` telemetry source: members, links, shard ring."""
        members: dict[str, Any] = {}
        for home in sorted(self._supervisors):
            supervisor = self._supervisors[home]
            registry = supervisor.registry
            router = self.federation.router_for(home)
            members[home] = {
                "serving": supervisor.serving_stats(),
                "route": router.stats() if router is not None else {},
                "objects": registry.store.count(),
                "changelog": registry.store.changelog.stats(),
                "attribution": registry.telemetry.attribution_stats(),
            }
        return {
            "started": self.started,
            "members": members,
            "shard": self.federation.shard_map.stats(),
            "replication": [link.stats() for link in self.federation.links()],
            "replication_lag": self.federation.replication_lag(),
            "max_replication_lag": self.config.max_replication_lag,
        }

    def pipeline_stats(self) -> dict[str, Any]:
        """Per-member kernel accounting plus a cluster-merged total.

        ``per_member`` keys each member's ``pipeline_stats()`` tree by home;
        ``total`` folds them into one per-edge/per-operation tree (counts,
        faults and latency totals sum; min/max latencies combine), so the
        cluster reads like one big registry.
        """
        per_member = {
            registry.home: registry.pipeline_stats()
            for registry in self.federation.members()
        }
        return {
            "per_member": per_member,
            "total": fold_operation_stats(per_member.values()),
        }
