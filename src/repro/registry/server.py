"""RegistryServer — the assembled freebXML-equivalent registry instance.

Wires together every substrate exactly as thesis Figure 2.1 lays the server
out: persistence (datastore + DAOs + NodeState), the QueryManager and
LifeCycleManager service interfaces, authentication and XACML authorization,
the repository, and the event/notification subsystem.  The SOAP and HTTP
protocol bindings (:mod:`repro.soap`) and the load-balancing core
(:mod:`repro.core`) attach to an instance of this class from outside, as
they did to freebXML.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from repro.events.notifier import SubscriptionManager
from repro.obs.telemetry import Export, Telemetry
from repro.persistence.dao import DAORegistry
from repro.registry.kernel import OperationSpec, RegistryKernel
from repro.persistence.datastore import DataStore
from repro.query import QueryEngine
from repro.registry.lifecycle import LifeCycleManager
from repro.registry.querymgr import QueryManager
from repro.registry.repository import RepositoryManager
from repro.security.authn import Authenticator, Session
from repro.security.certs import CertificateAuthority
from repro.security.xacml import (
    PolicyDecisionPoint,
    Request,
    registry_type_policies,
)
from repro.util.clock import Clock, PerfClock, WallClock
from repro.util.errors import AuthorizationError
from repro.util.ids import IdFactory

#: what every discovery read is authorized against; read-only, so one
#: instance serves every request
_REGISTRY_RESOURCE = MappingProxyType(
    {"id": "urn:repro:registry", "owner": None, "type": "Registry"}
)

#: sessions whose read decision is remembered; the map is emptied when full
_READ_DECISION_CAPACITY = 1024

#: the keys of ``write_stats()`` a scrape carries
_WRITE_EXPORTS = (
    Export(
        "coalesced_writes",
        "repro_writes_coalesced_total",
        "Mutations absorbed by coalescing within a transaction.",
    ),
    Export(
        "changelog_records",
        "repro_changelog_records_total",
        "Change records appended to the spine.",
    ),
    Export("last_seq", "repro_changelog_last_seq", "Sequence number of the newest record."),
    Export(
        "idempotent_duplicates",
        "repro_idempotent_duplicates_total",
        "Lifecycle retries replayed from a recorded result.",
    ),
)


@dataclass(frozen=True)
class RegistryConfig:
    """Construction-time configuration for a registry instance."""

    home: str = "http://localhost:8080/omar/registry"
    seed: int | None = None
    #: Table 1.4 deployment flavour: "public" | "affiliated" | "private"
    registry_type: str = "public"


class RegistryServer:
    """One complete ebXML registry/repository instance."""

    def __init__(
        self,
        config: RegistryConfig | None = None,
        *,
        clock: Clock | None = None,
        monotonic: Clock | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or RegistryConfig()
        self.clock: Clock = clock or WallClock()
        #: latency/tracing time source: monotonic by default; tests and the
        #: experiment harness inject ManualClock/sim time for determinism
        self.monotonic: Clock = monotonic or PerfClock()
        self.telemetry = telemetry or Telemetry(clock=self.monotonic)
        self.ids = IdFactory(self.config.seed)
        self.store = DataStore()
        self.daos = DAORegistry(self.store)
        self.node_state = self.store.node_state
        self.engine = QueryEngine(self.store)
        self.authority = CertificateAuthority(seed=self.config.seed)
        self.authenticator = Authenticator(
            self.daos, ids=self.ids, authority=self.authority
        )
        self.pdp = PolicyDecisionPoint(
            registry_type_policies(self.config.registry_type)
        )
        #: (policy set, session → permitted) — the read decision is a pure
        #: function of the frozen session and the policy set, so it is
        #: remembered per session for as long as the set holds the same
        #: policies with the same rules in the same order (see check_read);
        #: swapped as one tuple so concurrent workers never see a torn memo
        self._read_decisions: tuple[list[tuple], dict[Session, bool]] = ([], {})
        self.lcm = LifeCycleManager(
            self.daos,
            pdp=self.pdp,
            clock=self.clock,
            ids=self.ids,
            home=self.config.home,
        )
        self.qm = QueryManager(self.daos, self.engine)
        self.repository = RepositoryManager(self.daos)
        self.subscriptions = SubscriptionManager(
            self.daos, self.engine, clock=self.clock
        )
        self.lcm.add_event_listener(self.subscriptions.on_event)
        from repro.registry.taxonomy import TaxonomyService

        self.taxonomies = TaxonomyService(self.daos, ids=self.ids)
        #: the unified request pipeline every protocol edge routes through
        self.kernel = RegistryKernel(
            self, clock=self.monotonic, telemetry=self.telemetry
        )
        self.lcm.register_operations(self.kernel)
        self.qm.register_operations(self.kernel)
        self._register_repository_operations()
        self._register_telemetry_sources()

    def _register_telemetry_sources(self) -> None:
        """Mount the server-side stats surfaces on the telemetry facade.

        The load-balancing core adds its surfaces (constraint cache,
        monitor, load status, transport) when ``attach_load_balancer``
        runs; protocol-edge tracing of the DAO resolve path hooks in here.
        """
        # a view of the request families the account stage pushes: no exports
        self.telemetry.register_source("pipeline", self.kernel.pipeline_stats)
        self.telemetry.register_source(
            "planner",
            self.qm.query_plan_stats,
            exports=tuple(
                Export(key, f"repro_query_{key}_total", f"Query engine counter {key!r}.")
                for key in self.qm.query_plan_stats()
            ),
        )
        self.telemetry.register_source("writes", self.write_stats, exports=_WRITE_EXPORTS)
        # span the DAO resolve path when tracing is on (guarded, off-hot-path)
        self.daos.services.tracer = self.telemetry.tracer

    def _register_repository_operations(self) -> None:
        """Edge-native repository access (the HTTP-only getRepositoryItem)."""
        from repro.soap.messages import RegistryResponse
        from repro.util.errors import InvalidRequestError

        def get_repository_item(ctx):
            item = self.repository.retrieve(ctx.params["param-id"])
            return RegistryResponse(
                rows=[
                    {
                        "id": item.object_id,
                        "mimeType": item.mime_type,
                        "content": item.content.decode("utf-8", errors="replace"),
                        "digest": item.digest,
                    }
                ]
            )

        def build_get_repository_item(params):
            if not params.get("param-id"):
                raise InvalidRequestError("getRepositoryItem requires param-id")
            return None

        self.kernel.register_operation(
            OperationSpec(
                name="getRepositoryItem",
                read_gate=True,
                handler=get_repository_item,
                http_method="getRepositoryItem",
                http_builder=build_get_repository_item,
            )
        )

    # -- convenience entry points ------------------------------------------------

    def register_user(self, alias: str, **kwargs):
        """User registration wizard shortcut; returns (User, Credential)."""
        return self.authenticator.register_user(alias, **kwargs)

    def login(self, credential) -> Session:
        return self.authenticator.authenticate(credential)

    def guest(self) -> Session:
        return self.authenticator.guest_session()

    def check_read(self, session: Session) -> None:
        """Gate discovery access per the registry's Table 1.4 flavour.

        Public registries admit everyone (including guests); affiliated and
        private ones restrict reads.  Enforced at the protocol bindings —
        in-process QueryManager access is the trusted localCall path.
        """
        # the policy set as it stands for this request: every policy and
        # every rule it holds (rules are frozen).  The memo keeps the objects
        # themselves, not their ids, so any edit — a policy appended, swapped
        # or removed, a rule inserted, replaced or reordered — compares
        # unequal and the decisions made under the old set are dropped
        policy_set = [(policy, *policy.rules) for policy in self.pdp.policies]
        decided_under, decisions = self._read_decisions
        if policy_set != decided_under:
            decisions = {}
            self._read_decisions = (policy_set, decisions)
        permitted = decisions.get(session)
        if permitted is None:
            permitted = self.pdp.is_permitted(
                Request(
                    subject={
                        "id": session.user_id,
                        "roles": session.roles,
                        "alias": session.alias,
                    },
                    resource=_REGISTRY_RESOURCE,
                    action="read",
                )
            )
            if len(decisions) >= _READ_DECISION_CAPACITY:
                decisions.clear()
            decisions[session] = permitted
        if not permitted:
            raise AuthorizationError(
                f"{self.config.registry_type} registry denies read access to "
                f"{session.alias!r}"
            )

    def pipeline_stats(self, *, per_worker: bool = False) -> dict:
        """Kernel accounting: per-edge, per-operation counts/latency/faults.

        ``per_worker=True`` groups the same aggregates by serving-worker
        label instead of fleet-merging them.
        """
        return self.kernel.pipeline_stats(per_worker=per_worker)

    def write_stats(self) -> dict:
        """The ``writes`` telemetry source: changelog spine + idempotency."""
        stats = self.store.write_stats()
        stats.update(self.lcm.idempotency_stats())
        return stats

    def telemetry_snapshot(self) -> dict:
        """Every mounted stats surface merged into one dict, by source name.

        Always includes ``pipeline``, ``planner`` and ``writes``; the
        load-balancing core adds ``constraint_cache``,
        ``collector``, ``load_status``, and ``transport`` when attached.
        """
        return self.telemetry.snapshot()

    def enable_tracing(self, enabled: bool = True) -> None:
        """Toggle per-request span collection (off by default)."""
        self.telemetry.tracer.enabled = enabled

    def enable_history(self, enabled: bool = True) -> None:
        """Toggle longitudinal time-series recording (off by default)."""
        self.telemetry.history.enabled = enabled

    def enable_logging(self, enabled: bool = True) -> None:
        """Toggle structured JSON log emission (off by default)."""
        self.telemetry.log.enabled = enabled

    #: tracing is what fills ``telemetry.attribution_stats()``; the name
    #: stays while the wire bench's ladder still calls it
    enable_attribution = enable_tracing

    @property
    def home(self) -> str:
        return self.config.home
