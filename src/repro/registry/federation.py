"""Registry federation: replication links, shard routing, federated discovery.

Table 1.1 credits ebXML registries with *federated queries* and *object
references between registries*; PAPERS.md "On the Cooperation of Independent
Registries" motivates the full topology this module implements — a cluster
of cooperating registries that partitions ownership, replicates committed
writes, and serves discovery from any member:

* :class:`ShardMap` — a consistent-hash ring (stable ``sha1`` hashing,
  virtual nodes) assigning every object id an **owning member**.  Adding or
  removing a member only remaps the ids adjacent to its virtual nodes.
* :class:`ReplicationLink` — tails one member's append-only
  :class:`~repro.persistence.changelog.ChangeLog` into a follower store with
  an explicit **watermark**: eventual consistency with an observable,
  bounded lag (``last_seq - watermark``).  A pump applies whole source
  commits, each as one follower transaction, so a replica only ever holds
  the source's state at some commit; ``max_records`` rounds up to one.
* :class:`ShardRouter` — the kernel's one optional stage, ``route``,
  between ``resolve`` and ``authenticate``.  Any protocol edge of any
  member serves locally-held objects directly and transparently forwards
  misses to the owning member over the shared SOAP transport (the
  transport's :class:`~repro.soap.transport.RetryPolicy` applies).
  Forwarding is single-hop: forwarded envelopes carry a marker header and
  are always served locally by the receiver.  A registry routes for one
  federation at a time.
* :class:`RegistryFederation` — membership, the shared transport with one
  SOAP endpoint per member, federated queries and cross-registry resolve
  that go **through the kernel pipeline** (so federated reads appear in
  ``pipeline_stats`` and the request-latency histogram), and the selective
  per-object replication ebRS allows (kept for compatibility; bulk
  replication is the links' job).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.persistence.changelog import OP_RESET, apply
from repro.registry.server import RegistryServer
from repro.rim import RegistryObject
from repro.security.authn import Session
from repro.util.errors import InvalidRequestError, ObjectNotFoundError

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.kernel import RegistryKernel, RequestContext
    from repro.soap.transport import SimTransport


@dataclass(frozen=True)
class FederatedRow:
    """One federated query result row, tagged with its home registry."""

    home: str
    row: dict[str, Any]


# -- consistent-hash shard map -------------------------------------------------


class ShardMap:
    """Consistent-hash ring over member homes, keyed by object id.

    Hashing uses ``sha1`` (not Python's per-process-randomized ``hash``), so
    ownership is stable across processes and runs — a forwarded request and
    a CI re-run agree on the owner.  Each member contributes
    ``virtual_nodes`` ring points, smoothing the key distribution.
    """

    def __init__(self, *, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self._ring: list[tuple[int, str]] = []
        self._hashes: list[int] = []
        self._members: set[str] = set()

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")

    def _rebuild(self) -> None:
        ring = []
        for home in self._members:
            for point in range(self.virtual_nodes):
                ring.append((self._hash(f"{home}#{point}"), home))
        ring.sort()
        self._ring = ring
        self._hashes = [h for h, _ in ring]

    def add_member(self, home: str) -> None:
        self._members.add(home)
        self._rebuild()

    def remove_member(self, home: str) -> None:
        self._members.discard(home)
        self._rebuild()

    def members(self) -> list[str]:
        return sorted(self._members)

    def owner(self, object_id: str) -> str | None:
        """The member owning *object_id* (``None`` on an empty ring)."""
        if not self._ring:
            return None
        index = bisect.bisect_right(self._hashes, self._hash(object_id))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def stats(self) -> dict[str, Any]:
        return {
            "members": len(self._members),
            "virtual_nodes": self.virtual_nodes,
            "ring_points": len(self._ring),
        }


# -- changelog-tailed replication ----------------------------------------------


class ReplicationLink:
    """Pumps one member's committed changelog records into a follower store.

    The link holds an explicit **watermark** — the highest source sequence
    number it has consumed — and applies whole source commits: the records
    of one commit share its published ``version``, and each group goes
    through :func:`~repro.persistence.changelog.apply` as one follower
    transaction, so a source commit is one replica generation and a reader
    on the replica never sees half of one.  Apply is idempotent, so
    re-pumping or overlapping pumps converge.  Three record classes advance
    the watermark without applying:

    * ``reset`` barriers — a rolled-back transaction's records never reached
      the log (they buffer until commit), and the barrier itself carries no
      mutation; replicating it would be meaningless;
    * records whose object ``home`` is not the source's — those are replicas
      the source itself received over another link (replicating them again
      would echo forever around a mesh) and are delivered by their own home
      member's links;
    * records without a ``home`` — member-local infrastructure objects
      (users, credentials, audit trail) that never replicate.

    Nothing runs inside a source append (that would hold one store's writer
    lock while writing another): apply work happens only in an explicit
    :meth:`pump`, and "work is pending" is ``lag() > 0``.
    """

    def __init__(self, source: RegistryServer, target: RegistryServer) -> None:
        if source.home == target.home:
            raise InvalidRequestError("cannot replicate a registry onto itself")
        self.source = source
        self.target = target
        self.watermark = 0
        self.applied = 0
        self.skipped_barriers = 0
        self.filtered = 0
        self.pumps = 0

    # -- the consistency model -------------------------------------------------

    def lag(self) -> int:
        """Records committed at the source but not yet consumed here."""
        return self.source.store.changelog.last_seq - self.watermark

    def pump(self, max_records: int | None = None) -> int:
        """Apply the new source commits, whole; return the records applied.

        ``max_records`` bounds a supervisor's per-tick work, rounded up to a
        whole commit: no commit starts once the watermark has moved that
        far.  The watermark moves past a commit only after the follower
        committed it, so a failed apply leaves it at the last whole commit,
        and :meth:`lag` stays an honest measure of how far behind the
        follower is.
        """
        self.pumps += 1
        start, owner = self.watermark, self.source.home
        applied = 0
        tail = self.source.store.changelog.records_since(start)
        for _version, records in groupby(tail, key=attrgetter("version")):
            if max_records is not None and self.watermark - start >= max_records:
                break
            records = list(records)
            # a barrier holds no image, so getattr finds no home on it
            home = [r for r in records if getattr(r.payload or r.previous, "home", None) == owner]
            if home:
                applied += apply(self.target.store, home)
            barriers = sum(r.op == OP_RESET for r in records)
            self.skipped_barriers += barriers
            self.filtered += len(records) - barriers - len(home)
            self.watermark = records[-1].seq
        self.applied += applied
        return applied

    def stats(self) -> dict[str, Any]:
        return {
            "source": self.source.home,
            "target": self.target.home,
            "watermark": self.watermark,
            "lag": self.lag(),
            "applied": self.applied,
            "skipped_barriers": self.skipped_barriers,
            "filtered": self.filtered,
            "pumps": self.pumps,
        }


# -- kernel shard routing ------------------------------------------------------

#: operation name → object-id extractor for requests the shard map can route
_ROUTABLE_OPERATIONS = {
    "getRegistryObject": lambda body: body.object_id,
    "getServiceBindings": lambda body: body.service_id,
}


class ShardRouter:
    """The ``route`` kernel step: serve local objects, forward shard misses.

    Runs between ``resolve`` and ``authenticate`` on a member's kernel
    (``kernel.router``).  Requests for objects present in the local store
    (natively owned *or* replicated in — replication makes every member a
    read replica with bounded staleness) go on to local dispatch; requests
    for objects this member does not hold are forwarded to the shard
    owner's SOAP endpoint over the federation transport, and the owner's
    response is returned as this request's response.  Remote faults
    re-raise as their typed :class:`~repro.util.errors.RegistryError`, so
    the local edge's fault mapper renders them exactly as a locally-raised
    fault.
    """

    def __init__(self, federation: "RegistryFederation", registry: RegistryServer) -> None:
        from repro.soap.envelope import SoapEnvelope, SoapFault

        self.federation = federation
        self.registry = registry
        self._envelope_cls = SoapEnvelope
        self._fault_cls = SoapFault
        self.local = 0
        self.forwarded: dict[str, int] = {}
        self.forwarded_served = 0
        self.forward_faults = 0
        #: wall time spent inside forwarding transport calls (the hop a
        #: traced request's spans carry; += is near-exact under the GIL)
        self.forward_hop_total_s = 0.0

    def route(self, kernel: "RegistryKernel", ctx: "RequestContext") -> bool:
        """Forward *ctx*'s request to its shard owner when this member does
        not hold the object: True when it did, the owner's answer then in
        ``ctx.response``; False lets the request go on to local dispatch."""
        spec = ctx.spec
        extract = _ROUTABLE_OPERATIONS.get(spec.name) if spec is not None else None
        if extract is None or ctx.body is None:
            # not routable, or no wire body to forward (an in-process call)
            return False
        if ctx.tags.get("forwarded_by"):
            # single-hop forwarding: the sender already decided we own this
            self.forwarded_served += 1
            ctx.tags["route"] = "forwarded-serve"
            return False
        object_id = extract(ctx.body)
        if not isinstance(object_id, str):
            return False  # malformed: the validate stage faults it
        owner = endpoint = None
        if not self.registry.store.contains(object_id):
            owner = self.federation.shard_map.owner(object_id)
            if owner is not None and owner != self.registry.home:
                endpoint = self.federation.endpoint_for(owner)
        if endpoint is None:
            # held here, or an authoritative miss (we own the shard, or there
            # is no ring or endpoint): dispatch locally and let the operation
            # fault as it would alone
            self.local += 1
            ctx.tags["route"] = "local"
            return False
        ctx.tags["route"] = "forwarded"
        ctx.tags["route_owner"] = owner
        self.forwarded[owner] = self.forwarded.get(owner, 0) + 1
        envelope = self._envelope_cls.with_session(
            ctx.body, ctx.token, traceparent=self._traceparent(kernel)
        )
        envelope.headers[self._envelope_cls.FORWARDED_HEADER] = self.registry.home
        hop_started = kernel.clock.now()
        try:
            response = self.federation.transport.request(
                endpoint, envelope, source=self.registry.home
            )
        finally:
            # the forward hop: wire + owner-side execution, measured on the
            # kernel clock so it subtracts cleanly from the route stage's
            # span, which carries it as a tag when tracing
            hop = kernel.clock.now() - hop_started
            self.forward_hop_total_s += hop
            ctx.tags["forward_hop_s"] = ctx.tags.get("forward_hop_s", 0.0) + hop
            tracer = kernel.telemetry.tracer
            if tracer.enabled:
                span = tracer.current_span()
                if span is not None:
                    span.tags["forward_hop_s"] = hop
                    span.tags["forward_owner"] = owner
        if isinstance(response, self._fault_cls):
            self.forward_faults += 1
            response.raise_()
        ctx.response = response
        return True

    @staticmethod
    def _traceparent(kernel: "RegistryKernel") -> str | None:
        tracer = kernel.telemetry.tracer
        if tracer.enabled:
            return tracer.current_traceparent()
        return None

    def stats(self) -> dict[str, Any]:
        return {
            "local": self.local,
            "forwarded": sum(self.forwarded.values()),
            "forwarded_by_owner": dict(sorted(self.forwarded.items())),
            "forwarded_served": self.forwarded_served,
            "forward_faults": self.forward_faults,
            "forward_hop_total_s": self.forward_hop_total_s,
        }


# -- the federation ------------------------------------------------------------


@dataclass
class _Member:
    registry: RegistryServer
    endpoint: str
    router: ShardRouter = field(repr=False, default=None)  # type: ignore[assignment]


class RegistryFederation:
    """A named group of cooperating registries sharing one SOAP transport.

    Joining a member registers its SOAP binding on the shared transport,
    adds it to the consistent-hash :class:`ShardMap`, and sets a
    :class:`ShardRouter` as its kernel's router — after which every member
    transparently serves or forwards any routable request.  A registry
    routes for one federation at a time: joining a second is refused.
    Replication links are created with :meth:`link` (or :meth:`link_all`
    for the full mesh) and pumped with :meth:`pump_replication`.
    """

    def __init__(
        self,
        name: str,
        *,
        transport: "SimTransport | None" = None,
        virtual_nodes: int = 64,
    ) -> None:
        self.name = name
        self._members: dict[str, _Member] = {}
        self._links: list[ReplicationLink] = []
        self.shard_map = ShardMap(virtual_nodes=virtual_nodes)
        if transport is None:
            from repro.soap.transport import RetryPolicy, SimTransport

            # forwarded requests ride the standard client mini-chain: a
            # transient member hiccup retries with backoff before surfacing
            transport = SimTransport(retry=RetryPolicy(max_attempts=3))
        self.transport = transport

    # -- membership ------------------------------------------------------------

    def join(self, registry: RegistryServer) -> None:
        from repro.soap.binding import SoapRegistryBinding

        if registry.home in self._members or registry.kernel.router is not None:
            raise InvalidRequestError(f"registry already federated: {registry.home}")
        binding = SoapRegistryBinding(registry)
        self.transport.register_endpoint(binding.endpoint_uri, binding.handle)
        router = registry.kernel.router = ShardRouter(self, registry)
        registry.telemetry.register_source("route", router.stats)
        self._members[registry.home] = _Member(
            registry=registry, endpoint=binding.endpoint_uri, router=router
        )
        self.shard_map.add_member(registry.home)

    def leave(self, registry: RegistryServer) -> None:
        member = self._members.pop(registry.home, None)
        if member is None:
            return
        self.shard_map.remove_member(registry.home)
        self.transport.unregister_endpoint(member.endpoint)
        registry.kernel.router = None
        registry.telemetry.unregister_source("route")
        self._links = [
            link
            for link in self._links
            if registry.home not in (link.source.home, link.target.home)
        ]

    def members(self) -> list[RegistryServer]:
        return [self._members[home].registry for home in sorted(self._members)]

    def member(self, home: str) -> RegistryServer | None:
        member = self._members.get(home)
        return member.registry if member is not None else None

    def endpoint_for(self, home: str) -> str | None:
        member = self._members.get(home)
        return member.endpoint if member is not None else None

    def router_for(self, home: str) -> ShardRouter | None:
        member = self._members.get(home)
        return member.router if member is not None else None

    # -- replication -----------------------------------------------------------

    def link(self, source: RegistryServer, target: RegistryServer) -> ReplicationLink:
        """Create (and register) a source → target replication link."""
        for registry in (source, target):
            if registry.home not in self._members:
                raise InvalidRequestError(f"not a federation member: {registry.home}")
        for existing in self._links:
            if (existing.source.home, existing.target.home) == (source.home, target.home):
                return existing
        link = ReplicationLink(source, target)
        self._links.append(link)
        return link

    def link_all(self) -> list[ReplicationLink]:
        """Create the full replication mesh: every member tails every other."""
        members = self.members()
        return [
            self.link(source, target)
            for source in members
            for target in members
            if source.home != target.home
        ]

    def links(self) -> list[ReplicationLink]:
        return list(self._links)

    def pump_replication(self, max_records: int | None = None) -> dict[str, int]:
        """Pump every link once; returns ``"source->target" → applied``."""
        return {
            f"{link.source.home}->{link.target.home}": link.pump(max_records)
            for link in self._links
        }

    def replication_lag(self) -> int:
        """The worst (highest) lag across all links — the SLO gauge."""
        return max((link.lag() for link in self._links), default=0)

    # -- federated query ----------------------------------------------------------

    def federated_query(self, query: str) -> list[FederatedRow]:
        """Run one SQL query against every member, merging tagged results.

        Each member executes the query through its own kernel pipeline (the
        SOAP edge over the shared transport), so federated reads are
        accounted in ``pipeline_stats`` and the request-latency histogram
        exactly like any other request.
        """
        from repro.soap.envelope import SoapEnvelope, SoapFault
        from repro.soap.messages import AdhocQueryRequest

        out: list[FederatedRow] = []
        for registry in self.members():
            envelope = SoapEnvelope(body=AdhocQueryRequest(query=query))
            response = self.transport.request(
                self.endpoint_for(registry.home), envelope, source=f"federation:{self.name}"
            )
            if isinstance(response, SoapFault):
                response.raise_()
            out.extend(FederatedRow(home=registry.home, row=row) for row in response.rows)
        return out

    # -- cross-registry object references ----------------------------------------------

    def resolve(self, object_id: str) -> tuple[RegistryServer, RegistryObject]:
        """Find which member holds *object_id* and return (registry, object).

        Every probe goes through the member's kernel pipeline (marked with
        the forwarded header so the route stage answers locally rather than
        forwarding — a resolve wants actual placement, not shard opinion).
        When several members hold the object (replicas exist), the member
        whose ``home`` matches the object's ``home`` wins: the source
        registry, not whichever replica sorts first.
        """
        from repro.soap.envelope import SoapEnvelope, SoapFault
        from repro.soap.messages import GetRegistryObjectRequest

        holders: list[tuple[RegistryServer, dict[str, Any]]] = []
        for registry in self.members():
            envelope = SoapEnvelope(body=GetRegistryObjectRequest(object_id=object_id))
            envelope.headers[SoapEnvelope.FORWARDED_HEADER] = f"federation:{self.name}"
            response = self.transport.request(
                self.endpoint_for(registry.home), envelope, source=f"federation:{self.name}"
            )
            if isinstance(response, SoapFault):
                if response.fault_code == ObjectNotFoundError.code:
                    continue
                response.raise_()
            holders.append((registry, response.objects[0]))
        if not holders:
            raise ObjectNotFoundError(object_id, "object not found in any federated registry")
        for registry, serialized in holders:
            if serialized.get("home") == registry.home:
                return registry, registry.store.get_object(object_id)  # type: ignore[return-value]
        registry, _ = holders[0]
        return registry, registry.store.get_object(object_id)  # type: ignore[return-value]

    # -- selective replication ------------------------------------------------------------

    def replicate(
        self,
        object_id: str,
        *,
        to: RegistryServer,
        session: Session,
    ) -> RegistryObject:
        """Copy one object (selective replication) into registry *to*.

        The ebRS per-object replication kept for compatibility — bulk
        replication is :class:`ReplicationLink`'s job.  The replica keeps
        the source ``home`` so consumers can tell it is a replica.
        """
        source, obj = self.resolve(object_id)
        if to.home == source.home:
            raise InvalidRequestError("cannot replicate an object onto its home registry")
        replica = obj.copy()
        replica.home = source.home
        replica.owner = None
        to.lcm.submit_objects(session, [replica])
        return to.store.get_object(replica.id)  # type: ignore[return-value]
