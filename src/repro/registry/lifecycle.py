"""LifeCycleManager — the write half of the ebXML Registry Service.

Implements the ebRS request protocols the thesis exercises (Figure 2.4,
Table 1.6): SubmitObjects, UpdateObjects, ApproveObjects, DeprecateObjects,
UndeprecateObjects, RemoveObjects, RelocateObjects, AddSlots, RemoveSlots.

Every method:

1. requires an authenticated session (unauthenticated LCM access is an
   error, per §1.3.2.4);
2. authorizes through the XACML-lite PDP (owners may write their objects;
   admins anything);
3. runs inside a datastore transaction (a failed request leaves no partial
   state);
4. appends AuditableEvents and publishes them on the event bus for the
   subscription/notification subsystem.

Cascade semantics reproduce the thesis exactly: deleting an Organization
deletes its offered Services (§3.4.4.2 — "Once an organization is deleted,
all the services that are associated with it are also deleted"), deleting a
Service deletes its ServiceBindings, and dangling Associations are removed
with either endpoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.persistence.dao import DAORegistry
from repro.rim import (
    Association,
    AssociationType,
    AuditableEvent,
    Classification,
    EventType,
    Organization,
    RegistryObject,
    Service,
    ServiceBinding,
    Slot,
)
from repro.rim.status import check_transition
from repro.security.authn import Session
from repro.security.xacml import PolicyDecisionPoint, Request
from repro.util.clock import Clock
from repro.util.errors import (
    AuthorizationError,
    InvalidRequestError,
    ObjectNotFoundError,
)
from repro.util.ids import IdFactory

EventListener = Callable[[AuditableEvent], None]


class LifeCycleManager:
    """Object life-cycle management for one registry instance."""

    def __init__(
        self,
        daos: DAORegistry,
        *,
        pdp: PolicyDecisionPoint,
        clock: Clock,
        ids: IdFactory,
        home: str | None = None,
    ) -> None:
        self.daos = daos
        self.pdp = pdp
        self.clock = clock
        self.ids = ids
        self.home = home
        self._listeners: list[EventListener] = []
        self._event_sequence = 0
        #: per-thread stack of event buffers for open write scopes, delivered
        #: post-commit so listeners (the subscription matcher) query
        #: *published* indexes.  Thread-local: a concurrent writer's scope
        #: must never capture — or pop — another thread's buffer.
        self._event_scopes = threading.local()
        #: (user id, idempotency key) → (operation name, recorded result);
        #: bounded FIFO so retried requests (PR-3 RetryPolicy) are
        #: exactly-once.  Keys are scoped per user: one session can never
        #: replay (or probe for) another session's recorded results.
        self._idempotency: "OrderedDict[tuple[str, str], tuple[str, Any]]" = OrderedDict()
        self._idempotency_capacity = 1024
        self._idempotency_lock = threading.Lock()
        self.idempotent_duplicates = 0
        from repro.registry.versioning import VersionHistory
        from repro.soap.serializer import admit

        self.versions = VersionHistory()
        #: the store's door, which each object a submit or update stores passes:
        #: the reader's checks (bound here: no module-level import of repro.soap)
        self._admit = admit

    # -- event bus ----------------------------------------------------------

    def add_event_listener(self, listener: EventListener) -> None:
        self._listeners.append(listener)

    def _audit(
        self, session: Session, event_type: EventType, object_id: str
    ) -> AuditableEvent:
        self._event_sequence += 1
        event = AuditableEvent(
            self.ids.new_id(),
            event_type=event_type,
            affected_object=object_id,
            user_id=session.user_id,
            timestamp=self.clock.now(),
        )
        event.sequence = self._event_sequence
        event.owner = session.user_id
        self.daos.events.insert(event)
        stack = getattr(self._event_scopes, "stack", None)
        if stack:
            # inside this thread's write scope: its transaction publishes at
            # commit, so defer delivery until then — a rolled-back
            # transaction delivers nothing
            stack[-1].append(event)
        else:
            for listener in self._listeners:
                listener(event)
        return event

    @contextmanager
    def _write_scope(self) -> Iterator[None]:
        """One store transaction + post-commit event delivery.

        Every lifecycle write runs inside one: the store publishes a single
        index generation for the whole request at commit (one version bump,
        coalesced change records) and the event bus fires only after that
        publication is visible — never for a request that rolled back, which
        publishes nothing.
        """
        store = self.daos.store
        events: list[AuditableEvent] = []
        stack = getattr(self._event_scopes, "stack", None)
        if stack is None:
            stack = []
            self._event_scopes.stack = stack
        stack.append(events)
        try:
            with store.transaction():
                yield
        finally:
            # the stack is thread-local and scopes nest LIFO, so the top
            # entry is ours by identity — never another writer's buffer
            popped = stack.pop()
            assert popped is events
        for event in events:
            for listener in self._listeners:
                listener(event)

    # -- idempotency ----------------------------------------------------------

    _MISS = object()

    def _idempotent_replay(
        self, session: Session, key: str | None, op_name: str
    ) -> Any:
        """The recorded result of a duplicate request, or ``_MISS``.

        Keys are scoped to the requesting user, so a key presented by a
        different session is a plain miss (the request runs — and is then
        authorized — normally), never a replay of someone else's result.
        A key this user already spent on a *different* operation is a
        client bug, not a retry, and is rejected.
        """
        if key is None:
            return self._MISS
        with self._idempotency_lock:
            hit = self._idempotency.get((session.user_id, key))
            if hit is None:
                return self._MISS
            recorded_op, result = hit
            if recorded_op == op_name:
                self.idempotent_duplicates += 1
        if recorded_op != op_name:
            raise InvalidRequestError(
                f"idempotency key {key!r} was used by {recorded_op}, "
                f"not {op_name}"
            )
        return list(result) if isinstance(result, list) else result

    def _idempotent_record(
        self, session: Session, key: str | None, op_name: str, result: Any
    ) -> None:
        """Remember a *committed* result so retries replay instead of re-run."""
        if key is None:
            return
        with self._idempotency_lock:
            self._idempotency[(session.user_id, key)] = (op_name, result)
            while len(self._idempotency) > self._idempotency_capacity:
                self._idempotency.popitem(last=False)

    def idempotency_stats(self) -> dict[str, int]:
        return {
            "idempotency_keys": len(self._idempotency),
            "idempotent_duplicates": self.idempotent_duplicates,
        }

    # -- authorization ---------------------------------------------------------

    def _authorize(self, session: Session, action: str, obj: RegistryObject) -> None:
        request = Request(
            subject={"id": session.user_id, "roles": session.roles, "alias": session.alias},
            resource={"id": obj.id, "owner": obj.owner, "type": obj.type_name},
            action=action,
        )
        if not self.pdp.is_permitted(request):
            raise AuthorizationError(
                f"user {session.alias!r} may not {action} {obj.type_name} {obj.id}"
            )

    # -- submitObjects -----------------------------------------------------------

    def submit_objects(
        self,
        session: Session,
        objects: Sequence[RegistryObject],
        *,
        idempotency_key: str | None = None,
    ) -> list[str]:
        """Publish new objects (ebRS SubmitObjectsRequest). Returns their ids."""
        if not objects:
            raise InvalidRequestError("submitObjects requires at least one object")
        replay = self._idempotent_replay(session, idempotency_key, "submitObjects")
        if replay is not self._MISS:
            return replay
        with self._write_scope():
            submitted: list[str] = []
            for obj in objects:
                obj.owner = obj.owner or session.user_id
                obj.home = obj.home or self.home
                self._authorize(session, "create", obj)
                self._admit(obj)
                self.daos.dao_for(obj).insert(obj)
                self._post_insert(session, obj)
                self._audit(session, EventType.CREATED, obj.id)
                submitted.append(obj.id)
        self._idempotent_record(
            session, idempotency_key, "submitObjects", list(submitted)
        )
        return submitted

    def _post_insert(self, session: Session, obj: RegistryObject) -> None:
        """Maintain the cached cross-references the DAOs rely on."""
        if isinstance(obj, ServiceBinding):
            service = self.daos.services.get(obj.service)
            if service is None:
                raise ObjectNotFoundError(obj.service, "binding references missing service")
            if obj.id not in service.binding_ids:
                service.add_binding(obj.id)
                self.daos.services.save(service)
        elif isinstance(obj, Association):
            self._apply_association(obj)
        elif isinstance(obj, Classification):
            target = self.daos.store.get_object(obj.classified_object)
            if target is None:
                raise ObjectNotFoundError(
                    obj.classified_object, "classification references missing object"
                )
            if obj.id not in target.classification_ids:
                target.classification_ids.append(obj.id)
                self.daos.store.save_object(target)

    def _apply_association(self, assoc: Association) -> None:
        source = self.daos.store.get_object(assoc.source_object)
        target = self.daos.store.get_object(assoc.target_object)
        if source is None or target is None:
            missing = assoc.source_object if source is None else assoc.target_object
            raise ObjectNotFoundError(missing, "association endpoint missing")
        # auto-confirm when the same user owns both endpoints (ebRS rule);
        # the store already holds a copy, so persist the flag change
        if source.owner == target.owner:
            assoc.confirmed_by_source = True
            assoc.confirmed_by_target = True
            self.daos.associations.save(assoc)
        if (
            assoc.association_type is AssociationType.OFFERS_SERVICE
            and isinstance(source, Organization)
            and isinstance(target, Service)
        ):
            # a service belongs to exactly one providing organization (the
            # AccessRegistry model: services live under their parent org)
            if target.provider is not None and target.provider != source.id:
                raise InvalidRequestError(
                    f"service {target.id} is already offered by organization "
                    f"{target.provider}"
                )
            source.add_service(target.id)
            self.daos.organizations.save(source)
            target.provider = source.id
            self.daos.services.save(target)
        if assoc.association_type is AssociationType.HAS_MEMBER:
            package = self.daos.packages.get(assoc.source_object)
            if package is not None:
                package.add_member(assoc.target_object)
                self.daos.packages.save(package)

    # -- updateObjects ------------------------------------------------------------

    def update_objects(
        self,
        session: Session,
        objects: Sequence[RegistryObject],
        *,
        idempotency_key: str | None = None,
    ) -> list[str]:
        """Replace existing objects, bumping their version (UpdateObjectsRequest)."""
        if not objects:
            raise InvalidRequestError("updateObjects requires at least one object")
        replay = self._idempotent_replay(session, idempotency_key, "updateObjects")
        if replay is not self._MISS:
            return replay
        superseded: list[RegistryObject] = []
        with self._write_scope():
            updated: list[str] = []
            for obj in objects:
                # before the lookup, which goes by the id the door checks; what
                # the lines below set comes from the stored version, checked
                self._admit(obj)
                # the stored instance itself: the save below replaces it (never
                # mutates it), so history retains it without a private copy
                current = self.daos.store.get_view(obj.id)
                if current is None:
                    raise ObjectNotFoundError(obj.id)
                self._authorize(session, "update", current)
                moved = getattr(obj, "service", None)
                if isinstance(current, ServiceBinding) and moved != current.service:
                    # discovery files a binding under its service: relocation
                    # is remove plus submit
                    raise InvalidRequestError(
                        f"update cannot change binding {obj.id}'s service "
                        f"{current.service!r} to {moved!r}"
                    )
                superseded.append(current)
                obj.owner = current.owner
                obj.status = current.status
                obj.version = current.version.next()
                self.daos.dao_for(obj).save(obj)
                self._audit(session, EventType.UPDATED, obj.id)
                updated.append(obj.id)
        # history keeps what a committed update replaced, as listeners get its
        # events: after the commit, and never for a rolled-back update
        at = self.clock.now()
        for current in superseded:
            self.versions.retain(current, at=at)
        self._idempotent_record(
            session, idempotency_key, "updateObjects", list(updated)
        )
        return updated

    # -- status transitions ----------------------------------------------------------

    def approve_objects(
        self,
        session: Session,
        ids: Iterable[str],
        *,
        idempotency_key: str | None = None,
    ) -> list[str]:
        return self._transition(
            session, ids, "approve", EventType.APPROVED, idempotency_key
        )

    def deprecate_objects(
        self,
        session: Session,
        ids: Iterable[str],
        *,
        idempotency_key: str | None = None,
    ) -> list[str]:
        return self._transition(
            session, ids, "deprecate", EventType.DEPRECATED, idempotency_key
        )

    def undeprecate_objects(
        self,
        session: Session,
        ids: Iterable[str],
        *,
        idempotency_key: str | None = None,
    ) -> list[str]:
        return self._transition(
            session, ids, "undeprecate", EventType.UNDEPRECATED, idempotency_key
        )

    def _transition(
        self,
        session: Session,
        ids: Iterable[str],
        verb: str,
        event_type: EventType,
        idempotency_key: str | None = None,
    ) -> list[str]:
        ids = list(ids)
        if not ids:
            raise InvalidRequestError(f"{verb}Objects requires at least one id")
        replay = self._idempotent_replay(session, idempotency_key, f"{verb}Objects")
        if replay is not self._MISS:
            return replay
        with self._write_scope():
            changed: list[str] = []
            for object_id in ids:
                obj = self.daos.store.get_object(object_id)
                if obj is None:
                    raise ObjectNotFoundError(object_id)
                self._authorize(session, verb, obj)
                obj.status = check_transition(verb, obj.status)
                self.daos.store.save_object(obj)
                self._audit(session, event_type, object_id)
                changed.append(object_id)
        self._idempotent_record(
            session, idempotency_key, f"{verb}Objects", list(changed)
        )
        return changed

    # -- removeObjects -----------------------------------------------------------------

    def remove_objects(
        self,
        session: Session,
        ids: Iterable[str],
        *,
        idempotency_key: str | None = None,
    ) -> list[str]:
        """Delete objects with thesis cascade semantics. Returns all removed ids."""
        ids = list(ids)
        if not ids:
            raise InvalidRequestError("removeObjects requires at least one id")
        replay = self._idempotent_replay(session, idempotency_key, "removeObjects")
        if replay is not self._MISS:
            return replay
        with self._write_scope():
            removed: list[str] = []
            for object_id in ids:
                self._remove_one(session, object_id, removed)
        self._idempotent_record(
            session, idempotency_key, "removeObjects", list(removed)
        )
        return removed

    def _remove_one(self, session: Session, object_id: str, removed: list[str]) -> None:
        if object_id in removed:
            return
        obj = self.daos.store.get_object(object_id)
        if obj is None:
            raise ObjectNotFoundError(object_id)
        self._authorize(session, "delete", obj)
        # cascades first (depth-first), then the object itself
        if isinstance(obj, Organization):
            for service_id in list(obj.service_ids):
                if self.daos.store.contains(service_id):
                    self._remove_one(session, service_id, removed)
        elif isinstance(obj, Service):
            for binding_id in list(obj.binding_ids):
                if self.daos.store.contains(binding_id):
                    self._remove_one(session, binding_id, removed)
        # drop associations touching this object
        for assoc in self.daos.associations.find_involving(object_id):
            if assoc.id not in removed and self.daos.store.contains(assoc.id):
                self._unlink_association(assoc)
                self.daos.store.delete_object(assoc.id)
                self._audit(session, EventType.DELETED, assoc.id)
                removed.append(assoc.id)
        # drop classifications applied to this object
        for classification in self.daos.classifications.for_object(object_id):
            if classification.id not in removed and self.daos.store.contains(classification.id):
                self.daos.store.delete_object(classification.id)
                self._audit(session, EventType.DELETED, classification.id)
                removed.append(classification.id)
        self._unlink_object(obj)
        self.daos.store.delete_object(object_id)
        self._audit(session, EventType.DELETED, object_id)
        removed.append(object_id)

    def _unlink_association(self, assoc: Association) -> None:
        """Undo the cached cross-references an association installed."""
        if assoc.association_type is AssociationType.OFFERS_SERVICE:
            org = self.daos.organizations.get(assoc.source_object)
            if org is not None:
                org.remove_service(assoc.target_object)
                self.daos.organizations.save(org)
            service = self.daos.services.get(assoc.target_object)
            if service is not None and service.provider == assoc.source_object:
                service.provider = None
                self.daos.services.save(service)
        if assoc.association_type is AssociationType.HAS_MEMBER:
            package = self.daos.packages.get(assoc.source_object)
            if package is not None:
                package.remove_member(assoc.target_object)
                self.daos.packages.save(package)

    def _unlink_object(self, obj: RegistryObject) -> None:
        if isinstance(obj, Association):
            self._unlink_association(obj)
        if isinstance(obj, ServiceBinding):
            service = self.daos.services.get(obj.service)
            if service is not None and obj.id in service.binding_ids:
                service.remove_binding(obj.id)
                self.daos.services.save(service)
        if isinstance(obj, Service) and obj.provider:
            org = self.daos.organizations.get(obj.provider)
            if org is not None:
                org.remove_service(obj.id)
                self.daos.organizations.save(org)

    # -- slots --------------------------------------------------------------------------

    def add_slots(
        self,
        session: Session,
        object_id: str,
        slots: Sequence[Slot],
        *,
        idempotency_key: str | None = None,
    ) -> None:
        replay = self._idempotent_replay(session, idempotency_key, "addSlots")
        if replay is not self._MISS:
            return None
        with self._write_scope():
            obj = self.daos.store.get_object(object_id)
            if obj is None:
                raise ObjectNotFoundError(object_id)
            self._authorize(session, "update", obj)
            for slot in slots:
                obj.slots.add(slot)
            self.daos.store.save_object(obj)
            self._audit(session, EventType.UPDATED, object_id)
        self._idempotent_record(session, idempotency_key, "addSlots", None)

    def remove_slots(
        self,
        session: Session,
        object_id: str,
        names: Sequence[str],
        *,
        idempotency_key: str | None = None,
    ) -> None:
        replay = self._idempotent_replay(session, idempotency_key, "removeSlots")
        if replay is not self._MISS:
            return None
        with self._write_scope():
            obj = self.daos.store.get_object(object_id)
            if obj is None:
                raise ObjectNotFoundError(object_id)
            self._authorize(session, "update", obj)
            for name in names:
                obj.slots.remove(name)
            self.daos.store.save_object(obj)
            self._audit(session, EventType.UPDATED, object_id)
        self._idempotent_record(session, idempotency_key, "removeSlots", None)

    # -- kernel registration ------------------------------------------------------

    def register_operations(self, kernel) -> None:
        """Declare the write-side ebRS operations in the request kernel.

        Handlers reproduce the pre-kernel ``SoapRegistryBinding._dispatch``
        branches bit-for-bit: same deserialization, same manager calls, same
        response shapes.  Imported lazily so the registry layer keeps no
        module-level dependency on :mod:`repro.soap`.
        """
        from repro.registry.kernel import OperationSpec
        from repro.soap import messages
        from repro.soap.messages import RegistryResponse, field_validator
        from repro.soap.serializer import deserialize

        def request_key(ctx):
            # requests carry an optional client-chosen idempotency key so a
            # transport-level retry replays the recorded result exactly-once
            return getattr(ctx.body, "idempotency_key", None)

        def received_objects(ctx):
            # the validator saw a list; a malformed element faults here
            return [deserialize(data) for data in ctx.body.objects]

        def answering_ids(write, read=attrgetter("body.ids")):
            # a write verb whose answer is the ids it wrote
            return lambda ctx: RegistryResponse(
                ids=write(ctx.session, read(ctx), idempotency_key=request_key(ctx))
            )

        def add_slots(ctx):
            slots = [Slot(s["name"], s["values"], s.get("slotType")) for s in ctx.body.slots]
            self.add_slots(ctx.session, ctx.body.object_id, slots, idempotency_key=request_key(ctx))
            return RegistryResponse(ids=[ctx.body.object_id])

        def remove_slots(ctx):
            self.remove_slots(
                ctx.session, ctx.body.object_id, ctx.body.names, idempotency_key=request_key(ctx)
            )
            return RegistryResponse(ids=[ctx.body.object_id])

        # each operation's request message is named after it: submitObjects's is
        # SubmitObjectsRequest
        for name, handler in (
            ("submitObjects", answering_ids(self.submit_objects, received_objects)),
            ("updateObjects", answering_ids(self.update_objects, received_objects)),
            ("approveObjects", answering_ids(self.approve_objects)),
            ("deprecateObjects", answering_ids(self.deprecate_objects)),
            ("undeprecateObjects", answering_ids(self.undeprecate_objects)),
            ("removeObjects", answering_ids(self.remove_objects)),
            ("addSlots", add_slots),
            ("removeSlots", remove_slots),
        ):
            request_type = getattr(messages, f"{name[0].upper()}{name[1:]}Request")
            kernel.register_operation(
                OperationSpec(
                    name=name,
                    request_type=request_type.__name__,
                    requires_session=True,
                    handler=handler,
                    validator=field_validator(request_type),
                )
            )
