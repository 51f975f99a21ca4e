"""DAO layer: typed accessors per ebRIM class, mirroring freebXML's XxxDAO classes.

Thesis §2.2.3: "classes named XxxDAO where Xxx maps to a class defined by
ebRIM … provide support for the corresponding RIM class using an RDBMS".
The two classes the load-balancing scheme *modifies* are ``ServiceDAO`` and
``ServiceBindingDAO`` (Figures 3.5/3.6): at discovery time ServiceDAO
populates the binding list through a **binding resolver**, which by default
returns all bindings in publisher order and which the core package replaces
with the constraint-aware LoadStatus resolver.  That pluggable seam is the
exact modification point of the thesis, kept as a strategy so the substrate
stays independent of the contribution.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.persistence.datastore import DataStore
from repro.persistence.views import BoundBindings, ObjectView
from repro.rim import (
    AdhocQuery,
    Association,
    AssociationType,
    AuditableEvent,
    Classification,
    ClassificationNode,
    ClassificationScheme,
    ExternalIdentifier,
    ExternalLink,
    ExtrinsicObject,
    Organization,
    RegistryObject,
    RegistryPackage,
    Service,
    ServiceBinding,
    SpecificationLink,
    Subscription,
    User,
)
from repro.util.errors import InvalidRequestError, ObjectNotFoundError


#: services whose bindings ``ServiceDAO`` keeps joined to their hosts at most
MAX_BOUND_SERVICES = 4096


class GenericDAO:
    """Shared CRUD over the object heap for one ebRIM class."""

    #: the RIM class this DAO serves; subclasses set it.
    RIM_CLASS: type[RegistryObject] = RegistryObject

    def __init__(self, store: DataStore) -> None:
        self.store = store

    @property
    def type_name(self) -> str:
        return self.RIM_CLASS.__name__

    def insert(self, obj: RegistryObject) -> None:
        self._check_type(obj)
        self.store.insert_object(obj)

    def save(self, obj: RegistryObject) -> None:
        self._check_type(obj)
        self.store.save_object(obj)

    def get(self, object_id: str):
        obj = self.store.get_object(object_id)
        if obj is not None and not isinstance(obj, self.RIM_CLASS):
            return None
        return obj

    def get_view(self, object_id: str):
        """The stored instance, read-only and uncopied (discovery hot path)."""
        obj = self.store.get_view(object_id)
        if obj is not None and not isinstance(obj, self.RIM_CLASS):
            return None
        return obj

    def require(self, object_id: str):
        obj = self.get(object_id)
        if obj is None:
            raise ObjectNotFoundError(object_id)
        return obj

    def delete(self, object_id: str) -> None:
        self.require(object_id)
        self.store.delete_object(object_id)

    def all(self) -> list:
        return self.store.objects_of_type(self.type_name)

    def select(self, predicate: Callable[[RegistryObject], bool]) -> list:
        return self.store.select_objects(self.type_name, predicate)

    def find_by_name(self, name: str) -> list:
        """Exact-name lookup (the UI's organization/service search), indexed."""
        return self.store.find_by_name(self.type_name, name)

    def find_views_by_name(self, name: str) -> list:
        """Read-only exact-name lookup — no copies (discovery hot path)."""
        return self.store.find_views_by_name(self.type_name, name)

    def find_by_name_prefix(self, prefix: str) -> list:
        """Prefix search, like the thesis' ``DemoOrg_%`` Web-UI searches."""
        return self.store.find_by_name_prefix(self.type_name, prefix)

    def count(self) -> int:
        return self.store.count(self.type_name)

    def _check_type(self, obj: RegistryObject) -> None:
        if not isinstance(obj, self.RIM_CLASS):
            raise InvalidRequestError(
                f"{type(self).__name__} cannot store a {obj.type_name}"
            )


class BindingResolver(Protocol):
    """Strategy deciding which access URIs a discovery returns, in what order.

    This is the seam the thesis' load-balancing scheme plugs into: the
    default resolver reproduces vanilla freebXML (all bindings, publisher
    order); :class:`repro.core.balancer.ConstraintBindingResolver` reproduces
    the modified registry.
    """

    def resolve(
        self, service: Service, bindings: Sequence[ServiceBinding]
    ) -> Sequence[ServiceBinding]:
        """The bindings in discovery order, read-only: it may be a kept answer."""
        ...


class DefaultBindingResolver:
    """Vanilla behaviour: every binding, in publisher order."""

    def resolve(
        self, service: Service, bindings: Sequence[ServiceBinding]
    ) -> list[ServiceBinding]:
        return list(bindings)


class ServiceBindingDAO(GenericDAO):
    RIM_CLASS = ServiceBinding

    def for_service(self, service: Service, *, copy: bool = True) -> list[ServiceBinding]:
        """Bindings of *service* in publisher order (the order of binding_ids).

        ``copy=False`` returns the stored instances (read-only by contract);
        the discovery fast path uses it to skip per-binding deep copies.
        """
        fetch = self.get if copy else self.get_view
        out: list[ServiceBinding] = []
        # a read: a service that never held a binding list is not given one
        for binding_id in vars(service).get("binding_ids", ()):
            binding = fetch(binding_id)
            if binding is not None:
                out.append(binding)
        return out

    def find_by_host(self, host: str) -> list[ServiceBinding]:
        return self.select(lambda b: b.host == host)


class ServiceDAO(GenericDAO):
    """Service accessor with the thesis' modified discovery path.

    :meth:`resolve_bindings` is what the QueryManager calls when a client
    asks for a service's access URIs; the installed resolver implements
    either vanilla or load-balanced behaviour.
    """

    RIM_CLASS = Service

    def __init__(
        self,
        store: DataStore,
        binding_dao: ServiceBindingDAO,
        resolver: BindingResolver | None = None,
    ) -> None:
        super().__init__(store)
        self.binding_dao = binding_dao
        self.resolver: BindingResolver = resolver or DefaultBindingResolver()
        #: service id → (binding ids, bindings joined to hosts), maintained
        #: off the store's changelog: the partition is read once per write
        #: to the service or one of its bindings, not per request
        self._bindings_view = ObjectView(store)
        #: optional telemetry tracer; spans every resolve
        self.tracer = None

    def set_resolver(self, resolver: BindingResolver) -> None:
        self.resolver = resolver

    def resolve_bindings(self, service: Service, *, copy: bool = True) -> Sequence[ServiceBinding]:
        """Bindings for discovery, post-resolver (the registry's answer).

        The resolver only reads, so it always runs over stored views; with
        ``copy=True`` (the default, safe for external callers) the *resolved*
        bindings are copied on the way out — per-query copy work is bounded
        by the answer size, not the partition size.  ``copy=False`` returns
        the resolver's answer, a read-only sequence of stored views.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("dao.resolve_bindings", service=service.id) as span:
                raw = self._bound(service)
                resolved = self.resolver.resolve(service, raw)
                span.tags["bindings"] = len(raw)
                span.tags["resolved"] = len(resolved)
        else:
            resolved = self.resolver.resolve(service, self._bound(service))
        if copy:
            return [b.copy() for b in resolved]
        return resolved

    def _bound(self, service: Service) -> BoundBindings:
        """The service's stored bindings joined to their hosts (changelog view)."""
        view = self._bindings_view
        as_of = view.catch_up()
        ids = vars(service).get("binding_ids", [])  # a read: the stored service is not given a list
        cached = view.get(service.id)
        if cached is not None and cached[0] == ids:
            return cached[1]
        bound = BoundBindings(self.binding_dao.for_service(service, copy=False))
        # the view hears of a binding through its owner: file the join only
        # when every listed binding is stored and names this service
        if len(bound) == len(ids) and {b.service for b in bound} <= {service.id}:
            if len(view) >= MAX_BOUND_SERVICES:
                view.invalidate_all()  # start over rather than grow without bound
            view.put(service.id, list(ids), bound, as_of=as_of)
        return bound


class OrganizationDAO(GenericDAO):
    RIM_CLASS = Organization


class AssociationDAO(GenericDAO):
    RIM_CLASS = Association

    def find_by_source(self, source_id: str) -> list[Association]:
        return self.select(lambda a: a.source_object == source_id)

    def find_by_target(self, target_id: str) -> list[Association]:
        return self.select(lambda a: a.target_object == target_id)

    def find_involving(self, object_id: str) -> list[Association]:
        return self.select(
            lambda a: object_id in (a.source_object, a.target_object)
        )

    def offers_service(self, org_id: str) -> list[Association]:
        return self.select(
            lambda a: a.source_object == org_id
            and a.association_type is AssociationType.OFFERS_SERVICE
        )


class UserDAO(GenericDAO):
    RIM_CLASS = User

    def find_by_alias(self, alias: str) -> User | None:
        matches = self.select(lambda u: u.alias == alias)
        return matches[0] if matches else None


class AuditableEventDAO(GenericDAO):
    RIM_CLASS = AuditableEvent

    def for_object(self, object_id: str) -> list[AuditableEvent]:
        events = self.select(lambda e: e.affected_object == object_id)
        return sorted(events, key=lambda e: (e.timestamp, e.sequence, e.id))


class ClassificationDAO(GenericDAO):
    RIM_CLASS = Classification

    def for_object(self, object_id: str) -> list[Classification]:
        return self.select(lambda c: c.classified_object == object_id)


class ClassificationSchemeDAO(GenericDAO):
    RIM_CLASS = ClassificationScheme


class ClassificationNodeDAO(GenericDAO):
    RIM_CLASS = ClassificationNode

    def children_of(self, parent_id: str) -> list[ClassificationNode]:
        return self.select(lambda n: n.parent == parent_id)


class ExternalIdentifierDAO(GenericDAO):
    RIM_CLASS = ExternalIdentifier

    def for_object(self, object_id: str) -> list[ExternalIdentifier]:
        return self.select(lambda e: e.registry_object == object_id)


class ExternalLinkDAO(GenericDAO):
    RIM_CLASS = ExternalLink


class ExtrinsicObjectDAO(GenericDAO):
    RIM_CLASS = ExtrinsicObject


class RegistryPackageDAO(GenericDAO):
    RIM_CLASS = RegistryPackage


class SpecificationLinkDAO(GenericDAO):
    RIM_CLASS = SpecificationLink


class AdhocQueryDAO(GenericDAO):
    RIM_CLASS = AdhocQuery


class SubscriptionDAO(GenericDAO):
    RIM_CLASS = Subscription


class DAORegistry:
    """Bundle of all DAOs over one datastore (freebXML's persistence manager)."""

    def __init__(self, store: DataStore) -> None:
        self.store = store
        self.service_bindings = ServiceBindingDAO(store)
        self.services = ServiceDAO(store, self.service_bindings)
        self.organizations = OrganizationDAO(store)
        self.associations = AssociationDAO(store)
        self.users = UserDAO(store)
        self.events = AuditableEventDAO(store)
        self.classifications = ClassificationDAO(store)
        self.classification_schemes = ClassificationSchemeDAO(store)
        self.classification_nodes = ClassificationNodeDAO(store)
        self.external_identifiers = ExternalIdentifierDAO(store)
        self.external_links = ExternalLinkDAO(store)
        self.extrinsic_objects = ExtrinsicObjectDAO(store)
        self.packages = RegistryPackageDAO(store)
        self.specification_links = SpecificationLinkDAO(store)
        self.adhoc_queries = AdhocQueryDAO(store)
        self.subscriptions = SubscriptionDAO(store)
        # routing table built once; dao_for is on the LifeCycleManager write path
        self._dao_by_type: dict[str, GenericDAO] = {
            dao.type_name: dao
            for dao in vars(self).values()
            if isinstance(dao, GenericDAO)
        }

    def dao_for(self, obj: RegistryObject) -> GenericDAO:
        """Route an object to its typed DAO (used by the LifeCycleManager)."""
        dao = self._dao_by_type.get(obj.type_name)
        if dao is None:
            raise InvalidRequestError(f"no DAO for object type {obj.type_name!r}")
        return dao
