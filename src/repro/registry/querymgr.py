"""QueryManager — the read half of the ebXML Registry Service.

Implements the discovery operations of thesis Table 1.7 / §2.2.3:

* ``get_registry_object`` / ``get_repository_item`` by id;
* ad hoc queries in SQL-92 or XML filter syntax, with iterative-query
  windowing (``startIndex`` / ``maxResults``);
* stored parameterized queries (AdhocQuery objects bound at invocation);
* the "business" convenience finds the AccessRegistry API and Web UI use
  (organizations/services by name or prefix, FindAllMyObjects);
* **service-binding resolution** — the single method the load-balancing
  scheme changes the behaviour of, by routing through
  :meth:`repro.persistence.dao.ServiceDAO.resolve_bindings`.

Unauthenticated (guest) sessions are accepted: the QueryManager is public
per §1.3.2.4, subject to content visibility only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.persistence.dao import DAORegistry
from repro.persistence.views import Answer, ObjectView, Resolved
from repro.query import QueryEngine, parse_filter_query
from repro.rim import (
    QUERY_LANGUAGE_FILTER,
    QUERY_LANGUAGE_SQL,
    Organization,
    RegistryObject,
    Service,
    ServiceBinding,
)
from repro.security.authn import Session
from repro.util.errors import InvalidRequestError, ObjectNotFoundError


@dataclass(frozen=True)
class AdhocQueryResponse:
    """Iterative-query response envelope (ebRS AdhocQueryResponse)."""

    #: the window's rows; asked for with ``copy=False``, a whole answer as the
    #: engine keeps it (read-only)
    rows: list[dict[str, Any]] | Answer
    start_index: int
    total_result_count: int

    def __len__(self) -> int:
        return self.total_result_count if type(self.rows) is Answer else len(self.rows)


class QueryManager:
    """Discovery operations for one registry instance."""

    def __init__(self, daos: DAORegistry, engine: QueryEngine) -> None:
        self.daos = daos
        self.engine = engine
        #: object id → (stored version, its wire text) of what read answers carried
        self._texts = ObjectView(daos.store)

    # -- direct gets -----------------------------------------------------------

    def get_registry_object(self, object_id: str, *, copy: bool = True) -> RegistryObject:
        """The object by id; ``copy=False`` is the stored view (read-only)."""
        store = self.daos.store
        obj = store.get_object(object_id) if copy else store.get_view(object_id)
        if obj is None:
            raise ObjectNotFoundError(object_id)
        return obj

    # -- ad hoc queries -----------------------------------------------------------

    def execute_adhoc_query(
        self,
        query: str,
        *,
        query_language: str = QUERY_LANGUAGE_SQL,
        start_index: int = 0,
        max_results: int | None = None,
        copy: bool = True,
    ) -> AdhocQueryResponse:
        """Run an AdhocQueryRequest and window the results; ``copy=False`` hands
        a whole answer over as the engine keeps it (read-only), for callers that
        only serialize it."""
        if start_index < 0:
            raise InvalidRequestError("startIndex must be non-negative")
        if max_results is not None and max_results < 0:
            raise InvalidRequestError("maxResults must be non-negative")
        if query_language == QUERY_LANGUAGE_SQL:
            parsed: Any = query
        elif query_language == QUERY_LANGUAGE_FILTER:
            parsed = parse_filter_query(query)
        else:
            raise InvalidRequestError(f"unknown query language: {query_language!r}")
        window, total = self.engine.execute_windowed(
            parsed, start_index=start_index, max_results=max_results, copy=copy
        )
        return AdhocQueryResponse(
            rows=window, start_index=start_index, total_result_count=total
        )

    def query_plan_stats(self) -> dict[str, int]:
        """Planner counters: plan cache hits, subquery materializations, rows."""
        return dict(self.engine.stats)

    # -- stored parameterized queries -------------------------------------------------

    def invoke_stored_query(
        self, query_id: str, *, start_index: int = 0, max_results: int | None = None, **params: str
    ) -> AdhocQueryResponse:
        stored = self.daos.adhoc_queries.get(query_id)
        if stored is None:
            raise ObjectNotFoundError(query_id, f"no stored query {query_id!r}")
        bound = stored.bind(**params)
        return self.execute_adhoc_query(
            bound,
            query_language=stored.query_language,
            start_index=start_index,
            max_results=max_results,
        )

    # -- business finds (Web UI / AccessRegistry surface) ------------------------------

    def find_organizations(self, name_pattern: str) -> list[Organization]:
        """Find organizations by SQL-LIKE name pattern (``DemoOrg_%``)."""
        ids = self.engine.execute_ids(
            "SELECT id FROM Organization WHERE name LIKE "
            f"'{_escape(name_pattern)}' ORDER BY name"
        )
        return [self.daos.organizations.require(i) for i in ids]

    def find_organization_by_name(self, name: str) -> Organization | None:
        matches = self.daos.organizations.find_by_name(name)
        return matches[0] if matches else None

    def find_services(self, name_pattern: str) -> list[Service]:
        ids = self.engine.execute_ids(
            f"SELECT id FROM Service WHERE name LIKE '{_escape(name_pattern)}' ORDER BY name"
        )
        return [self.daos.services.require(i) for i in ids]

    def find_service_by_name(self, name: str, *, organization: Organization | None = None) -> Service | None:
        candidates = self.daos.services.find_by_name(name)
        if organization is not None:
            candidates = [s for s in candidates if s.provider == organization.id]
        return candidates[0] if candidates else None

    def find_all_my_objects(self, session: Session) -> list[RegistryObject]:
        """The Web UI's *FindAllMyObjects* (Figure 3.41): everything I own."""
        out: list[RegistryObject] = []
        for type_name in self.daos.store.type_names():
            out.extend(
                self.daos.store.select_objects(
                    type_name, lambda o: o.owner == session.user_id
                )
            )
        return sorted(out, key=lambda o: (o.type_name, o.name.value, o.id))

    # -- service discovery (the load-balanced path) --------------------------------------

    def get_service_bindings(
        self, service_id: str, *, copy: bool = True
    ) -> Sequence[ServiceBinding]:
        """Bindings for a service, post binding-resolver.

        With the default resolver this returns all bindings in publisher
        order (vanilla freebXML); with the constraint resolver installed it
        returns only/first the hosts currently satisfying the service's
        constraints — the thesis' modified discovery.  ``copy=False`` returns
        the stored views (read-only), for callers that only serialize them.
        """
        service = self.daos.services.get_view(service_id)
        if service is None:
            raise ObjectNotFoundError(service_id)
        return self.daos.services.resolve_bindings(service, copy=copy)

    def get_access_uris(self, service_id: str) -> list[str]:
        """Access URIs of :meth:`get_service_bindings`' answer, in its order."""
        return [
            b.access_uri
            for b in self.get_service_bindings(service_id, copy=False)
            if b.access_uri
        ]

    def audit_trail(self, object_id: str):
        """AuditableEvents for an object, oldest first."""
        return self.daos.events.for_object(object_id)

    # -- kernel registration ----------------------------------------------------

    def register_operations(self, kernel) -> None:
        """Declare the read-side ebRS operations in the request kernel.

        Handlers reproduce the pre-kernel SOAP/HTTP dispatch branches
        exactly; the HTTP builders carry the HTTP GET binding's historical
        parameter checks (same error messages).  Imported lazily so the
        registry layer keeps no module-level dependency on
        :mod:`repro.soap`.
        """
        from repro.registry.kernel import OperationSpec
        from repro.soap.messages import (
            AdhocQueryRequest,
            GetRegistryObjectRequest,
            GetServiceBindingsRequest,
            RegistryResponse,
            field_validator,
        )
        from repro.soap.serializer import AnswerRows, StoredObjects, object_json, serialize

        store, view = self.daos.store, self._texts

        def stored_answer(versions):
            """An answer of stored versions and their texts: a version's text is written once,
            filed under the view's fill protocol and joined after; a kept answer keeps its texts."""
            texts = versions.texts if type(versions) is Resolved else None
            if texts is None:
                as_of = view.catch_up()
                texts = []
                for version in versions:
                    entry = view.get(version.id)
                    if entry is None or entry[0] is not version:
                        entry = (version, object_json(serialize(version)))
                        if store.get_view(version.id) is version:
                            view.put(version.id, *entry, as_of=as_of)
                    texts.append(entry[1])
                if type(versions) is Resolved:
                    versions.texts = texts = tuple(texts)  # one store: racing fills are equal
            return RegistryResponse(objects=StoredObjects(versions, texts))

        def execute_query(ctx):
            response = self.execute_adhoc_query(
                ctx.body.query,
                query_language=ctx.body.query_language,
                start_index=ctx.body.start_index,
                max_results=ctx.body.max_results,
                copy=False,
            )
            rows = response.rows
            # a kept answer is written as the text it keeps
            return RegistryResponse(
                rows=AnswerRows(rows) if type(rows) is Answer else rows,
                total_result_count=response.total_result_count,
            )

        def build_execute_query(params):
            query = params.get("param-query")
            if not query:
                raise InvalidRequestError("executeQuery requires param-query")
            return AdhocQueryRequest(
                query=query,
                query_language=params.get("param-lang", QUERY_LANGUAGE_SQL),
            )

        def get_registry_object(ctx):
            return stored_answer([self.get_registry_object(ctx.body.object_id, copy=False)])

        def build_get_registry_object(params):
            object_id = params.get("param-id")
            if not object_id:
                raise InvalidRequestError("getRegistryObject requires param-id")
            return GetRegistryObjectRequest(object_id=object_id)

        def get_service_bindings(ctx):
            return stored_answer(self.get_service_bindings(ctx.body.service_id, copy=False))

        kernel.register_operation(
            OperationSpec(
                name="executeQuery",
                request_type="AdhocQueryRequest",
                read_gate=True,
                handler=execute_query,
                http_method="executeQuery",
                http_builder=build_execute_query,
                validator=field_validator(AdhocQueryRequest),
            )
        )
        kernel.register_operation(
            OperationSpec(
                name="getRegistryObject",
                request_type="GetRegistryObjectRequest",
                read_gate=True,
                handler=get_registry_object,
                http_method="getRegistryObject",
                http_builder=build_get_registry_object,
                validator=field_validator(GetRegistryObjectRequest),
            )
        )
        kernel.register_operation(
            OperationSpec(
                name="getServiceBindings",
                request_type="GetServiceBindingsRequest",
                read_gate=True,
                handler=get_service_bindings,
                validator=field_validator(GetServiceBindingsRequest),
            )
        )


def _escape(pattern: str) -> str:
    return pattern.replace("'", "''")
