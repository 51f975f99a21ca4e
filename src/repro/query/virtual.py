"""Virtual tables: ebRIM classes exposed as relational rows for SQL queries.

freebXML ships a normative SQL schema in which each ebRIM class is a table.
Here each class maps to a **column catalogue**: every column is defined
once, as an expression over the stored object ``o``, and each of its
readers is compiled from that one definition —

* the column's **getter** (``column → getter(obj)``), which the planner
  compiles predicates' column reads to, so filters run on the stored
  objects and no row is built for an object that does not survive;
* the table's **full-row projection** (``SELECT *``, the ``planner=False``
  oracle, the survivors of a planned statement): one dict display over all
  the expressions, as fast as a hand-written row function;
* a **lean row** of just the columns a statement's tail reads
  (:func:`row_reader`), which a result kept per object holds.

The expressions are this module's own constants, never request input.
Column names follow the freebXML schema conventions (lower-case, e.g.
``id``, ``name_``, ``description``), with pragmatic aliases so queries can
say either ``name`` or ``name_``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Mapping

Row = dict[str, Any]
Getter = Callable[[Any], Any]


@dataclass(frozen=True)
class VirtualTable:
    """One ebRIM class as a table: its RIM type and its compiled catalogue."""

    #: RIM class name, or ``"*"`` for the union view over every class
    type_name: str
    #: column (lower case) → getter over a stored object, in row order
    columns: Mapping[str, Getter]
    #: stored object → its full row: every catalogue column, in order
    project: Callable[[Any], Row]
    #: column (lower case) → its expression over the stored object ``o``
    expressions: Mapping[str, str] = field(compare=False, repr=False)


#: column → expression over the stored object ``o``, common to every class
_BASE = {
    "id": "o.id",
    "lid": "o.lid",
    "name": "o.name.value",
    "name_": "o.name.value",
    "description": "o.description.value",
    "status": "o.status.value",
    "objecttype": "o.object_type",
    "owner": "o.owner",
    "versionname": "o.version.version_name",
    "home": "o.home",
}


@cache
def _reader(body: str) -> Callable[[Any], Any]:
    """``lambda o: <body>``, compiled once per distinct body."""
    return eval(f"lambda o: {body}")  # noqa: S307 - module constants only


def _table(type_name: str, **own: str) -> VirtualTable:
    """Compile the base columns plus the class's *own* into a table."""
    expressions = {**_BASE, **own}
    columns = {column: _reader(expr) for column, expr in expressions.items()}
    display = ", ".join(f"{column!r}: {expr}" for column, expr in expressions.items())
    return VirtualTable(type_name, columns, _reader(f"{{{display}}}"), expressions)


_USER = _table(
    "User",
    alias="o.alias",
    firstname="o.person_name.first_name",
    lastname="o.person_name.last_name",
    organization="o.organization",
)

#: canonical-table-name (lower case) → virtual table
VIRTUAL_TABLES: dict[str, VirtualTable] = {
    "organization": _table(
        "Organization",
        parent="o.parent",
        primarycontact="o.primary_contact",
        # ``vars``: a read gives no stored organization an address list
        city="o.addresses[0].city if vars(o).get('addresses') else None",
        country="o.addresses[0].country if vars(o).get('addresses') else None",
    ),
    "service": _table("Service", provider="o.provider"),
    "servicebinding": _table(
        "ServiceBinding",
        service="o.service",
        accessuri="o.access_uri",
        targetbinding="o.target_binding",
        host="o.host",
    ),
    "association": _table(
        "Association",
        sourceobject="o.source_object",
        targetobject="o.target_object",
        associationtype="o.association_type.value",
    ),
    "classification": _table(
        "Classification",
        classifiedobject="o.classified_object",
        classificationnode="o.classification_node",
        classificationscheme="o.classification_scheme",
        noderepresentation="o.node_representation",
    ),
    "classificationnode": _table(
        "ClassificationNode", code="o.code", parent="o.parent", path="o.path"
    ),
    "classificationscheme": _table(
        "ClassificationScheme", isinternal="o.is_internal", nodetype="o.node_type"
    ),
    "externalidentifier": _table(
        "ExternalIdentifier",
        registryobject="o.registry_object",
        identificationscheme="o.identification_scheme",
        value="o.value",
    ),
    "externallink": _table("ExternalLink", externaluri="o.external_uri"),
    "extrinsicobject": _table(
        "ExtrinsicObject",
        mimetype="o.mime_type",
        isopaque="o.is_opaque",
        contentversion="o.content_version",
    ),
    "user_": _USER,
    "user": _USER,
    "auditableevent": _table(
        "AuditableEvent",
        eventtype="o.event_type.value",
        affectedobject="o.affected_object",
        user_="o.user_id",
        timestamp_="o.timestamp",
    ),
    "registrypackage": _table("RegistryPackage"),
    "specificationlink": _table(
        "SpecificationLink",
        servicebinding="o.service_binding",
        specificationobject="o.specification_object",
    ),
    "adhocquery": _table(
        "AdhocQuery", query="o.query", querylanguage="o.query_language"
    ),
    "subscription": _table(
        "Subscription",
        selector="o.selector",
        starttime="o.start_time",
        endtime="o.end_time",
    ),
    # RegistryObject is the union view over every class
    "registryobject": _table("*"),
}


def row_reader(table: str, names: tuple[str, ...]) -> Callable[[Any], Row]:
    """Stored object → a row of just *names*, catalogue columns of *table*
    (both lower case), compiled anew: the column lists come from queries, so
    a caller keeps what it needs in a bounded cache.  The expressions are
    still this module's own."""
    expressions = VIRTUAL_TABLES[table].expressions
    display = ", ".join(f"{name!r}: {expressions[name]}" for name in names)
    return eval(f"lambda o: {{{display}}}")  # noqa: S307 - module constants only
