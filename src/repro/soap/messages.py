"""Registry protocol request/response messages (ebRS protocols).

One dataclass per protocol the thesis names (§2.2.3 and Figure 2.4):
SubmitObjectsRequest, UpdateObjectsRequest, ApproveObjectsRequest,
DeprecateObjectsRequest, UndeprecateObjectsRequest, RemoveObjectsRequest,
RelocateObjectsRequest, AddSlotsRequest, RemoveSlotsRequest, plus
AdhocQueryRequest/Response and the generic RegistryResponse wrapper.

Requests reference registry objects as *serialized dicts* (see
:mod:`repro.soap.serializer`) so the transport boundary is a real data
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable

from repro.rim import QUERY_LANGUAGE_SQL
from repro.util.errors import InvalidRequestError

SerializedObject = dict[str, Any]


@dataclass(frozen=True)
class SubmitObjectsRequest:
    objects: list[SerializedObject]
    #: optional client-chosen key: a retried request with the same key
    #: replays the recorded result instead of re-running (exactly-once)
    idempotency_key: str | None = None


@dataclass(frozen=True)
class UpdateObjectsRequest:
    objects: list[SerializedObject]
    idempotency_key: str | None = None


@dataclass(frozen=True)
class ApproveObjectsRequest:
    ids: list[str]
    idempotency_key: str | None = None


@dataclass(frozen=True)
class DeprecateObjectsRequest:
    ids: list[str]
    idempotency_key: str | None = None


@dataclass(frozen=True)
class UndeprecateObjectsRequest:
    ids: list[str]
    idempotency_key: str | None = None


@dataclass(frozen=True)
class RemoveObjectsRequest:
    ids: list[str]
    idempotency_key: str | None = None


@dataclass(frozen=True)
class AddSlotsRequest:
    object_id: str
    slots: list[dict[str, Any]]
    idempotency_key: str | None = None


@dataclass(frozen=True)
class RemoveSlotsRequest:
    object_id: str
    names: list[str]
    idempotency_key: str | None = None


@dataclass(frozen=True)
class AdhocQueryRequest:
    query: str
    query_language: str = QUERY_LANGUAGE_SQL
    start_index: int = 0
    max_results: int | None = None


@dataclass(frozen=True)
class GetRegistryObjectRequest:
    object_id: str


@dataclass(frozen=True)
class GetServiceBindingsRequest:
    """Discovery request for a service's (load-balanced) access bindings."""

    service_id: str


def _string(value: Any) -> bool:
    return isinstance(value, str)


def _strings(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


def _slot_dicts(value: Any) -> bool:
    """Slots as ``serializer`` reads them back: a name, a list of string values and
    a string or null type (left out, null)."""
    return isinstance(value, list) and all(
        isinstance(slot, dict)
        and isinstance(slot.get("name"), str)
        and isinstance(values := slot.get("values"), list)
        and all(isinstance(v, str) for v in values)
        and (slot.get("slotType") is None or isinstance(slot["slotType"], str))
        for slot in value
    )


#: request field name → (is it well-formed?, what a well-formed value is).  A
#: field means the same in every request that carries it.  ``objects`` is
#: checked to be a list only: ``deserialize`` faults a malformed element,
#: naming its type and field.
_FIELD_SHAPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "objects": (lambda value: isinstance(value, list), "a list of object dicts"),
    "ids": (_strings, "a list of id strings"),
    "names": (_strings, "a list of name strings"),
    "slots": (
        _slot_dicts,
        "a list of slot dicts with a name, a list of string values and a string or null slotType",
    ),
    "object_id": (_string, "an id string"),
    "service_id": (_string, "an id string"),
    "query": (_string, "a query string"),
    "query_language": (_string, "a string"),
    # ``true`` is no index: ``bool`` is a subclass of ``int``
    "start_index": (lambda value: type(value) is int, "an integer"),
    "max_results": (lambda value: value is None or type(value) is int, "an integer or null"),
    "idempotency_key": (lambda value: value is None or isinstance(value, str), "a string or null"),
}


def field_validator(message_type: type) -> Callable[[Any], None]:
    """The kernel ``validator`` of the operation *message_type* requests.

    A message is whatever JSON the sender wrote, so any field can hold any
    JSON value; one of the wrong shape must fault
    (:class:`InvalidRequestError`) at the ``validate`` stage, not escape
    the handler as a ``TypeError`` past the edge's fault mapper.
    """
    type_name = message_type.__name__
    checks = tuple((f.name, *_FIELD_SHAPES[f.name]) for f in fields(message_type))

    def validate(ctx: Any) -> None:
        body = ctx.body
        for name, well_formed, expected in checks:
            value = getattr(body, name)
            if not well_formed(value):
                raise InvalidRequestError(
                    f"{type_name}.{name} must be {expected}, got {type(value).__name__}"
                )

    return validate


@dataclass(frozen=True)
class RegistryResponse:
    """Generic success response: status + result payload."""

    status: str = "Success"
    ids: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: object dicts; from the kernel's read handlers, a ``serializer.StoredObjects``
    objects: list[SerializedObject] = field(default_factory=list)
    total_result_count: int | None = None

    STATUS_SUCCESS = "Success"
    STATUS_FAILURE = "Failure"

    @property
    def is_success(self) -> bool:
        return self.status == self.STATUS_SUCCESS
