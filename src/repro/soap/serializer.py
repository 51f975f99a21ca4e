"""Serialization of ebRIM objects to/from transport dicts.

The simulated SOAP boundary moves plain data, not live objects: this module
flattens each RIM class to a tagged dict (``{"_type": "Service", ...}``) and
reconstructs it on the other side.  Round-tripping is exact for every field
the tables below list, which the property tests verify; ``RegistryEntry``'s
``expiration`` and ``stability`` (Service, ClassificationScheme, RegistryPackage,
ExtrinsicObject) are listed nowhere: they were never on the wire, nor in a snapshot.

One table drives every direction: each RIM type lists its fields once (wire
key ↔ attribute, optional converters) after the fields every RegistryObject
shares, and :class:`_Codec` resolves the lists at import — object → dict, dict →
object, dict → JSON text.  The key order of a serialized dict is the table's
order; its JSON text is in sorted-key order, as the wire writes it.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.rim import (
    AdhocQuery,
    Association,
    AssociationType,
    AuditableEvent,
    EventType,
    Classification,
    ClassificationNode,
    ClassificationScheme,
    EmailAddress,
    ExternalIdentifier,
    ExternalLink,
    ExtrinsicObject,
    InternationalString,
    NotifyAction,
    Organization,
    PersonName,
    PostalAddress,
    RegistryObject,
    RegistryPackage,
    Service,
    ServiceBinding,
    Slot,
    SlotMap,
    SpecificationLink,
    Subscription,
    TelephoneNumber,
    User,
)
from repro.rim.status import ObjectStatus
from repro.util.errors import InvalidRequestError

SerializedObject = dict[str, Any]


#: a column left unset: the key must be written, no wire value is skipped
_UNSET = object()
#: what reading a dict this module did not write raises, short of the model's
#: own refusals (``RegistryError``, which pass through)
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError)


class _Field(NamedTuple):
    """One wire key of a serialized object.

    ``attr`` is the attribute path read on the way out.  On the way in the
    value is assigned to that path after construction, or, for an ``init``
    field, handed to the constructor under the path's last segment.  ``fresh``
    is the wire value a newly constructed object already stands for: reading it
    assigns nothing.  A key with a ``default`` may be left out.
    """

    wire: str
    attr: str
    encode: Callable[[Any], Any] | None = None
    decode: Callable[[Any], Any] | None = None
    fresh: Any = _UNSET
    init: bool = False
    default: Any = _UNSET


def _records(cls: type, **attrs: str) -> tuple[Callable, Callable, list]:
    """Converters for a list of value objects: ``wire key=attribute`` pairs."""
    pairs = tuple(attrs.items())

    def encode(values):
        return [{wire: getattr(value, attr) for wire, attr in pairs} for value in values]

    def decode(entries):
        return [cls(**{attr: entry[wire] for wire, attr in pairs}) for entry in entries]

    return encode, decode, []


def _strings(values: list[str]) -> list[str]:
    """A copy of a list of strings; anything else is malformed."""
    if not (isinstance(values, list) and all(isinstance(value, str) for value in values)):
        raise TypeError(f"{values!r} is not a list of strings")
    return values[:]


def _istring(value: InternationalString) -> list[dict[str, str]]:
    return [
        {"locale": locale, "charset": charset, "value": text}
        for text, locale, charset in value.localized()
    ]


def _istring_back(data: list[dict[str, str]]) -> InternationalString:
    out = InternationalString()
    for entry in data:
        value, locale, charset = entry["value"], entry["locale"], entry["charset"]
        if not (isinstance(value, str) and isinstance(locale, str) and isinstance(charset, str)):
            raise TypeError(f"{entry!r} is not a localized string")
        out.set(value, locale=locale, charset=charset)
    return out


def _slots(slots: SlotMap) -> list[dict[str, Any]]:
    return [
        {"name": s.name, "values": list(s.values), "slotType": s.slot_type} for s in slots
    ]


def _slots_back(data: list[dict[str, Any]]) -> SlotMap:
    out = SlotMap()
    for slot in data:
        out.add(Slot(slot["name"], _strings(slot["values"]), slot["slotType"]))
    return out


def _user(id: str, *, first_name: str, middle_name: str, last_name: str, **kwargs) -> User:
    return User(id, person_name=PersonName(first_name, middle_name, last_name), **kwargs)


_enum_value = attrgetter("value")


def _enum(cls: type) -> tuple[Callable, Callable]:
    """Converters for an enum that travels as its value."""
    return _enum_value, {member.value: member for member in cls}.__getitem__


_ID_LIST = (list, _strings, [])
_ADDRESSES = _records(
    PostalAddress, streetNumber="street_number", street="street", city="city",
    state="state", country="country", postalCode="postal_code", type="type",
)  # fmt: skip
_EMAILS = _records(EmailAddress, address="address", type="type")
_TELEPHONES = _records(
    TelephoneNumber, number="number", countryCode="country_code",
    areaCode="area_code", extension="extension", type="type",
)  # fmt: skip
_ACTIONS = _records(NotifyAction, mode="mode", endpoint="endpoint")

#: the fields every RegistryObject carries, after ``_type``
_BASE_FIELDS = (
    _Field("id", "id", init=True),
    _Field("lid", "lid"),
    _Field("name", "name", _istring, _istring_back, init=True),
    _Field("description", "description", _istring, _istring_back, init=True),
    _Field("status", "status", *_enum(ObjectStatus)),
    _Field("versionName", "version.version_name"),
    _Field("owner", "owner"),
    _Field("home", "home"),
    _Field("slots", "slots", _slots, _slots_back, []),
    _Field("classificationIds", "classification_ids", *_ID_LIST),
    _Field("externalIdentifierIds", "external_identifier_ids", *_ID_LIST),
)

#: the fields each RIM type adds, in wire order
_TYPE_FIELDS: dict[type, tuple[_Field, ...]] = {
    Organization: (
        _Field("parent", "parent", init=True),
        _Field("primaryContact", "primary_contact", init=True),
        _Field("addresses", "addresses", *_ADDRESSES),
        _Field("emails", "emails", *_EMAILS),
        _Field("telephones", "telephones", *_TELEPHONES),
        _Field("serviceIds", "service_ids", *_ID_LIST),
    ),
    Service: (
        _Field("provider", "provider", init=True),
        _Field("bindingIds", "binding_ids", *_ID_LIST),
    ),
    ServiceBinding: (
        _Field("service", "service", init=True),
        _Field("accessUri", "access_uri", init=True),
        _Field("targetBinding", "target_binding", init=True),
        _Field("specificationLinkIds", "specification_link_ids", *_ID_LIST),
    ),
    Association: (
        _Field("sourceObject", "source_object", init=True),
        _Field("targetObject", "target_object", init=True),
        # read back by short name or URN
        _Field(
            "associationType", "association_type", _enum_value, AssociationType.from_name, init=True
        ),
        _Field("confirmedBySource", "confirmed_by_source"),
        _Field("confirmedByTarget", "confirmed_by_target"),
    ),
    Classification: (
        _Field("classifiedObject", "classified_object", init=True),
        _Field("classificationNode", "classification_node", init=True),
        _Field("classificationScheme", "classification_scheme", init=True),
        _Field("nodeRepresentation", "node_representation", init=True),
    ),
    ClassificationScheme: (
        _Field("isInternal", "is_internal", init=True),
        _Field("nodeType", "node_type", init=True),
        _Field("childNodeIds", "child_node_ids", *_ID_LIST),
    ),
    ClassificationNode: (
        _Field("code", "code", init=True),
        _Field("parent", "parent", init=True),
        _Field("path", "path", init=True),
        _Field("childNodeIds", "child_node_ids", *_ID_LIST),
    ),
    ExternalIdentifier: (
        _Field("registryObject", "registry_object", init=True),
        _Field("identificationScheme", "identification_scheme", init=True),
        _Field("value", "value", init=True),
    ),
    ExternalLink: (_Field("externalUri", "external_uri", init=True),),
    ExtrinsicObject: (
        _Field("mimeType", "mime_type", init=True),
        _Field("isOpaque", "is_opaque", init=True),
        _Field("contentVersion", "content_version", init=True),
    ),
    RegistryPackage: (_Field("memberIds", "member_ids", *_ID_LIST),),
    SpecificationLink: (
        _Field("serviceBinding", "service_binding", init=True),
        _Field("specificationObject", "specification_object", init=True),
        _Field("usageDescription", "usage_description", init=True),
    ),
    User: (
        _Field("alias", "alias", init=True),
        _Field("firstName", "person_name.first_name", init=True),
        _Field("middleName", "person_name.middle_name", init=True),
        _Field("lastName", "person_name.last_name", init=True),
        _Field("organization", "organization", init=True),
        _Field("roles", "roles", sorted, set),
    ),
    AuditableEvent: (
        _Field("eventType", "event_type", *_enum(EventType), init=True),
        _Field("affectedObject", "affected_object", init=True),
        _Field("userId", "user_id", init=True),
        _Field("timestamp", "timestamp", init=True),
        _Field("requestId", "request_id", init=True),
        _Field("sequence", "sequence", default=0),
    ),
    AdhocQuery: (
        _Field("query", "query", init=True),
        _Field("queryLanguage", "query_language", init=True),
    ),
    Subscription: (
        _Field("selector", "selector", init=True),
        _Field("actions", "actions", *_ACTIONS, init=True),
        _Field("startTime", "start_time", init=True),
        _Field("endTime", "end_time", init=True),
    ),
}

#: constructors that do not take every ``init`` field as a keyword
_FACTORIES = {User: _user}

#: the wire's one generic JSON encoder: what no table writes is its to write or refuse
encode_json = json.JSONEncoder(sort_keys=True).encode

# the text of the value ``{0}`` reads: what objects are mostly made of in place
_VALUE = (
    '(quote(v) if type(v := {0}) is str else "null" if v is None'
    ' else "[]" if type(v) is list and not v else repr(v) if type(v) is int else encode(v))'
)
# ... and of a list whose elements ``{1}`` writes, or an answer of stored versions
_ARRAY = (
    '(("[" + ", ".join(map({1}, v)) + "]" if v else "[]") if type(v := {0}) is list'
    " else v.json({1}) if type(v) is StoredObjects else encode(v))"
)


class StoredObjects:
    """The ``objects`` of an answer made of stored versions, serialized by its reader.

    Holds the versions and, per version, its sorted-key JSON text.  The wire joins
    the texts; read in process this is the list of fresh, private dicts
    :func:`serialize` writes, made on first use and from then on all the writer
    looks at, so a mutated answer is written as mutated.
    """

    __slots__ = ("_versions", "_texts", "_dicts")

    def __init__(self, versions: Sequence[RegistryObject], texts: Sequence[str]) -> None:
        self._versions, self._texts, self._dicts = versions, texts, None

    @property
    def dicts(self) -> list[SerializedObject]:
        if self._dicts is None:
            self._dicts = [serialize(version) for version in self._versions]
        return self._dicts

    def json(self, each: Callable[[Any], str]) -> str:
        texts = self._texts if self._dicts is None else map(each, self._dicts)
        return "[" + ", ".join(texts) + "]"

    def __len__(self) -> int:
        return len(self.dicts)

    def __getitem__(self, index):
        return self.dicts[index]

    def __iter__(self):
        return iter(self.dicts)

    def __eq__(self, other: object) -> bool:
        return self.dicts == (other.dicts if type(other) is StoredObjects else other)

    def __repr__(self) -> str:
        return repr(self.dicts)


def json_writer(
    keys: Iterable[str], arrays: Mapping[str, Callable[[Any], str]] = {}, **literals: str
) -> Callable[[Any], str]:
    """Compile ``x -> sorted-key JSON text`` for a plain dict of exactly *keys*.

    *arrays* maps a key to the writer of its list's elements (a :class:`StoredObjects`
    there writes itself); *literals* are keys present with a known text.  Any other
    ``x`` — another type, a subclass, a missing or extra key — is the encoder's: the
    text is ``json.dumps``'s, always.
    """
    scope = dict(quote=encode_basestring_ascii, encode=encode_json, StoredObjects=StoredObjects)
    scope.update((f"each_{key}", each) for key, each in arrays.items())
    for key in keys:
        template = _ARRAY if key in arrays else _VALUE
        literals[key] = "{" + template.format(f'x["{key}"]', f"each_{key}") + "}"
    body = ", ".join(f'"{key}": {literals[key]}' for key in sorted(literals))
    exec(
        f"def text(x):\n    if type(x) is dict and len(x) == {len(literals)}:\n"
        f"        try:\n            return f'''{{{{{body}}}}}'''\n"
        f"        except KeyError:\n            pass\n    return encode(x)\n",
        scope,
    )
    return scope["text"]


_localized_json = json_writer(("locale", "charset", "value"))


class _Codec:
    """One type's field list, compiled to a straight-line function per direction.

    The source is generated as ``dataclasses`` generates ``__init__``: a dict
    display for the way out, one constructor call and one assignment per
    remaining field for the way in, with the converters bound by position; and
    :func:`json_writer`'s f-string for a written dict's JSON text.
    """

    def __init__(self, cls: type[RegistryObject]) -> None:
        self.fields = fields = _BASE_FIELDS + _TYPE_FIELDS.get(cls, ())
        self.text = json_writer(
            [field.wire for field in fields],
            {field.wire: _localized_json for field in fields if field.encode is _istring},
            _type=f'"{cls.__name__}"',
        )
        scope: dict[str, Any] = {"new": _FACTORIES.get(cls, cls)}
        display, keywords, assignments = ['"_type": type(obj).__name__'], [], []
        for n, field in enumerate(fields):
            scope[f"encode{n}"], scope[f"decode{n}"] = field.encode, field.decode
            value = f"obj.{field.attr}"
            value = f"encode{n}({value})" if field.encode else value
            display.append(f'"{field.wire}": {value}')
            value = f'data["{field.wire}"]'
            if field.default is not _UNSET:
                value = f'data.get("{field.wire}", {field.default!r})'
            decoded = f"decode{n}({{}})" if field.decode else "{}"
            if field.init:
                keywords.append(f"{field.attr.rpartition('.')[2]}={decoded.format(value)}")
            elif field.fresh is _UNSET:
                assignments.append(f"    obj.{field.attr} = {decoded.format(value)}\n")
            else:
                assignments.append(
                    f"    if (v := {value}) != {field.fresh!r}:\n"
                    f"        obj.{field.attr} = {decoded.format('v')}\n"
                )
        exec(
            f"def write(obj):\n    return {{{', '.join(display)}}}\n"
            f"def read(data):\n    obj = new({', '.join(keywords)})\n"
            f"{''.join(assignments)}    return obj\n",
            scope,
        )
        self.write: Callable[[RegistryObject], SerializedObject] = scope["write"]
        self.read: Callable[[SerializedObject], RegistryObject] = scope["read"]

    def blame(self, data: SerializedObject) -> str:
        """Which field made :attr:`read` fail: the error path walks the table."""
        for field in self.fields:
            if field.wire not in data:
                if field.default is _UNSET:
                    return f"field {field.wire!r} is missing"
            elif field.decode is not None:
                try:
                    field.decode(data[field.wire])
                except _MALFORMED as exc:
                    return f"field {field.wire!r} is malformed ({exc!r})"
        return "its constructor cannot take the fields as typed"


_BY_NAME = {cls.__name__: _Codec(cls) for cls in _TYPE_FIELDS}
_BY_CLASS = {cls: _BY_NAME[cls.__name__] for cls in _TYPE_FIELDS}
_BY_CLASS[RegistryObject] = _Codec(RegistryObject)


def serialize(obj: RegistryObject) -> SerializedObject:
    """Flatten one RIM object to a transport dict."""
    codec = _BY_CLASS.get(type(obj))
    if codec is None:
        # an unlisted subclass travels as its nearest listed ancestor
        codec = next(_BY_CLASS[base] for base in type(obj).__mro__ if base in _BY_CLASS)
    return codec.write(obj)


def object_json(data: Any) -> str:
    """One element of ``objects`` as sorted-key JSON text: the table's to write if
    it is a plain dict of a known ``_type`` and exactly its keys, else the encoder's."""
    if type(data) is dict and type(name := data.get("_type")) is str and name in _BY_NAME:
        return _BY_NAME[name].text(data)
    return encode_json(data)


def deserialize(data: SerializedObject) -> RegistryObject:
    """Rebuild a RIM object from a transport dict.

    A dict this module could not have written — no dict at all, an unknown
    ``_type``, a missing or ill-typed field — is an :class:`InvalidRequestError`
    naming the type and the field.
    """
    if not isinstance(data, dict):
        raise InvalidRequestError(f"cannot deserialize a {type(data).__name__}: not a dict")
    type_name = data.get("_type")
    try:
        codec = _BY_NAME[type_name]
    except (KeyError, TypeError):
        raise InvalidRequestError(f"cannot deserialize object type {type_name!r}") from None
    try:
        return codec.read(data)
    except _MALFORMED as exc:
        raise InvalidRequestError(
            f"cannot deserialize {type_name} object: {codec.blame(data)}"
        ) from exc
