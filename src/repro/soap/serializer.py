"""Serialization of ebRIM objects to/from transport dicts.

The simulated SOAP boundary moves plain data, not live objects: this module
flattens each RIM class to a tagged dict (``{"_type": "Service", ...}``) and
reconstructs it on the other side.  Round-tripping is exact for every field
the tables below list, which the property tests verify; ``RegistryEntry``'s
``expiration`` and ``stability`` (Service, ClassificationScheme, RegistryPackage,
ExtrinsicObject) are listed nowhere: they were never on the wire, nor in a snapshot.

One table drives every direction: each RIM type lists its fields once (wire
key ↔ attribute, optional converters, the value a new object holds) after the
fields every RegistryObject shares, and :class:`_Codec` resolves the lists at
import — object → dict, dict → object, dict → JSON text.  The key order of a
serialized dict is the table's order; its JSON text is in sorted-key order, as
the wire writes it.

A field with no converter holds text unless its default is a bool or a number:
a string or null (the model's checks refuse a null it cannot hold); any other
value is malformed.  The store's door, :func:`admit`, tests an object made in
process by the same rule and the same ``_check`` chain as the reader.

One representation rule: a key at its default is not written.  A field's
``default`` is the wire value a freshly constructed object holds — ``lid`` holds
the object's own id, a list or name nothing, ``status`` ``"Submitted"`` — and a
value equal to it in exact type and value (``0`` is no ``False``, ``0`` no
``0.0``) is left out; the optional attributes and empty collections ebRIM's XML
binding leaves absent are absent here too.  A key left out reads as the
constructor's value on the way in, and a present key is read as it reads, so
the full form every earlier version wrote (snapshots, goldens) still reads.
Entries inside a value — a localized string's locale and charset, a slot's
type — are written whole.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from repro.rim import (
    QUERY_LANGUAGE_SQL,
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
    LocalizedString,
    NotifyAction,
    Organization,
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
    VersionInfo,
)
from repro.rim.status import ObjectStatus
from repro.util.errors import InvalidRequestError, MalformedValueError

SerializedObject = dict[str, Any]


#: the default of a field no new object holds a value for: its key is always written
_REQUIRED = object()
#: the default of ``lid``: the object's own id
_OWN_ID = object()
#: what reading a dict this module did not write raises, short of the model's
#: own refusals (``RegistryError``, which pass through) other than a value's type
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, MalformedValueError)
_tuple = tuple.__new__


class _Field(NamedTuple):
    """One wire key of a serialized object.

    ``attr`` is the attribute path read on the way out and stored on the way in
    (a dotted path's fields make one value object, each a keyword of its class).
    ``default`` is the wire value a freshly constructed object holds: a value that
    is it in exact type and value is not written, and a missing key reads as it.
    ``example`` is what the type's prototype is built with, where its constructor
    cannot do without a value; left out, such a field reads as its ``default``.
    """

    wire: str
    attr: str
    encode: Callable[[Any], Any] | None = None
    decode: Callable[[Any], Any] | None = None
    default: Any = _REQUIRED
    example: Any = _REQUIRED


def _records(cls: type, **attrs: str) -> tuple[Callable, Callable, list]:
    """Converters for a list of value objects of string fields: ``wire
    key=attribute`` pairs."""
    pairs = tuple(attrs.items())

    def encode(values):
        return [{wire: getattr(value, attr) for wire, attr in pairs} for value in values]

    def decode(entries):
        out = []
        for entry in entries:
            values = {attr: entry[wire] for wire, attr in pairs}
            if not all(isinstance(value, str) for value in values.values()):
                raise TypeError(f"{entry!r} is not a {cls.__name__}")
            out.append(cls(**values))
        return out

    return encode, decode, []


def _text(value: str | None) -> str | None:
    """A string or null, as it is; anything else is malformed.  The reader tests
    for a string in place and calls this only for what is not one."""
    if value is not None and type(value) is not str:
        raise TypeError(f"{value!r} is not a string")
    return value


def _number(value: float | None) -> float | None:
    """A number or null, as it is; anything else is malformed."""
    if value is not None and type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    return value


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
    strings = {}
    for entry in data:
        value, locale, charset = entry["value"], entry["locale"], entry["charset"]
        if not (isinstance(value, str) and isinstance(locale, str) and isinstance(charset, str)):
            raise TypeError(f"{entry!r} is not a localized string")
        # the parts are checked: the tuple is made without the named tuple's own __new__
        strings[locale] = _tuple(LocalizedString, (value, locale, charset))
    return InternationalString.of_localized(strings)


def _slots(slots: SlotMap) -> list[dict[str, Any]]:
    return [
        {"name": s.name, "values": list(s.values), "slotType": s.slot_type} for s in slots
    ]


def _slots_back(data: list[dict[str, Any]]) -> SlotMap:
    out = SlotMap()
    for slot in data:
        # the slot tests its own parts; what it refuses is malformed here
        out.add(Slot(slot["name"], slot["values"], slot["slotType"]))
    return out


_enum_value = attrgetter("value")
_version_name = attrgetter("version_name")


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
# a subscription holds at least one action: its list has no default
_ACTIONS = _records(NotifyAction, mode="mode", endpoint="endpoint")[:2]

#: the fields every RegistryObject carries, after ``_type``
_BASE_FIELDS = (
    _Field("id", "id", example="urn:uuid:00000000-0000-4000-8000-000000000000"),
    _Field("lid", "lid", default=_OWN_ID),
    _Field("name", "name", _istring, _istring_back, []),
    _Field("description", "description", _istring, _istring_back, []),
    _Field("status", "status", *_enum(ObjectStatus), ObjectStatus.SUBMITTED.value),
    _Field("versionName", "version", _version_name, VersionInfo, "1.1"),
    _Field("owner", "owner", default=None),
    _Field("home", "home", default=None),
    _Field("slots", "slots", _slots, _slots_back, []),
    _Field("classificationIds", "classification_ids", *_ID_LIST),
    _Field("externalIdentifierIds", "external_identifier_ids", *_ID_LIST),
)

#: the fields each RIM type adds, in wire order
_TYPE_FIELDS: dict[type, tuple[_Field, ...]] = {
    Organization: (
        _Field("parent", "parent", default=None),
        _Field("primaryContact", "primary_contact", default=None),
        _Field("addresses", "addresses", *_ADDRESSES),
        _Field("emails", "emails", *_EMAILS),
        _Field("telephones", "telephones", *_TELEPHONES),
        _Field("serviceIds", "service_ids", *_ID_LIST),
    ),
    Service: (
        _Field("provider", "provider", default=None),
        _Field("bindingIds", "binding_ids", *_ID_LIST),
    ),
    ServiceBinding: (
        _Field("service", "service", example="s"),
        _Field("accessUri", "access_uri", default=None, example="u"),
        _Field("targetBinding", "target_binding", default=None),
        _Field("specificationLinkIds", "specification_link_ids", *_ID_LIST),
    ),
    Association: (
        _Field("sourceObject", "source_object", example="s"),
        _Field("targetObject", "target_object", example="t"),
        # read back by short name or URN
        _Field(
            "associationType", "association_type", _enum_value, AssociationType.from_name,
            AssociationType.RELATED_TO.value,
        ),  # fmt: skip
        _Field("confirmedBySource", "confirmed_by_source", default=True),
        _Field("confirmedByTarget", "confirmed_by_target", default=False),
    ),
    Classification: (
        _Field("classifiedObject", "classified_object", example="o"),
        _Field("classificationNode", "classification_node", default=None, example="n"),
        _Field("classificationScheme", "classification_scheme", default=None),
        _Field("nodeRepresentation", "node_representation", default=None),
    ),
    ClassificationScheme: (
        _Field("isInternal", "is_internal", default=True),
        _Field("nodeType", "node_type", default="UniqueCode"),
        _Field("childNodeIds", "child_node_ids", *_ID_LIST),
    ),
    ClassificationNode: (
        _Field("code", "code", example="c"),
        _Field("parent", "parent", example="p"),
        # a new node's path is its code: no one value to leave out
        _Field("path", "path"),
        _Field("childNodeIds", "child_node_ids", *_ID_LIST),
    ),
    ExternalIdentifier: (
        _Field("registryObject", "registry_object", example="o"),
        _Field("identificationScheme", "identification_scheme", example="s"),
        _Field("value", "value", example="v"),
    ),
    ExternalLink: (_Field("externalUri", "external_uri", example="u"),),
    ExtrinsicObject: (
        _Field("mimeType", "mime_type", default="application/octet-stream"),
        _Field("isOpaque", "is_opaque", default=False),
        _Field("contentVersion", "content_version", default="1.1"),
    ),
    RegistryPackage: (_Field("memberIds", "member_ids", *_ID_LIST),),
    SpecificationLink: (
        _Field("serviceBinding", "service_binding", example="b"),
        _Field("specificationObject", "specification_object", example="s"),
        _Field("usageDescription", "usage_description", default=""),
    ),
    User: (
        _Field("alias", "alias", example="a"),
        _Field("firstName", "person_name.first_name", default=""),
        _Field("middleName", "person_name.middle_name", default=""),
        _Field("lastName", "person_name.last_name", default=""),
        _Field("organization", "organization", default=None),
        _Field("roles", "roles", sorted, lambda roles: set(_strings(roles)), ["RegistryUser"]),
    ),
    AuditableEvent: (
        _Field("eventType", "event_type", *_enum(EventType), example=EventType.CREATED),
        _Field("affectedObject", "affected_object", example="o"),
        _Field("userId", "user_id", example="u"),
        _Field("timestamp", "timestamp", None, float, example=0.0),
        _Field("requestId", "request_id", default=None),
        _Field("sequence", "sequence", default=0),
    ),
    AdhocQuery: (
        _Field("query", "query", example="q"),
        _Field("queryLanguage", "query_language", default=QUERY_LANGUAGE_SQL),
    ),
    Subscription: (
        _Field("selector", "selector", example="s"),
        _Field("actions", "actions", *_ACTIONS, example=[NotifyAction("email", "e")]),
        _Field("startTime", "start_time", None, _number, 0.0),
        _Field("endTime", "end_time", None, _number, None),
    ),
}

#: the wire's one generic JSON encoder: what no table writes is its to write or refuse
encode_json = json.JSONEncoder(sort_keys=True).encode

# the text of the value ``{0}`` reads: what objects are mostly made of in place,
# and a value that writes itself (an answer of stored versions, kept rows)
_VALUE = (
    '(quote(v) if type(v := {0}) is str else "null" if v is None'
    ' else "[]" if type(v) is list and not v else repr(v) if type(v) is int'
    " else v.json() if type(v) in WRITTEN else encode(v))"
)
# ... and of a list whose elements ``{1}`` writes
_ARRAY = (
    '(("[" + ", ".join(map({1}, v)) + "]" if v else "[]") if type(v := {0}) is list'
    " else v.json() if type(v) in WRITTEN else encode(v))"
)


class _ReadAsDicts:
    """A list an answer carries with its JSON text: the wire joins the text; read
    in process it is :attr:`dicts`, fresh private dicts made on first use and from
    then on all the writer looks at, so a mutated answer is written as mutated."""

    __slots__ = ("_dicts",)

    dicts: list[SerializedObject]

    def __len__(self) -> int:
        return len(self.dicts)

    def __getitem__(self, index):
        return self.dicts[index]

    def __iter__(self):
        return iter(self.dicts)

    def __eq__(self, other: object) -> bool:
        return self.dicts == (other.dicts if isinstance(other, _ReadAsDicts) else other)

    def __repr__(self) -> str:
        return repr(self.dicts)


class StoredObjects(_ReadAsDicts):
    """The ``objects`` of an answer made of stored versions, serialized by its reader.

    Holds the versions and, per version, its sorted-key JSON text; in process, the
    dicts :func:`serialize` writes.
    """

    __slots__ = ("_versions", "_texts")

    def __init__(self, versions: Sequence[RegistryObject], texts: Sequence[str]) -> None:
        self._versions, self._texts, self._dicts = versions, texts, None

    @property
    def dicts(self) -> list[SerializedObject]:
        if self._dicts is None:
            self._dicts = [serialize(version) for version in self._versions]
        return self._dicts

    def json(self) -> str:
        texts = self._texts if self._dicts is None else map(object_json, self._dicts)
        return "[" + ", ".join(texts) + "]"


class AnswerRows(_ReadAsDicts):
    """The ``rows`` of an ad-hoc answer the query engine keeps, serialized by its reader.

    Holds the kept answer: its ``rows``, which no one mutates, and ``json()``,
    their text, which the answer keeps from its second write on; in process,
    copies of the rows.
    """

    __slots__ = ("_answer",)

    def __init__(self, answer: Any) -> None:
        self._answer, self._dicts = answer, None

    @property
    def dicts(self) -> list[dict[str, Any]]:
        if self._dicts is None:
            self._dicts = [dict(row) for row in self._answer.rows]
        return self._dicts

    def json(self) -> str:
        return self._answer.json() if self._dicts is None else encode_json(self._dicts)


_WRITTEN = (StoredObjects, AnswerRows)


def json_writer(
    keys: Iterable[str],
    arrays: Mapping[str, Callable[[Any], str]] = {},
    optional: Collection[str] = (),
    **literals: str,
) -> Callable[[Any], str]:
    """Compile ``x -> sorted-key JSON text`` for a plain dict of *keys*, those in
    *optional* written where present.

    *arrays* maps a key to the writer of its list's elements; *literals* are keys
    present with a known text.  A :class:`StoredObjects` or :class:`AnswerRows`
    value writes itself.  The first
    key in sorted order is not optional.  Any other ``x`` — another type, a subclass,
    a missing required key, a key of no list — is the encoder's: the text is
    ``json.dumps``'s, always.
    """
    scope = dict(quote=encode_basestring_ascii, encode=encode_json, WRITTEN=_WRITTEN)
    scope.update((f"each_{key}", each) for key, each in arrays.items())
    values = {
        key: (_ARRAY if key in arrays else _VALUE).format(f'x["{key}"]', f"each_{key}")
        for key in keys
    }
    parts: list[str] = []
    for key in sorted(values.keys() | literals.keys()):
        if key in optional:
            if not parts:
                raise ValueError(f"the first key, {key!r}, cannot be optional")
            parts.append(f"""{{(', "{key}": ' + {values[key]}) if "{key}" in x else ''}}""")
        else:
            text = literals[key] if key in literals else "{" + values[key] + "}"
            parts.append(f'{", " if parts else ""}"{key}": {text}')
    scope["keys"] = frozenset(values.keys() | literals.keys())
    shaped = "keys.issuperset(x)" if optional else f"len(x) == {len(parts)}"
    body = "".join(parts)
    exec(
        f"def text(x):\n    if type(x) is dict and {shaped}:\n"
        f"        try:\n            return f'''{{{{{body}}}}}'''\n"
        f"        except KeyError:\n            pass\n    return encode(x)\n",
        scope,
    )
    return scope["text"]


_localized_json = json_writer(("locale", "charset", "value"))


def _constant(scope: dict[str, Any], key: Any, value: Any) -> str:
    """Source of *value*, bound in *scope*; a mutable one is made per object, by its
    type if it is that type's empty value, else as a copy."""
    scope[f"held_{key}"], scope[f"new_{key}"] = value, type(value)
    if not hasattr(value, "copy"):
        return f"held_{key}"
    return f"new_{key}()" if type(value)() == value else f"held_{key}.copy()"


def _differs(default: Any, value: str) -> str:
    """Source of a test that binds the wire value *value* to ``w`` and holds unless
    ``w`` is *default* in exact type and value."""
    w = f"(w := {value})"
    if default is None or type(default) is bool:
        return f"{w} is not {default!r}"
    if default is _OWN_ID:
        return f"{w} != obj.id or type(w) is not str"
    kind = type(default).__name__
    if not default and kind != "float":
        return f"{w} or type(w) is not {kind}"
    # the value test first: it settles every value but the default's equals
    test = f"{w} != {default!r} or type(w) is not {kind}"
    # ``-0.0 == 0.0``: the text tells them apart
    return f"{test} or repr(w) != {repr(default)!r}" if kind == "float" else test


def _is_text(default: Any) -> bool:
    return default is None or default is _REQUIRED or default is _OWN_ID or type(default) is str


class _Codec:
    """One type's field list, compiled to a straight-line function per direction.

    The source is generated as ``dataclasses`` generates ``__init__``: for the
    way out a dict display of the leading required fields and then one store,
    or one test against the default and a store, per field; for the way in,
    without the constructor, one store per attribute in the order a prototype
    it built holds them, one per container present and each class's ``_check``,
    with the converters bound by position and a text field's string test in
    place; and :func:`json_writer`'s f-string for a written dict's JSON text.
    The check chain and text attributes are also :func:`admit`'s.  A container
    the object never made (:attr:`RegistryObject.LAZY`) is at its default: the
    writer skips it unread.
    """

    def __init__(self, cls: type[RegistryObject]) -> None:
        # a field without converters that no bool or number default types holds text
        self.fields = fields = tuple(
            f._replace(decode=_text) if f.decode is None and _is_text(f.default) else f
            for f in _BASE_FIELDS + _TYPE_FIELDS.get(cls, ())
        )
        self.text = json_writer(
            [field.wire for field in fields],
            {field.wire: _localized_json for field in fields if field.encode is _istring},
            {field.wire for field in fields if field.default is not _REQUIRED},
            _type=f'"{cls.__name__}"',
        )
        # every class's own checks, base first, and the text attributes: what the
        # reader tests as it fills an object, and :func:`admit` tests of one made
        self.checks = tuple(
            vars(base)["_check"] for base in cls.__mro__[::-1] if "_check" in vars(base)
        )
        self.texts = tuple(field.attr for field in fields if field.decode is _text)
        self.text_values = attrgetter(*self.texts)
        # the prototype: the order the constructor stores attributes in, and their defaults
        made = cls(**{f.attr: f.example for f in fields if f.example is not _REQUIRED})
        scope: dict[str, Any] = {"new": cls.__new__, "cls": cls}
        display, stores, values, tail = ['"_type": type(obj).__name__'], [], {}, []
        for n, field in enumerate(fields):
            scope[f"encode{n}"], scope[f"decode{n}"] = field.encode, field.decode
            wire, attr, required = field.wire, field.attr, field.default is _REQUIRED
            lazy = attr in cls.LAZY
            value = f'held["{attr}"]' if lazy else f"obj.{attr}"
            value = f"encode{n}({value})" if field.encode else value
            if required and not stores:
                display.append(f'"{wire}": {value}')
            elif required:
                stores.append(f'    x["{wire}"] = {value}\n')
            else:
                test = _differs(field.default, value)
                test = f'"{attr}" in held and ({test})' if lazy else test
                stores.append(f'    if {test}:\n        x["{wire}"] = w\n')
            value = f'decode{n}(data["{wire}"])' if field.decode else f'data["{wire}"]'
            if field.decode is _text:  # a string passes in place: no call
                value = f'(w if type(w := data["{wire}"]) is str else decode{n}(w))'
            if lazy:
                tail.append(f'    if "{wire}" in data:\n        obj.{attr} = {value}\n')
                continue
            if field.default is _OWN_ID:
                value = f'({value} if "{wire}" in data else obj.id)'
            elif not required:  # left out: as the prototype holds it, unless built with one
                default = attrgetter(attr)(made) if field.example is _REQUIRED else field.default
                value = f'({value} if "{wire}" in data else {_constant(scope, n, default)})'
            head, _, keyword = attr.rpartition(".")
            if head:  # the keywords of one value object
                values.setdefault(head, []).append(f"{keyword}={value}")
            else:
                values[attr] = value
        reads = []
        for attr, held in vars(made).items():
            value = values.pop(attr, None)
            if value is None:  # no field lists it: as the constructor leaves it
                value = _constant(scope, attr, held)
            elif type(value) is list:
                scope[f"make_{attr}"] = type(held)
                value = f"make_{attr}({', '.join(value)})"
            reads.append(f"    obj.{attr} = {value}\n")
        for n, check in enumerate(self.checks):
            scope[f"check{n}"] = check
            tail.append(f"    check{n}(obj)\n")
        exec(
            f"def write(obj):\n    held = obj.__dict__\n    x = {{{', '.join(display)}}}\n"
            f"{''.join(stores)}    return x\n"
            f"def read(data):\n    obj = new(cls)\n{''.join(reads + tail)}    return obj\n",
            scope,
        )
        self.write: Callable[[RegistryObject], SerializedObject] = scope["write"]
        self.read: Callable[[SerializedObject], RegistryObject] = scope["read"]

    def blame(self, data: SerializedObject) -> str:
        """Which field made :attr:`read` fail: the error path walks the table."""
        for field in self.fields:
            if field.wire not in data:
                if field.default is _REQUIRED:
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


def _codec_of(obj: RegistryObject) -> _Codec:
    codec = _BY_CLASS.get(type(obj))
    if codec is None:
        # an unlisted subclass travels as its nearest listed ancestor
        codec = next(_BY_CLASS[base] for base in type(obj).__mro__ if base in _BY_CLASS)
    return codec


def serialize(obj: RegistryObject) -> SerializedObject:
    """Flatten one RIM object to a transport dict: its keys not at their default."""
    return _codec_of(obj).write(obj)


def admit(obj: RegistryObject) -> None:
    """The store's door, which a submit or update passes each object it stores
    through: refuse what the reader would have refused, a text attribute that holds
    neither a string nor null (naming it) or a class's own check."""
    codec = _codec_of(obj)
    for attr, value in zip(codec.texts, codec.text_values(obj)):
        if value is not None and type(value) is not str:
            raise MalformedValueError(
                f"{type(obj).__name__} {attr} must be a string or null: {value!r}"
            )
    for check in codec.checks:
        check(obj)


def object_json(data: Any) -> str:
    """One element of ``objects`` as sorted-key JSON text: the table's to write if
    it is a plain dict of a known ``_type``, its required keys and any others of its
    own, else the encoder's."""
    if type(data) is dict and type(name := data.get("_type")) is str and name in _BY_NAME:
        return _BY_NAME[name].text(data)
    return encode_json(data)


def deserialize(data: SerializedObject) -> RegistryObject:
    """Rebuild a RIM object from a transport dict, sparse or in the full form.

    A dict this module could not have written — no dict at all, an unknown
    ``_type``, a missing required field or an ill-typed one — is an
    :class:`InvalidRequestError` naming the type and the field.
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
