"""Round-trip tests for the RIM object serializer."""

import json
import re
from pathlib import Path

import pytest

from repro.rim import (
    CONCRETE_TYPES,
    QUERY_LANGUAGE_FILTER,
    AdhocQuery,
    Association,
    AssociationType,
    AuditableEvent,
    Classification,
    ClassificationNode,
    ClassificationScheme,
    EmailAddress,
    EventType,
    ExternalIdentifier,
    ExternalLink,
    ExtrinsicObject,
    NotifyAction,
    Organization,
    PersonName,
    PostalAddress,
    RegistryObject,
    RegistryPackage,
    Service,
    ServiceBinding,
    SpecificationLink,
    Subscription,
    TelephoneNumber,
    User,
    VersionInfo,
)
from repro.rim.status import ObjectStatus
from repro.soap import (
    SoapEnvelope,
    SoapFault,
    SoapRegistryBinding,
    SubmitObjectsRequest,
    deserialize,
    serialize,
    serializer,
)
from repro.util.errors import InvalidRequestError
from repro.util.ids import IdFactory

ids = IdFactory(40)
_ADDRESS_KEYS = ("streetNumber", "street", "city", "state", "country", "postalCode", "type")
_TELEPHONE_KEYS = ("number", "countryCode", "areaCode", "extension", "type")


def round_trip(obj):
    data = serialize(obj)
    restored = deserialize(data)
    assert type(restored) is type(obj)
    assert restored.id == obj.id
    assert restored.name.value == obj.name.value
    assert restored.description.value == obj.description.value
    assert restored.status is obj.status
    assert restored.version.version_name == obj.version.version_name
    assert restored.owner == obj.owner
    return restored


class TestRoundTrips:
    def test_organization_full(self):
        org = Organization(ids.new_id(), name="SDSU", description="a university")
        org.addresses.append(PostalAddress(street="Campanile", city="San Diego"))
        org.emails.append(EmailAddress("info@sdsu.edu"))
        org.telephones.append(TelephoneNumber(number="5945200", area_code="619"))
        org.add_service(ids.new_id())
        org.add_slot("copyright", "2011")
        org.status = ObjectStatus.APPROVED
        restored = round_trip(org)
        assert restored.addresses == org.addresses
        assert restored.emails == org.emails
        assert restored.telephones == org.telephones
        assert restored.service_ids == org.service_ids
        assert restored.slot_value("copyright") == "2011"

    def test_service_with_bindings(self):
        svc = Service(ids.new_id(), name="Adder", provider=ids.new_id())
        svc.add_binding(ids.new_id())
        restored = round_trip(svc)
        assert restored.provider == svc.provider
        assert restored.binding_ids == svc.binding_ids

    def test_service_binding(self):
        b = ServiceBinding(
            ids.new_id(), service=ids.new_id(), access_uri="http://h.x:8080/svc"
        )
        restored = round_trip(b)
        assert restored.access_uri == b.access_uri
        assert restored.host == "h.x"

    def test_association(self):
        a = Association(
            ids.new_id(),
            source_object=ids.new_id(),
            target_object=ids.new_id(),
            association_type=AssociationType.OFFERS_SERVICE,
        )
        a.confirmed_by_target = True
        restored = round_trip(a)
        assert restored.association_type is AssociationType.OFFERS_SERVICE
        assert restored.is_confirmed

    def test_classification_internal(self):
        c = Classification(
            ids.new_id(),
            classified_object=ids.new_id(),
            classification_node=ids.new_id(),
        )
        assert round_trip(c).is_internal

    def test_classification_scheme_and_node(self):
        scheme = ClassificationScheme(ids.new_id(), name="NAICS", is_internal=True)
        node = ClassificationNode(
            ids.new_id(), code="111330", parent=scheme.id, path="/NAICS/111330"
        )
        assert round_trip(scheme).is_internal
        assert round_trip(node).path == "/NAICS/111330"

    def test_external_identifier_and_link(self):
        ei = ExternalIdentifier(
            ids.new_id(),
            registry_object=ids.new_id(),
            identification_scheme="DUNS",
            value="123456789",
        )
        el = ExternalLink(ids.new_id(), external_uri="http://docs.example.com")
        assert round_trip(ei).value == "123456789"
        assert round_trip(el).external_uri == el.external_uri

    def test_extrinsic_object(self):
        eo = ExtrinsicObject(ids.new_id(), name="x.wsdl", mime_type="text/xml", is_opaque=True)
        restored = round_trip(eo)
        assert restored.mime_type == "text/xml"
        assert restored.is_opaque

    def test_package(self):
        pkg = RegistryPackage(ids.new_id(), name="pkg")
        pkg.add_member(ids.new_id())
        assert round_trip(pkg).member_ids == pkg.member_ids

    def test_specification_link(self):
        link = SpecificationLink(
            ids.new_id(),
            service_binding=ids.new_id(),
            specification_object=ids.new_id(),
            usage_description="how to call",
        )
        assert round_trip(link).usage_description == "how to call"

    def test_user(self):
        user = User(
            ids.new_id(),
            alias="gold",
            person_name=PersonName("Sadhana", "V.", "Sahasrabudhe"),
        )
        user.roles.add("RegistryAdministrator")
        restored = round_trip(user)
        assert restored.alias == "gold"
        assert restored.person_name.full() == "Sadhana V. Sahasrabudhe"
        assert "RegistryAdministrator" in restored.roles

    def test_adhoc_query(self):
        q = AdhocQuery(ids.new_id(), query="SELECT * FROM Service WHERE name = $n")
        assert round_trip(q).parameter_names() == ["n"]

    def test_subscription(self):
        sub = Subscription(
            ids.new_id(),
            selector=ids.new_id(),
            actions=[NotifyAction(mode="email", endpoint="x@y.z")],
            start_time=1.0,
            end_time=2.0,
        )
        restored = round_trip(sub)
        assert restored.actions == sub.actions
        assert restored.end_time == 2.0

    def test_multi_locale_names_survive(self):
        org = Organization(ids.new_id(), name="SDSU")
        org.name.set("UESD", locale="es_ES")
        restored = round_trip(org)
        assert restored.name.get("es_ES") == "UESD"

    def test_charset_survives(self):
        data = serialize(Organization(ids.new_id(), name="SDSU"))
        data["name"][0]["charset"] = "ISO-8859-1"
        restored = deserialize(data)
        assert restored.name.localized()[0].charset == "ISO-8859-1"
        assert serialize(restored) == data


#: (wire key, value) of an Organization — a Subscription for ``actions`` — that
#: no dict this module writes holds: each is malformed
ILL_TYPED = [
    ("slots", "abc"),
    ("slots", [{"name": "n"}]),
    ("name", [{"value": "no locale"}]),
    ("status", "Bogus"),
    ("status", ["Approved"]),
    ("classificationIds", 7),
    ("addresses", [{"city": "only"}]),
    ("telephones", None),
    # a string is iterable, and is no list of strings
    ("classificationIds", "abc"),
    ("classificationIds", ""),
    ("serviceIds", ["urn:uuid:a", 5]),
    ("slots", [{"name": "s", "values": "abc", "slotType": None}]),
    ("slots", [{"name": "s", "values": [["nested"]], "slotType": None}]),
    ("name", [{"locale": "en_US", "charset": "UTF-8", "value": 7}]),
    ("description", [{"locale": None, "charset": "UTF-8", "value": "x"}]),
    ("name", [{"locale": "en_US", "value": "no charset"}]),
    # a party or notify entry holds strings only: the value classes do not check
    ("telephones", [{**dict.fromkeys(_TELEPHONE_KEYS, ""), "number": 5}]),
    ("emails", [{"address": ["@"], "type": "OfficeEmail"}]),
    ("addresses", [{**dict.fromkeys(_ADDRESS_KEYS, ""), "city": None}]),
    ("actions", [{"mode": "email", "endpoint": 5}]),
    # a plain string field holds a string (or null), and nothing else
    ("owner", 5),
    ("parent", ["urn:uuid:a"]),
    ("primaryContact", {"id": "urn:uuid:a"}),
    ("lid", True),
    ("home", 1.5),
]


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidRequestError):
            deserialize({"_type": "Mystery", "id": ids.new_id()})

    @pytest.mark.parametrize("data", ["x", None, 5, ["_type"], {"id": ids.new_id()}, {"_type": ["Service"]}])
    def test_not_a_serialized_object(self, data):
        with pytest.raises(InvalidRequestError, match="cannot deserialize"):
            deserialize(data)

    @pytest.mark.parametrize("type_name", list(CONCRETE_TYPES))
    def test_every_missing_field_is_named_with_its_type(self, type_name):
        complete = serialize(populated_objects()[type_name])
        for wire in complete:
            data = {key: value for key, value in complete.items() if key != wire}
            if wire in NEW_OBJECT_DEFAULTS[type_name]:
                # a key a new object holds a value for may be left out: it reads as
                # that value, which the model may refuse beside the other fields
                if (type_name, wire) in {("Classification", "classificationScheme"),
                                         ("Classification", "nodeRepresentation")}:  # fmt: skip
                    with pytest.raises(InvalidRequestError, match="XOR external"):
                        deserialize(data)
                else:
                    assert serialize(deserialize(data)) == data
                continue
            what = "object type None" if wire == "_type" else f"{type_name}.*{wire!r} is missing"
            with pytest.raises(InvalidRequestError, match=what):
                deserialize(data)

    @pytest.mark.parametrize("wire, value", ILL_TYPED)
    def test_an_ill_typed_field_is_named_with_its_type(self, wire, value):
        type_name = "Subscription" if wire == "actions" else "Organization"
        data = {**serialize(populated_objects()[type_name]), wire: value}
        with pytest.raises(InvalidRequestError, match=f"{type_name}.*{wire!r} is malformed"):
            deserialize(data)

    @pytest.mark.parametrize("roles", ["RegistryAdministrator", [1, 2]], ids=["string", "ints"])
    def test_roles_are_a_list_of_strings(self, roles):
        """A string is no set of its characters, nor a list of numbers one of roles."""
        data = {**serialize(populated_objects()["User"]), "roles": roles}
        with pytest.raises(InvalidRequestError, match="User.*'roles' is malformed"):
            deserialize(data)

    @pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
    def test_every_string_field_refuses_what_is_no_string(self, type_name):
        """An id, a URI, a code: a string or null, whatever the type; a number there
        is named, where the model would have stored it."""
        complete = serialize(populated_objects()[type_name])
        codec = serializer._BY_NAME[type_name]
        fields = [f.wire for f in codec.fields if f.decode is serializer._text]
        assert "id" in fields and "owner" in fields
        for wire in fields:
            for value in (5, 1.5, True, ["x"], {"x": "y"}):
                with pytest.raises(
                    InvalidRequestError, match=f"{type_name} object: field {wire!r} is malformed"
                ):
                    deserialize({**complete, wire: value})

    @pytest.mark.parametrize("wire, value", [("accessUri", 5), ("service", 7)])
    def test_a_binding_of_a_number_is_refused_and_discovery_still_answers(
        self, registry, session, wire, value
    ):
        service = Service(ids.new_id(), name="S")
        registry.lcm.submit_objects(session, [service])
        good = ServiceBinding(ids.new_id(), service=service.id, access_uri="http://h1:8080/s")
        bad = ServiceBinding(ids.new_id(), service=service.id, access_uri="http://h2:8080/s")
        bad = {**serialize(bad), wire: value}
        edge = SoapRegistryBinding(registry)
        edge.register_session(session)
        submit = SubmitObjectsRequest(objects=[serialize(good), bad])
        answer = edge.handle(SoapEnvelope.with_session(submit, session.token))
        assert isinstance(answer, SoapFault)
        assert f"ServiceBinding object: field {wire!r} is malformed" in answer.fault_string
        registry.lcm.submit_objects(session, [good])
        assert registry.qm.get_access_uris(service.id) == ["http://h1:8080/s"]

    def test_a_value_the_constructor_cannot_take(self):
        data = {**serialize(populated_objects()["AdhocQuery"]), "query": None}
        with pytest.raises(InvalidRequestError, match="AdhocQuery object: its constructor"):
            deserialize(data)

    def test_the_models_own_refusals_pass_through(self):
        data = {**serialize(populated_objects()["Service"]), "id": "not-a-urn"}
        with pytest.raises(InvalidRequestError, match="must be urn:uuid"):
            deserialize(data)
        data = {**serialize(populated_objects()["Service"])}
        data["slots"] = data["slots"] + data["slots"][:1]
        with pytest.raises(InvalidRequestError, match="duplicate slot name"):
            deserialize(data)


# -- the wire keys, their order and their values, as the ladders wrote them ----

GOLDEN_PATH = Path(__file__).with_name("golden_serialized_objects.json")


def _uid(n: int) -> str:
    return f"urn:uuid:00000000-0000-4000-8000-{n:012x}"


def _populate_base(obj, n: int):
    """Give every shared field a value its default does not have."""
    obj.lid = _uid(0xF00 + n)
    obj.name.set(f"nom {n}", locale="fr_FR")
    obj.description.set(f"described <{n}> & more")
    obj.status = ObjectStatus.DEPRECATED
    obj.version = VersionInfo("1.7")
    obj.owner = _uid(0xA00)
    obj.home = "http://home.example:8080/registry"
    obj.add_slot("copyright", "2011", "SDSU", slot_type="legal")
    obj.add_slot("empty")
    obj.classification_ids = [_uid(0xC01), _uid(0xC02)]
    obj.external_identifier_ids = [_uid(0xE01)]
    return obj


def populated_objects() -> dict:
    """One populated instance of every type the serializer knows, by type name."""
    org = Organization(_uid(1), parent=_uid(0x11), primary_contact=_uid(0x12))
    org.name.set("SDSU", charset="ISO-8859-1")
    org.addresses = [
        PostalAddress("5500", "Campanile Dr", "San Diego", "CA", "US", "92182", "Office"),
        PostalAddress(city="La Jolla"),
    ]
    org.emails = [EmailAddress("info@sdsu.edu"), EmailAddress("lab@sdsu.edu", "LabEmail")]
    org.telephones = [TelephoneNumber("5945200", "1", "619", "12", "MobilePhone")]
    org.service_ids = [_uid(0x13), _uid(0x14)]
    service = Service(_uid(2), name="Adder", provider=_uid(1))
    service.binding_ids = [_uid(3), _uid(0x31)]
    binding = ServiceBinding(
        _uid(3), name="Adder.b0", service=_uid(2),
        access_uri="http://exergy.sdsu.edu:8080/Adder?x=1&y=<2>", target_binding=_uid(0x31),
    )  # fmt: skip
    binding.specification_link_ids = [_uid(0x32)]
    association = Association(
        _uid(4), source_object=_uid(1), target_object=_uid(2),
        association_type=AssociationType.OFFERS_SERVICE,
    )  # fmt: skip
    association.confirmed_by_source = False
    association.confirmed_by_target = True
    scheme = ClassificationScheme(_uid(6), name="NAICS", is_internal=False, node_type="Path")
    scheme.child_node_ids = [_uid(7)]
    node = ClassificationNode(_uid(7), code="111330", parent=_uid(6), path="/NAICS/111330")
    node.child_node_ids = [_uid(0x71)]
    package = RegistryPackage(_uid(11), name="pkg")
    package.member_ids = [_uid(2), _uid(3)]
    user = User(
        _uid(13), alias="gold", organization=_uid(1),
        person_name=PersonName("Sadhana", "V.", "Sahasrabudhe"),
    )  # fmt: skip
    user.roles = {"RegistryUser", "RegistryAdministrator", "Auditor"}
    event = AuditableEvent(
        _uid(14), event_type=EventType.VERSIONED, affected_object=_uid(2),
        user_id=_uid(13), timestamp=36000.5, request_id="req-7",
    )  # fmt: skip
    event.sequence = 41
    objects = [
        org, service, binding, association,
        Classification(
            _uid(5), classified_object=_uid(2), classification_scheme=_uid(6),
            node_representation="111330",
        ),
        scheme, node,
        ExternalIdentifier(
            _uid(8), registry_object=_uid(1), identification_scheme="DUNS", value="123456789"
        ),
        ExternalLink(_uid(9), external_uri="http://docs.example.com/adder?a=1&b=2"),
        ExtrinsicObject(
            _uid(10), name="x.wsdl", mime_type="text/xml", is_opaque=True, content_version="1.4"
        ),
        package,
        SpecificationLink(
            _uid(12), service_binding=_uid(3), specification_object=_uid(10),
            usage_description="how to call",
        ),
        user, event,
        AdhocQuery(
            _uid(15), query="SELECT * FROM Service WHERE name = $n",
            query_language=QUERY_LANGUAGE_FILTER,
        ),
        Subscription(
            _uid(16), selector=_uid(15), start_time=1.5, end_time=99.0,
            actions=[
                NotifyAction(mode="email", endpoint="x@y.z"),
                NotifyAction(mode="service", endpoint="http://listener.example/notify"),
            ],
        ),
        RegistryObject(_uid(17), name="bare"),
    ]  # fmt: skip
    return {
        type(obj).__name__: _populate_base(obj, n) for n, obj in enumerate(objects, start=1)
    }


#: stands for the object's own id: the value ``lid`` has in a new object
OWN_ID = object()
_BASE_DEFAULTS = {
    "lid": OWN_ID, "name": [], "description": [], "status": "Submitted", "versionName": "1.1",
    "owner": None, "home": None, "slots": [], "classificationIds": [], "externalIdentifierIds": [],
}  # fmt: skip
#: the wire value of every key a newly built object holds, by type, read off the
#: ``rim/`` constructors: what a serialized object leaves out
NEW_OBJECT_DEFAULTS = {
    name: {**_BASE_DEFAULTS, **extra}
    for name, extra in {
        "Organization": {
            "parent": None, "primaryContact": None, "addresses": [], "emails": [],
            "telephones": [], "serviceIds": [],
        },
        "Service": {"provider": None, "bindingIds": []},
        "ServiceBinding": {"accessUri": None, "targetBinding": None, "specificationLinkIds": []},
        "Association": {
            "associationType": "RelatedTo", "confirmedBySource": True, "confirmedByTarget": False,
        },
        "Classification": {
            "classificationNode": None, "classificationScheme": None, "nodeRepresentation": None,
        },
        "ClassificationScheme": {"isInternal": True, "nodeType": "UniqueCode", "childNodeIds": []},
        "ClassificationNode": {"childNodeIds": []},
        "ExternalIdentifier": {},
        "ExternalLink": {},
        "ExtrinsicObject": {
            "mimeType": "application/octet-stream", "isOpaque": False, "contentVersion": "1.1",
        },
        "RegistryPackage": {"memberIds": []},
        "SpecificationLink": {"usageDescription": ""},
        "User": {
            "firstName": "", "middleName": "", "lastName": "", "organization": None,
            "roles": ["RegistryUser"],
        },
        "AuditableEvent": {"requestId": None, "sequence": 0},
        "AdhocQuery": {"queryLanguage": "SQL-92"},
        "Subscription": {"startTime": 0.0, "endTime": None},
        "RegistryObject": {},
    }.items()
}  # fmt: skip


def default_value(data: dict, key: str):
    """The value *key* has in a new object of *data*'s type and id."""
    default = NEW_OBJECT_DEFAULTS[data["_type"]][key]
    return data["id"] if default is OWN_ID else json.loads(json.dumps(default))


def at_default(data: dict, key: str) -> bool:
    """Is *key* of *data* the value a new object holds: same type, same JSON text?"""
    if key not in NEW_OBJECT_DEFAULTS[data["_type"]]:
        return False
    value, default = data[key], default_value(data, key)
    return type(value) is type(default) and json.dumps(value) == json.dumps(default)


def sparse(data: dict) -> dict:
    """*data* as ``serialize`` writes it: every key at its default left out."""
    return {key: value for key, value in data.items() if not at_default(data, key)}


def full_form(data: dict) -> dict:
    """*data* as every earlier version wrote it: every key a new object holds filled in."""
    defaults = {key: default_value(data, key) for key in NEW_OBJECT_DEFAULTS[data["_type"]]}
    return {**defaults, **data}


class TestWireKeyParity:
    """The table writes what the 17-arm ladders wrote (goldens captured at a17853e),
    less every key at the value a new object holds."""

    GOLDEN = json.loads(GOLDEN_PATH.read_text())

    def test_every_type_has_a_golden(self):
        assert list(populated_objects()) == list(self.GOLDEN)
        assert set(self.GOLDEN) == set(CONCRETE_TYPES) | {"RegistryObject"}

    @pytest.mark.parametrize("type_name", list(GOLDEN))
    def test_same_keys_same_order_same_values(self, type_name):
        # the goldens are the full form: the populated objects leave out only a
        # Classification's null classificationNode
        golden = sparse(self.GOLDEN[type_name])
        data = serialize(populated_objects()[type_name])
        assert list(data.items()) == list(golden.items())
        # what leaves is JSON-clean: the text on the wire does not move either
        assert json.dumps(data) == json.dumps(golden)
        if type_name == "RegistryObject":
            with pytest.raises(InvalidRequestError, match="RegistryObject"):
                deserialize(data)
        else:
            again = serialize(deserialize(data))
            assert list(again.items()) == list(golden.items())

    @pytest.mark.parametrize("type_name", list(CONCRETE_TYPES))
    def test_an_empty_list_is_what_a_new_object_holds(self, type_name):
        """``[]`` where a new object holds an empty list reads, and is left out again."""
        data = {
            key: [] if isinstance(value, list) and key not in ("name", "actions") else value
            for key, value in self.GOLDEN[type_name].items()
        }
        assert serialize(deserialize(data)) == sparse(data)

    @pytest.mark.parametrize("type_name", list(CONCRETE_TYPES))
    def test_a_new_object_writes_its_id_and_what_it_was_built_with(self, type_name):
        """Every other key holds its default: the table's defaults are the constructors'."""
        keywords = NEW_OBJECT_KEYWORDS[type_name]
        data = serialize(CONCRETE_TYPES[type_name](_uid(99), **keywords))
        camel = {re.sub(r"_(\w)", lambda m: m[1].upper(), keyword) for keyword in keywords}
        assert set(data) == {"_type", "id"} | camel
        assert all(not at_default(data, key) for key in data)
        assert serialize(deserialize(data)) == data


#: the keywords a new object of each type cannot be built without
NEW_OBJECT_KEYWORDS = {
    "Organization": {},
    "Service": {},
    "ServiceBinding": {"service": _uid(1), "access_uri": "http://h.x/"},
    "Association": {"source_object": _uid(1), "target_object": _uid(2)},
    "Classification": {"classified_object": _uid(1), "classification_node": _uid(2)},
    "ClassificationScheme": {},
    # a node's path is its code unless given, so it is always written
    "ClassificationNode": {"code": "c", "parent": _uid(1), "path": "c"},
    "ExternalIdentifier": {"registry_object": _uid(1), "identification_scheme": "s", "value": "v"},
    "ExternalLink": {"external_uri": "http://docs.x/"},
    "ExtrinsicObject": {},
    "RegistryPackage": {},
    "SpecificationLink": {"service_binding": _uid(1), "specification_object": _uid(2)},
    "User": {"alias": "a"},
    "AuditableEvent": {
        "event_type": EventType.CREATED, "affected_object": _uid(1), "user_id": _uid(2),
        "timestamp": 1.0,
    },
    "AdhocQuery": {"query": "SELECT id FROM Service"},
    "Subscription": {"selector": _uid(1), "actions": [NotifyAction("email", "x@y.z")]},
}  # fmt: skip
