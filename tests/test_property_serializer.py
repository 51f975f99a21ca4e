"""Property-based round-trip tests for the SOAP serializer."""

import copy
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_soap_serializer import (
    GOLDEN_PATH,
    ILL_TYPED,
    NEW_OBJECT_DEFAULTS,
    NEW_OBJECT_KEYWORDS,
    _uid,
    at_default,
    default_value,
    full_form,
    populated_objects,
    sparse,
)
from repro.persistence.snapshot import dump_registry, load_registry
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import (
    CONCRETE_TYPES,
    Association,
    AssociationType,
    InternationalString,
    Organization,
    PersonName,
    PostalAddress,
    RegistryObject,
    Service,
    ServiceBinding,
    SlotMap,
    User,
)
from repro.rim.base import VersionInfo
from repro.rim.status import ObjectStatus
from repro.soap import deserialize, serialize, serializer
from repro.util.clock import ManualClock
from repro.util.errors import InvalidRequestError
from repro.util.ids import IdFactory

_factory = IdFactory(99)
urn_ids = st.builds(lambda: _factory.new_id())

names = st.text(max_size=40)
descriptions = st.text(max_size=120)
statuses = st.sampled_from(list(ObjectStatus))
slot_names = st.text(min_size=1, max_size=20)


@st.composite
def organizations(draw):
    org = Organization(
        draw(urn_ids), name=draw(names), description=draw(descriptions)
    )
    org.status = draw(statuses)
    org.owner = draw(st.none() | urn_ids)
    for city in draw(st.lists(st.text(max_size=15), max_size=3)):
        org.addresses.append(PostalAddress(city=city))
    slots = draw(
        st.dictionaries(slot_names, st.lists(st.text(max_size=10), max_size=3), max_size=4)
    )
    for name, values in slots.items():
        org.add_slot(name, *values)
    return org


@st.composite
def services(draw):
    svc = Service(draw(urn_ids), name=draw(names), description=draw(descriptions))
    svc.provider = draw(st.none() | urn_ids)
    for _ in range(draw(st.integers(0, 4))):
        svc.add_binding(_factory.new_id())
    return svc


@st.composite
def bindings(draw):
    return ServiceBinding(
        draw(urn_ids),
        service=draw(urn_ids),
        access_uri="http://" + draw(st.from_regex(r"[a-z]{1,10}(\.[a-z]{1,5}){1,2}", fullmatch=True)) + ":8080/svc",
    )


@st.composite
def associations(draw):
    return Association(
        draw(urn_ids),
        source_object=draw(urn_ids),
        target_object=draw(urn_ids),
        association_type=draw(st.sampled_from(list(AssociationType))),
    )


def assert_base_equal(a, b):
    assert a.id == b.id
    assert a.lid == b.lid
    assert a.name.value == b.name.value
    assert a.description.value == b.description.value
    assert a.status is b.status
    assert a.owner == b.owner
    assert sorted(s.name for s in a.slots) == sorted(s.name for s in b.slots)
    for slot in a.slots:
        assert b.slots.get(slot.name).values == slot.values


@given(organizations())
@settings(max_examples=100)
def test_organization_round_trip(org):
    restored = deserialize(serialize(org))
    assert_base_equal(org, restored)
    assert restored.addresses == org.addresses
    assert restored.service_ids == org.service_ids


@given(services())
@settings(max_examples=100)
def test_service_round_trip(svc):
    restored = deserialize(serialize(svc))
    assert_base_equal(svc, restored)
    assert restored.provider == svc.provider
    assert restored.binding_ids == svc.binding_ids


@given(bindings())
@settings(max_examples=100)
def test_binding_round_trip(binding):
    restored = deserialize(serialize(binding))
    assert_base_equal(binding, restored)
    assert restored.access_uri == binding.access_uri
    assert restored.host == binding.host


@given(associations())
@settings(max_examples=100)
def test_association_round_trip(assoc):
    restored = deserialize(serialize(assoc))
    assert_base_equal(assoc, restored)
    assert restored.association_type is assoc.association_type


@given(organizations())
@settings(max_examples=50)
def test_serialization_is_pure(org):
    """Serializing twice yields identical payloads (no hidden mutation)."""
    assert serialize(org) == serialize(org)


# -- a key at its default is not written -------------------------------------------


def plain(value):
    """*value*, a value object taken apart: what comparing two of them compares."""
    if isinstance(value, InternationalString):
        return [tuple(entry) for entry in value.localized()]
    if isinstance(value, SlotMap):
        return [(slot.name, slot.values, slot.slot_type) for slot in value]
    if isinstance(value, VersionInfo):
        return value.version_name, value.comment
    if isinstance(value, set):
        return sorted(value)
    return value


def state(obj):
    """Every attribute of *obj* with its type, value objects taken apart.

    An attribute is read through the object, the held ones and the containers
    it makes on first read alike: whether a container is held yet is not state.
    """
    return {
        key: (type(value), plain(value))
        for key in sorted(vars(obj).keys() | type(obj).LAZY.keys())
        if key != "_host_memo"
        for value in [getattr(obj, key)]
    }


def read(data):
    """What *data* reads as: the object's state and its dict, or the refusal."""
    try:
        obj = deserialize(data)
    except InvalidRequestError as error:
        return str(error)
    return state(obj), serialize(obj)


@pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_subset_of_the_defaulted_keys_may_be_left_out(type_name, data):
    """Set any defaulted keys of a full-form dict to their defaults, leave out any
    of those: it reads as the object the full form reads as, written sparse."""
    full = full_form(serialize(populated_objects()[type_name]))
    defaulted = sorted(NEW_OBJECT_DEFAULTS[type_name])
    for key in data.draw(st.sets(st.sampled_from(defaulted)), label="set to default"):
        full[key] = default_value(full, key)
    at_defaults = [key for key in defaulted if at_default(full, key)]
    left_out = data.draw(st.sets(st.sampled_from(at_defaults)) if at_defaults else st.just(set()))
    sparse_dict = {key: value for key, value in full.items() if key not in left_out}
    expected = read(full)
    assert read(sparse_dict) == expected
    if not isinstance(expected, str):  # the model may refuse the mix (a Classification)
        assert expected[1] == sparse(full)


def test_every_full_form_golden_reads_to_its_sparse_dict():
    for type_name, golden in json.loads(GOLDEN_PATH.read_text()).items():
        if type_name != "RegistryObject":
            assert serialize(deserialize(golden)) == sparse(golden)
            assert serialize(deserialize(sparse(golden))) == sparse(golden)


def test_a_snapshot_saved_in_the_full_form_loads_identically():
    registry = RegistryServer(RegistryConfig(seed=5), clock=ManualClock())
    _, credential = registry.register_user("owner")
    session = registry.login(credential)
    org = Organization(registry.ids.new_id(), name="SDSU")
    service = Service(registry.ids.new_id(), name="Adder", description="<constraint/>")
    registry.lcm.submit_objects(session, [org, service])
    binding = ServiceBinding(registry.ids.new_id(), service=service.id, access_uri="http://h.x/")
    registry.lcm.submit_objects(session, [binding])
    for obj in populated_objects().values():
        if type(obj) is not RegistryObject:
            registry.store.insert_object(obj)
    saved = dump_registry(registry)
    full = {**saved, "objects": [full_form(data) for data in saved["objects"]]}
    assert full["objects"] != saved["objects"]
    loaded = []
    for state_ in (saved, full):
        restored = RegistryServer(RegistryConfig(seed=6), clock=ManualClock())
        load_registry(restored, state_)
        loaded.append(restored)
    sparse_loaded, full_loaded = loaded
    assert dump_registry(full_loaded) == dump_registry(sparse_loaded) == saved
    for object_id in registry.store.all_ids():
        assert state(full_loaded.store.get_object(object_id)) == state(
            sparse_loaded.store.get_object(object_id)
        )


@pytest.mark.parametrize(
    "type_name, attr, wire, value",
    [
        ("ExtrinsicObject", "is_opaque", "isOpaque", 0),
        ("AuditableEvent", "sequence", "sequence", False),
        ("Subscription", "start_time", "startTime", 0),
        ("Subscription", "start_time", "startTime", -0.0),
    ],
)
def test_a_value_equal_to_a_default_but_not_it_is_written_and_kept(type_name, attr, wire, value):
    """``0`` is no ``False`` and no ``0.0``, nor is ``-0.0``: each is written, and
    read back with its type."""
    obj = populated_objects()[type_name]
    setattr(obj, attr, value)
    data = serialize(obj)
    assert repr(data[wire]) == repr(value) and type(data[wire]) is type(value)
    restored = getattr(deserialize(json.loads(serializer.object_json(data))), attr)
    assert (type(restored), repr(restored)) == (type(value), repr(value))


# -- the generated reader fills what the constructor and assignments built ----------

#: keywords of ``RegistryObject.__init__`` the constructor-calling reader assigned after
_ASSIGNED_AFTER = {"lid", "owner", "home"}


def built(data):
    """*data* read through its type's constructor, as the reader did before it filled
    objects itself: the keywords present handed over, a ``User``'s name parts as one
    ``PersonName``, every other field present assigned after, in table order.  A
    refusal is the message ``deserialize`` would give for it."""
    type_name = data["_type"]
    cls, codec = CONCRETE_TYPES[type_name], serializer._BY_NAME[type_name]
    keywords = {
        name
        for base in cls.__mro__
        if "__init__" in vars(base) and base is not object
        for name in inspect.signature(base.__init__).parameters
    } - _ASSIGNED_AFTER
    given, parts, after = {}, {}, []
    try:
        for field in codec.fields:
            if field.wire not in data and field.default is serializer._REQUIRED:
                raise KeyError(field.wire)
            if field.wire in data:
                value = data[field.wire]
                value = field.decode(value) if field.decode else value
                head, _, name = field.attr.rpartition(".")
                if head:
                    parts[name] = value
                elif name in keywords:
                    given[name] = value
                else:
                    after.append((name, value))
        if cls is User:
            given["person_name"] = PersonName(**parts)
        obj = cls(**given)
    except serializer._MALFORMED:
        return f"cannot deserialize {type_name} object: {codec.blame(data)}"
    except InvalidRequestError as error:
        return str(error)
    for name, value in after:
        setattr(obj, name, value)
    return obj


def layout(obj):
    """``vars(obj)`` in its order, each value with its type and taken apart; or the
    refusal."""
    if isinstance(obj, str):
        return obj
    return [(key, type(value), plain(value)) for key, value in vars(obj).items()]


def decoded(data):
    try:
        return deserialize(data)
    except InvalidRequestError as error:
        return str(error)


def assert_reads_as_built(data):
    first = decoded(data)
    assert layout(first) == layout(built(data))
    if not isinstance(first, str):
        # a mutable value, a default included, is the object's own
        second = vars(deserialize(copy.deepcopy(data)))
        for key, value in vars(first).items():
            assert not hasattr(value, "copy") or value is not second[key], key


_GOLDEN = json.loads(GOLDEN_PATH.read_text())


class TestReaderMatchesConstructor:
    """``vars()`` of every object ``deserialize`` fills equals, key for key and in
    order, what its constructor plus assignments builds; every refusal is worded
    alike."""

    @pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
    def test_populated_objects_and_goldens(self, type_name):
        data = serialize(populated_objects()[type_name])
        for form in (data, full_form(data), _GOLDEN[type_name], sparse(_GOLDEN[type_name])):
            assert_reads_as_built(form)
        assert not isinstance(built(data), str)

    @pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
    def test_a_new_object(self, type_name):
        obj = CONCRETE_TYPES[type_name](_uid(99), **NEW_OBJECT_KEYWORDS[type_name])
        assert_reads_as_built(serialize(obj))
        assert layout(deserialize(serialize(obj))) == layout(obj)

    @given(st.one_of(organizations(), services(), bindings(), associations()))
    @settings(max_examples=200)
    def test_the_round_trip_strategies(self, obj):
        assert_reads_as_built(serialize(obj))

    @pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_subset_of_the_defaulted_keys_at_their_defaults(self, type_name, data):
        full = full_form(serialize(populated_objects()[type_name]))
        defaulted = sorted(NEW_OBJECT_DEFAULTS[type_name])
        for key in data.draw(st.sets(st.sampled_from(defaulted)), label="set to default"):
            full[key] = default_value(full, key)
        left_out = data.draw(st.sets(st.sampled_from(defaulted)), label="left out")
        assert_reads_as_built({key: full[key] for key in full if key not in left_out})

    @pytest.mark.parametrize("wire, value", ILL_TYPED)
    def test_an_ill_typed_field(self, wire, value):
        type_name = "Subscription" if wire == "actions" else "Organization"
        data = {**serialize(populated_objects()[type_name]), wire: value}
        assert "is malformed" in decoded(data)
        assert_reads_as_built(data)

    @pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
    def test_every_missing_key_and_every_refused_value(self, type_name):
        complete = serialize(populated_objects()[type_name])
        keys = [key for key in complete if key != "_type"]
        cases = [{k: v for k, v in complete.items() if k != key} for key in keys]
        # each value where the type may or may not take it
        cases += [
            {**complete, key: value}
            for key in keys
            for value in ("", None, 0, 1.5, "not-a-urn", [], [{}], ["x"])
        ]
        cases.append({**complete, "slots": complete["slots"] + complete["slots"][:1]})
        refused = 0
        for case in cases:
            if type_name == "ClassificationNode" and not case.get("path", True):
                continue  # see test_a_nodes_path_reads_as_written
            assert_reads_as_built(case)
            refused += isinstance(decoded(case), str)
        assert refused

    @pytest.mark.parametrize("roles", ["RegistryAdministrator", [1, 2]])
    def test_ill_typed_roles(self, roles):
        data = {**serialize(populated_objects()["User"]), "roles": roles}
        assert "'roles' is malformed" in decoded(data)
        assert_reads_as_built(data)

    @pytest.mark.parametrize("path", ["", None])
    def test_a_nodes_path_reads_as_written(self, path):
        """The one default the reader does not repeat: a node's constructor files its
        code as a path given empty, which no writer sends (a new node's path is never
        empty); the reader keeps what the key holds, so the round trip is exact."""
        node = populated_objects()["ClassificationNode"]
        node.path = path
        data = serialize(node)
        assert data["path"] == path
        assert deserialize(data).path == path
        assert built(data).path == node.code
