"""Tests for literal SOAP XML rendering: the wire's bytes, round trips, bad payloads."""

import dataclasses
import gc
import json
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import HOSTS, publish_service_with_bindings
from test_soap_serializer import (
    NEW_OBJECT_DEFAULTS,
    at_default,
    default_value,
    full_form,
    populated_objects,
)
from repro.client.jaxr import ConnectionFactory
from repro.core import attach_load_balancer
from repro.persistence.nodestate import NodeSample
from repro.registry import RegistryConfig, RegistryFederation, RegistryServer
from repro.rim import CONCRETE_TYPES, Organization, Service, ServiceBinding, Slot
from repro.serving import ServingConfig, ServingSupervisor
from repro.soap import (
    AddSlotsRequest,
    AdhocQueryRequest,
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    RegistryResponse,
    RemoveObjectsRequest,
    SoapEnvelope,
    SoapFault,
    SoapRegistryBinding,
    SubmitObjectsRequest,
    UpdateObjectsRequest,
    envelope_from_xml,
    envelope_to_xml,
    deserialize,
    serialize,
    serializer,
    xml_binding,
)
from repro.soap.xml_binding import _MESSAGE_TYPES, RS_NS, SOAP_NS, _parse_envelope
from repro.util.errors import InvalidRequestError
from repro.util.ids import IdFactory

ids = IdFactory(77)


def elementtree_envelope_to_xml(envelope: SoapEnvelope) -> str:
    """The renderer ``envelope_to_xml`` replaced, kept as the byte oracle.

    It builds the document as an element tree, deep-copies the message with
    ``dataclasses.asdict`` and lets ``ET.tostring`` choose prefixes, empty-tag
    form and escaping — the bytes every earlier PR put on the wire.
    """
    message = envelope.body
    root = ET.Element(f"{{{SOAP_NS}}}Envelope")
    header = ET.SubElement(root, f"{{{SOAP_NS}}}Header")
    for key, value in sorted(envelope.headers.items()):
        entry = ET.SubElement(header, f"{{{RS_NS}}}HeaderEntry")
        entry.set("name", key)
        entry.text = value
    body = ET.SubElement(root, f"{{{SOAP_NS}}}Body")
    if isinstance(message, SoapFault):
        fault = ET.SubElement(body, f"{{{SOAP_NS}}}Fault")
        ET.SubElement(fault, "faultcode").text = message.fault_code
        ET.SubElement(fault, "faultstring").text = message.fault_string
        if message.detail:
            ET.SubElement(fault, "detail").text = message.detail
    else:
        element = ET.SubElement(body, f"{{{RS_NS}}}{type(message).__name__}")
        element.text = json.dumps(dataclasses.asdict(message), sort_keys=True)
    return ET.tostring(root, encoding="unicode")


class TestXmlRoundTrip:
    def test_query_request(self):
        envelope = SoapEnvelope.with_session(
            AdhocQueryRequest(query="SELECT * FROM Service", start_index=5),
            "urn:uuid:token",
        )
        xml = envelope_to_xml(envelope)
        assert "<soap" in xml or "Envelope" in xml
        restored = envelope_from_xml(xml)
        assert restored.session_token == "urn:uuid:token"
        assert restored.body == envelope.body

    def test_submit_request_with_objects(self):
        org = Organization(ids.new_id(), name="SDSU")
        envelope = SoapEnvelope(
            body=SubmitObjectsRequest(objects=[serialize(org)])
        )
        restored = envelope_from_xml(envelope_to_xml(envelope))
        assert restored.body.objects[0]["id"] == org.id
        assert restored.body.objects[0]["_type"] == "Organization"

    def test_remove_request(self):
        envelope = SoapEnvelope(body=RemoveObjectsRequest(ids=["urn:uuid:a"]))
        restored = envelope_from_xml(envelope_to_xml(envelope))
        assert restored.body.ids == ["urn:uuid:a"]

    def test_response(self):
        response = RegistryResponse(rows=[{"name": "x"}], total_result_count=1)
        restored = envelope_from_xml(envelope_to_xml(SoapEnvelope(body=response)))
        assert restored.body.rows == [{"name": "x"}]
        assert restored.body.total_result_count == 1

    def test_fault(self):
        fault = SoapFault(fault_code="urn:x", fault_string="broken", detail="d")
        restored = envelope_from_xml(envelope_to_xml(SoapEnvelope(body=fault)))
        assert isinstance(restored.body, SoapFault)
        assert restored.body.fault_string == "broken"
        assert restored.body.detail == "d"

    def test_namespaces_present(self):
        xml = envelope_to_xml(SoapEnvelope(body=AdhocQueryRequest(query="SELECT * FROM Service")))
        assert "http://schemas.xmlsoap.org/soap/envelope/" in xml
        assert "urn:oasis:names:tc:ebxml-regrep" in xml


# -- the wire's bytes ----------------------------------------------------------

_BINDING_ID = "urn:uuid:00000000-0000-4000-8000-0000000000b1"
_SERVICE_ID = "urn:uuid:00000000-0000-4000-8000-0000000000a1"

GOLDEN = {
    "request-with-session-header": (
        SoapEnvelope.with_session(
            AdhocQueryRequest(
                query="SELECT * FROM Service WHERE name < 'a' & id > 'b'", start_index=5
            ),
            "urn:uuid:token",
        ),
        '<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"'
        ' xmlns:ns1="urn:oasis:names:tc:ebxml-regrep:xsd:rs:3.0"><ns0:Header>'
        '<ns1:HeaderEntry name="urn:repro:session-token">urn:uuid:token</ns1:HeaderEntry>'
        '</ns0:Header><ns0:Body><ns1:AdhocQueryRequest>{"max_results": null, "query": '
        '"SELECT * FROM Service WHERE name &lt; \'a\' &amp; id &gt; \'b\'", '
        '"query_language": "SQL-92", "start_index": 5}</ns1:AdhocQueryRequest>'
        "</ns0:Body></ns0:Envelope>",
    ),
    "response-with-objects-and-rows": (
        SoapEnvelope(
            body=RegistryResponse(
                ids=[_BINDING_ID],
                rows=[{"name": "é<x>", "n": 1, "none": None}],
                objects=[
                    serialize(
                        ServiceBinding(
                            _BINDING_ID,
                            service=_SERVICE_ID,
                            access_uri="http://exergy.sdsu.edu:8080/Adder?x=1&y=<2>",
                            name="Adder \"fast\" & 'safe'",
                        )
                    )
                ],
                total_result_count=1,
            )
        ),
        '<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"'
        ' xmlns:ns1="urn:oasis:names:tc:ebxml-regrep:xsd:rs:3.0"><ns0:Header />'
        '<ns0:Body><ns1:RegistryResponse>{"ids": ["urn:uuid:00000000-0000-4000-8000-'
        # re-captured when a serialized object stopped writing the keys a new
        # object holds (lid == id, empty lists, nulls, "Submitted", "1.1")
        '0000000000b1"], "objects": [{"_type": "ServiceBinding", "accessUri": '
        '"http://exergy.sdsu.edu:8080/Adder?x=1&amp;y=&lt;2&gt;", '
        '"id": "urn:uuid:00000000-0000-4000-8000-0000000000b1", '
        '"name": [{"charset": "UTF-8", "locale": "en_US", '
        '"value": "Adder \\"fast\\" &amp; \'safe\'"}], '
        '"service": "urn:uuid:00000000-0000-4000-8000-0000000000a1"}], '
        '"rows": [{"n": 1, "name": "\\u00e9&lt;x&gt;", '
        '"none": null}], "status": "Success", "total_result_count": 1}'
        "</ns1:RegistryResponse></ns0:Body></ns0:Envelope>",
    ),
    "fault-without-headers": (
        SoapEnvelope(
            body=SoapFault("urn:x:InvalidRequest", 'bad <thing> & "worse"', "line\n2")
        ),
        '<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/">'
        "<ns0:Header /><ns0:Body><ns0:Fault><faultcode>urn:x:InvalidRequest</faultcode>"
        '<faultstring>bad &lt;thing&gt; &amp; "worse"</faultstring>'
        "<detail>line\n2</detail></ns0:Fault></ns0:Body></ns0:Envelope>",
    ),
    "fault-with-headers-and-empty-faultstring": (
        SoapEnvelope(
            body=SoapFault("urn:x", "", None),
            headers={'b"k"\t': "v&1", "a": "first\nline"},
        ),
        '<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"'
        ' xmlns:ns1="urn:oasis:names:tc:ebxml-regrep:xsd:rs:3.0"><ns0:Header>'
        '<ns1:HeaderEntry name="a">first\nline</ns1:HeaderEntry>'
        '<ns1:HeaderEntry name="b&quot;k&quot;&#09;">v&amp;1</ns1:HeaderEntry>'
        "</ns0:Header><ns0:Body><ns0:Fault><faultcode>urn:x</faultcode><faultstring />"
        "</ns0:Fault></ns0:Body></ns0:Envelope>",
    ),
    "header-with-empty-value": (
        SoapEnvelope(body=RemoveObjectsRequest(ids=[]), headers={"traceparent": ""}),
        '<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"'
        ' xmlns:ns1="urn:oasis:names:tc:ebxml-regrep:xsd:rs:3.0"><ns0:Header>'
        '<ns1:HeaderEntry name="traceparent" /></ns0:Header><ns0:Body>'
        '<ns1:RemoveObjectsRequest>{"idempotency_key": null, "ids": []}'
        "</ns1:RemoveObjectsRequest></ns0:Body></ns0:Envelope>",
    ),
}

# the characters either escaping rule, JSON or the XML parser treats specially
text = st.text(alphabet="ab 0&<>\"'\t\n\r{}[]:,\\éλ中", max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def bodies(draw, kinds=(*_MESSAGE_TYPES.values(), SoapFault)):
    """A message of any wire type; the writer does not look at field types."""
    cls = draw(st.sampled_from(kinds))
    if cls is SoapFault:
        return SoapFault(draw(text), draw(text), draw(st.none() | text))
    return cls(**{f.name: draw(json_values) for f in dataclasses.fields(cls)})


class TestWireBytes:
    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_golden_documents(self, case):
        envelope, document = GOLDEN[case]
        assert envelope_to_xml(envelope) == document
        assert elementtree_envelope_to_xml(envelope) == document

    @settings(max_examples=400, deadline=None)
    @given(body=bodies(), headers=st.dictionaries(text, text, max_size=3))
    def test_writer_matches_elementtree_byte_for_byte(self, body, headers):
        envelope = SoapEnvelope(body=body, headers=headers)
        assert envelope_to_xml(envelope) == elementtree_envelope_to_xml(envelope)

    @pytest.mark.parametrize("message_cls", list(_MESSAGE_TYPES.values()), ids=list(_MESSAGE_TYPES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_decode_inverts_encode(self, message_cls, data):
        # an XML parser reads a bare CR in character data as LF, and the
        # decoder drops a header without a name: neither is drawn here
        plain = text.map(lambda s: s.replace("\r", ""))
        envelope = SoapEnvelope(
            body=data.draw(bodies(kinds=(message_cls,))),
            headers=data.draw(st.dictionaries(plain.filter(bool), plain, max_size=3)),
        )
        restored = envelope_from_xml(envelope_to_xml(envelope))
        assert type(restored.body) is message_cls
        assert restored == envelope

    def test_the_message_is_read_not_copied_or_changed(self):
        rows = [{"name": "x", "nested": {"k": [1, 2]}}]
        objects = [serialize(obj) for obj in populated_objects().values()]
        elements = list(objects)
        response = RegistryResponse(rows=rows, objects=objects)
        before = json.dumps([rows, objects])
        envelope_to_xml(SoapEnvelope(body=response))
        assert response.rows is rows and response.objects is objects
        assert all(a is b for a, b in zip(objects, elements, strict=True))
        assert json.dumps([rows, objects]) == before


class TestXmlErrors:
    def test_unknown_body_type(self):
        with pytest.raises(InvalidRequestError):
            envelope_to_xml(SoapEnvelope(body=object()))

    def test_not_an_envelope(self):
        with pytest.raises(InvalidRequestError):
            envelope_from_xml("<notsoap/>")

    def test_empty_body(self):
        xml = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
            "<soap:Body/></soap:Envelope>"
        )
        with pytest.raises(InvalidRequestError, match="no body"):
            envelope_from_xml(xml)

    def test_unknown_message_element(self):
        xml = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
            "<soap:Body><Mystery>{}</Mystery></soap:Body></soap:Envelope>"
        )
        with pytest.raises(InvalidRequestError, match="Mystery"):
            envelope_from_xml(xml)


def _document(payload_text: str, element: str = "AdhocQueryRequest") -> str:
    return (
        f'<s:Envelope xmlns:s="{SOAP_NS}" xmlns:rs="{RS_NS}"><s:Body>'
        f"<rs:{element}>{payload_text}</rs:{element}></s:Body></s:Envelope>"
    )


MALFORMED_PAYLOADS = {
    "not-json": "SELECT * FROM Service",
    "not-an-object": "[1]",
    "unknown-field": '{"query": "SELECT * FROM Service", "bogus": 1}',
    "missing-field": '{"start_index": 3}',
}


class TestMalformedPayloads:
    @pytest.mark.parametrize("case", list(MALFORMED_PAYLOADS))
    def test_decode_raises_invalid_request_naming_the_element(self, case):
        with pytest.raises(InvalidRequestError, match="AdhocQueryRequest"):
            envelope_from_xml(_document(MALFORMED_PAYLOADS[case]))

    @pytest.mark.parametrize(
        "wire_text",
        [_document("[1]"), _document("{}", "Mystery"), "<unclosed"],
        ids=["payload-not-an-object", "unknown-element", "not-xml"],
    )
    def test_wire_endpoint_answers_with_an_invalid_request_fault(self, registry, wire_text):
        factory = ConnectionFactory(registry=registry, wire_xml=True)
        reply = factory.transport.request(factory.binding.endpoint_uri, wire_text)
        fault = envelope_from_xml(reply).body
        assert isinstance(fault, SoapFault)
        assert fault.fault_code == InvalidRequestError.code
        with pytest.raises(InvalidRequestError):
            fault.raise_()

    def test_unrenderable_payload_is_an_invalid_request(self):
        # asdict used to flatten a nested dataclass silently; json.dumps cannot
        nested = RegistryResponse(rows=[{"fault": SoapFault("urn:x", "broken")}])
        with pytest.raises(InvalidRequestError, match="cannot render RegistryResponse"):
            envelope_to_xml(SoapEnvelope(body=nested))


# -- the table writer against the expression it replaced -----------------------------


def dumps_document(envelope: SoapEnvelope) -> str:
    """A header-less message document with the payload ``envelope_to_xml`` used
    to compute per call: ``json.dumps`` over the message's fields, keys sorted."""
    message = envelope.body
    name = type(message).__name__
    payload = json.dumps(
        {f.name: getattr(message, f.name) for f in dataclasses.fields(message)}, sort_keys=True
    )
    return (
        f"{xml_binding._ENVELOPE_OPEN}<ns0:Header /><ns0:Body><ns1:{name}>{escape(payload)}"
        f"</ns1:{name}></ns0:Body></ns0:Envelope>"
    )


def written(encode, envelope):
    """The document, or that it could not be rendered (and why)."""
    try:
        return encode(envelope)
    except (TypeError, ValueError, InvalidRequestError) as error:
        return "unrenderable", str(error).rpartition("payload: ")[2]


def json_dumps_sorted(x) -> str:
    return json.dumps(x, sort_keys=True)


class _Dict(dict):
    """A mapping the encoder reads through ``items``, not as the dict it also is."""

    def items(self):
        return [("seen-through-items", len(self))]


class _Str(str):
    pass


# markup, JSON syntax, controls, non-ASCII, non-BMP, lone surrogates
HOSTILE = "ab <&>\"'\\/{}[]:,\x00\x01\x1f\x7f\n\r\t\u00e9\u4e2d\U0001f600\ud800\udfff"
hostile = st.text(alphabet=st.sampled_from(HOSTILE), max_size=8) | st.text(max_size=6)
any_float = st.floats(allow_nan=True, allow_infinity=True)
any_json = json_values | any_float | hostile


@st.composite
def serialized_objects(draw):
    """What ``serialize`` writes for an object of any listed type, populated or
    nearly bare, its text hostile."""
    obj = populated_objects()[draw(st.sampled_from(sorted(serializer._BY_NAME)))]
    for istring in (obj.name, obj.description):
        for locale in draw(st.lists(st.sampled_from(["en_US", "fr_FR", "zz"]), max_size=2)):
            istring.set(draw(hostile), locale=locale, charset=draw(hostile))
    slot = Slot(draw(hostile.filter(bool)), draw(st.lists(hostile, max_size=2)))
    obj.slots.add(slot, replace=True)
    obj.owner, obj.home = draw(st.none() | hostile), draw(st.none() | hostile)
    if hasattr(obj, "timestamp"):
        obj.timestamp = draw(any_float)
    data = serialize(obj)
    lists = sorted(key for key, value in data.items() if isinstance(value, list))
    for key in draw(st.sets(st.sampled_from(lists))):
        data[key] = []
    return data


def _drop_a_key(draw, data):
    del data[draw(st.sampled_from(sorted(data)))]
    return data


def _add_a_key(draw, data):
    data[draw(hostile | st.integers(0, 3) | st.none())] = draw(any_json)
    return data


def _rename_a_key(draw, data):
    return _add_a_key(draw, _drop_a_key(draw, data))


def _swap_a_value(draw, data):
    data[draw(st.sampled_from(sorted(data)))] = draw(any_json)
    return data


def _str_subclass_value(draw, data):
    key = draw(st.sampled_from(sorted(k for k, v in data.items() if isinstance(v, str))))
    data[key] = _Str(data[key])
    return data


def _another_type(draw, data):
    name = data["_type"]
    others = st.sampled_from(["RegistryObject", name.lower(), *serializer._BY_NAME])
    data["_type"] = draw(hostile | others.filter(lambda other: other != name) | any_json)
    return data


def _foreign_name_entry(draw, data):
    entry = {"locale": "en_US", "charset": "UTF-8", "value": draw(hostile)}
    data["name"] = [draw(st.sampled_from(OF_ANY_DICT))(draw, entry), *data["name"]]
    return data


OF_ANY_DICT = (
    _drop_a_key, _add_a_key, _rename_a_key, _swap_a_value, _str_subclass_value,
    lambda draw, data: _Dict(data),
)  # fmt: skip
OF_AN_OBJECT = (*OF_ANY_DICT, _another_type, _foreign_name_entry)


@st.composite
def perturbed(draw, data):
    """*data* with one thing about it no longer what the table wrote."""
    return draw(st.sampled_from(OF_AN_OBJECT))(draw, dict(data))


object_lists = st.lists(
    serialized_objects().flatmap(lambda data: st.just(data) | perturbed(data)) | any_json,
    max_size=3,
)


def _mutate(objects):
    objects[0]["owner"] = "urn:uuid:mallory"
    # an empty name is left out: the mutation gives it one
    objects[0].setdefault("name", []).append({"locale": "zz", "charset": "UTF-8", "value": "<&>"})


def _misshape(objects):
    objects[0]["extra"] = objects[0].pop("lid")


#: what a caller in process may do with an answer's objects before it is encoded
TOUCHES = {
    "untouched": lambda objects: None,
    "indexed": lambda objects: objects[0],
    "iterated": lambda objects: [data["id"] for data in objects],
    "measured": lambda objects: (len(objects), repr(objects)),
    "compared": lambda objects: objects == [],
    "mutated": _mutate,
    "mutated-out-of-the-tables-shape": _misshape,
}


class TestWriterMatchesDumps:
    """``envelope_to_xml`` writes what ``json.dumps(fields, sort_keys=True)`` wrote."""

    @settings(max_examples=300, deadline=None)
    @given(
        objects=object_lists | any_json,
        ids=st.lists(hostile, max_size=2) | any_json,
        rows=st.lists(st.dictionaries(hostile, any_json, max_size=3), max_size=2),
        status=hostile,
        total=st.none() | st.integers() | st.booleans() | any_float,
    )
    def test_responses(self, objects, ids, rows, status, total):
        envelope = SoapEnvelope(body=RegistryResponse(status, ids, rows, objects, total))
        assert written(envelope_to_xml, envelope) == written(dumps_document, envelope)

    @settings(max_examples=200, deadline=None)
    @given(
        message_cls=st.sampled_from([SubmitObjectsRequest, UpdateObjectsRequest]),
        objects=object_lists,
        key=st.none() | hostile | any_json,
    )
    def test_object_carrying_requests(self, message_cls, objects, key):
        envelope = SoapEnvelope(body=message_cls(objects, key))
        assert written(envelope_to_xml, envelope) == written(dumps_document, envelope)

    @pytest.mark.parametrize("perturb", OF_AN_OBJECT, ids=lambda f: f.__name__.strip("_<>"))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_each_way_of_not_being_what_the_table_wrote(self, perturb, data):
        objects = [perturb(data.draw, data.draw(serialized_objects()))]
        for body in (RegistryResponse(objects=objects), UpdateObjectsRequest(objects=objects)):
            envelope = SoapEnvelope(body=body)
            assert written(envelope_to_xml, envelope) == written(dumps_document, envelope)

    def test_every_golden_object_is_the_tables_to_write(self, monkeypatch):
        monkeypatch.setattr(serializer, "encode_json", None)  # not the fallback's doing
        for name, obj in populated_objects().items():
            data = serialize(obj)
            if name != "RegistryObject":
                assert serializer._BY_NAME[name].text(data) == json.dumps(data, sort_keys=True)

    @staticmethod
    def handed_to_the_encoder(x) -> tuple:
        """``object_json(x)`` (or its refusal), and whether the encoder wrote ``x`` whole."""
        scope = serializer._BY_NAME[x["_type"]].text.__globals__
        encode, handed = scope["encode"], []
        scope["encode"] = lambda value: handed.append(value) or encode(value)
        try:
            text = written(serializer.object_json, x)
        finally:
            scope["encode"] = encode
        return text, any(value is x for value in handed)

    @pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_subset_of_the_defaulted_keys_is_the_tables_to_write(self, type_name, data):
        full = full_form(serialize(populated_objects()[type_name]))
        defaulted = sorted(NEW_OBJECT_DEFAULTS[type_name])
        for key in data.draw(st.sets(st.sampled_from(defaulted)), label="set to default"):
            full[key] = default_value(full, key)
        left_out = data.draw(st.sets(st.sampled_from(defaulted)), label="left out")
        x = {key: value for key, value in full.items() if key not in left_out}
        assert self.handed_to_the_encoder(x) == (written(json_dumps_sorted, x), False)
        # an extra key, or one that is no string, is the encoder's again
        for key in ("extra", 0, "Lid"):
            shaped = {**x, key: data.draw(any_json, label=repr(key))}
            assert self.handed_to_the_encoder(shaped) == (written(json_dumps_sorted, shaped), True)

    @pytest.mark.parametrize("unserialisable", [{1, 2}, object()], ids=["set", "object"])
    @pytest.mark.parametrize(
        "where",
        [
            lambda data, bad: data.update(owner=bad),
            lambda data, bad: data.update(extra=bad),
            lambda data, bad: data["name"][0].update(value=bad),
            lambda data, bad: data["slots"][0]["values"].append(bad),
            lambda data, bad: data["classificationIds"].append(bad),
            lambda data, bad: data.update(description=bad),
        ],
        ids=["field", "extra-key", "name-entry", "slot-value", "id-list", "for-a-list"],
    )
    def test_an_unserialisable_value_anywhere_is_an_invalid_request(self, where, unserialisable):
        data = serialize(populated_objects()["Service"])
        where(data, unserialisable)
        for body in (RegistryResponse(objects=[data]), SubmitObjectsRequest(objects=[data])):
            with pytest.raises(InvalidRequestError, match=f"cannot render {type(body).__name__}"):
                envelope_to_xml(SoapEnvelope(body=body))

    # -- an answer of stored versions: joined texts, or the dicts a reader was handed --

    @staticmethod
    def stored_answer(stored, registry=None):
        """The kernel's ``getRegistryObject`` answer carrying *stored*, and its store."""
        registry = registry or RegistryServer(RegistryConfig(seed=3))
        registry.store.insert_object(stored)
        request = SoapEnvelope(body=GetRegistryObjectRequest(object_id=stored.id))
        return SoapRegistryBinding(registry).handle(request), registry.store

    @pytest.mark.parametrize("touch", list(TOUCHES))
    @settings(max_examples=25, deadline=None)
    @given(data=serialized_objects())
    def test_a_stored_answer_is_written_as_the_dicts_a_reader_in_process_has(self, touch, data):
        try:
            stored = deserialize(data)
        except InvalidRequestError:  # a list the model requires was emptied
            assume(False)
        answer, store = self.stored_answer(stored)
        assert type(answer.objects) is serializer.StoredObjects
        fresh = RegistryResponse(objects=[serialize(store.get_object(data["id"]))])
        for response in (answer, fresh):
            TOUCHES[touch](response.objects)
        document = envelope_to_xml(SoapEnvelope(body=answer))
        assert document == dumps_document(SoapEnvelope(body=fresh))
        # ... and so it stays: what was handed out once is all the writer looks at
        assert document == envelope_to_xml(SoapEnvelope(body=answer))
        handed_out = RegistryResponse(objects=[*answer.objects])
        assert document == dumps_document(SoapEnvelope(body=handed_out))

    def test_a_stored_answer_equals_the_list_of_its_dicts_both_ways_round(self):
        answer, store = self.stored_answer(populated_objects()["Service"])
        dicts = [serialize(store.get_object(answer.objects[0]["id"]))]
        assert answer.objects == dicts and dicts == answer.objects
        plain = RegistryResponse(objects=dicts)
        assert answer == plain and plain == answer
        other, _ = self.stored_answer(populated_objects()["Service"])
        assert answer == other and answer.objects == other.objects
        dicts[0]["owner"] = "urn:uuid:mallory"
        assert answer.objects != dicts and dicts != answer.objects and answer.objects != "x"
        assert repr(answer.objects) == repr(other.objects[:]) and len(answer.objects) == 1

    def test_a_forwarded_answer_is_written_by_the_forwarder_with_the_holders_bytes(self):
        federation = RegistryFederation("fed")
        holder, forwarder = members = [
            RegistryServer(RegistryConfig(seed=n, home=f"http://reg{n}.example:8080/omar/registry"))
            for n in (1, 2)
        ]
        for member in members:
            federation.join(member)
        service = populated_objects()["Service"]
        service.id = next(
            oid
            for oid in iter(holder.ids.new_id, None)
            if federation.shard_map.owner(oid) == holder.home
        )
        local, store = self.stored_answer(service, holder)
        request = SoapEnvelope(body=GetRegistryObjectRequest(object_id=service.id))
        forwarded = federation.transport.request(federation.endpoint_for(forwarder.home), request)
        assert federation.router_for(forwarder.home).stats()["forwarded"] == 1
        assert type(forwarded.objects) is serializer.StoredObjects
        document = envelope_to_xml(SoapEnvelope(body=forwarded))
        assert document == envelope_to_xml(SoapEnvelope(body=local))
        fresh = RegistryResponse(objects=[serialize(store.get_object(service.id))])
        assert document == dumps_document(SoapEnvelope(body=fresh))
        (_, text), = holder.qm._texts._entries.values()
        assert escape(text) in document and len(forwarder.qm._texts) == 0


# -- one pass over the writer's own documents, the tree for everything else ------

#: header names and values as deployments write them, and as nobody should
real_headers = st.fixed_dictionaries(
    {},
    optional={
        SoapEnvelope.SESSION_HEADER: st.just("urn:uuid:59bd7041-781f-4c57-b985-f0293588642b"),
        SoapEnvelope.TRACEPARENT_HEADER: st.just("00-0af7651916cd43dd8448eb211c80319c-b7ad6b71-01"),
        SoapEnvelope.FORWARDED_HEADER: st.just("http://member-2.example:8080/omar/registry/soap"),
    },
)
any_headers = real_headers | st.dictionaries(text, text, max_size=3)

#: what a mutation splices in, by what it is to the two decoders
SPLICES = {
    # keeps JSON valid somewhere: the scanner may go on reading the document
    "json": (" ", "\n", "\t", "\r", "a", "0", '"', "'", "{", "}", ",", ";", "/", "\\", "\x7f", "&amp;", "&lt;"),
    # characters the writer never leaves raw, or XML forbids
    "character": ("<", ">", "&", "é", "\x01", "\x0b", "\ufffe"),
    # references the writer never writes
    "reference": ("&foo;", "&#x41;", "&#65;", "&quot;", "&apos;", "&#10;", "&AMP;", "&amp"),
    # markup the writer never emits
    "markup": (
        "]]>", "<!-- c -->", "<?pi x?>", "<![CDATA[x]]>", "<![CDATA[{}]]>", "<x/>",
        '<ns1:RemoveObjectsRequest>{"ids": []}</ns1:RemoveObjectsRequest>',
        "<ns1:HeaderEntry>v</ns1:HeaderEntry>", '<ns1:HeaderEntry name="a">v</ns1:HeaderEntry>',
        '<ns1:HeaderEntry name="">v</ns1:HeaderEntry>', '<ns1:HeaderEntry name="a"></ns1:HeaderEntry>',
    ),
}  # fmt: skip
splices = st.sampled_from(sorted(SPLICES)).flatmap(lambda kind: st.sampled_from(SPLICES[kind]))
DOCTYPE = '<!DOCTYPE x [<!ENTITY foo "bar">]>'


def outcome(decode, document):
    """What a decoder makes of a document: the envelope, or its refusal."""
    try:
        return decode(document)
    except InvalidRequestError as error:
        return type(error), str(error)


def _swap_prefixes(document):
    return document.replace("ns0", "\0").replace("ns1", "ns0").replace("\0", "ns1")


def _reprefix(document):
    return document.replace("ns0:", "soap:").replace("xmlns:ns0", "xmlns:soap")


def _duplicate_first_header(document):
    start = document.find("<ns1:HeaderEntry")
    if start < 0:
        return document.replace("<ns0:Header />", "<ns0:Header></ns0:Header>")
    close = document.find("</ns1:HeaderEntry>", start)
    end = document.find(">", start) if close < 0 else close + len("</ns1:HeaderEntry>") - 1
    return document[: end + 1] + document[start : end + 1] + document[end + 1 :]


WHOLE_DOCUMENT_MUTATIONS = {
    "swap-prefixes": _swap_prefixes,
    "soap-prefix": _reprefix,
    "whitespace-between-elements": lambda d: d.replace("><", ">\n  <"),
    "doctype-with-entity": lambda d: DOCTYPE + d,
    "doctype-and-entity-used": lambda d: DOCTYPE + d.replace("</ns1:", "&foo;</ns1:", 1),
    "xml-declaration": lambda d: '<?xml version="1.0"?>' + d,
    "trailing-whitespace": lambda d: d + "\n",
    "trailing-comment": lambda d: d + "<!-- bye -->",
    "duplicated-header": _duplicate_first_header,
    "self-closed-header-spelled-out": lambda d: d.replace("<ns0:Header />", "<ns0:Header/>"),
}


@st.composite
def mutated(draw, document):
    """One edit of *document*: at an offset, or of the whole text."""
    kind = draw(st.sampled_from(["truncate", "delete", "duplicate", "replace", "splice", "whole"]))
    if kind == "whole":
        return WHOLE_DOCUMENT_MUTATIONS[draw(st.sampled_from(sorted(WHOLE_DOCUMENT_MUTATIONS)))](
            document
        )
    # mostly past the root's start tag: the headers and the payload are where
    # the two decoders could come to disagree
    start = max(document.find(draw(st.sampled_from(["<", "<ns0:Header", "<ns0:Body>"]))), 0)
    at = draw(st.integers(min(start, len(document) - 1), len(document) - 1))
    if kind == "truncate":
        return document[:at]
    if kind == "delete":
        return document[:at] + document[at + 1 :]
    if kind == "duplicate":
        return document[: at + 1] + document[at:]
    return document[:at] + draw(splices) + document[at + (kind == "replace") :]


class TestScannerMatchesTree:
    """``envelope_from_xml`` is the tree decoder, on every text, error for error."""

    @settings(max_examples=300, deadline=None)
    @given(body=bodies(), headers=any_headers)
    def test_written_documents(self, body, headers):
        document = envelope_to_xml(SoapEnvelope(body=body, headers=headers))
        assert outcome(envelope_from_xml, document) == outcome(_parse_envelope, document)

    @settings(max_examples=2000, deadline=None)
    @given(data=st.data(), body=bodies(), headers=any_headers)
    def test_mutated_documents(self, data, body, headers):
        document = envelope_to_xml(SoapEnvelope(body=body, headers=headers))
        for _ in range(data.draw(st.integers(1, 2))):
            document = data.draw(mutated(document)) or "<"
        assert outcome(envelope_from_xml, document) == outcome(_parse_envelope, document)

    @pytest.mark.parametrize("mutation", sorted(WHOLE_DOCUMENT_MUTATIONS))
    @pytest.mark.parametrize("case", [c for c in GOLDEN if "fault" not in c])
    def test_foreign_but_legal_spellings_of_the_golden_documents(self, case, mutation):
        envelope, document = GOLDEN[case]
        foreign = WHOLE_DOCUMENT_MUTATIONS[mutation](document)
        assert outcome(envelope_from_xml, foreign) == outcome(_parse_envelope, foreign)
        if mutation not in ("swap-prefixes", "doctype-and-entity-used"):
            assert envelope_from_xml(foreign) == envelope

    def test_every_splice_where_it_could_matter(self):
        """In a payload string, a header name, a header value: same outcome, and
        nothing but plain characters is the scanner's to read."""
        written = envelope_to_xml(
            SoapEnvelope(body=RemoveObjectsRequest(ids=["abc"]), headers={"name": "value"})
        )
        assert xml_binding._scan_envelope(written) is not None
        for anchor in ('bc"]', 'ame">', "alue</"):
            at = written.index(anchor)
            for kind, members in SPLICES.items():
                for splice in members:
                    document = written[:at] + splice + written[at:]
                    assert outcome(envelope_from_xml, document) == outcome(
                        _parse_envelope, document
                    ), (anchor, splice)
                    if kind != "json":
                        assert xml_binding._scan_envelope(document) is None, (anchor, splice)

    def test_the_scanner_declines_every_foreign_spelling(self):
        written = envelope_to_xml(SoapEnvelope(body=RemoveObjectsRequest(ids=["a"])))
        for name, mutate in WHOLE_DOCUMENT_MUTATIONS.items():
            # a repeated entry is still the writer's grammar: last one wins, as in the tree
            if name != "duplicated-header":
                assert xml_binding._scan_envelope(mutate(written)) is None


def _sample_messages():
    """One populated message of every wire type; strings hold ``< > &``."""
    service = serialize(Service(ids.new_id(), name="A<B> & C", description=LOAD_BELOW_ONE))
    some = [ids.new_id(), ids.new_id()]
    slot = {"name": "n&", "values": ["<v>"], "slotType": None}
    fields = {
        "SubmitObjectsRequest": {"objects": [service], "idempotency_key": "k<1>&"},
        "UpdateObjectsRequest": {"objects": [service, service]},
        "ApproveObjectsRequest": {"ids": some},
        "DeprecateObjectsRequest": {"ids": some, "idempotency_key": "again"},
        "UndeprecateObjectsRequest": {"ids": some},
        "RemoveObjectsRequest": {"ids": []},
        "AddSlotsRequest": {"object_id": some[0], "slots": [slot]},
        "RemoveSlotsRequest": {"object_id": some[0], "names": ["n&", "<m>"]},
        "AdhocQueryRequest": {"query": "SELECT * FROM Service WHERE name < 'b' AND id > 'a' & 1"},
        "GetRegistryObjectRequest": {"object_id": some[0]},
        "GetServiceBindingsRequest": {"service_id": some[0]},
        "RegistryResponse": {
            "ids": some, "rows": [{"name": "<x> & y"}], "objects": [service],
            "total_result_count": 1,
        },
    }  # fmt: skip
    assert set(fields) == set(_MESSAGE_TYPES)
    return [_MESSAGE_TYPES[name](**values) for name, values in fields.items()]


WIRE_HEADERS = {
    SoapEnvelope.SESSION_HEADER: "urn:uuid:59bd7041-781f-4c57-b985-f0293588642b",
    SoapEnvelope.TRACEPARENT_HEADER: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
    SoapEnvelope.FORWARDED_HEADER: "http://member-2.example:8080/omar/registry/soap",
}


class TestDecodeBudget:
    """Clock-free guards on the decoder, in the spirit of the kernel's TestCallBudget."""

    #: call + c_call events of decoding one header-less GetServiceBindingsRequest
    #: at a17853e (CPython 3.11).  expat's whole parse is two of them (one C
    #: call does all the work), and 13 are json.loads, the two constructors
    #: and the profiler switch, which any decoder pays: event counts cannot
    #: show the tree going away — the parse counter below does — but they do
    #: bound the Python-level work the scanner may add in its place.
    TREE_EVENTS = 23

    @pytest.fixture
    def tree_parses(self, monkeypatch):
        parses = []

        def counting_parse_xml(document, **kwargs):
            parses.append(document)
            return parse_xml(document, **kwargs)

        parse_xml = xml_binding.parse_xml
        monkeypatch.setattr(xml_binding, "parse_xml", counting_parse_xml)
        return parses

    @pytest.mark.parametrize("headers", [{}, WIRE_HEADERS], ids=["no-headers", "headers"])
    def test_no_written_message_is_parsed_into_a_tree(self, tree_parses, headers):
        for message in _sample_messages():
            envelope = SoapEnvelope(body=message, headers=dict(headers))
            assert envelope_from_xml(envelope_to_xml(envelope)) == envelope
        assert tree_parses == []
        # the counter counts: a fault is the tree decoder's to read
        envelope_from_xml(envelope_to_xml(SoapEnvelope(body=SoapFault("urn:x", "broken"))))
        assert len(tree_parses) == 1

    @staticmethod
    def call_events(run, *args) -> int:
        """call + c_call events of ``run(*args)``, after three warm-up runs; the
        count must repeat."""
        events = 0

        def profiler(frame, event, arg):
            nonlocal events
            if event in ("call", "c_call"):
                events += 1

        def count() -> int:
            nonlocal events
            events = 0
            # a collection inside the counted run would add its callbacks' calls
            gc.disable()
            sys.setprofile(profiler)
            try:
                run(*args)
            finally:
                sys.setprofile(None)
                gc.enable()
            return events

        for _ in range(3):
            run(*args)
        first, second = count(), count()
        assert first == second
        return first

    def test_decoding_a_discovery_request_stays_under_the_tree_decoders_events(self):
        document = envelope_to_xml(
            SoapEnvelope(body=GetServiceBindingsRequest(service_id=_SERVICE_ID))
        )
        assert self.call_events(envelope_from_xml, document) < self.TREE_EVENTS

    #: call + c_call events of ``deserialize`` of one published binding dict (CPython
    #: 3.11, the profiler switch included): the generated fill stores every attribute
    #: itself, so it calls the two classes' ``_check`` and makes the empty name and
    #: description.  Through the constructor, with its keyword dict and the
    #: ``**kwargs`` chain of two ``__init__``s, the same dict cost 14
    BINDING_EVENTS = 11

    def test_decoding_a_published_binding_calls_no_constructor(self, registry, session):
        _, service = publish_service_with_bindings(registry, session, description=LOAD_BELOW_ONE)
        answer = SoapRegistryBinding(registry).handle(
            SoapEnvelope(body=GetServiceBindingsRequest(service_id=service.id))
        )
        objects = envelope_from_xml(envelope_to_xml(SoapEnvelope(body=answer))).body.objects
        assert set(objects[0]) == {"_type", "id", "service", "accessUri", "owner", "home"}
        assert self.call_events(deserialize, objects[0]) <= self.BINDING_EVENTS

    #: blocks and bytes one published binding read back by ``deserialize``
    #: retains (CPython 3.11): the object and its attribute values, and its
    #: name and description, each a string map — 6 blocks, 385–410 B (the
    #: attribute array's size follows the class's shared keys, so the test order
    #: moves it).  It holds no empty container: when the constructor made every
    #: slot map and id list, 12 blocks / ~760 B
    BLOCKS_PER_BINDING, BYTES_PER_BINDING = 7, 480

    def test_a_decoded_binding_retains_only_what_it_holds(self, registry, session):
        _, service = publish_service_with_bindings(registry, session, description=LOAD_BELOW_ONE)
        answer = SoapRegistryBinding(registry).handle(
            SoapEnvelope(body=GetServiceBindingsRequest(service_id=service.id))
        )
        objects = envelope_from_xml(envelope_to_xml(SoapEnvelope(body=answer))).body.objects
        decoded = [None] * (100 * len(objects))
        for data in objects:
            deserialize(data)
        # the free lists hand out blocks allocated before tracing began, which
        # the count would miss: take them all first
        taken = [{n: n} for n in range(200)], [[n] for n in range(200)]
        collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for n in range(len(decoded)):
                decoded[n] = deserialize(objects[n % len(objects)])
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        del taken
        own = [tracemalloc.Filter(False, tracemalloc.__file__)]
        stats = after.filter_traces(own).compare_to(before.filter_traces(own), "filename")
        blocks = sum(stat.count_diff for stat in stats) / len(decoded)
        size = sum(stat.size_diff for stat in stats) / len(decoded)
        assert blocks <= self.BLOCKS_PER_BINDING, (blocks, size)
        assert size <= self.BYTES_PER_BINDING, (blocks, size)


class TestEncodeBudget:
    """Clock-free guards on the writer, beside the decoder's."""

    #: call + c_call events of encoding one header-less RegistryResponse at
    #: cf56c3e (CPython 3.11), whatever it carried: one ``json.dumps`` wrote it
    #: all inside the C encoder.  The table writer pays Python-level events per
    #: object instead — a call and one C call per string written — so the
    #: bound is on what is left once those are taken out, and on their number.
    PARENT_EVENTS = 22
    EVENTS_PER_BINDING = 17

    @staticmethod
    def response(bindings: int) -> SoapEnvelope:
        objects = [
            serialize(
                ServiceBinding(
                    ids.new_id(), service=_SERVICE_ID, access_uri=f"http://h{n}.example/", name="b"
                )
            )
            for n in range(bindings)
        ]
        return SoapEnvelope(body=RegistryResponse(objects=objects))

    @staticmethod
    def calls(encode, *args) -> list[str]:
        """The qualified name of every function entered by a warm ``encode(*args)``."""
        names: list[str] = []

        def profiler(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_qualname)
            elif event == "c_call":
                names.append(arg.__qualname__)

        encode(*args)
        # a collection inside the counted run would add its callbacks' calls
        gc.disable()
        sys.setprofile(profiler)
        try:
            encode(*args)
        finally:
            sys.setprofile(None)
            gc.enable()
        return names

    def test_events_are_the_envelopes_plus_a_constant_per_object(self):
        none, three, six = (self.calls(envelope_to_xml, self.response(n)) for n in (0, 3, 6))
        assert three == self.calls(envelope_to_xml, self.response(3))
        per_binding, remainder = divmod(len(six) - len(three), 3)
        assert remainder == 0 and per_binding <= self.EVENTS_PER_BINDING
        assert len(none) <= len(three) - 3 * per_binding < self.PARENT_EVENTS

    def test_no_encoder_is_built_and_table_shaped_objects_need_none(self):
        discovery = self.response(3)
        adhoc = SoapEnvelope(body=RegistryResponse(rows=[{"n": 1}, {"n": 2}], total_result_count=2))
        foreign = self.response(3)
        foreign.body.objects[1]["extra"] = None
        for envelope, entered in ((discovery, 0), (adhoc, 1), (foreign, 1)):
            names = self.calls(envelope_to_xml, envelope)
            assert names.count("JSONEncoder.encode") == entered
            assert "JSONEncoder.__init__" not in names
        # the counter counts: this is what the writer used to do per envelope
        assert "JSONEncoder.__init__" in self.calls(lambda: json.dumps({}, sort_keys=True))

    #: call + c_call events one more binding adds to the first discovery of a
    #: generation, handler to document, once its text is on file: a view lookup,
    #: an append — and no dict.  ``EVENTS_PER_BINDING`` is what a plain dict
    #: costs the writer, after the ``serialize`` call and converters that built it.
    EVENTS_PER_STORED_BINDING = 4

    @staticmethod
    def discovery(answer: int, hosts: int = 64):
        """``edge.handle`` + ``envelope_to_xml`` of a FILTER service bound on *hosts*
        monitored hosts, the first *answer* of them satisfying, and a sweep that
        records the same samples as a new NodeState generation."""
        from repro.core.balancer import BalanceMode
        from repro.sim import SimEngine
        from repro.soap import SimTransport
        from repro.util.clock import ManualClock

        clock = ManualClock(start=10 * 3600.0)
        registry = RegistryServer(RegistryConfig(seed=5), clock=clock)
        names = [f"host{n:03d}.bench" for n in range(hosts)]
        _, credential = registry.register_user("owner")
        _, service = publish_service_with_bindings(
            registry, registry.login(credential), description=LOAD_BELOW_ONE, hosts=names
        )
        attach_load_balancer(
            registry,
            SimTransport(),
            SimEngine(start=clock.now()),
            mode=BalanceMode.FILTER,
            start_monitor=False,
        )
        samples = [
            NodeSample(
                host=host,
                load=0.01 * n if n < answer else 5.0,
                memory=1 << 32,
                swap_memory=1 << 32,
                updated=clock.now(),
            )
            for n, host in enumerate(names)
        ]
        registry.node_state.record_sweep(samples)
        edge = SoapRegistryBinding(registry)
        request = SoapEnvelope(body=GetServiceBindingsRequest(service_id=service.id))

        def serve():
            return envelope_to_xml(SoapEnvelope(body=edge.handle(request)))

        def swept_serve():
            registry.node_state.record_sweep(samples)
            return serve()

        return serve, swept_serve

    def test_a_stored_answer_costs_a_lookup_per_binding_and_enters_no_encoder(self):
        """A generation's first answer looks each binding's text up once; the
        kept answer serves that text again with no per-binding work at all."""
        (three, swept_three), (six, swept_six) = self.discovery(3), self.discovery(6)
        assert six().count("accessUri") == 6 and "host005.bench" in six()

        def added(serve_three, serve_six) -> int:
            """Events three more bindings add, after checking they repeat."""
            counted = [
                self.calls(serve_three), self.calls(serve_six),
                self.calls(serve_three), self.calls(serve_six),
            ]
            assert counted[:2] == counted[2:]
            assert not {"JSONEncoder.encode", "serialize", "write"} & set(counted[1])
            return len(counted[1]) - len(counted[0])

        assert 0 < added(swept_three, swept_six) <= 3 * self.EVENTS_PER_STORED_BINDING
        assert added(three, six) == 0

    @staticmethod
    def adhoc(registry, session, rows: int):
        """``edge.handle`` + ``envelope_to_xml`` of a ``SELECT *`` whose answer is
        *rows* services, returning the answer and its document."""
        names = [f"Svc{n:04d}" for n in range(rows)]
        registry.lcm.submit_objects(session, [Service(ids.new_id(), name=n) for n in names])
        edge = SoapRegistryBinding(registry)
        query = f"SELECT * FROM Service WHERE name BETWEEN '{names[0]}' AND '{names[-1]}'"
        request = SoapEnvelope(body=AdhocQueryRequest(query))

        def serve():
            answer = edge.handle(request)
            return answer, envelope_to_xml(SoapEnvelope(body=answer))

        return serve

    @staticmethod
    def blocks_held(serve) -> int:
        """Memory blocks what a warm ``serve()`` returns holds: its answer and document."""
        serve()
        collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            held = serve()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        del held
        own = [tracemalloc.Filter(False, tracemalloc.__file__)]
        stats = after.filter_traces(own).compare_to(before.filter_traces(own), "filename")
        return sum(stat.count_diff for stat in stats)

    def test_a_kept_adhoc_answer_writes_no_json(self, clock):
        """A result-view hit, handler to document, joins the text its kept answer
        holds: no encoder, no row writer, no row dict — what it costs does not
        grow with its rows."""
        serves = []
        for rows in (10, 40):
            registry = RegistryServer(RegistryConfig(seed=5), clock=clock)
            _, credential = registry.register_user("owner")
            serves.append(self.adhoc(registry, registry.login(credential), rows))
        ten, forty = serves
        ten(), ten()
        # a miss, then a hit whose write the answer keeps
        forty()
        answer, document = forty()
        assert type(answer.rows) is serializer.AnswerRows and document.count('"objecttype"') == 40
        counted = [self.calls(ten), self.calls(forty), self.calls(ten), self.calls(forty)]
        assert counted[:2] == counted[2:]
        assert len(counted[0]) == len(counted[1])
        assert not {"JSONEncoder.encode", "rows_json"} & set(counted[1])
        assert counted[1].count("text") == 1  # the message's own writer, no row's
        # the row writer counts: writing the answer runs it once per row
        assert self.calls(lambda: answer.rows._answer.write(answer.rows._answer.rows)).count(
            "text"
        ) == 40
        assert self.blocks_held(forty) == self.blocks_held(ten)


# -- objects the serializer could not have written ---------------------------------

_AN_ID = "urn:uuid:00000000-0000-4000-8000-0000000000c1"
MALFORMED_OBJECTS = {
    "no-id": ([{"_type": "Service"}], "Service.*'id' is missing"),
    # a Service of only an id is well-formed (every other key at its default):
    # a binding cannot leave out its service
    "bad-id-and-no-service": (
        [{"_type": "ServiceBinding", "id": "nope"}], "ServiceBinding.*'service' is missing"
    ),
    "not-a-dict": (["x"], "a str: not a dict"),
    "objects-not-a-list": (5, "objects must be a list"),
    "objects-null": (None, "objects must be a list"),
    "ill-typed-slots": (
        [{**serialize(Service(_AN_ID, name="S")), "slots": "abc"}],
        "Service.*'slots' is malformed",
    ),
    "unknown-status": (
        [{**serialize(Service(_AN_ID, name="S")), "status": "Bogus"}],
        "Service.*'status' is malformed",
    ),
    "id-not-a-string": ([{**serialize(Service(_AN_ID, name="S")), "id": 5}], "Service"),
    "string-for-an-id-list": (
        [{**serialize(Service(_AN_ID, name="S")), "bindingIds": "abc"}],
        "Service.*'bindingIds' is malformed",
    ),
    "string-for-slot-values": (
        [
            {
                **serialize(Service(_AN_ID, name="S")),
                "slots": [{"name": "s", "values": "abc", "slotType": None}],
            }
        ],
        "Service.*'slots' is malformed",
    ),
    "number-for-a-localized-value": (
        [
            {
                **serialize(Service(_AN_ID)),
                "name": [{"locale": "en_US", "charset": "UTF-8", "value": 7}],
            }
        ],
        "Service.*'name' is malformed",
    ),
}


def _faults(registry) -> int:
    return sum(
        op["faults"] for edge in registry.pipeline_stats().values() for op in edge.values()
    )


class TestMalformedObjects:
    """A write whose objects are not serialized objects must fault, not crash."""

    @pytest.mark.parametrize("request_cls", [SubmitObjectsRequest, UpdateObjectsRequest])
    @pytest.mark.parametrize("case", list(MALFORMED_OBJECTS))
    def test_both_edges_answer_with_an_invalid_request_fault(
        self, registry, session, request_cls, case
    ):
        objects, message = MALFORMED_OBJECTS[case]
        wire_text = envelope_to_xml(
            SoapEnvelope.with_session(request_cls(objects=objects), session.token)
        )
        factory = ConnectionFactory(registry=registry, wire_xml=True)
        factory.binding.register_session(session)
        before = _faults(registry)
        reply = factory.transport.request(factory.binding.endpoint_uri, wire_text)
        answers = [envelope_from_xml(reply).body]
        with ServingSupervisor(registry, ServingConfig(workers=1)) as supervisor:
            supervisor.register_session(session)
            request = envelope_from_xml(wire_text)
            answers.append(
                supervisor.call(body=request.body, token=request.session_token, timeout=30)
            )
        for fault in answers:
            assert isinstance(fault, SoapFault)
            assert fault.fault_code == InvalidRequestError.code
            with pytest.raises(InvalidRequestError, match=message):
                fault.raise_()
        assert _faults(registry) == before + 2
        assert registry.store.count("Service") == 0


_A_SLOT = {"name": "n", "values": ["v"]}
#: request type → a well-formed value for each required field
WELL_FORMED = {
    "ApproveObjectsRequest": {"ids": [_AN_ID]},
    "DeprecateObjectsRequest": {"ids": [_AN_ID]},
    "UndeprecateObjectsRequest": {"ids": [_AN_ID]},
    "RemoveObjectsRequest": {"ids": [_AN_ID]},
    "AddSlotsRequest": {"object_id": _AN_ID, "slots": [_A_SLOT]},
    "RemoveSlotsRequest": {"object_id": _AN_ID, "names": ["n"]},
    "AdhocQueryRequest": {"query": "SELECT id FROM Service"},
    "GetRegistryObjectRequest": {"object_id": _AN_ID},
    "GetServiceBindingsRequest": {"service_id": _AN_ID},
}
#: a scalar, a list (of the wrong things) and null in every id, query and list
#: field, then the optional and numeric fields holding the wrong type
MALFORMED_FIELDS = [
    (type_name, field, bad)
    for type_name, required in WELL_FORMED.items()
    for field in required
    for bad in (5, [1], None)
] + [
    ("ApproveObjectsRequest", "ids", _AN_ID),
    ("ApproveObjectsRequest", "idempotency_key", 5),
    ("AddSlotsRequest", "slots", [{"name": "n"}]),
    ("AddSlotsRequest", "slots", [{"name": 5, "values": []}]),
    # what the serializer could not read back from the stored object
    ("AddSlotsRequest", "slots", [{"name": "n", "values": [5, ["x"]]}]),
    ("AddSlotsRequest", "slots", [{"name": "n", "values": ["v"], "slotType": 5}]),
    ("AdhocQueryRequest", "query_language", None),
    ("AdhocQueryRequest", "start_index", "0"),
    ("AdhocQueryRequest", "max_results", [10]),
    # JSON booleans are no integers, whatever ``isinstance(True, int)`` says
    ("AdhocQueryRequest", "start_index", True),
    ("AdhocQueryRequest", "max_results", False),
]


class TestMalformedFields:
    """A request field of the wrong shape must fault at validate, not escape."""

    @pytest.mark.parametrize(
        "type_name,field,bad", MALFORMED_FIELDS, ids=lambda value: str(value)[:24]
    )
    def test_both_edges_answer_with_an_invalid_request_fault(
        self, registry, session, type_name, field, bad
    ):
        body = _MESSAGE_TYPES[type_name](**{**WELL_FORMED[type_name], field: bad})
        wire_text = envelope_to_xml(SoapEnvelope.with_session(body, session.token))
        factory = ConnectionFactory(registry=registry, wire_xml=True)
        factory.binding.register_session(session)
        before = _faults(registry)
        reply = factory.transport.request(factory.binding.endpoint_uri, wire_text)
        answers = [envelope_from_xml(reply).body]
        with ServingSupervisor(registry, ServingConfig(workers=1)) as supervisor:
            supervisor.register_session(session)
            request = envelope_from_xml(wire_text)
            # inline, then through a worker: neither thread may see it escape
            answers.append(supervisor.call(body=request.body, token=session.token))
            queued = supervisor.submit(body=request.body, token=session.token)
            answers.append(queued.result(timeout=30))
        for fault in answers:
            assert isinstance(fault, SoapFault)
            assert fault.fault_code == InvalidRequestError.code
            with pytest.raises(InvalidRequestError, match=f"{type_name}.{field} must be"):
                fault.raise_()
        assert _faults(registry) == before + 3

    def test_a_refused_slot_leaves_the_object_readable_on_the_wire(self, registry, session):
        org = Organization(registry.ids.new_id(), name="o")
        registry.lcm.submit_objects(session, [org])
        factory = ConnectionFactory(registry=registry, wire_xml=True)
        factory.binding.register_session(session)

        def call(body):
            wire_text = envelope_to_xml(SoapEnvelope.with_session(body, session.token))
            return envelope_from_xml(
                factory.transport.request(factory.binding.endpoint_uri, wire_text)
            ).body

        slots = [{"name": "n", "values": [5, ["x"]], "slotType": None}]
        refused = call(AddSlotsRequest(object_id=org.id, slots=slots))
        assert isinstance(refused, SoapFault) and refused.fault_code == InvalidRequestError.code
        answer = call(GetRegistryObjectRequest(object_id=org.id))
        assert deserialize(answer.objects[0]).slots.names() == []

    def test_an_index_of_true_is_refused_not_read_as_one(self, registry, session):
        registry.lcm.submit_objects(
            session, [Organization(registry.ids.new_id(), name=n) for n in "ab"]
        )
        query = "SELECT name FROM Organization ORDER BY name"
        binding = SoapRegistryBinding(registry)
        rows = binding.handle(SoapEnvelope(body=AdhocQueryRequest(query, start_index=1))).rows
        assert rows == [{"name": "b"}]
        answer = binding.handle(SoapEnvelope(body=AdhocQueryRequest(query, start_index=True)))
        assert isinstance(answer, SoapFault) and answer.fault_code == InvalidRequestError.code

    def test_well_formed_requests_pass_the_validator(self, registry, session):
        with ServingSupervisor(registry, ServingConfig(workers=1)) as supervisor:
            supervisor.register_session(session)
            for type_name, fields in WELL_FORMED.items():
                answer = supervisor.call(
                    body=_MESSAGE_TYPES[type_name](**fields), token=session.token
                )
                # an unknown id may fault, but never as a malformed request
                assert getattr(answer, "fault_code", None) != InvalidRequestError.code


# -- the copy-free getServiceBindings handler ----------------------------------------

LOAD_BELOW_ONE = "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>"
LOAD_ABOVE_ONE = "<constraint><cpuLoad>load gr 1.0</cpuLoad></constraint>"


class TestGetServiceBindingsAnswer:
    """The handler serializes stored views; the answer must track the store."""

    @pytest.fixture
    def published(self, sim_registry, transport, engine):
        registry = sim_registry
        attach_load_balancer(registry, transport, engine, start_monitor=False)
        _, credential = registry.register_user("owner")
        session = registry.login(credential)
        _, service = publish_service_with_bindings(
            registry, session, description=LOAD_BELOW_ONE
        )
        self.sweep(registry, [2.0, 0.5, 0.7])
        return registry, session, service

    @staticmethod
    def sweep(registry, loads):
        for host, load in zip(HOSTS, loads):
            registry.node_state.record_sample(
                NodeSample(
                    host=host,
                    load=load,
                    memory=1 << 32,
                    swap_memory=1 << 32,
                    updated=registry.clock.now(),
                )
            )

    @staticmethod
    def wire_answer(registry, service_id):
        factory = ConnectionFactory(registry=registry, wire_xml=True)
        request = SoapEnvelope(body=GetServiceBindingsRequest(service_id=service_id))
        reply = factory.transport.request(
            factory.binding.endpoint_uri, envelope_to_xml(request)
        )
        return envelope_from_xml(reply).body.objects

    def expected(self, registry, service_id):
        return [serialize(b) for b in registry.qm.get_service_bindings(service_id)]

    def test_answer_follows_constraint_rewrites_and_sweeps(self, published):
        registry, session, service = published
        first = self.wire_answer(registry, service.id)
        assert first == self.expected(registry, service.id)
        assert first[0]["accessUri"].startswith(f"http://{HOSTS[1]}")

        rewritten = registry.qm.get_registry_object(service.id)
        rewritten.description.set(LOAD_ABOVE_ONE)
        registry.lcm.update_objects(session, [rewritten])
        second = self.wire_answer(registry, service.id)
        assert second == self.expected(registry, service.id)
        assert second[0]["accessUri"].startswith(f"http://{HOSTS[0]}")

        self.sweep(registry, [0.1, 0.3, 3.0])
        third = self.wire_answer(registry, service.id)
        assert third == self.expected(registry, service.id)
        assert third[0]["accessUri"].startswith(f"http://{HOSTS[2]}")

    def test_answer_shares_nothing_with_the_store(self, published):
        registry, _session, service = published
        edge = SoapRegistryBinding(registry)
        request = SoapEnvelope(body=GetServiceBindingsRequest(service_id=service.id))
        answer = edge.handle(request).objects
        untouched = self.expected(registry, service.id)
        for data in answer:
            data["accessUri"] = "http://mallory.example/"
            # an empty list is left out of the answer: there is none to share
            entry = {"locale": "en_US", "charset": "UTF-8", "value": "x"}
            data.setdefault("name", []).append(entry)
            data.setdefault("slots", []).append({"name": "n", "values": ["v"], "slotType": None})
            data.setdefault("specificationLinkIds", []).append("urn:uuid:spec")
        assert edge.handle(request).objects == untouched
        assert self.expected(registry, service.id) == untouched


# -- what a discovery answer weighs on the wire ------------------------------------


class TestAnswerBytes:
    """The wire-size gate: a published binding writes what it holds, no default."""

    #: bytes one binding published through ``submit_objects`` adds to a
    #: ``getServiceBindings`` answer: its id, service, owner, home and access URI
    #: as JSON, ~310.  Writing the keys it holds at their default too (lid, name,
    #: description, status, versionName, slots, three id lists, targetBinding)
    #: costs ~250 more
    BYTES_PER_BINDING = 320

    def test_a_published_binding_writes_no_default_and_stays_in_budget(self, registry, session):
        _, service = publish_service_with_bindings(registry, session, description=LOAD_BELOW_ONE)
        request = SoapEnvelope(body=GetServiceBindingsRequest(service_id=service.id))
        answer = SoapRegistryBinding(registry).handle(request)
        document = envelope_to_xml(SoapEnvelope(body=answer))
        objects = envelope_from_xml(document).body.objects
        assert len(objects) == len(HOSTS)
        assert [key for data in objects for key in data if at_default(data, key)] == []
        frame = len(envelope_to_xml(SoapEnvelope(body=RegistryResponse())))
        assert (len(document) - frame) / len(objects) <= self.BYTES_PER_BINDING
