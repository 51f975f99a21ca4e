"""Tests for literal SOAP XML rendering: the wire's bytes, round trips, bad payloads."""

import dataclasses
import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HOSTS, publish_service_with_bindings
from repro.client.jaxr import ConnectionFactory
from repro.core import attach_load_balancer
from repro.persistence.nodestate import NodeSample
from repro.rim import Organization, ServiceBinding
from repro.soap import (
    AdhocQueryRequest,
    GetServiceBindingsRequest,
    RegistryResponse,
    RemoveObjectsRequest,
    SoapEnvelope,
    SoapFault,
    SoapRegistryBinding,
    SubmitObjectsRequest,
    envelope_from_xml,
    envelope_to_xml,
    serialize,
)
from repro.soap.xml_binding import _MESSAGE_TYPES, RS_NS, SOAP_NS
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
        '0000000000b1"], "objects": [{"_type": "ServiceBinding", "accessUri": '
        '"http://exergy.sdsu.edu:8080/Adder?x=1&amp;y=&lt;2&gt;", "classificationIds": [], '
        '"description": [], "externalIdentifierIds": [], "home": null, '
        '"id": "urn:uuid:00000000-0000-4000-8000-0000000000b1", '
        '"lid": "urn:uuid:00000000-0000-4000-8000-0000000000b1", '
        '"name": [{"charset": "UTF-8", "locale": "en_US", '
        '"value": "Adder \\"fast\\" &amp; \'safe\'"}], "owner": null, '
        '"service": "urn:uuid:00000000-0000-4000-8000-0000000000a1", "slots": [], '
        '"specificationLinkIds": [], "status": "Submitted", "targetBinding": null, '
        '"versionName": "1.1"}], "rows": [{"n": 1, "name": "\\u00e9&lt;x&gt;", '
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
        response = RegistryResponse(rows=rows)
        before = json.dumps(rows)
        envelope_to_xml(SoapEnvelope(body=response))
        assert response.rows is rows and json.dumps(rows) == before


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


# -- the copy-free getServiceBindings handler ----------------------------------------

LOAD_BELOW_ONE = "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>"
LOAD_ABOVE_ONE = "<constraint><cpuLoad>load gr 1.0</cpuLoad></constraint>"


class TestGetServiceBindingsAnswer:
    """The handler serializes stored views; the answer must track the store."""

    @pytest.fixture
    def published(self, sim_registry, transport, engine):
        registry = sim_registry
        attach_load_balancer(
            registry, transport, engine, start_monitor=False, max_sample_age=None
        )
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
            data["name"].append({"locale": "en_US", "charset": "UTF-8", "value": "x"})
            data["slots"].append({"name": "n", "values": ["v"], "slotType": None})
            data["specificationLinkIds"].append("urn:uuid:spec")
        assert edge.handle(request).objects == untouched
        assert self.expected(registry, service.id) == untouched
