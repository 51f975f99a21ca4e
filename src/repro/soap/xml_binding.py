"""Literal XML on the wire: envelope ↔ SOAP 1.1 XML text.

The in-memory envelopes move structured dicts; this module renders them as
actual ``<soap:Envelope>`` documents and parses them back, so a wire capture
of the simulated traffic looks like what freebXML's SAAJ layer produced.
Round-tripping is exact for every protocol message type.  Encoding is one
pass of string assembly that copies nothing: the JSON of a message and of the
object dicts it carries is written from field tables, any other value by the
serializer's one sorted-key encoder.  Decoding reads a message
document this writer could have written in one pass over the frame — prefix,
header entries, message element, suffix — and hands everything else (faults,
other prefixes, whitespace, comments, any reference but ``&amp; &lt; &gt;``)
to a full expat parse, which stays the judge of well-formedness and raises
every error.  Wire contract, encode and decode rules: :mod:`repro.soap.envelope`.
"""

from __future__ import annotations

import dataclasses
import json
import re

from repro.soap import messages
from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.soap.serializer import json_writer, object_json
from repro.util.errors import InvalidRequestError
from repro.util.xmlutil import parse_xml

SOAP_NS = "http://schemas.xmlsoap.org/soap/envelope/"
RS_NS = "urn:oasis:names:tc:ebxml-regrep:xsd:rs:3.0"

#: message classes by their XML element name: every dataclass of the protocol module
_MESSAGE_TYPES = {
    name: cls for name, cls in vars(messages).items() if dataclasses.is_dataclass(cls)
}

#: each message's JSON body, written from its instance dict: the dataclass fields
_WRITERS = {
    cls: json_writer([f.name for f in dataclasses.fields(cls)], {"objects": object_json})
    for cls in _MESSAGE_TYPES.values()
}

# the root as ElementTree writes it: prefixes numbered in order of first use
# and declared on the root; a fault without headers never uses the second
_ENVELOPE_OPEN = f'<ns0:Envelope xmlns:ns0="{SOAP_NS}" xmlns:ns1="{RS_NS}">'
_FAULT_ENVELOPE_OPEN = f'<ns0:Envelope xmlns:ns0="{SOAP_NS}">'

# ElementTree's two escaping rules: character data, and attribute values
_TEXT_REFS = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"))
_ATTR_REFS = _TEXT_REFS + (('"', "&quot;"), ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"))


def _escape(text: str, refs: tuple = _TEXT_REFS) -> str:
    for char, ref in refs:
        if char in text:
            text = text.replace(char, ref)
    return text


def _element(tag: str, text: str | None, attrs: str = "") -> str:
    """``<tag>text</tag>`` — ``<tag />`` for empty content, as ElementTree."""
    if not text:
        return f"<{tag}{attrs} />"
    return f"<{tag}{attrs}>{_escape(text)}</{tag}>"


def envelope_to_xml(envelope: SoapEnvelope) -> str:
    """Render an envelope as a SOAP 1.1 document."""
    message = envelope.body
    type_name = type(message).__name__
    writer = _WRITERS.get(type(message))
    headers = "".join(
        _element("ns1:HeaderEntry", value, f' name="{_escape(key, _ATTR_REFS)}"')
        for key, value in sorted(envelope.headers.items())
    )
    if writer is not None:
        # the structured payload travels as canonical JSON inside the
        # message element — the registry protocol's "attachment"
        try:
            text = writer(vars(message))
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(f"cannot render {type_name} payload: {exc}") from exc
        body = _element(f"ns1:{type_name}", text)
    elif isinstance(message, SoapFault):
        detail = _element("detail", message.detail) if message.detail else ""
        body = (
            f"<ns0:Fault>{_element('faultcode', message.fault_code)}"
            f"{_element('faultstring', message.fault_string)}{detail}</ns0:Fault>"
        )
    else:
        raise InvalidRequestError(f"cannot render body of type {type_name!r} as SOAP XML")
    header = f"<ns0:Header>{headers}</ns0:Header>" if headers else "<ns0:Header />"
    root = _ENVELOPE_OPEN if headers or writer is not None else _FAULT_ENVELOPE_OPEN
    return f"{root}{header}<ns0:Body>{body}</ns0:Body></ns0:Envelope>"


# what the writer puts around a message, for the reader to recognise
_BARE_OPEN = _ENVELOPE_OPEN + "<ns0:Header /><ns0:Body><ns1:"
_HEADERS_OPEN = _ENVELOPE_OPEN + "<ns0:Header>"
_HEADERS_CLOSE = "</ns0:Header><ns0:Body><ns1:"
_BARE_END, _HEADERS_END, _CLOSE_LEN = len(_BARE_OPEN), len(_HEADERS_OPEN), len(_HEADERS_CLOSE)
#: element name → the text that follows its payload to the end of the document
_MESSAGE_TAILS = {name: f"</ns1:{name}></ns0:Body></ns0:Envelope>" for name in _MESSAGE_TYPES}
# a header entry whose name and value are printable ASCII that needs no reference
_PLAIN = r"[ !#-%'-;=?-~]"
_HEADER_ENTRY = re.compile(
    rf'<ns1:HeaderEntry name="({_PLAIN}+)"(?: />|>({_PLAIN}*)</ns1:HeaderEntry>)'
)
_FOREIGN_REFERENCE = re.compile("&(?!amp;|lt;|gt;)")


def _scan_envelope(text: str) -> SoapEnvelope | None:
    """Read a message document :func:`envelope_to_xml` could have written.

    ``None`` for any other text, well-formed or not: the frame is matched
    exactly, the payload must hold no markup and only the writer's three
    references, and it must build the message.  What passes is ASCII without
    ``<`` or ``>`` between fixed tags, so a parser would find the same text.
    """
    headers: dict[str, str] = {}
    if text.startswith(_BARE_OPEN):
        pos = _BARE_END
    elif text.startswith(_HEADERS_OPEN):
        pos = _HEADERS_END
        while entry := _HEADER_ENTRY.match(text, pos):
            headers[entry[1]] = entry[2] or ""
            pos = entry.end()
        if not text.startswith(_HEADERS_CLOSE, pos):
            return None
        pos += _CLOSE_LEN
    else:
        return None
    end = text.find(">", pos)
    name = text[pos:end]
    tail = _MESSAGE_TAILS.get(name)
    if tail is None or not text.endswith(tail) or not text.isascii():
        return None
    payload = text[end + 1 : -len(tail)]
    if "<" in payload or ">" in payload:
        return None
    if "&" in payload:
        if _FOREIGN_REFERENCE.search(payload):
            return None
        payload = payload.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
    try:
        return SoapEnvelope(_MESSAGE_TYPES[name](**json.loads(payload)), headers)
    except (ValueError, TypeError):
        return None


def envelope_from_xml(text: str) -> SoapEnvelope:
    """Read a SOAP 1.1 document back into an envelope."""
    return _scan_envelope(text) or _parse_envelope(text)


def _parse_envelope(text: str) -> SoapEnvelope:
    """The tree decoder: any legal SOAP 1.1 document, and every error."""
    root = parse_xml(text, what="SOAP envelope")
    if root.tag != f"{{{SOAP_NS}}}Envelope":
        raise InvalidRequestError("not a SOAP envelope")
    headers: dict[str, str] = {}
    header_el = root.find(f"{{{SOAP_NS}}}Header")
    if header_el is not None:
        for entry in header_el:
            name = entry.get("name")
            if name:
                headers[name] = entry.text or ""
    body_el = root.find(f"{{{SOAP_NS}}}Body")
    if body_el is None or len(body_el) == 0:
        raise InvalidRequestError("SOAP envelope has no body")
    child = body_el[0]
    local = child.tag.rsplit("}", 1)[-1]
    if local == "Fault":
        fault = SoapFault(
            fault_code=(child.findtext("faultcode") or ""),
            fault_string=(child.findtext("faultstring") or ""),
            detail=child.findtext("detail"),
        )
        return SoapEnvelope(body=fault, headers=headers)
    message_cls = _MESSAGE_TYPES.get(local)
    if message_cls is None:
        raise InvalidRequestError(f"unknown SOAP body element: {local!r}")
    try:
        message = message_cls(**json.loads(child.text or "{}"))
    except (ValueError, TypeError) as exc:
        # not JSON, not a JSON object, or not this message's fields
        raise InvalidRequestError(f"malformed {local} body: {exc}") from exc
    return SoapEnvelope(body=message, headers=headers)
