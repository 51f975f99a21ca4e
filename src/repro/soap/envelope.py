"""SOAP-style message envelopes and faults.

The freebXML registry exposes SOAP 1.1-with-attachments bindings (thesis
§2.2.3); clients wrap every registry protocol request in an envelope whose
header carries the session credentials.  In memory the envelope is a header
dict + a body message; :mod:`repro.soap.xml_binding` writes it as literal XML.
The wire contract, pinned byte for byte by the golden documents and the
ElementTree oracle of ``tests/test_soap_xml_binding.py``:

* prefixes ``ns0`` (SOAP envelope) and ``ns1`` (ebRS ``rs:3.0``), both declared
  on the root — a fault without headers declares only ``ns0``; headers are
  ``ns1:HeaderEntry`` elements in sorted ``name`` order;
* a message is one ``ns1:<MessageType>`` element whose text is its fields as
  sorted-key JSON; a fault is ``ns0:Fault`` with ``faultcode``, ``faultstring``
  and, unless empty, ``detail``;
* character data escapes ``& < >``, attribute values also ``"`` and CR/LF/TAB
  (``&#13; &#10; &#09;``); empty content is written ``<tag />``;
* a registry object is a ``_type``-tagged dict of the keys that do not hold
  what a new object of its type holds (``lid`` equal to ``id``, an empty list or
  name, ``null``, ``"Submitted"``, ``"1.1"``, … in exact type and value; see
  :mod:`repro.soap.serializer`): a discovery answer's binding is its id, service,
  access URI and what was set on it.  A reader takes a missing key as that
  value, so the full form every earlier version wrote reads the same.

The decode rule: ``envelope_from_xml`` reads a document in one pass, without a
parser, only if it is a message document as written above — that root, that
``Header`` (entry names and values printable ASCII with no reference), one
``ns1:<MessageType>`` whose text is ASCII, holds no ``<`` or ``>`` and no
reference but ``&amp; &lt; &gt;``, un-escapes to JSON and builds the message,
then exactly the closing tags.  Such a text is well-formed by construction and
a parser would find the same headers and the same payload in it.  Every other
text — faults, other prefixes or spellings, whitespace, comments, CDATA, a
DOCTYPE, anything malformed — goes to the ElementTree decoder, which raises
every error a caller can see.  Nothing selects between the two but the text.

The encode rule: ``envelope_to_xml`` writes a message's JSON, and that of every
element of ``objects`` that is a plain ``dict`` whose ``_type`` is a known name
and whose keys are that type's — every required one, any of the others — from
field tables compiled at import: keys pre-sorted, an absent optional key skipped;
strings, ``null``, ``[]``, integers and name/description entries in place.
Every other value (a plain list of ``rows``, id lists, slots, floats) and every
other element — an extra key, a missing required one, an unknown type, a
``dict`` or ``str`` subclass — goes to one ``json.JSONEncoder(sort_keys=True)``,
which raises every error a caller can see.  Two answers the kernel's read
handlers give write themselves while never read in process: an ``objects`` of
stored versions (``serializer.StoredObjects``) is the join of the texts kept per
stored version, each written once by the first case; the ``rows`` of an ad-hoc
answer the query engine keeps (``serializer.AnswerRows``) is written by its
plan's compiled row writer, or is the text the answer kept from its second
write on.  Read in process
either is a list of fresh dicts, and written as one.  The bytes are the same
every way, and nothing selects but the value's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import RegistryError


@dataclass
class SoapEnvelope:
    """One SOAP message: headers + a body payload."""

    body: Any
    headers: dict[str, str] = field(default_factory=dict)

    #: header key carrying the authenticated session token
    SESSION_HEADER = "urn:repro:session-token"

    #: header key carrying the W3C-style trace context across the hop
    TRACEPARENT_HEADER = "traceparent"

    #: header key carrying the home URL of the cluster member that forwarded
    #: this request (shard routing); a receiving member serves it locally —
    #: forwarding is single-hop, never transitive
    FORWARDED_HEADER = "urn:repro:forwarded-by"

    @classmethod
    def with_session(
        cls,
        body: Any,
        session_token: str | None,
        *,
        traceparent: str | None = None,
    ) -> "SoapEnvelope":
        headers = {}
        if session_token:
            headers[cls.SESSION_HEADER] = session_token
        if traceparent:
            headers[cls.TRACEPARENT_HEADER] = traceparent
        return cls(body=body, headers=headers)

    @property
    def session_token(self) -> str | None:
        return self.headers.get(self.SESSION_HEADER)

    @property
    def traceparent(self) -> str | None:
        return self.headers.get(self.TRACEPARENT_HEADER)

    @property
    def forwarded_by(self) -> str | None:
        return self.headers.get(self.FORWARDED_HEADER)


@dataclass
class SoapFault:
    """A SOAP fault: code + message, carrying the registry error code."""

    fault_code: str
    fault_string: str
    detail: str | None = None

    @classmethod
    def from_error(cls, error: RegistryError) -> "SoapFault":
        return cls(
            fault_code=error.code,
            fault_string=str(error),
            detail=error.detail,
        )

    def raise_(self) -> None:
        """Re-raise this fault on the client side as the typed RegistryError.

        The fault code URN selects the original error subclass, so
        ``error.code`` survives serialization → re-raise unchanged on every
        protocol edge.
        """
        raise RegistryError.from_fault(self.fault_code, self.fault_string, self.detail)
