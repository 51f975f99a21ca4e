"""ExternalIdentifier and ExternalLink (ebRIM §1.3.2.3).

ExternalIdentifiers attach well-known identifiers (DUNS numbers, SSNs,
aliases) to registry objects.  ExternalLinks are named URIs to content *not*
managed by the registry — e.g. a vendor's human-readable documentation page.
"""

from __future__ import annotations

from repro.rim.base import RegistryObject
from repro.util.errors import InvalidRequestError


class ExternalIdentifier(RegistryObject):
    """A (scheme, value) identifier attached to a registry object."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:ExternalIdentifier"

    def __init__(
        self,
        id: str,
        *,
        registry_object: str,
        identification_scheme: str,
        value: str,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.registry_object = registry_object
        self.identification_scheme = identification_scheme
        self.value = value
        ExternalIdentifier._check(self)

    def _check(self) -> None:
        if not self.registry_object:
            raise InvalidRequestError("external identifier requires its object id")
        if not self.identification_scheme or not self.value:
            raise InvalidRequestError("external identifier requires scheme and value")


class ExternalLink(RegistryObject):
    """A named URI to unmanaged external content."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:ExternalLink"

    def __init__(self, id: str, *, external_uri: str, **kwargs) -> None:
        super().__init__(id, **kwargs)
        self.external_uri = external_uri
        ExternalLink._check(self)

    def _check(self) -> None:
        if not self.external_uri:
            raise InvalidRequestError("external link requires a URI")
