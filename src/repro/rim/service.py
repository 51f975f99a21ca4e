"""Service, ServiceBinding, and SpecificationLink.

The heart of service discovery: a Service owns a collection of
ServiceBindings, each of which carries one **access URI** — the endpoint a
client will invoke.  The load-balancing scheme (thesis §3.2) reorders and
filters exactly these bindings at query time, so the binding collection
preserves insertion order (the "publisher order" a vanilla registry would
return).
"""

from __future__ import annotations

from repro.rim.base import OnFirstRead, RegistryEntry, RegistryObject
from repro.util.errors import InvalidRequestError


class Service(RegistryEntry):
    """A published Web Service.

    Per the thesis, performance constraints are embedded in the service's
    *description* field as a ``<constraint>`` XML block; the core package
    parses them from :attr:`RegistryObject.description`, so no schema change
    is needed here — exactly mirroring how the scheme stayed transparent in
    freebXML.
    """

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:Service"

    #: ordered ServiceBinding ids (publisher order)
    binding_ids = OnFirstRead(list)

    def __init__(self, id: str, *, provider: str | None = None, **kwargs) -> None:
        super().__init__(id, **kwargs)
        #: owning Organization id (cached from the OffersService association)
        self.provider = provider

    def add_binding(self, binding_id: str) -> None:
        if binding_id in self.binding_ids:
            raise InvalidRequestError(f"binding already attached: {binding_id}")
        self.binding_ids.append(binding_id)

    def remove_binding(self, binding_id: str) -> None:
        if binding_id not in self.binding_ids:
            raise InvalidRequestError(f"binding not attached: {binding_id}")
        self.binding_ids.remove(binding_id)


class ServiceBinding(RegistryObject):
    """Technical information for accessing one interface of a Service.

    ``access_uri`` is the endpoint URL; ``target_binding`` optionally points
    at another ServiceBinding instead (thesis Figure 3.38 allows either or
    both).  The host name embedded in the access URI is what joins a binding
    to its NodeState monitoring row.
    """

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:ServiceBinding"

    specification_link_ids = OnFirstRead(list)

    def __init__(
        self,
        id: str,
        *,
        service: str,
        access_uri: str | None = None,
        target_binding: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.service = service
        self.access_uri = access_uri
        self.target_binding = target_binding
        #: (uri, host) memo for :attr:`host`; validated by uri identity so a
        #: reassigned access_uri recomputes (discovery reads host per query)
        self._host_memo: tuple[str, str] | None = None
        ServiceBinding._check(self)

    def _check(self) -> None:
        if not self.service:
            raise InvalidRequestError("service binding requires its service id")
        if not self.access_uri and not self.target_binding:
            raise InvalidRequestError("service binding requires an access URI or a target binding")

    @property
    def host(self) -> str | None:
        """Host name extracted from the access URI (NodeState join key).

        ``http://exergy.sdsu.edu:8080/Adder/addService`` → ``exergy.sdsu.edu``.
        """
        uri = self.access_uri
        if not uri:
            return None
        memo = self._host_memo
        if memo is not None and memo[0] is uri:
            return memo[1]
        host = host_of_uri(uri)
        self._host_memo = (uri, host)
        return host


class SpecificationLink(RegistryObject):
    """Link from a ServiceBinding to its technical spec (e.g. a WSDL document)."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:SpecificationLink"

    def __init__(
        self,
        id: str,
        *,
        service_binding: str,
        specification_object: str,
        usage_description: str = "",
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.service_binding = service_binding
        self.specification_object = specification_object
        self.usage_description = usage_description
        SpecificationLink._check(self)

    def _check(self) -> None:
        if not self.service_binding or not self.specification_object:
            raise InvalidRequestError("specification link requires binding and specification ids")


def host_of_uri(uri: str) -> str:
    """Extract the bare host name from an access URI.

    Strips scheme, userinfo, port, and path; IPv6 literals keep brackets off.
    Raises :class:`InvalidRequestError` on empty input.
    """
    if not uri:
        raise InvalidRequestError("empty access URI")
    rest = uri.split("://", 1)[-1]
    authority = rest.split("/", 1)[0]
    if "@" in authority:
        authority = authority.rsplit("@", 1)[-1]
    if authority.startswith("["):  # IPv6 literal
        return authority[1 : authority.index("]")]
    return authority.split(":", 1)[0]
