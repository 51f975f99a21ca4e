"""Exception hierarchy for the registry and its substrates.

Mirrors the failure categories of the ebXML Registry Services spec (ebRS):
authentication / authorization failures, missing or duplicate objects,
malformed requests, and query-syntax errors, plus the constraint-language
errors introduced by the load-balancing scheme.
"""

from __future__ import annotations


class RegistryError(Exception):
    """Base class for every error raised by the registry stack."""

    #: Short machine-readable code included in RegistryResponse faults.
    code: str = "urn:repro:error:Registry"

    def __init__(self, message: str = "", *, detail: str | None = None) -> None:
        super().__init__(message or self.__class__.__name__)
        self.detail = detail

    @classmethod
    def from_fault(
        cls, code: str, message: str, detail: str | None = None
    ) -> "RegistryError":
        """Reconstruct the typed error a serialized fault carried.

        Client-side fault re-raise: looks the code URN up in the error-code
        registry and rebuilds that subclass (bypassing subclass ``__init__``
        signatures — only the base message/detail/code survive the wire,
        which is exactly what a SOAP fault transports).  Unknown codes
        degrade to a plain :class:`RegistryError` whose ``code`` attribute
        still reports the original URN, so codes round-trip unchanged.
        """
        subclass = error_code_registry().get(code)
        if subclass is None:
            error = RegistryError(message, detail=detail)
            error.code = code  # instance attribute shadows the class default
            return error
        error = subclass.__new__(subclass)
        RegistryError.__init__(error, message, detail=detail)
        return error


class AuthenticationError(RegistryError):
    """Raised when client credentials cannot be verified."""

    code = "urn:repro:error:AuthenticationFailed"


class AuthorizationError(RegistryError):
    """Raised when an authenticated client lacks permission for an action."""

    code = "urn:repro:error:AuthorizationFailed"


class ObjectNotFoundError(RegistryError):
    """Raised when a referenced registry object does not exist."""

    code = "urn:repro:error:ObjectNotFound"

    def __init__(self, object_id: str, message: str = "") -> None:
        super().__init__(message or f"registry object not found: {object_id}")
        self.object_id = object_id


class ObjectExistsError(RegistryError):
    """Raised when submitting an object whose id is already taken."""

    code = "urn:repro:error:ObjectExists"

    def __init__(self, object_id: str, message: str = "") -> None:
        super().__init__(message or f"registry object already exists: {object_id}")
        self.object_id = object_id


class InvalidRequestError(RegistryError):
    """Raised for malformed protocol requests (bad references, bad state)."""

    code = "urn:repro:error:InvalidRequest"


class MalformedValueError(InvalidRequestError):
    """Raised for a value of the wrong type, such as a number where text goes;
    the wire's reader reports it as a malformed field."""

    code = "urn:repro:error:MalformedValue"


class QuerySyntaxError(RegistryError):
    """Raised by the AdhocQuery engine for unparsable or unsupported queries."""

    code = "urn:repro:error:QuerySyntax"

    def __init__(self, message: str, *, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class ConstraintSyntaxError(RegistryError):
    """Raised by the load-balancing constraint parser for malformed constraints."""

    code = "urn:repro:error:ConstraintSyntax"


class TransportError(RegistryError):
    """Raised by the simulated SOAP/HTTP transport (unreachable endpoint, fault)."""

    code = "urn:repro:error:Transport"


class LifeCycleError(InvalidRequestError):
    """Raised for illegal object life-cycle transitions (e.g. approve a removed object)."""

    code = "urn:repro:error:LifeCycle"


class AccessXmlError(InvalidRequestError):
    """Raised by the AccessRegistry API for XML violating the RegistryAccess DTD rules."""

    code = "urn:repro:error:AccessXml"


def error_code_registry() -> dict[str, type[RegistryError]]:
    """code URN → error class, for every RegistryError in the hierarchy.

    Walks ``__subclasses__`` recursively, so subclasses defined outside this
    module participate too.  Raises if two classes claim the same code —
    codes are the wire identity of an error, and a duplicate would make
    fault re-raise ambiguous.
    """
    registry: dict[str, type[RegistryError]] = {RegistryError.code: RegistryError}
    stack: list[type[RegistryError]] = [RegistryError]
    while stack:
        for subclass in stack.pop().__subclasses__():
            existing = registry.get(subclass.code)
            if existing is not None and existing is not subclass:
                raise AssertionError(
                    f"duplicate RegistryError code {subclass.code!r}: "
                    f"{existing.__name__} vs {subclass.__name__}"
                )
            registry[subclass.code] = subclass
            stack.append(subclass)
    return registry
