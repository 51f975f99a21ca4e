"""AdhocQuery and Subscription model objects.

AdhocQuery instances store parameterized queries *in* the registry (an
ebXML-over-UDDI differentiator, Table 1.1); Subscriptions pair a selector
query with delivery actions for content-based event notification
(§1.3.2.5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rim.base import RegistryObject
from repro.util.errors import InvalidRequestError

QUERY_LANGUAGE_SQL = "SQL-92"
QUERY_LANGUAGE_FILTER = "XML-FilterQuery"


class AdhocQuery(RegistryObject):
    """A stored (possibly parameterized) query.

    Parameters use ``$name`` placeholders in the query text and are bound at
    invocation time by the QueryManager.
    """

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:AdhocQuery"

    def __init__(
        self,
        id: str,
        *,
        query: str,
        query_language: str = QUERY_LANGUAGE_SQL,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.query = query
        self.query_language = query_language
        AdhocQuery._check(self)

    def _check(self) -> None:
        if not self.query.strip():
            raise InvalidRequestError("adhoc query requires query text")
        if self.query_language not in (QUERY_LANGUAGE_SQL, QUERY_LANGUAGE_FILTER):
            raise InvalidRequestError(f"unknown query language: {self.query_language!r}")

    def parameter_names(self) -> list[str]:
        """Return the ``$name`` placeholders appearing in the query text."""
        import re

        return sorted(set(re.findall(r"\$([A-Za-z_][A-Za-z0-9_]*)", self.query)))

    def bind(self, **parameters: str) -> str:
        """Substitute parameters, quoting values as SQL string literals."""
        text = self.query
        missing = [p for p in self.parameter_names() if p not in parameters]
        if missing:
            raise InvalidRequestError(f"unbound query parameters: {missing}")
        for name, value in parameters.items():
            literal = "'" + str(value).replace("'", "''") + "'"
            text = text.replace(f"${name}", literal)
        return text


@dataclass(frozen=True)
class NotifyAction:
    """A delivery action for subscription notifications.

    ``mode`` is ``"service"`` (invoke a registered Web Service endpoint) or
    ``"email"`` (deliver to an email address) — the two channels Table 1.1
    credits to ebXML registries.
    """

    mode: str
    endpoint: str

    def __post_init__(self) -> None:
        if self.mode not in ("service", "email"):
            raise InvalidRequestError(f"unknown notification mode: {self.mode!r}")
        if not self.endpoint:
            raise InvalidRequestError("notification action requires an endpoint")


class Subscription(RegistryObject):
    """A client's registered interest in registry events.

    ``selector`` is the id of an AdhocQuery whose result set defines the
    objects of interest; events affecting matching objects trigger every
    action.
    """

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:Subscription"

    def __init__(
        self,
        id: str,
        *,
        selector: str,
        actions: list[NotifyAction],
        start_time: float = 0.0,
        end_time: float | None = None,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.selector = selector
        self.actions = list(actions)
        self.start_time = start_time
        self.end_time = end_time
        Subscription._check(self)

    def _check(self) -> None:
        if not self.selector:
            raise InvalidRequestError("subscription requires a selector query id")
        if not self.actions:
            raise InvalidRequestError("subscription requires at least one action")

    def active_at(self, now: float) -> bool:
        if now < self.start_time:
            return False
        return self.end_time is None or now <= self.end_time
