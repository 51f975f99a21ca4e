"""AuditableEvent: the registry's audit trail (ebRIM §1.3.2.3).

Every LifeCycleManager action appends one AuditableEvent per affected object,
recording who did what when.  The event stream also feeds the subscription /
notification subsystem (§1.3.2.5).
"""

from __future__ import annotations

import enum

from repro.rim.base import RegistryObject
from repro.util.errors import InvalidRequestError


class EventType(enum.Enum):
    """Canonical auditable event types."""

    CREATED = "Created"
    UPDATED = "Updated"
    APPROVED = "Approved"
    DEPRECATED = "Deprecated"
    UNDEPRECATED = "Undeprecated"
    DELETED = "Deleted"
    VERSIONED = "Versioned"
    RELOCATED = "Relocated"

    @property
    def urn(self) -> str:
        return f"urn:oasis:names:tc:ebxml-regrep:EventType:{self.value}"


class AuditableEvent(RegistryObject):
    """One audit-trail record: (event type, affected object, user, timestamp)."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:AuditableEvent"

    def __init__(
        self,
        id: str,
        *,
        event_type: EventType,
        affected_object: str,
        user_id: str,
        timestamp: float,
        request_id: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.event_type = event_type
        self.affected_object = affected_object
        self.user_id = user_id
        self.timestamp = float(timestamp)
        self.request_id = request_id
        #: registry-assigned monotonic sequence (total order within one registry)
        self.sequence = 0
        AuditableEvent._check(self)

    def _check(self) -> None:
        if not self.affected_object:
            raise InvalidRequestError("auditable event requires an affected object id")
