"""Association objects: typed, directed many-to-many links between objects.

The thesis' Table 1.5 lists the predefined association types; the one the
load-balancing scheme exercises constantly is **OffersService**, which links
an Organization (source) to a Service (target) — the Web UI walkthrough in
§3.4.4.1 builds exactly that association.
"""

from __future__ import annotations

import enum

from repro.rim.base import RegistryObject
from repro.util.errors import InvalidRequestError


class AssociationType(enum.Enum):
    """Canonical association types (Table 1.5 plus OffersService / RelatedTo)."""

    HAS_MEMBER = "HasMember"
    EQUIVALENT_TO = "EquivalentTo"
    EXTENDS = "Extends"
    IMPLEMENTS = "Implements"
    INSTANCE_OF = "InstanceOf"
    OFFERS_SERVICE = "OffersService"
    RELATED_TO = "RelatedTo"
    USES = "Uses"
    REPLACES = "Replaces"
    SUBMITTER_OF = "SubmitterOf"
    RESPONSIBLE_FOR = "ResponsibleFor"

    @property
    def urn(self) -> str:
        return f"urn:oasis:names:tc:ebxml-regrep:AssociationType:{self.value}"

    @classmethod
    def from_name(cls, name: str) -> "AssociationType":
        """Accept either the short name or the full URN."""
        short = name.rsplit(":", 1)[-1]
        for member in cls:
            if member.value == short:
                return member
        raise InvalidRequestError(f"unknown association type: {name!r}")


class Association(RegistryObject):
    """A directed link ``source --type--> target`` between two registry objects."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:Association"

    def __init__(
        self,
        id: str,
        *,
        source_object: str,
        target_object: str,
        association_type: AssociationType | str = AssociationType.RELATED_TO,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.source_object = source_object
        self.target_object = target_object
        if isinstance(association_type, str):
            association_type = AssociationType.from_name(association_type)
        self.association_type = association_type
        #: Both-sides confirmation flags (ebRS association confirmation).
        self.confirmed_by_source = True
        self.confirmed_by_target = False
        Association._check(self)

    def _check(self) -> None:
        if not self.source_object or not self.target_object:
            raise InvalidRequestError("association requires source and target ids")
        if self.source_object == self.target_object:
            raise InvalidRequestError("association source and target must differ")

    @property
    def is_confirmed(self) -> bool:
        """An association is visible once both parties confirmed it.

        Intra-owner associations (same submitter owns both ends) are
        auto-confirmed by the LifeCycleManager.
        """
        return self.confirmed_by_source and self.confirmed_by_target
