"""Party classes: User, Organization, and the reusable address entities.

These are the objects the Web-UI walkthrough of thesis §3.4.4.1 builds:
an Organization with PostalAddress, EmailAddress, and TelephoneNumber
entries, owned by a registered User.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rim.base import OnFirstRead, RegistryObject
from repro.util.errors import InvalidRequestError


@dataclass(frozen=True)
class PostalAddress:
    """Reusable postal-address entity (thesis Figure 3.18/3.20 fields)."""

    street_number: str = ""
    street: str = ""
    city: str = ""
    state: str = ""
    country: str = ""
    postal_code: str = ""
    type: str = ""

    def one_line(self) -> str:
        """Render the address the way the Web UI's detail pane shows it."""
        parts = [
            f"{self.street_number} {self.street}".strip(),
            self.city,
            self.state,
            self.postal_code,
            self.country,
        ]
        return ", ".join(p for p in parts if p)


@dataclass(frozen=True)
class EmailAddress:
    """Reusable email entity."""

    address: str
    type: str = "OfficeEmail"

    def __post_init__(self) -> None:
        if "@" not in self.address:
            raise InvalidRequestError(f"invalid email address: {self.address!r}")


@dataclass(frozen=True)
class TelephoneNumber:
    """Reusable telephone entity (thesis Figure 3.29 fields)."""

    number: str
    country_code: str = ""
    area_code: str = ""
    extension: str = ""
    type: str = "OfficePhone"

    def formatted(self) -> str:
        parts = []
        if self.country_code:
            parts.append(f"+{self.country_code}")
        if self.area_code:
            parts.append(f"({self.area_code})")
        parts.append(self.number)
        if self.extension:
            parts.append(f"x{self.extension}")
        return " ".join(parts)


@dataclass(frozen=True)
class PersonName:
    """Name of a registered user."""

    first_name: str = ""
    middle_name: str = ""
    last_name: str = ""

    def full(self) -> str:
        return " ".join(p for p in (self.first_name, self.middle_name, self.last_name) if p)


class User(RegistryObject):
    """A registered registry user; the subject of authentication and audit."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:User"

    emails = OnFirstRead(list)
    telephones = OnFirstRead(list)
    addresses = OnFirstRead(list)

    def __init__(
        self,
        id: str,
        *,
        alias: str,
        person_name: PersonName | None = None,
        organization: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.alias = alias
        self.person_name = person_name or PersonName()
        self.organization = organization
        #: role names used by the XACML-lite policy engine
        self.roles: set[str] = {"RegistryUser"}
        User._check(self)

    def _check(self) -> None:
        if not self.alias:
            raise InvalidRequestError("user requires an alias")


class Organization(RegistryObject):
    """An organization that publishes services (thesis Figures 3.17–3.33)."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:Organization"

    addresses = OnFirstRead(list)
    emails = OnFirstRead(list)
    telephones = OnFirstRead(list)
    #: cached ids of Services linked via OffersService associations
    service_ids = OnFirstRead(list)

    def __init__(
        self,
        id: str,
        *,
        parent: str | None = None,
        primary_contact: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.parent = parent
        self.primary_contact = primary_contact

    def add_service(self, service_id: str) -> None:
        if service_id not in self.service_ids:
            self.service_ids.append(service_id)

    def remove_service(self, service_id: str) -> None:
        if service_id in self.service_ids:
            self.service_ids.remove(service_id)
