"""RegistryPackage: user-defined grouping of registry objects.

Packaging is another ebXML-over-UDDI differentiator (Table 1.1): any number
of objects can be grouped into a package, and one object may belong to many
packages.  Membership is modelled with HasMember associations; the package
object itself only carries identity and metadata, with a cached member list
maintained by the LifeCycleManager for cheap traversal.
"""

from __future__ import annotations

from repro.rim.base import OnFirstRead, RegistryEntry


class RegistryPackage(RegistryEntry):
    """A named group of registry objects."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:RegistryPackage"

    #: cached member object ids (authoritative state is HasMember associations)
    member_ids = OnFirstRead(list)

    def add_member(self, object_id: str) -> None:
        if object_id not in self.member_ids:
            self.member_ids.append(object_id)

    def remove_member(self, object_id: str) -> None:
        if object_id in self.member_ids:
            self.member_ids.remove(object_id)
