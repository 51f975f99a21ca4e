"""Version history: retrievable prior versions of registry objects.

Table 1.1 credits ebXML registries with "Automatic Version Control —
versioning of metadata [and] of information artifacts".  The
LifeCycleManager already bumps ``versionName`` on every update; this store
retains the superseded snapshots so clients can list and retrieve them —
all versions share the object's **lid** (logical id), per ebRIM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rim import RegistryObject
from repro.util.errors import ObjectNotFoundError


@dataclass(frozen=True)
class VersionRecord:
    """One retained version of one logical object."""

    lid: str
    version_name: str
    snapshot: RegistryObject
    superseded_at: float


class VersionHistory:
    """Retention store for superseded object versions."""

    def __init__(self) -> None:
        #: lid → records, oldest first
        self._history: dict[str, list[VersionRecord]] = {}

    def retain(self, previous: RegistryObject, *, at: float) -> None:
        """Store the snapshot an update is about to supersede.

        *previous* is retained as given, not copied: the caller hands over
        the stored instance the datastore is about to replace (instances are
        replaced, never mutated — the ``get_view`` contract), which the
        changelog record's pre-image pins anyway.  Readers get copies from
        :meth:`get_version`; ``VersionRecord.snapshot`` is read-only.
        """
        record = VersionRecord(
            lid=previous.lid,
            version_name=previous.version.version_name,
            snapshot=previous,
            superseded_at=at,
        )
        self._history.setdefault(previous.lid, []).append(record)

    def versions_of(self, lid: str) -> list[VersionRecord]:
        """All retained versions for a logical id, oldest first."""
        return list(self._history.get(lid, ()))

    def get_version(self, lid: str, version_name: str) -> RegistryObject:
        for record in self._history.get(lid, ()):
            if record.version_name == version_name:
                return record.snapshot.copy()
        raise ObjectNotFoundError(
            lid, f"no retained version {version_name!r} for lid {lid}"
        )

    def forget(self, lid: str) -> None:
        """Drop history (after object removal, unless auditing retains it)."""
        self._history.pop(lid, None)

    def __len__(self) -> int:
        return sum(len(records) for records in self._history.values())
