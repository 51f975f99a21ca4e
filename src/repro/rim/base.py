"""RegistryObject — the abstract base of the ebRIM information model.

Everything stored in an ebXML registry (organizations, services, bindings,
associations, classification schemes, audit events, users, …) derives from
RegistryObject, which carries:

* ``id`` — the globally unique ``urn:uuid:`` identifier;
* ``lid`` — the logical id shared by all versions of the same object;
* ``object_type`` — a canonical type URN (see :mod:`repro.rim.objecttype`);
* ``name`` / ``description`` — InternationalStrings;
* ``status`` — life-cycle state;
* ``version`` — automatic version info maintained by the LifeCycleManager;
* ``slots`` — dynamic extension attributes;
* ``owner`` — id of the submitting User (drives access control);
* ``home`` — the home registry URL (federation support).

The class is deliberately a plain mutable object, not a dataclass: the DAO
layer snapshots/copies instances explicitly and identity semantics are by
``id``.

A new object holds no empty container.  ``slots`` and the id lists (and a
subclass's own lists, see :class:`OnFirstRead`) are made on their first read
and kept from then on, so an object that never has a slot never pays for a
slot map; code that must only read a stored object looks in ``vars(obj)``
instead.  Each class checks its own attributes in ``_check``, which its
``__init__`` ends by calling by class name.  The wire's reader and the store's
door (``serializer.admit``, run on each object a submit or update stores) call
the whole chain, and test the text attributes, which no constructor does.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, NamedTuple

from repro.rim.slots import Slot, SlotMap
from repro.rim.status import ObjectStatus
from repro.rim.strings import InternationalString
from repro.util.errors import InvalidRequestError
from repro.util.ids import match_urn_uuid


class VersionInfo(NamedTuple):
    """Automatic version metadata (ebRS versioning feature, Table 1.1).

    An immutable value: a new version is a new instance (:meth:`next`), and
    every new object holds the one :attr:`FIRST`.
    """

    version_name: str = "1.1"
    comment: str = ""

    def next(self, comment: str = "") -> "VersionInfo":
        """Return the successor version (minor increments: 1.1 → 1.2)."""
        major, _, minor = self.version_name.partition(".")
        try:
            bumped = f"{major}.{int(minor or 0) + 1}"
        except ValueError:
            bumped = self.version_name + ".1"
        return VersionInfo(bumped, comment)


#: the version every new object starts at, shared
VersionInfo.FIRST = VersionInfo()

_SUBMITTED = ObjectStatus.SUBMITTED
_FIRST = VersionInfo.FIRST


class OnFirstRead:
    """A container attribute a new object does not hold: the first read makes it
    empty and leaves it in the object, where every later read finds it first.

    Each one is filed in its class's ``LAZY`` table (name → factory), which a
    subclass extends.  A class-level descriptor rather than ``__getattr__``: a
    class with ``__getattr__`` loses CPython 3.11's specialized attribute reads,
    which would tax every attribute of every RIM object.
    """

    __slots__ = ("factory", "name")

    def __init__(self, factory: Callable[[], Any]) -> None:
        self.factory = factory

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        owner.LAZY = {**owner.LAZY, name: self.factory}

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        # racing first reads all get the one container stored
        with _FIRST_READS:
            return obj.__dict__.setdefault(self.name, self.factory())


#: One first read at a time.  CPython 3.11 makes an object's ``__dict__`` from
#: its inline values in two steps, and a collection run between them (finalizers
#: are Python code) can switch threads; a second thread making the same object's
#: dict then leaves two dicts over one value array, and the interpreter crashes.
#: Reentrant, so a finalizer that reads a container on the same thread goes on.
#: A stored object is a copy, whose dict ``copy()`` made under the store's write
#: lock, so readers of stored objects never race to make one.
_FIRST_READS = threading.RLock()


class RegistryObject:
    """Base class for all ebRIM model objects."""

    #: Canonical object-type URN; subclasses override.
    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:RegistryObject"

    #: the containers a new object does not hold (:class:`OnFirstRead`): name →
    #: factory of the empty container
    LAZY: dict[str, Callable[[], Any]] = {}
    slots = OnFirstRead(SlotMap)
    #: ids of Classification objects applied to this object
    classification_ids = OnFirstRead(list)
    #: ids of ExternalIdentifier objects attached to this object
    external_identifier_ids = OnFirstRead(list)

    def __init__(
        self,
        id: str,
        *,
        name: InternationalString | str | None = None,
        description: InternationalString | str | None = None,
        lid: str | None = None,
        owner: str | None = None,
        home: str | None = None,
    ) -> None:
        self.id = id
        self.lid = lid or id
        self.name = name if isinstance(name, InternationalString) else InternationalString(name)
        self.description = (
            description
            if isinstance(description, InternationalString)
            else InternationalString(description)
        )
        self.status = _SUBMITTED
        self.version = _FIRST
        self.owner = owner
        self.home = home
        RegistryObject._check(self)

    def _check(self) -> None:
        """Refuse the values this class's own attributes may not hold."""
        if not match_urn_uuid(self.id):
            raise InvalidRequestError(f"registry object id must be urn:uuid: {self.id!r}")

    # -- type metadata -------------------------------------------------

    @property
    def object_type(self) -> str:
        return type(self).OBJECT_TYPE

    @property
    def type_name(self) -> str:
        """Short class name used by the persistence layer as a table key."""
        return type(self).__name__

    # -- slots convenience ---------------------------------------------

    def add_slot(self, name: str, *values: str, slot_type: str | None = None) -> None:
        self.slots.add(Slot(name=name, values=list(values), slot_type=slot_type))

    def slot_value(self, name: str, default: str | None = None) -> str | None:
        slots = self.__dict__.get("slots")  # a read: no slot map is made
        return default if slots is None else slots.value(name, default)

    # -- copying ---------------------------------------------------------

    def copy(self) -> "RegistryObject":
        """Deep-enough copy used by the DAO layer (value attributes copied).

        Only the containers this object holds are copied: the clone makes the
        others on first read, as this object would.
        """
        clone = type(self).__new__(type(self))
        held, cloned = self.__dict__, clone.__dict__
        cloned.update(held)
        cloned["name"] = self.name.copy()
        cloned["description"] = self.description.copy()
        for name in self.LAZY:
            if name in held:
                cloned[name] = held[name].copy()
        return clone

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegistryObject) and other.id == self.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(id={self.id!r}, name={self.name.value!r})"


class RegistryEntry(RegistryObject):
    """Marker subclass for objects with full life-cycle support (ebRIM 2.x lineage).

    ClassificationScheme, RegistryPackage and Service are RegistryEntries in
    the thesis' Figure 1.18; the distinction matters only for documentation
    and for the expiration/stability attributes kept here.
    """

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:RegistryEntry"

    def __init__(self, id: str, **kwargs) -> None:
        super().__init__(id, **kwargs)
        self.expiration: float | None = None
        self.stability: str = "Dynamic"
