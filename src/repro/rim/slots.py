"""Slots: dynamic, named multi-valued attributes on registry objects.

ebRIM lets submitters extend any RegistryObject with arbitrary attributes —
the thesis example is attaching a ``copyright`` slot.  A slot has a unique
name per object, an optional slotType, and an ordered list of string values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import InvalidRequestError, MalformedValueError


@dataclass
class Slot:
    """A named list of values attached to a RegistryObject."""

    name: str
    values: list[str] = field(default_factory=list)
    slot_type: str | None = None

    def __post_init__(self) -> None:
        # the one test of a slot's parts: in process and on the wire's reader
        values, slot_type = self.values, self.slot_type
        if not (
            isinstance(self.name, str)
            and isinstance(values, list)
            and all(isinstance(value, str) for value in values)
            and (slot_type is None or isinstance(slot_type, str))
        ):
            raise MalformedValueError(
                f"{self!r} is not a slot: a name, a list of strings and a type or null"
            )
        if not self.name:
            raise InvalidRequestError("slot name must be non-empty")
        self.values = values[:]

    @property
    def value(self) -> str | None:
        """First value, for the common single-valued case."""
        return self.values[0] if self.values else None

    def copy(self) -> "Slot":
        return Slot(self.name, self.values, self.slot_type)


class SlotMap:
    """The slot collection of one RegistryObject (names unique, order kept)."""

    __slots__ = ("_slots",)

    def __init__(self) -> None:
        self._slots: dict[str, Slot] = {}

    def add(self, slot: Slot, *, replace: bool = False) -> None:
        """Add a slot; duplicate names are an error unless *replace* is set.

        ebRS ``addSlots`` semantics: adding an existing name fails; the
        LifeCycleManager offers update via remove+add or replace=True.
        """
        if slot.name in self._slots and not replace:
            raise InvalidRequestError(f"duplicate slot name: {slot.name!r}")
        self._slots[slot.name] = slot

    def remove(self, name: str) -> None:
        if name not in self._slots:
            raise InvalidRequestError(f"no such slot: {name!r}")
        del self._slots[name]

    def get(self, name: str) -> Slot | None:
        return self._slots.get(name)

    def value(self, name: str, default: str | None = None) -> str | None:
        slot = self._slots.get(name)
        return slot.value if slot and slot.values else default

    def names(self) -> list[str]:
        return list(self._slots)

    def copy(self) -> "SlotMap":
        clone = SlotMap()
        for slot in self._slots.values():
            clone._slots[slot.name] = slot.copy()
        return clone

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self):
        return iter(self._slots.values())

    def __contains__(self, name: str) -> bool:
        return name in self._slots
