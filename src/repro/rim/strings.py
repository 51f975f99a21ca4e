"""Internationalized strings (ebRIM InternationalString / LocalizedString).

Every human-readable attribute in ebRIM (names, descriptions) is an
InternationalString: a set of per-locale LocalizedString values.  The thesis
UI only ever exercises the default locale, but the model keeps the full
structure so classification schemes and federation metadata round-trip.
"""

from __future__ import annotations

from typing import NamedTuple

DEFAULT_LOCALE = "en_US"
DEFAULT_CHARSET = "UTF-8"


class LocalizedString(NamedTuple):
    """A single (locale, charset, value) triple."""

    value: str
    locale: str = DEFAULT_LOCALE
    charset: str = DEFAULT_CHARSET


class InternationalString:
    """A locale → value map with convenience access for the default locale."""

    __slots__ = ("_strings",)

    def __init__(self, value: str | None = None, *, locale: str = DEFAULT_LOCALE) -> None:
        self._strings: dict[str, LocalizedString] = (
            {} if value is None else {locale: LocalizedString(value, locale)}
        )

    @classmethod
    def of(cls, value: "InternationalString | str | None") -> "InternationalString":
        """Coerce a plain string (or None) into an InternationalString."""
        if isinstance(value, InternationalString):
            return value
        return cls(value)

    @classmethod
    def of_localized(cls, strings: dict[str, LocalizedString]) -> "InternationalString":
        """An InternationalString holding *strings* (locale → its entry), in one step."""
        out = cls.__new__(cls)
        out._strings = strings
        return out

    def set(
        self, value: str, *, locale: str = DEFAULT_LOCALE, charset: str = DEFAULT_CHARSET
    ) -> None:
        """Set the value for one locale."""
        self._strings[locale] = LocalizedString(value, locale, charset)

    def get(self, locale: str = DEFAULT_LOCALE) -> str | None:
        """Return the value for *locale*, falling back to any available locale."""
        entry = self._strings.get(locale)
        if entry is None and self._strings:
            entry = next(iter(self._strings.values()))
        return entry.value if entry else None

    @property
    def value(self) -> str:
        """Default-locale value, '' when unset — handy for display and queries."""
        return self.get() or ""

    def locales(self) -> list[str]:
        return sorted(self._strings)

    def localized(self) -> list[LocalizedString]:
        """The entries in locale order."""
        strings = self._strings
        if len(strings) < 2:
            return [*strings.values()]
        return [strings[loc] for loc in sorted(strings)]

    def copy(self) -> "InternationalString":
        clone = InternationalString.__new__(InternationalString)
        clone._strings = self._strings.copy()
        return clone

    def __bool__(self) -> bool:
        return any(s.value for s in self._strings.values())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            return self.value == other
        if isinstance(other, InternationalString):
            return self._strings == other._strings
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._strings.items())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InternationalString({self.value!r})"
