"""The constraint language of the load-balancing scheme (thesis §3.2, Table 3.5).

Constraints ride inside a Service's *description* field as an XML block::

    <constraint>
      <cpuLoad>load ls 1.0</cpuLoad>
      <memory>memory gr 3GB</memory>
      <swapmemory>swapmemory gr 5MB</swapmemory>
      <starttime>1000</starttime>
      <endtime>1200</endtime>
    </constraint>

Grammar notes, straight from the thesis:

* keywords ``load``, ``memory``, ``swapmemory``, ``starttime``, ``endtime``;
* operators ``gt``/``gr`` (the thesis uses both spellings for greater-than),
  ``geq``, ``ls``, ``leq``, ``eq``;
* memory sizes in ``KB``/``MB``/``GB`` (we accept ``B``/``TB`` too);
* times in military format;
* the root element is spelled ``<constraint>`` in the §3.2 example and
  ``<constrain>`` in the DTD of §3.4.4.2 — both are accepted.

A *lenient* parse (the default) returns ``None`` for missing or malformed
constraints, reproducing ServiceConstraint's "returns false if no valid
service constraints are specified" behaviour; ``strict=True`` raises
:class:`ConstraintSyntaxError` instead (used by publish-time validation).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable

from repro.persistence.nodestate import NodeSample
from repro.util.errors import ConstraintSyntaxError
from repro.util.units import parse_memory_size, parse_military_time
from repro.util.xmlutil import parse_xml

#: accepted root tags for the constraint block
CONSTRAINT_TAGS = ("constraint", "constrain")

_CONSTRAINT_BLOCK_RE = re.compile(
    r"<(constraint|constrain)\b.*?</\1\s*>", re.DOTALL | re.IGNORECASE
)


class Operator(enum.Enum):
    """Comparison operators of Table 3.5 (plus the §3.2 ``gr`` spelling)."""

    GT = "gt"
    GEQ = "geq"
    LS = "ls"
    LEQ = "leq"
    EQ = "eq"

    @classmethod
    def from_symbol(cls, symbol: str) -> "Operator":
        symbol = symbol.lower()
        if symbol == "gr":  # §3.2 spelling of greater-than
            return cls.GT
        for member in cls:
            if member.value == symbol:
                return member
        raise ConstraintSyntaxError(f"unknown constraint operator: {symbol!r}")

    def compare(self, left: float, right: float) -> bool:
        return _COMPARE[self](left, right)

    @property
    def symbol(self) -> str:
        return self.value


#: dispatch table for :meth:`Operator.compare`, built once — the comparison
#: runs per host per discovery, so a per-call dict rebuild is hot-path waste
_COMPARE: dict[Operator, Callable[[float, float], bool]] = {
    Operator.GT: lambda a, b: a > b,
    Operator.GEQ: lambda a, b: a >= b,
    Operator.LS: lambda a, b: a < b,
    Operator.LEQ: lambda a, b: a <= b,
    Operator.EQ: lambda a, b: a == b,
}


@dataclass(frozen=True)
class ScalarConstraint:
    """One ``keyword op value`` clause."""

    keyword: str  # "load" | "memory" | "swapmemory"
    op: Operator
    value: float  # load value, or byte count for memory clauses

    def __post_init__(self) -> None:
        # bind the comparator once: satisfied_by runs per host per discovery
        object.__setattr__(self, "_compare", _COMPARE[self.op])

    def satisfied_by(self, observed: float) -> bool:
        return self._compare(observed, self.value)

    def text(self) -> str:
        """Render back to the thesis' clause syntax (lossless round trip)."""
        if self.keyword == "load":
            return f"load {self.op.symbol} {self.value:g}"
        from repro.util.units import format_bytes_exact

        return f"{self.keyword} {self.op.symbol} {format_bytes_exact(int(self.value))}"


@dataclass(frozen=True)
class TimeWindow:
    """Availability window in minutes past midnight (military-time bounds).

    Windows may wrap midnight (``2200``–``0600``) — an extension beyond the
    thesis, which only shows same-day windows; non-wrapping windows behave
    identically to the thesis semantics (``starttime <= now <= endtime``).
    """

    start_minutes: int
    end_minutes: int

    def contains(self, minutes_of_day: int) -> bool:
        if self.start_minutes <= self.end_minutes:
            return self.start_minutes <= minutes_of_day <= self.end_minutes
        return minutes_of_day >= self.start_minutes or minutes_of_day <= self.end_minutes


_CLAUSE_RE = re.compile(
    r"^\s*(?P<keyword>[A-Za-z]+)\s+(?P<op>[A-Za-z]+)\s+(?P<value>\S+)\s*$"
)

#: element tag → the keyword its clause must use
_TAG_KEYWORDS = {
    "cpuLoad": "load",
    "memory": "memory",
    "swapmemory": "swapmemory",
}


@dataclass(frozen=True)
class ConstraintSet:
    """The parsed constraints of one service.

    Hashed once, when made: a balanced discovery looks its set up in the
    generation's answers (:meth:`LoadStatus.satisfying`), and the generated hash
    would walk the clauses, their operators included, on every lookup.
    """

    cpu_load: ScalarConstraint | None = None
    memory: ScalarConstraint | None = None
    swap_memory: ScalarConstraint | None = None
    window: TimeWindow | None = None

    def __post_init__(self) -> None:
        fields = (self.cpu_load, self.memory, self.swap_memory, self.window)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def has_performance_constraints(self) -> bool:
        return any((self.cpu_load, self.memory, self.swap_memory))

    def has_any(self) -> bool:
        return self.has_performance_constraints() or self.window is not None

    # -- evaluation --------------------------------------------------------

    def time_satisfied(self, minutes_of_day: int) -> bool:
        """True when there is no window or *minutes_of_day* falls inside it."""
        return self.window is None or self.window.contains(minutes_of_day)

    def satisfied_by(self, sample: NodeSample) -> bool:
        """Evaluate the performance clauses against one NodeState sample."""
        if self.cpu_load is not None and not self.cpu_load.satisfied_by(sample.load):
            return False
        if self.memory is not None and not self.memory.satisfied_by(sample.memory):
            return False
        if self.swap_memory is not None and not self.swap_memory.satisfied_by(
            sample.swap_memory
        ):
            return False
        return True

    # -- rendering -----------------------------------------------------------

    def to_xml(self) -> str:
        """Serialize back to the thesis' ``<constraint>`` block."""
        parts = ["<constraint>"]
        if self.cpu_load is not None:
            parts.append(f"<cpuLoad>{self.cpu_load.text()}</cpuLoad>")
        if self.memory is not None:
            parts.append(f"<memory>{self.memory.text()}</memory>")
        if self.swap_memory is not None:
            parts.append(f"<swapmemory>{self.swap_memory.text()}</swapmemory>")
        if self.window is not None:
            from repro.util.units import format_military_time

            parts.append(
                f"<starttime>{format_military_time(self.window.start_minutes)}</starttime>"
            )
            parts.append(
                f"<endtime>{format_military_time(self.window.end_minutes)}</endtime>"
            )
        parts.append("</constraint>")
        return "".join(parts)


def _parse_clause(tag: str, text: str) -> ScalarConstraint:
    expected_keyword = _TAG_KEYWORDS[tag]
    match = _CLAUSE_RE.match(text)
    if match is None:
        raise ConstraintSyntaxError(f"malformed <{tag}> clause: {text!r}")
    keyword = match.group("keyword").lower()
    if keyword != expected_keyword:
        raise ConstraintSyntaxError(
            f"<{tag}> clause must use keyword {expected_keyword!r}, got {keyword!r}"
        )
    op = Operator.from_symbol(match.group("op"))
    raw_value = match.group("value")
    if expected_keyword == "load":
        try:
            value = float(raw_value)
        except ValueError:
            raise ConstraintSyntaxError(f"invalid load value: {raw_value!r}") from None
    else:
        value = float(parse_memory_size(raw_value))
    return ScalarConstraint(keyword=expected_keyword, op=op, value=value)


def parse_constraint_block(xml_text: str) -> ConstraintSet:
    """Parse one ``<constraint>…</constraint>`` block (strict)."""
    root = parse_xml(xml_text.strip(), what="constraint block")
    if root.tag not in CONSTRAINT_TAGS:
        raise ConstraintSyntaxError(
            f"constraint root must be one of {CONSTRAINT_TAGS}, got <{root.tag}>"
        )
    cpu_load = memory = swap = None
    start = end = None
    for child in root:
        text = (child.text or "").strip()
        if child.tag in _TAG_KEYWORDS:
            clause = _parse_clause(child.tag, text)
            if child.tag == "cpuLoad":
                if cpu_load is not None:
                    raise ConstraintSyntaxError("duplicate <cpuLoad> clause")
                cpu_load = clause
            elif child.tag == "memory":
                if memory is not None:
                    raise ConstraintSyntaxError("duplicate <memory> clause")
                memory = clause
            else:
                if swap is not None:
                    raise ConstraintSyntaxError("duplicate <swapmemory> clause")
                swap = clause
        elif child.tag == "starttime":
            start = parse_military_time(text)
        elif child.tag == "endtime":
            end = parse_military_time(text)
        else:
            raise ConstraintSyntaxError(f"unknown constraint element: <{child.tag}>")
    window = None
    if (start is None) != (end is None):
        raise ConstraintSyntaxError(
            "starttime and endtime must be specified together"
        )
    if start is not None and end is not None:
        window = TimeWindow(start_minutes=start, end_minutes=end)
    return ConstraintSet(cpu_load=cpu_load, memory=memory, swap_memory=swap, window=window)


def parse_constraints(description: str | None, *, strict: bool = False) -> ConstraintSet | None:
    """Extract and parse the constraint block embedded in a description.

    Returns None when the description holds no (valid) constraint block.
    With ``strict=True`` a present-but-malformed block raises instead — the
    publish-time validation mode.
    """
    if not description:
        return None
    match = _CONSTRAINT_BLOCK_RE.search(description)
    if match is None:
        return None
    try:
        constraints = parse_constraint_block(match.group(0))
    except ConstraintSyntaxError:
        if strict:
            raise
        return None
    if not constraints.has_any():
        return None
    return constraints
