"""AST node types for the SQL-92 subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

Value = Union[str, float, int, None]


@dataclass(frozen=True)
class Column:
    """A column reference, optionally qualified (``s.name`` → name)."""

    name: str


@dataclass(frozen=True)
class Literal:
    value: Value


Expr = Union[Column, Literal]


@dataclass(frozen=True)
class Comparison:
    """``left <op> right`` with op ∈ {=, <>, <, <=, >, >=}."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Like:
    """``column LIKE pattern`` with SQL ``%``/``_`` wildcards."""

    column: Column
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class InList:
    column: Column
    values: tuple[Value, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery:
    """``column IN (SELECT single-column FROM …)`` — uncorrelated only.

    The engine resolves the subquery once per statement and rewrites this
    node into an :class:`InList` before row evaluation.
    """

    column: Column
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Between:
    column: Column
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    column: Column
    negated: bool = False


@dataclass(frozen=True)
class Not:
    operand: "Predicate"


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"


Predicate = Union[
    Comparison, Like, InList, InSubquery, Between, IsNull, Not, And, Or
]


def flatten_conjuncts(predicate: "Predicate") -> list["Predicate"]:
    """Flatten an ``And`` tree into its conjuncts, in evaluation order.

    The parser builds left-deep ``And`` chains; the planner analyses the
    flattened list to pick an index-backed access path and keeps the
    remaining conjuncts as residual filters in the same left-to-right order
    the evaluator would have short-circuited them.  Non-``And`` predicates
    come back as a single-element list.
    """
    if isinstance(predicate, And):
        return flatten_conjuncts(predicate.left) + flatten_conjuncts(predicate.right)
    return [predicate]


@dataclass(frozen=True)
class OrderTerm:
    column: Column
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A parsed SELECT statement."""

    table: str
    columns: tuple[str, ...] | None  # None means SELECT *
    where: Predicate | None = None
    order_by: tuple[OrderTerm, ...] = field(default_factory=tuple)
    distinct: bool = False
    limit: int | None = None
    #: SELECT COUNT(*): result is one row {"count": n}
    count: bool = False


@dataclass(frozen=True)
class Slot:
    """The *index*-th literal of a statement's text, lifted out: a tree with
    slots is the statement's shape, which each text's values fill."""

    index: int


def bound(site: Any, values: Sequence) -> Any:
    """A literal as *values* fill it: the value of a slot, else itself."""
    return values[site.index] if type(site) is Slot else site


#: per node type, the fields a literal is in or under, in text order: a
#: literal (1), a tuple of literals (2), or a node (0)
_LITERAL_FIELDS = {
    Select: (("where", 0), ("limit", 1)),
    Comparison: (("left", 0), ("right", 0)),
    Literal: (("value", 1),),
    Like: (("pattern", 1),),
    InList: (("values", 2),),
    InSubquery: (("subquery", 0),),
    Between: (("low", 0), ("high", 0)),
    Not: (("operand", 0),),
    And: (("left", 0), ("right", 0)),
    Or: (("left", 0), ("right", 0)),
}


def map_literals(node: Any, fn: Callable[[Any], Any]) -> Any:
    """*node* with every literal ``x`` (``NULL`` too) replaced by ``fn(x)``,
    called in text order.  A node of a kind that holds no literal (a
    column, ``IS NULL``) is shared, not copied (nodes are frozen)."""
    fields = _LITERAL_FIELDS.get(type(node))
    if fields is None:  # no literal under it
        return node
    fresh = object.__new__(type(node))  # a frozen node: fill the copy's __dict__
    state = fresh.__dict__
    state.update(vars(node))
    for key, form in fields:
        value = state[key]
        if form == 0:
            state[key] = map_literals(value, fn)
        else:
            state[key] = fn(value) if form == 1 else tuple(map(fn, value))
    return fresh


def slotted(select: Select, values: Sequence) -> Select | None:
    """*select* with each literal a :class:`Slot`, numbered in text order,
    or ``None`` when its literals are not exactly *values* (kind and value).
    ``NULL`` is no literal."""
    taken: list = []

    def site(value: Any) -> Any:
        if value is None:
            return None
        taken.append(value)
        return Slot(len(taken) - 1)

    tree = map_literals(select, site)
    same = list(map(type, taken)) == list(map(type, values)) and taken == list(values)
    return tree if same else None
