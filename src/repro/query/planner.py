"""Ad-hoc query planner: shared plans, index-backed access paths, compiled predicates.

A statement **shape** lowers once into a :class:`ShapePlan` — the
statement with its literals as slots (:func:`~repro.query.ast.slotted`) —
and each text runs as that shared plan with its own literal values bound
(:class:`CompiledPlan`): *bind → probe → filter objects → project
survivors*:

* **access path** — the cheapest sargable conjunct of the WHERE tree is
  pushed down into the datastore's sorted runs: id probes bisect the id
  run; exact names, ``IN`` lists, ``name-prefix`` (``LIKE 'p%'``) and
  ``name-range`` (non-negated ``BETWEEN`` two string literals) bisect the
  ``(name, id)`` pairs run; ``name-like`` (any other non-negated ``LIKE``)
  runs its pattern's matcher over the distinct-names run, from the literal
  prefix on.  Every index path enforces its conjunct exactly, so the
  conjunct leaves the residual.  Negated forms, ``OR`` trees, other columns
  and non-string literals (the scan path coerces ``name = 123``) stay
  residual.  The choice depends on the literals' kinds (part of the shape)
  and on each name ``LIKE`` pattern's form, the plan's *decision*
  (:meth:`ShapePlan.decide`), which keys it beside the shape;
* **compiled predicate** — the residual becomes a closure chain over the
  **stored objects**, through the virtual table's catalogue getters
  (:mod:`repro.query.virtual`): no row dict exists until an object has
  survived the filter, and ``COUNT(*)`` never builds one.  Binding makes the
  ``LIKE`` matchers and ``IN`` sets and coerces each literal once, not once
  per row;
* **subquery cells** — each uncorrelated ``IN (SELECT …)`` has its own
  shared plan; an execution's cell is keyed on the subquery and the values
  bound to its literals, and the engine fills it from a changelog view of
  materialized value sets (``QueryEngine._run_plan``).

Plans hold no data: probes read the live indexes, so the plan cache needs
no write invalidation.  A *patchable* plan (a virtual table, no subquery
cell, no ORDER BY on the union view, catalogue columns only) gives a kept
entry its patch test (:meth:`CompiledPlan.patch_filter`), its row
(:meth:`CompiledPlan.kept_projection`), its tail
(:meth:`CompiledPlan.finish`) and its access path, which routes records to
it.  Results are bit-identical to the ``planner=False`` scan — rows, order,
NULL and coercion semantics (``tests/test_query_planner.py``,
``tests/test_property_query.py``).  One deliberate asymmetry: a probe that
empties the candidate set skips the residual, so an unknown column hiding
there is not reported (the scan short-circuits alike when the sargable
conjunct is leftmost); the next write to its type drops such an entry.

A shared plan is read-only once built; what one execution binds lives on
its own :class:`CompiledPlan` and :class:`SubqueryCell`.
"""

from __future__ import annotations

import re
import threading
from dataclasses import is_dataclass
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from repro.persistence.nodestate import NODESTATE_TABLE
from repro.query.ast import (
    And,
    Between,
    Column,
    Comparison,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Predicate,
    Select,
    Slot,
    flatten_conjuncts,
)
from repro.query.ast import bound as _read
from repro.query.evaluator import (
    _OPS,
    _as_number,
    between,
    compare,
    finish_rows,
    like_match,
)
from repro.query.virtual import VIRTUAL_TABLES, Getter, Row, row_reader
from repro.util.errors import QuerySyntaxError

#: a virtual table's column catalogue (``virtual.VirtualTable.columns``)
Columns = Mapping[str, Getter]
#: a compiled predicate over what a plan filters: a stored object of a
#: virtual table, or a row dict of NodeState
ItemFilter = Callable[[Any], bool]
#: a predicate compiled once per shape: an execution's plan → its filter
Binder = Callable[["CompiledPlan"], ItemFilter]

#: access-path kinds, cheapest first (the tie-break order of ``_classify``)
_COSTS = {
    "id-eq": 0,
    "name-eq": 1,
    "id-in": 2,
    "name-in": 3,
    "name-prefix": 4,
    "name-like": 5,
    "name-range": 6,
    "id-in-subquery": 7,
}

#: virtual-table columns backed by the datastore name index
_NAME_COLUMNS = ("name", "name_")

#: ``literal op column`` read as ``column op' literal``
_REFLECTED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class AccessPath(NamedTuple):
    """How a plan generates candidate objects.

    ``kind`` is one of ``scan`` / ``id-eq`` / ``id-in`` / ``name-eq`` /
    ``name-in`` / ``name-prefix`` / ``name-like`` / ``name-range`` /
    ``id-in-subquery``; ``values`` holds the probe arguments (object ids,
    names, the single prefix, the ``(literal prefix, LIKE pattern)`` pair,
    or the ``(low, high)`` bounds).
    """

    kind: str
    values: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind == "scan":
            return "full scan"
        if self.kind == "name-prefix":
            return f"name-prefix probe {self.values[0]!r}"
        if self.kind == "name-like":
            return (
                f"name-pattern probe {self.values[1]!r} over the distinct names "
                f"from {self.values[0]!r} on"
            )
        if self.kind == "name-range":
            return f"name-range probe {self.values[0]!r} .. {self.values[1]!r}"
        if self.kind == "id-in-subquery":
            return "id probes over the materialized subquery set"
        return f"{self.kind} probe ({len(self.values)} key{'s' if len(self.values) != 1 else ''})"


_SCAN = AccessPath("scan")


def _walk(node: Any) -> Iterator[Any]:
    """*node* and everything under it, in text order."""
    yield node
    parts = node if type(node) is tuple else vars(node).values() if is_dataclass(node) else ()
    for part in parts:
        yield from _walk(part)


class SubqueryCell:
    """One execution's ``IN (SELECT …)``.

    ``key`` names it in the engine's subquery view: the subquery and the
    values bound to its literals.  The engine fills ``values`` with the
    materialized value set before the plan runs; the compiled closure reads
    it at row time.
    """

    __slots__ = ("plan", "key", "column", "bound", "values")

    def __init__(self, plan: ShapePlan, span: slice, bound: Sequence) -> None:
        self.plan, self.bound, self.column = plan, bound, plan.select.columns[0]
        self.key = (plan.select, bound[span])
        self.values: frozenset | tuple = frozenset()


# -- predicate compilation -----------------------------------------------------


def _reader(column: Column, columns: Columns | None) -> Callable[[Any], Any]:
    """A column as a reader of the filtered item: a virtual table's
    catalogue getter, or (*columns* ``None``) a key of a NodeState row.  An
    unknown column raises when — and only when — it is read, as the scan
    path does."""
    key, name = column.name.lower(), column.name
    getter = columns.get(key) if columns is not None else None
    if getter is not None:
        return getter

    def get(item: Any) -> Any:
        if columns is not None or key not in item:
            raise QuerySyntaxError(f"unknown column: {name!r}")
        return item[key]

    return get


def _operand(expr: Any, columns: Columns | None) -> Callable[[CompiledPlan], Callable]:
    """One operand, bound: a column's reader, or a reader of the literal."""
    if type(expr) is Column:
        get = _reader(expr, columns)
        return lambda plan: get
    return lambda plan, site=expr.value: lambda item, value=_read(site, plan.values): value


def _bind_compare(operand, site: Any, op, plan: CompiledPlan) -> ItemFilter:
    """``operand op literal``, the literal read from *plan*: a numeric
    literal makes a numeric-looking string operand a number, a string
    literal becomes one once, for the first number it meets — what
    :func:`~repro.query.evaluator.compare` does per pair."""
    literal = _read(site, plan.values)
    if literal is None:
        return lambda item: False
    get = operand(plan)
    numeric = isinstance(literal, (int, float))
    string = isinstance(literal, str)
    number = None

    def cmp_fn(item: Any) -> bool:
        nonlocal number
        value = get(item)
        if value is None:
            return False
        other = literal
        if numeric:
            if isinstance(value, str):
                value = _as_number(value)
        elif string and isinstance(value, (int, float)):
            if number is None:
                number = _as_number(literal)
            other = number
        try:
            return op(value, other)
        except TypeError:
            return False

    return cmp_fn


def compile_predicate(
    predicate: Predicate, found: list[InSubquery], columns: Columns | None
) -> Binder:
    """Lower one predicate tree, once per shape, into the binder of its
    filter; appends the subqueries found (an execution's cells, in order).

    The filter runs on what the plan filters: stored objects of a virtual
    table (column reads go through its *columns* catalogue) or, with
    ``columns=None``, the row dicts of NodeState.
    """
    kind = type(predicate)
    if kind is Comparison:
        left, right, op = predicate.left, predicate.right, _OPS[predicate.op]
        if type(right) is Literal:
            get = _operand(left, columns)
            return lambda plan: _bind_compare(get, right.value, op, plan)
        if type(left) is Literal:
            get = _operand(right, columns)
            op = _OPS[_REFLECTED.get(predicate.op, predicate.op)]
            return lambda plan: _bind_compare(get, left.value, op, plan)
        get_left, get_right = _reader(left, columns), _reader(right, columns)
        return lambda plan: lambda item: compare(op, get_left(item), get_right(item))
    if kind is Between:
        get = _reader(predicate.column, columns)
        low, high = _operand(predicate.low, columns), _operand(predicate.high, columns)
        negated = predicate.negated
        return lambda plan: lambda item, lo=low(plan), hi=high(plan): between(
            get(item), lo(item), hi(item), negated
        )
    if kind is Not:
        inner = compile_predicate(predicate.operand, found, columns)
        return lambda plan: lambda item, f=inner(plan): not f(item)
    if kind is Or:
        a = compile_predicate(predicate.left, found, columns)
        b = compile_predicate(predicate.right, found, columns)
        return lambda plan: lambda item, f=a(plan), g=b(plan): f(item) or g(item)
    if kind is And:
        return _chain([compile_predicate(c, found, columns) for c in flatten_conjuncts(predicate)])
    if kind not in (IsNull, Like, InList, InSubquery):
        raise QuerySyntaxError(f"unsupported predicate node: {predicate!r}")
    get = _reader(predicate.column, columns)
    negated = predicate.negated
    if kind is IsNull:
        return lambda plan: lambda item: (get(item) is None) != negated
    if kind is Like:

        def bind_test(plan: CompiledPlan) -> Callable[[Any], bool]:
            match = like_match(_read(predicate.pattern, plan.values))
            return lambda value: match(str(value)) is not None

    elif kind is InList:

        def bind_test(plan: CompiledPlan) -> Callable[[Any], bool]:
            return frozenset(_read(site, plan.values) for site in predicate.values).__contains__

    else:
        index = len(found)
        found.append(predicate)

        def bind_test(plan: CompiledPlan) -> Callable[[Any], bool]:
            cell = plan.cells[index]
            return lambda value: value in cell.values

    def bind(plan: CompiledPlan) -> ItemFilter:
        # a test of the column's value: NULL fails it, negated or not
        test = bind_test(plan)
        return lambda item: (value := get(item)) is not None and test(value) != negated

    return bind


def _chain(binders: list[Binder]) -> Binder:
    if len(binders) == 1:
        return binders[0]

    def bind(plan: CompiledPlan) -> ItemFilter:
        chained = tuple(binder(plan) for binder in binders)
        return lambda item: all(f(item) for f in chained)

    return bind


# -- access-path selection -----------------------------------------------------


def _literal_str(expr: Any, values: Sequence) -> str | None:
    value = _read(expr.value, values) if type(expr) is Literal else None
    return value if isinstance(value, str) else None


#: the literal prefix of a LIKE pattern (chars before the first wildcard)
_like_prefix = re.compile(r"[^%_]*").match


def _like_kind(pattern: str) -> str:
    """The probe a name ``LIKE`` takes: ``name-eq`` without wildcards,
    ``name-prefix`` for ``'p%'``, else ``name-like`` (the pattern runs over
    the *distinct names* of the index from the literal prefix on)."""
    prefix = _like_prefix(pattern).group()
    if prefix == pattern:
        return "name-eq"
    return "name-prefix" if pattern == prefix + "%" else "name-like"


def _classify(conjunct: Predicate, values: Sequence) -> AccessPath | None:
    """The index probe that enforces the conjunct, its arguments read from
    *values*, or None if there is none.

    Every path returned enforces its conjunct *exactly*, so the chosen
    conjunct is dropped from the residual.  Only string keys are sargable:
    the scan path coerces numeric literals against string columns
    (``name = 123`` matches name ``"123"``), which an index probe would miss.
    """
    if isinstance(conjunct, Comparison) and conjunct.op == "=":
        for column, other in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
            key = _literal_str(other, values)
            if type(column) is Column and key is not None:
                name = column.name.lower()
                if name == "id":
                    return AccessPath("id-eq", (key,))
                if name in _NAME_COLUMNS:
                    return AccessPath("name-eq", (key,))
        return None
    if isinstance(conjunct, InList) and not conjunct.negated:
        name = conjunct.column.name.lower()
        keys = tuple(
            value for site in conjunct.values if isinstance(value := _read(site, values), str)
        )
        if name == "id":
            # non-string members can never equal a string id under scan
            # semantics (InList does not coerce), so dropping them is exact
            return AccessPath("id-in", keys)
        if name in _NAME_COLUMNS:
            return AccessPath("name-in", keys)
        return None
    if isinstance(conjunct, InSubquery) and not conjunct.negated:
        if conjunct.column.name.lower() == "id":
            # probe arguments live in the subquery cell, bound per execution
            return AccessPath("id-in-subquery")
        return None
    if isinstance(conjunct, Like) and not conjunct.negated:
        if conjunct.column.name.lower() not in _NAME_COLUMNS:
            return None
        pattern = _read(conjunct.pattern, values)
        kind, prefix = _like_kind(pattern), _like_prefix(pattern).group()
        return AccessPath(kind, (prefix, pattern) if kind == "name-like" else (prefix,))
    if isinstance(conjunct, Between) and not conjunct.negated:
        if conjunct.column.name.lower() not in _NAME_COLUMNS:
            return None
        low = _literal_str(conjunct.low, values)
        high = _literal_str(conjunct.high, values)
        if low is None or high is None:
            # a numeric bound makes the scan path coerce numeric-looking
            # names; the sorted name index orders strings only
            return None
        return AccessPath("name-range", (low, high))
    return None


def choose_access_path(
    conjuncts: list[Predicate], values: Sequence
) -> tuple[AccessPath, list[Predicate], Predicate | None]:
    """Pick the cheapest sargable conjunct; everything else stays residual.

    Returns ``(access path, residual conjuncts, chosen conjunct)``; each
    execution reads the chosen conjunct's probe arguments from its values.
    """
    best_index = -1
    best: AccessPath | None = None
    for index, conjunct in enumerate(conjuncts):
        access = _classify(conjunct, values)
        if access is None:
            continue
        if best is None or _COSTS[access.kind] < _COSTS[best.kind]:
            best = access
            best_index = index
    if best is None:
        return _SCAN, list(conjuncts), None
    residual = [c for i, c in enumerate(conjuncts) if i != best_index]
    return best, residual, conjuncts[best_index]


# -- the plans -------------------------------------------------------------------


class ShapePlan:
    """One statement shape lowered once: its access-path choice, residual
    and whole WHERE compiled with literal slots, its subqueries' plans and
    its tail spec.  Read-only once built.

    Built from a :func:`~repro.query.ast.slotted` statement and the values
    of the first text that needed it, which pick the access path; it serves
    every text of the shape whose values make the same :meth:`decide`.
    """

    __slots__ = (
        "select", "relational", "type_name", "project", "types", "chosen", "residual",
        "residual_count", "subqueries", "patchable", "admits", "kept_project",
        "decided_by", "decision",
    )  # fmt: skip

    def __init__(self, select: Select, values: Sequence) -> None:
        self.select = select
        key = select.table.lower()
        table = VIRTUAL_TABLES.get(key)
        if table is None and key != NODESTATE_TABLE.lower():
            raise QuerySyntaxError(f"unknown table: {select.table!r}")
        self.relational = table is None
        self.type_name, self.project, columns = (
            (table.type_name, table.project, table.columns) if table else (select.table, None, None)
        )
        conjuncts = flatten_conjuncts(select.where) if select.where is not None else []
        found: list[InSubquery] = []
        #: the conjunct each execution probes the index with (NodeState scans)
        access, residual, self.chosen = (
            choose_access_path(conjuncts, values) if table else (_SCAN, conjuncts, None)
        )
        if access.kind == "id-in-subquery":
            found.append(self.chosen)
        self.residual_count = len(residual)
        self.residual: Binder | None = (
            _chain([compile_predicate(c, found, columns) for c in residual]) if residual else None
        )
        #: per subquery, its plan and the span of the values its literals take
        self.subqueries = []
        for node in found:
            slots = [n.index for n in _walk(node.subquery) if type(n) is Slot]
            span = slice(slots[0], slots[-1] + 1) if slots else slice(0)
            self.subqueries.append((ShapePlan(node.subquery, values), span))
        #: the slots whose ``LIKE`` pattern form picks an access path, this
        #: plan's (a name ``LIKE`` it classifies) and its subqueries'
        self.decided_by = tuple(
            c.pattern.index
            for c in conjuncts
            if table and type(c) is Like and type(c.pattern) is Slot and _classify(c, values)
        ) + tuple(index for plan, _ in self.subqueries for index in plan.decided_by)
        self.decision = self.decide(values)
        #: RIM types the statement reads (``"*"`` for the union view), or
        #: ``None`` when a table, a subquery's too, is NodeState: its writes
        #: bypass the changelog, so no view may keep what it answers
        tables = {n.table.lower() for n in _walk(select) if type(n) is Select}
        self.types = (
            frozenset(VIRTUAL_TABLES[t].type_name for t in tables)
            if tables <= VIRTUAL_TABLES.keys()
            else None
        )
        #: a changelog record may patch what this plan keeps per object: a
        #: virtual table, no subquery cell, no ORDER BY on the union view
        #: (its ties break type by type, kept rows by id), catalogue columns
        self.patchable = (
            table is not None and not found and not (self.type_name == "*" and select.order_by)
        )
        self.admits: Binder | None = None
        self.kept_project: Callable[[Any], Row] | None = None
        if self.patchable:
            where = select.where
            if where is None:
                self.admits = lambda plan: lambda obj: True
            elif all(n.name.lower() in columns for n in _walk(where) if type(n) is Column):
                self.admits = compile_predicate(where, [], columns)
            # the columns the tail reads, all the catalogue's for ``SELECT *``
            names = ("id", *(select.columns or ()), *(t.column.name for t in select.order_by))
            names = tuple(dict.fromkeys(name.lower() for name in names))
            if all(name in columns for name in names):
                self.kept_project = (
                    table.project if select.columns is None else row_reader(key, names)
                )

    def decide(self, values: Sequence) -> tuple[str, ...]:
        """The access-path decision *values* make: the form of each
        deciding ``LIKE`` pattern."""
        return tuple(_like_kind(values[index]) for index in self.decided_by)

    def bind(self, values: Sequence) -> CompiledPlan:
        return CompiledPlan(self, values)


class CompiledPlan:
    """One execution's plan: a :class:`ShapePlan` with one text's literal
    values bound — the probe arguments, the residual's literals, ``LIMIT``
    and the subquery cells.  A kept entry holds it, so the entry's patch
    test and tail read that text's own literals."""

    __slots__ = (
        "shape", "values", "select", "type_name", "access", "cells", "residual", "limit",
        "_admits",
    )  # fmt: skip

    def __init__(self, shape: ShapePlan, values: Sequence) -> None:
        self.shape, self.values = shape, values
        self.select, self.type_name = shape.select, shape.type_name
        self.access = _SCAN if shape.chosen is None else _classify(shape.chosen, values)
        self.cells = [SubqueryCell(plan, span, values) for plan, span in shape.subqueries]
        self.residual = shape.residual(self) if shape.residual is not None else None
        self.limit = _read(shape.select.limit, values)
        #: bound on the first record that reaches a kept entry of the plan
        self._admits: ItemFilter | bool | None = None

    def patch_filter(self) -> ItemFilter | None:
        """The whole WHERE, with this execution's literals, as a test of
        one stored object — what a kept entry is patched by — or ``None``
        when it names a column outside the catalogue: the scan path raises
        on an object that reaches it, so a record drops the entry instead."""
        admits = self._admits
        if admits is None:
            binder = self.shape.admits
            admits = self._admits = binder(self) if binder is not None else False
        return admits or None

    def kept_projection(self) -> Callable[[Any], Row] | None:
        """Stored object → the row a kept entry holds: the columns the
        statement's tail reads (``id``, the select list, ORDER BY), or the
        full row for ``SELECT *``; a lean row keeps the entry small.
        ``None`` when the select list or ORDER BY names a column outside
        the catalogue: such a statement is not kept per object."""
        return self.shape.kept_project

    def finish(self, rows: list[Row]) -> list[Row]:
        """The statement tail over *rows*, given in id order (see
        :func:`finish_rows`)."""
        return finish_rows(self.select, rows, self.limit, id_ordered=True)

    # -- candidate generation ----------------------------------------------

    def _type_names(self, store: Any) -> list[str]:
        """The concrete RIM types behind the table (all, for the union view)."""
        return store.type_names() if self.type_name == "*" else [self.type_name]

    def _probe_ids(self, store: Any, type_name: str) -> list[str]:
        """Sorted candidate ids of one concrete type, from the chosen index."""
        kind = self.access.kind
        values = self.access.values
        if kind in ("id-eq", "id-in"):
            return store.filter_ids_of_type(type_name, values)
        if kind == "id-in-subquery":
            # strings only: a non-string subquery value can never equal an id
            return store.filter_ids_of_type(
                type_name, [v for v in self.cells[0].values if isinstance(v, str)]
            )
        if kind == "name-eq":
            return store.find_ids_by_name(type_name, values[0])
        if kind == "name-in":
            return store.find_ids_by_names(type_name, values)
        if kind == "name-prefix":
            return store.find_ids_by_name_prefix(type_name, values[0])
        if kind == "name-like":
            return store.find_ids_by_name_match(type_name, values[0], like_match(values[1]))
        if kind == "name-range":
            return store.find_ids_by_name_range(type_name, values[0], values[1])
        raise AssertionError(f"not an index path: {kind}")  # pragma: no cover

    def candidates(self, store: Any) -> list[Any]:
        """The stored objects (read-only views) the residual has to look at.

        Candidates come out in the scan path's pre-filter order — ids sorted
        within a type, types in sorted order for the union view — so ORDER BY
        tie-breaking and DISTINCT keep bit-identical behaviour.  No row is
        built here: the residual filters these objects and only the
        survivors are projected.  An id whose object was deleted between the
        index probe and the heap read is skipped, as a scan skips it.
        """
        type_names = self._type_names(store)
        if self.access.kind == "scan":
            return [
                obj for tname in type_names for obj in store.iter_views_of_type(tname)
            ]
        get_view = store.get_view
        return [
            obj
            for tname in type_names
            for object_id in self._probe_ids(store, tname)
            if (obj := get_view(object_id)) is not None
        ]

    def fast_count(self, store: Any) -> int | None:
        """COUNT(*) without materialization, when no filtering remains."""
        if not self.select.count or self.residual is not None or self.shape.relational:
            return None
        if self.access.kind == "scan":
            return store.count(None if self.type_name == "*" else self.type_name)
        if self.shape.patchable:
            return None  # its survivors' ids fill a kept entry
        return sum(len(self._probe_ids(store, t)) for t in self._type_names(store))

    def explain(self) -> dict[str, Any]:
        return {
            "table": self.select.table,
            "relational": self.shape.relational,
            "access_path": self.access.kind,
            "access_detail": self.access.describe(),
            "probe_values": list(self.access.values),
            "residual_conjuncts": self.shape.residual_count,
            "subqueries": len(self.cells),
        }


class PlanCache:
    """Bounded map of :class:`ShapePlan`, keyed on a text's shape (with the
    access-path decision beside it when that is not the first plan's) or on
    a statement; a put past ``maxsize`` evicts the oldest entry.

    Thread-safe: a read is one dict lookup, puts serialize on a lock.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._plans: dict[Any, ShapePlan] = {}
        self._lock = threading.Lock()
        self.get = self._plans.get

    def put(self, key: Any, plan: ShapePlan) -> None:
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > self.maxsize:
                del self._plans[next(iter(self._plans))]
