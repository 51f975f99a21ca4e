"""Ad-hoc query planner: plan cache, index-backed access paths, compiled predicates.

The seed evaluator re-parses every SQL string, projects every object of the
table into a row dict, and walks the WHERE tree over those rows with
per-row ``isinstance`` dispatch.  The planner lowers each statement **once**
into a :class:`CompiledPlan` and executes it as *probe → filter objects →
project survivors*:

* **access path** — the cheapest sargable conjunct of the WHERE tree is
  pushed down into the datastore's sorted runs: id probes bisect the id
  run; exact names, ``IN`` lists, ``name-prefix`` (``LIKE 'p%'``) and
  ``name-range`` (non-negated ``BETWEEN`` two string literals) bisect the
  ``(name, id)`` pairs run; only ``name-like`` (any other non-negated
  ``LIKE``) runs its hoisted regex over the distinct-names run, from the
  literal prefix on.  Every index path enforces its conjunct exactly, so the
  conjunct leaves the residual.  Negated forms, ``OR`` trees, other columns
  and non-string literals (the scan path coerces ``name = 123``) stay
  residual;
* **compiled predicate** — the residual WHERE tree becomes a closure chain
  with LIKE regexes hoisted, IN lists pre-hashed, and literals captured.
  Column reads compile to the virtual table's catalogue getters
  (:mod:`repro.query.virtual`), so the residual runs on the **stored
  objects**: no row dict exists until an object has survived the filter,
  and ``COUNT(*)`` never builds one;
* **subquery cells** — uncorrelated ``IN (SELECT …)`` subqueries compile to
  a cell the engine re-binds per execution from a changelog view of
  materialized value sets (see ``QueryEngine._subquery_values``).

Plans depend only on the statement, never on the data: probes read the live
indexes at execution time, and subquery cells are re-bound from a view that
patches or drops a value set per record of a type it read, so the plan
cache needs no write invalidation.  A plan serves both of the engine's
views the same way, for a statement and for a subquery: a *patchable* plan
(a virtual table, no subquery cell, no ORDER BY on the union view,
catalogue columns only — checked on first use) gives a kept entry its patch
test (:meth:`CompiledPlan.patch_filter`, the whole WHERE, compiled on the
first record that reaches it), its row (:meth:`CompiledPlan.kept_projection`),
its tail (:meth:`CompiledPlan.finish`), and its access path, which routes
records to it.  Results are
bit-identical to the scan path — same rows, same order, same NULL/coercion
semantics — which ``tests/test_query_planner.py`` asserts query by query
and ``tests/test_property_query.py`` over generated statements.  One
deliberate asymmetry: a probe that empties the candidate set
skips residual evaluation entirely, so an unknown-column error hiding in the
residual of a no-match query is not raised (the scan path short-circuits the
same way whenever the sargable conjunct is leftmost).  Such a plan is not
patchable: its cached ``[]`` is dropped by the next write to its type, and
the next run raises once an object reaches the residual.

Plans are shared by every thread of an engine.  A plan without cells is
read-only; a subquery cell is rebound in place on each execution, so the
engine binds and runs a plan with cells under its ``_subquery_lock``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping

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
    OrderTerm,
    Predicate,
    Select,
    flatten_conjuncts,
)
from repro.query.evaluator import (
    _OPS,
    _coerce_pair,
    coerce_between,
    finish_rows,
    like_to_regex,
)
from repro.query.virtual import VIRTUAL_TABLES, Getter, Row, row_reader
from repro.util.errors import QuerySyntaxError

#: a virtual table's column catalogue (``virtual.VirtualTable.columns``)
Columns = Mapping[str, Getter]
#: a compiled predicate over what a plan filters: a stored object of a
#: virtual table, or a row dict of NodeState
ItemFilter = Callable[[Any], bool]

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


@dataclass(frozen=True)
class AccessPath:
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


class SubqueryCell:
    """Holder for one ``IN (SELECT …)``'s materialized value set.

    The compiled closure reads ``values`` at row time; the engine re-binds
    it before each execution from the engine's subquery view.
    """

    __slots__ = ("select", "column", "values")

    def __init__(self, select: Select, column: str) -> None:
        self.select = select
        self.column = column
        self.values: frozenset | tuple = frozenset()


# -- predicate compilation -----------------------------------------------------


def _compile_value(expr: Any, columns: Columns | None) -> Callable[[Any], Any]:
    """One operand as a reader of the filtered item.

    Against a virtual table (*columns* given) a column read **is** the
    catalogue getter over the stored object; against NodeState (``None``) it
    indexes the row dict.  An unknown column compiles to a
    reader that raises when — and only when — it is evaluated, exactly as
    the scan path does.
    """
    if isinstance(expr, Column):
        key = expr.name.lower()
        name = expr.name
        if columns is not None:
            getter = columns.get(key)
            if getter is not None:
                return getter

            def unknown(obj: Any, name=name) -> Any:
                raise QuerySyntaxError(f"unknown column: {name!r}")

            return unknown

        def get(row: Row, key=key, name=name) -> Any:
            if key not in row:
                raise QuerySyntaxError(f"unknown column: {name!r}")
            return row[key]

        return get
    value = expr.value
    return lambda item, value=value: value


def compile_predicate(
    predicate: Predicate, cells: list[SubqueryCell], columns: Columns | None
) -> ItemFilter:
    """Lower one predicate tree into a closure; appends subquery cells found.

    The closure runs on what the plan filters: stored objects of a virtual
    table (column reads go through its *columns* catalogue) or, with
    ``columns=None``, the row dicts of NodeState.
    """
    if isinstance(predicate, Comparison):
        left = _compile_value(predicate.left, columns)
        right = _compile_value(predicate.right, columns)
        op = _OPS[predicate.op]

        def cmp_fn(item: Any, left=left, right=right, op=op) -> bool:
            a = left(item)
            b = right(item)
            if a is None or b is None:
                return False
            a, b = _coerce_pair(a, b)
            try:
                return op(a, b)
            except TypeError:
                return False

        return cmp_fn
    if isinstance(predicate, Like):
        get = _compile_value(predicate.column, columns)
        regex = like_to_regex(predicate.pattern)
        negated = predicate.negated

        def like_fn(item: Any, get=get, regex=regex, negated=negated) -> bool:
            value = get(item)
            if value is None:
                return False
            return bool(regex.match(str(value))) != negated

        return like_fn
    if isinstance(predicate, InList):
        get = _compile_value(predicate.column, columns)
        try:
            members: frozenset | tuple = frozenset(predicate.values)
        except TypeError:  # pragma: no cover - parser only emits hashables
            members = predicate.values
        negated = predicate.negated

        def in_fn(item: Any, get=get, members=members, negated=negated) -> bool:
            value = get(item)
            if value is None:
                return False
            return (value in members) != negated

        return in_fn
    if isinstance(predicate, InSubquery):
        cell = SubqueryCell(predicate.subquery, predicate.subquery.columns[0])
        cells.append(cell)
        get = _compile_value(predicate.column, columns)
        negated = predicate.negated

        def sub_fn(item: Any, get=get, cell=cell, negated=negated) -> bool:
            value = get(item)
            if value is None:
                return False
            return (value in cell.values) != negated

        return sub_fn
    if isinstance(predicate, Between):
        get = _compile_value(predicate.column, columns)
        low = _compile_value(predicate.low, columns)
        high = _compile_value(predicate.high, columns)
        negated = predicate.negated

        def between_fn(item: Any, get=get, low=low, high=high, negated=negated) -> bool:
            value = get(item)
            lo = low(item)
            hi = high(item)
            if value is None or lo is None or hi is None:
                return False
            value, lo, hi = coerce_between(value, lo, hi)
            try:
                inside = lo <= value <= hi
            except TypeError:
                return False
            return inside != negated

        return between_fn
    if isinstance(predicate, IsNull):
        get = _compile_value(predicate.column, columns)
        negated = predicate.negated
        return lambda item, get=get, negated=negated: (get(item) is None) != negated
    if isinstance(predicate, Not):
        inner = compile_predicate(predicate.operand, cells, columns)
        return lambda item, inner=inner: not inner(item)
    # And inside a residual conjunct cannot appear (flatten_conjuncts split it),
    # but nested And under Or/Not arrives here via the generic path:
    if isinstance(predicate, Or):
        left_fn = compile_predicate(predicate.left, cells, columns)
        right_fn = compile_predicate(predicate.right, cells, columns)
        return lambda item, a=left_fn, b=right_fn: a(item) or b(item)
    conjuncts = flatten_conjuncts(predicate)
    if len(conjuncts) > 1:
        return _chain([compile_predicate(c, cells, columns) for c in conjuncts])
    raise QuerySyntaxError(f"unsupported predicate node: {predicate!r}")


def _chain(filters: list[ItemFilter]) -> ItemFilter:
    if len(filters) == 1:
        return filters[0]
    chained = tuple(filters)
    return lambda item, chained=chained: all(f(item) for f in chained)


# -- access-path selection -----------------------------------------------------


def _literal_str(expr: Any) -> str | None:
    if isinstance(expr, Literal) and isinstance(expr.value, str):
        return expr.value
    return None


def _like_prefix(pattern: str) -> str:
    """Literal prefix of a LIKE pattern (chars before the first wildcard)."""
    for index, char in enumerate(pattern):
        if char in ("%", "_"):
            return pattern[:index]
    return pattern


def _classify(conjunct: Predicate) -> AccessPath | None:
    """The index probe that enforces the conjunct, or None if there is none.

    Every path returned enforces its conjunct *exactly*, so the chosen
    conjunct is dropped from the residual.  Only string keys are sargable:
    the scan path coerces numeric literals against string columns
    (``name = 123`` matches name ``"123"``), which an index probe would miss.
    """
    if isinstance(conjunct, Comparison) and conjunct.op == "=":
        for column, other in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(column, Column):
                continue
            key = _literal_str(other)
            if key is None:
                continue
            name = column.name.lower()
            if name == "id":
                return AccessPath("id-eq", (key,))
            if name in _NAME_COLUMNS:
                return AccessPath("name-eq", (key,))
        return None
    if isinstance(conjunct, InList) and not conjunct.negated:
        name = conjunct.column.name.lower()
        keys = tuple(v for v in conjunct.values if isinstance(v, str))
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
        name = conjunct.column.name.lower()
        if name not in _NAME_COLUMNS:
            return None
        pattern = conjunct.pattern
        prefix = _like_prefix(pattern)
        if prefix == pattern:
            # no wildcards: LIKE 'Foo' is exact equality on a string column
            return AccessPath("name-eq", (prefix,))
        if pattern == prefix + "%":
            return AccessPath("name-prefix", (prefix,))
        # any other shape: the pattern's regex runs over the *distinct
        # names* of the index (from the literal prefix on), never over rows
        return AccessPath("name-like", (prefix, pattern))
    if isinstance(conjunct, Between) and not conjunct.negated:
        if conjunct.column.name.lower() not in _NAME_COLUMNS:
            return None
        low = _literal_str(conjunct.low)
        high = _literal_str(conjunct.high)
        if low is None or high is None:
            # a numeric bound makes the scan path coerce numeric-looking
            # names; the sorted name index orders strings only
            return None
        return AccessPath("name-range", (low, high))
    return None


def choose_access_path(
    conjuncts: list[Predicate],
) -> tuple[AccessPath, list[Predicate], Predicate | None]:
    """Pick the cheapest sargable conjunct; everything else stays residual.

    Returns ``(access path, residual conjuncts, chosen conjunct)``; the
    chosen conjunct is needed by subquery-backed paths, whose probe keys
    only exist at execution time.
    """
    best_index = -1
    best: AccessPath | None = None
    for index, conjunct in enumerate(conjuncts):
        access = _classify(conjunct)
        if access is None:
            continue
        if best is None or _COSTS[access.kind] < _COSTS[best.kind]:
            best = access
            best_index = index
    if best is None:
        return AccessPath("scan"), list(conjuncts), None
    residual = [c for i, c in enumerate(conjuncts) if i != best_index]
    return best, residual, conjuncts[best_index]


# -- the compiled plan ---------------------------------------------------------


class CompiledPlan:
    """One statement lowered to an access path + residual filter + tail spec."""

    __slots__ = (
        "select",
        "relational",
        "type_name",
        "project",
        "access",
        "access_cell",
        "name_match",
        "residual",
        "residual_count",
        "cells",
        "patchable",
        "_columns",
        "_admits",
        "_kept_project",
    )

    def __init__(self, store: Any, select: Select) -> None:
        self.select = select
        key = select.table.lower()
        self.cells: list[SubqueryCell] = []
        self.access_cell: SubqueryCell | None = None
        #: the ``name-like`` probe's matcher, hoisted once per plan
        self.name_match: Callable[[str], Any] | None = None
        columns: Columns | None = None
        if key in VIRTUAL_TABLES:
            table = VIRTUAL_TABLES[key]
            self.relational = False
            self.type_name, self.project = table.type_name, table.project
            columns = table.columns
            conjuncts = (
                flatten_conjuncts(select.where) if select.where is not None else []
            )
            self.access, residual_conjuncts, chosen = choose_access_path(conjuncts)
            if self.access.kind == "id-in-subquery":
                assert isinstance(chosen, InSubquery)
                self.access_cell = SubqueryCell(
                    chosen.subquery, chosen.subquery.columns[0]
                )
                self.cells.append(self.access_cell)
            if self.access.kind == "name-like":
                self.name_match = like_to_regex(self.access.values[1]).match
        elif key == NODESTATE_TABLE.lower():
            self.relational = True
            self.type_name, self.project = select.table, None
            self.access = AccessPath("scan")
            residual_conjuncts = (
                flatten_conjuncts(select.where) if select.where is not None else []
            )
        else:
            raise QuerySyntaxError(f"unknown table: {select.table!r}")
        self.residual_count = len(residual_conjuncts)
        self.residual: ItemFilter | None = (
            _chain(
                [compile_predicate(c, self.cells, columns) for c in residual_conjuncts]
            )
            if residual_conjuncts
            else None
        )
        #: a changelog record may patch what this plan keeps per object: a
        #: virtual table, no subquery cell, no ORDER BY on the union view
        #: (its ties break type by type, kept rows by id) and catalogue
        #: columns (see :meth:`kept_projection` and :meth:`patch_filter`)
        self.patchable = (
            columns is not None
            and not self.cells
            and not (self.type_name == "*" and select.order_by)
        )
        self._columns = columns
        #: built on first use; ``False`` once the statement proved unpatchable
        self._admits: ItemFilter | bool | None = None
        self._kept_project: Callable[[Any], Row] | bool | None = None

    def patch_filter(self) -> ItemFilter | None:
        """The whole WHERE as a test of one stored object — what a kept
        entry is patched by — or ``None`` when it names a column outside the
        catalogue: the scan path raises on an object that reaches it, so a
        record drops the entry instead.  Built on the first record that
        reaches the plan, so a fill compiles nothing."""
        admits = self._admits
        if admits is None:
            where, columns = self.select.where, self._columns
            if where is None:
                admits = _admit_all
            elif _known(where, columns):
                admits = compile_predicate(where, [], columns)
            else:
                admits = False
            self._admits = admits
        return admits or None

    def kept_projection(self) -> Callable[[Any], Row] | None:
        """Stored object → the row a kept entry holds: the columns the
        statement's tail reads (``id``, the select list, ORDER BY), or the
        full row for ``SELECT *``; a lean row keeps the entry small.
        ``None`` when the select list or ORDER BY names a column outside
        the catalogue: such a statement is not kept per object."""
        project = self._kept_project
        if project is None:
            select = self.select
            project = self._kept_project = (
                _kept_row(select.table.lower(), select.columns, select.order_by) or False
            )
        return project or None

    def finish(self, rows: list[Row]) -> list[Row]:
        """The statement tail over *rows*, given in id order (see
        :func:`finish_rows`)."""
        return finish_rows(self.select, rows, id_ordered=True)

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
                type_name,
                [v for v in self.access_cell.values if isinstance(v, str)],
            )
        if kind == "name-eq":
            return store.find_ids_by_name(type_name, values[0])
        if kind == "name-in":
            return store.find_ids_by_names(type_name, values)
        if kind == "name-prefix":
            return store.find_ids_by_name_prefix(type_name, values[0])
        if kind == "name-like":
            return store.find_ids_by_name_match(type_name, values[0], self.name_match)
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
        if not self.select.count or self.residual is not None or self.relational:
            return None
        if self.access.kind == "scan":
            return store.count(None if self.type_name == "*" else self.type_name)
        if self.patchable:
            return None  # its survivors' ids fill a kept entry
        return sum(len(self._probe_ids(store, t)) for t in self._type_names(store))

    def explain(self) -> dict[str, Any]:
        return {
            "table": self.select.table,
            "relational": self.relational,
            "access_path": self.access.kind,
            "access_detail": self.access.describe(),
            "probe_values": list(self.access.values),
            "residual_conjuncts": self.residual_count,
            "subqueries": len(self.cells),
        }


def _admit_all(obj: Any) -> bool:
    return True


@lru_cache(maxsize=256)
def _kept_row(
    table: str, columns: tuple[str, ...] | None, order_by: tuple[OrderTerm, ...]
) -> Callable[[Any], Row] | None:
    """:meth:`CompiledPlan.kept_projection` per statement shape: most plans
    share a few shapes, and the shapes come from queries, so the memo is
    bounded."""
    names = ("id", *(columns or ()), *(term.column.name for term in order_by))
    names = tuple(dict.fromkeys(name.lower() for name in names))
    catalogue = VIRTUAL_TABLES[table]
    if not all(name in catalogue.columns for name in names):
        return None
    return catalogue.project if columns is None else row_reader(table, names)


def _known(predicate: Predicate, columns: Columns) -> bool:
    """Whether every column under a subquery-free *predicate* is a
    catalogue column."""
    kind = type(predicate)
    if kind is And or kind is Or:
        return _known(predicate.left, columns) and _known(predicate.right, columns)
    if kind is Not:
        return _known(predicate.operand, columns)
    if kind is Comparison:
        operands: tuple = (predicate.left, predicate.right)
    elif kind is Between:
        operands = (predicate.column, predicate.low, predicate.high)
    else:  # Like, InList, IsNull
        return predicate.column.name.lower() in columns
    for operand in operands:
        if type(operand) is Column and operand.name.lower() not in columns:
            return False
    return True


def build_plan(store: Any, select: Select) -> CompiledPlan:
    """Lower one parsed statement against one datastore's schema."""
    return CompiledPlan(store, select)


class PlanCache:
    """Bounded LRU of :class:`CompiledPlan`, keyed on query text or AST.

    Thread-safe: the LRU's ``move_to_end`` bookkeeping mutates the map even
    on a *hit*, so every operation runs under a lock.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._plans: OrderedDict[Any, CompiledPlan] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any) -> CompiledPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def put(self, key: Any, plan: CompiledPlan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def __len__(self) -> int:
        return len(self._plans)
