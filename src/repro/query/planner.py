"""Ad-hoc query planner: plan cache, index-backed access paths, compiled predicates.

The seed evaluator re-parses every SQL string, scans the whole virtual
table, and walks the WHERE tree with per-row ``isinstance`` dispatch.  The
planner lowers each statement **once** into a :class:`CompiledPlan`:

* **access path** — the cheapest sargable conjunct of the WHERE tree is
  pushed down into the datastore's secondary indexes (sorted-id partition
  probes, name index, name-prefix range scan) so non-matching objects are
  never materialized as row dicts;
* **compiled predicate** — the residual WHERE tree becomes a closure chain
  with LIKE regexes hoisted, IN lists pre-hashed, and literals captured, so
  the per-row cost is one function call;
* **subquery cells** — uncorrelated ``IN (SELECT …)`` subqueries compile to
  a cell the engine re-binds per execution from a changelog view of
  materialized value sets (see ``QueryEngine._subquery_values``).

Plans depend only on the statement, never on the data: probes read the live
indexes at execution time, and subquery cells are re-bound from a view that
drops a value set when a type it read is written, so the plan cache needs
no write invalidation.  Results are
bit-identical to the scan path — same rows, same order, same NULL/coercion
semantics — which ``benchmarks/test_bench_adhoc_query.py`` asserts query by
query.  One deliberate asymmetry: a probe that empties the candidate set
skips residual evaluation entirely, so an unknown-column error hiding in the
residual of a no-match query is not raised (the scan path short-circuits the
same way whenever the sargable conjunct is leftmost).

Engines are single-threaded (one per registry instance); subquery cells are
rebound in place on each execution under that assumption.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from repro.query.ast import (
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
    flatten_conjuncts,
)
from repro.query.evaluator import (
    _OPS,
    _coerce_pair,
    coerce_between,
    like_to_regex,
)
from repro.query.virtual import VIRTUAL_TABLES, Row
from repro.util.errors import QuerySyntaxError

RowFilter = Callable[[Row], bool]

#: access-path kinds, cheapest first (the tie-break order of ``_classify``)
_COSTS = {
    "id-eq": 0,
    "name-eq": 1,
    "id-in": 2,
    "name-in": 3,
    "name-prefix": 4,
    "id-in-subquery": 5,
}

#: virtual-table columns backed by the datastore name index
_NAME_COLUMNS = ("name", "name_")


@dataclass(frozen=True)
class AccessPath:
    """How a plan generates candidate rows.

    ``kind`` is one of ``scan`` / ``id-eq`` / ``id-in`` / ``name-eq`` /
    ``name-in`` / ``name-prefix``; ``values`` holds the probe arguments
    (object ids, names, or the single prefix).
    """

    kind: str
    values: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind == "scan":
            return "full scan"
        if self.kind == "name-prefix":
            return f"name-prefix probe {self.values[0]!r}"
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


def _compile_value(expr: Any) -> Callable[[Row], Any]:
    if isinstance(expr, Column):
        key = expr.name.lower()
        name = expr.name

        def get(row: Row, key=key, name=name) -> Any:
            if key not in row:
                raise QuerySyntaxError(f"unknown column: {name!r}")
            return row[key]

        return get
    value = expr.value
    return lambda row, value=value: value


def compile_predicate(
    predicate: Predicate, cells: list[SubqueryCell]
) -> RowFilter:
    """Lower one predicate tree into a closure; appends subquery cells found."""
    if isinstance(predicate, Comparison):
        left = _compile_value(predicate.left)
        right = _compile_value(predicate.right)
        op = _OPS[predicate.op]

        def cmp_fn(row: Row, left=left, right=right, op=op) -> bool:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False
            a, b = _coerce_pair(a, b)
            try:
                return op(a, b)
            except TypeError:
                return False

        return cmp_fn
    if isinstance(predicate, Like):
        get = _compile_value(predicate.column)
        regex = like_to_regex(predicate.pattern)
        negated = predicate.negated

        def like_fn(row: Row, get=get, regex=regex, negated=negated) -> bool:
            value = get(row)
            if value is None:
                return False
            return bool(regex.match(str(value))) != negated

        return like_fn
    if isinstance(predicate, InList):
        get = _compile_value(predicate.column)
        try:
            members: frozenset | tuple = frozenset(predicate.values)
        except TypeError:  # pragma: no cover - parser only emits hashables
            members = predicate.values
        negated = predicate.negated

        def in_fn(row: Row, get=get, members=members, negated=negated) -> bool:
            value = get(row)
            if value is None:
                return False
            return (value in members) != negated

        return in_fn
    if isinstance(predicate, InSubquery):
        cell = SubqueryCell(predicate.subquery, predicate.subquery.columns[0])
        cells.append(cell)
        get = _compile_value(predicate.column)
        negated = predicate.negated

        def sub_fn(row: Row, get=get, cell=cell, negated=negated) -> bool:
            value = get(row)
            if value is None:
                return False
            return (value in cell.values) != negated

        return sub_fn
    if isinstance(predicate, Between):
        get = _compile_value(predicate.column)
        low = _compile_value(predicate.low)
        high = _compile_value(predicate.high)
        negated = predicate.negated

        def between_fn(row: Row, get=get, low=low, high=high, negated=negated) -> bool:
            value = get(row)
            lo = low(row)
            hi = high(row)
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
        get = _compile_value(predicate.column)
        negated = predicate.negated
        return lambda row, get=get, negated=negated: (get(row) is None) != negated
    if isinstance(predicate, Not):
        inner = compile_predicate(predicate.operand, cells)
        return lambda row, inner=inner: not inner(row)
    # And inside a residual conjunct cannot appear (flatten_conjuncts split it),
    # but nested And under Or/Not arrives here via the generic path:
    if isinstance(predicate, Or):
        left_fn = compile_predicate(predicate.left, cells)
        right_fn = compile_predicate(predicate.right, cells)
        return lambda row, a=left_fn, b=right_fn: a(row) or b(row)
    conjuncts = flatten_conjuncts(predicate)
    if len(conjuncts) > 1:
        return _chain([compile_predicate(c, cells) for c in conjuncts])
    raise QuerySyntaxError(f"unsupported predicate node: {predicate!r}")


def _chain(filters: list[RowFilter]) -> RowFilter:
    if len(filters) == 1:
        return filters[0]
    chained = tuple(filters)
    return lambda row, chained=chained: all(f(row) for f in chained)


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


def _classify(conjunct: Predicate) -> tuple[AccessPath, bool] | None:
    """``(access path, fully covered)`` if the conjunct is sargable, else None.

    *Fully covered* means the probe enforces the conjunct exactly, so it can
    be dropped from the residual.  Only string keys are sargable: the scan
    path coerces numeric literals against string columns (``name = 123``
    matches name ``"123"``), which an index probe would miss.
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
                return AccessPath("id-eq", (key,)), True
            if name in _NAME_COLUMNS:
                return AccessPath("name-eq", (key,)), True
        return None
    if isinstance(conjunct, InList) and not conjunct.negated:
        name = conjunct.column.name.lower()
        keys = tuple(v for v in conjunct.values if isinstance(v, str))
        if name == "id":
            # non-string members can never equal a string id under scan
            # semantics (InList does not coerce), so dropping them is exact
            return AccessPath("id-in", keys), True
        if name in _NAME_COLUMNS:
            return AccessPath("name-in", keys), True
        return None
    if isinstance(conjunct, InSubquery) and not conjunct.negated:
        if conjunct.column.name.lower() == "id":
            # probe arguments live in the subquery cell, bound per execution
            return AccessPath("id-in-subquery"), True
        return None
    if isinstance(conjunct, Like) and not conjunct.negated:
        name = conjunct.column.name.lower()
        if name not in _NAME_COLUMNS:
            return None
        pattern = conjunct.pattern
        prefix = _like_prefix(pattern)
        if prefix == pattern:
            # no wildcards: LIKE 'Foo' is exact equality on a string column
            return AccessPath("name-eq", (prefix,)), True
        if not prefix:
            return None
        covered = pattern == prefix + "%"  # pure prefix pattern
        return AccessPath("name-prefix", (prefix,)), covered
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
    best: tuple[AccessPath, bool] | None = None
    for index, conjunct in enumerate(conjuncts):
        classified = _classify(conjunct)
        if classified is None:
            continue
        if best is None or _COSTS[classified[0].kind] < _COSTS[best[0].kind]:
            best = classified
            best_index = index
    if best is None:
        return AccessPath("scan"), list(conjuncts), None
    access, covered = best
    residual = [
        c for i, c in enumerate(conjuncts) if i != best_index or not covered
    ]
    return access, residual, conjuncts[best_index]


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
        "residual",
        "residual_count",
        "cells",
    )

    def __init__(self, store: Any, select: Select) -> None:
        self.select = select
        key = select.table.lower()
        self.cells: list[SubqueryCell] = []
        self.access_cell: SubqueryCell | None = None
        if key in VIRTUAL_TABLES:
            self.relational = False
            self.type_name, self.project = VIRTUAL_TABLES[key]
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
        elif store.has_table(select.table):
            self.relational = True
            self.type_name, self.project = select.table, None
            self.access = AccessPath("scan")
            residual_conjuncts = (
                flatten_conjuncts(select.where) if select.where is not None else []
            )
        else:
            raise QuerySyntaxError(f"unknown table: {select.table!r}")
        self.residual_count = len(residual_conjuncts)
        self.residual: RowFilter | None = (
            _chain([compile_predicate(c, self.cells) for c in residual_conjuncts])
            if residual_conjuncts
            else None
        )

    # -- candidate generation ----------------------------------------------

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
        raise AssertionError(f"not an index path: {kind}")  # pragma: no cover

    def candidate_rows(self, store: Any) -> tuple[list[Row], int]:
        """``(materialized candidate rows, objects considered)``.

        Candidates come out in the scan path's pre-filter order — ids sorted
        within a type, types in sorted order for the union view — so ORDER BY
        tie-breaking and DISTINCT keep bit-identical behaviour.
        """
        project = self.project
        if self.access.kind == "scan":
            if self.type_name == "*":
                rows = [
                    project(obj)
                    for tname in store.type_names()
                    for obj in store.iter_views_of_type(tname)
                ]
            else:
                rows = [
                    project(obj) for obj in store.iter_views_of_type(self.type_name)
                ]
            return rows, len(rows)
        if self.type_name == "*":
            type_names = store.type_names()
        else:
            type_names = [self.type_name]
        rows = []
        for tname in type_names:
            rows.extend(
                project(store.get_view(i)) for i in self._probe_ids(store, tname)
            )
        return rows, len(rows)

    def fast_count(self, store: Any) -> int | None:
        """COUNT(*) without materialization, when no filtering remains."""
        if not self.select.count or self.residual is not None or self.relational:
            return None
        if self.access.kind == "scan":
            return store.count(None if self.type_name == "*" else self.type_name)
        if self.type_name == "*":
            return sum(
                len(self._probe_ids(store, t)) for t in store.type_names()
            )
        return len(self._probe_ids(store, self.type_name))

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


def build_plan(store: Any, select: Select) -> CompiledPlan:
    """Lower one parsed statement against one datastore's schema."""
    return CompiledPlan(store, select)


class PlanCache:
    """Bounded LRU of :class:`CompiledPlan`, keyed on query text or AST.

    Thread-safe: the LRU's ``move_to_end`` bookkeeping mutates the map even
    on a *hit*, so every operation runs under a lock.  The lock is taken
    non-blocking first purely to count contention (``contended``) — the
    serving bench's evidence that plan lookups are not the scaling limiter.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._plans: OrderedDict[Any, CompiledPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.contended = 0

    @contextmanager
    def _locked(self):
        if not self._lock.acquire(blocking=False):
            self.contended += 1
            self._lock.acquire()
        try:
            yield
        finally:
            self._lock.release()

    def get(self, key: Any) -> CompiledPlan | None:
        with self._locked():
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def put(self, key: Any, plan: CompiledPlan) -> None:
        with self._locked():
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def __len__(self) -> int:
        return len(self._plans)
