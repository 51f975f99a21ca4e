"""Predicate evaluation and SELECT execution over the datastore.

The engine executes a parsed :class:`~repro.query.ast.Select` against

* the ebRIM **virtual tables** (one per RIM class, plus the
  ``RegistryObject`` union view), or
* the one **relation**, ``NodeState`` (the store's monitoring samples, one
  generation per statement — the thesis' LoadStatus class runs exactly such
  queries).

SQL three-valued logic is approximated conservatively: comparisons against
NULL are false, which matches how the registry's discovery queries use it.

Execution is planned by default (:mod:`repro.query.planner`): a statement
shape lowers once into a shared plan, and each text binds its literals into
it and runs as *probe → filter the stored objects → project the survivors*
(:meth:`QueryEngine._run_plan`).  A repeated query text, like a subquery, is
answered from a changelog view, which patches the statement's kept
survivors per write where the plan allows it (:meth:`QueryEngine._answer`).
Construct with ``planner=False`` to force the original path, which projects
every object of the table into a row and evaluates the AST over the rows
(:func:`eval_predicate`); it is the oracle: the two must return
bit-identical rows, which ``tests/test_query_planner.py`` asserts per query
and ``tests/test_property_query.py`` over generated statements.
"""

from __future__ import annotations

import re
import threading
from functools import lru_cache, partial
from operator import attrgetter
from typing import Any, Callable

from repro.persistence.datastore import DataStore
from repro.persistence.nodestate import NODESTATE_TABLE
from repro.persistence.views import ROW_CAP, KeptRows, QueryResultView
from repro.query.ast import (
    And,
    Between,
    Column,
    Comparison,
    Expr,
    InList,
    InSubquery,
    IsNull,
    Like,
    Not,
    Or,
    Predicate,
    Select,
    slotted,
)
from repro.query.parser import lift, parse_select
from repro.query.virtual import VIRTUAL_TABLES, Row
from repro.util.errors import QuerySyntaxError

_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def coerce_between(value: Any, low: Any, high: Any) -> tuple[Any, Any, Any]:
    """Coerce a BETWEEN triple with one decision for all three operands.

    Pairwise coercion (value/low then value/high) could leave a str bound
    facing an already-floated value — ``'2.5' BETWEEN '1' AND 3`` compared
    ``'1' <= 2.5`` and failed.  Here, if *any* operand is numeric, every
    numeric-looking string in the triple converts; a string that does not
    parse stays put and the comparison falls to the conservative
    TypeError-is-false rule.
    """
    if (
        isinstance(value, (int, float))
        or isinstance(low, (int, float))
        or isinstance(high, (int, float))
    ):
        return _as_number(value), _as_number(low), _as_number(high)
    return value, low, high


def _as_number(operand: Any) -> Any:
    if isinstance(operand, str):
        try:
            return float(operand)
        except ValueError:
            return operand
    return operand


_ID = attrgetter("id")


def _value_of(expr: Expr, row: Row) -> Any:
    if isinstance(expr, Column):
        key = expr.name.lower()
        if key not in row:
            raise QuerySyntaxError(f"unknown column: {expr.name!r}")
        return row[key]
    return expr.value


@lru_cache(maxsize=512)
def like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern (% and _) to a regex that ``match``
    tests against a whole value; each distinct pattern compiles once."""
    out: list[str] = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


def like_match(pattern: str) -> Callable[[str], re.Match[str] | None]:
    """The one matcher of a LIKE pattern, for every path that tests one.

    A leading ``%`` is dropped and the rest of the pattern searched for:
    an anchored ``.*`` would backtrack through the whole value first.
    """
    rest = pattern.lstrip("%")
    regex = like_to_regex(rest)
    return regex.search if rest != pattern else regex.match


def compare(op: Callable[[Any, Any], bool], left: Any, right: Any) -> bool:
    """``left op right``: false against NULL and for incomparable types; a
    number against a numeric string compares as numbers, as SQL engines
    coerce."""
    if left is None or right is None:
        return False
    if isinstance(left, (int, float)) and isinstance(right, str):
        right = _as_number(right)
    elif isinstance(right, (int, float)) and isinstance(left, str):
        left = _as_number(left)
    try:
        return op(left, right)
    except TypeError:
        return False


def between(value: Any, low: Any, high: Any, negated: bool) -> bool:
    """``value [NOT] BETWEEN low AND high``: false against NULL, the triple
    coerced with one decision (:func:`coerce_between`)."""
    if value is None or low is None or high is None:
        return False
    value, low, high = coerce_between(value, low, high)
    try:
        inside = low <= value <= high
    except TypeError:
        return False
    return inside != negated


def eval_predicate(predicate: Predicate, row: Row) -> bool:
    """Evaluate one predicate against one row."""
    if isinstance(predicate, Comparison):
        return compare(
            _OPS[predicate.op],
            _value_of(predicate.left, row),
            _value_of(predicate.right, row),
        )
    if isinstance(predicate, Like):
        value = _value_of(predicate.column, row)
        if value is None:
            return False
        matched = like_match(predicate.pattern)(str(value)) is not None
        return matched != predicate.negated
    if isinstance(predicate, InList):
        value = _value_of(predicate.column, row)
        if value is None:
            return False
        found = value in predicate.values
        return found != predicate.negated
    if isinstance(predicate, Between):
        return between(
            _value_of(predicate.column, row),
            _value_of(predicate.low, row),
            _value_of(predicate.high, row),
            predicate.negated,
        )
    if isinstance(predicate, IsNull):
        value = _value_of(predicate.column, row)
        return (value is None) != predicate.negated
    if isinstance(predicate, Not):
        return not eval_predicate(predicate.operand, row)
    if isinstance(predicate, And):
        return eval_predicate(predicate.left, row) and eval_predicate(
            predicate.right, row
        )
    if isinstance(predicate, Or):
        return eval_predicate(predicate.left, row) or eval_predicate(
            predicate.right, row
        )
    raise QuerySyntaxError(f"unsupported predicate node: {predicate!r}")


def finish_rows(
    select: Select, rows: list[Row], limit: int | None, *, id_ordered: bool = False
) -> list[Row]:
    """The shared statement tail: count, order, project, distinct, *limit*
    (the statement's, as bound to this execution).

    *rows* come in the scan path's pre-filter order (ids sorted within a
    type); the list is sorted in place and its row dicts are never mutated.
    With *id_ordered* (rows of one type, in id order) the default order is
    already there and is not sorted for again.
    """
    if select.count:
        return [{"count": len(rows)}]
    if select.order_by:
        # apply terms right-to-left for stable multi-key ordering
        for term in reversed(select.order_by):
            key = term.column.name.lower()
            rows.sort(
                key=lambda row: (row.get(key) is None, row.get(key)),
                reverse=term.descending,
            )
    elif not id_ordered:
        rows.sort(key=lambda row: str(row.get("id", "")))
    if select.columns is not None:
        projected = []
        for row in rows:
            out: Row = {}
            for name in select.columns:
                key = name.lower()
                if key not in row:
                    raise QuerySyntaxError(f"unknown column: {name!r}")
                out[name] = row[key]
            projected.append(out)
        rows = projected
    if select.distinct:
        seen: set[tuple] = set()
        unique: list[Row] = []
        for row in rows:
            signature = tuple(sorted((k, repr(v)) for k, v in row.items()))
            if signature not in seen:
                seen.add(signature)
                unique.append(row)
        rows = unique
    if limit is not None:
        rows = rows[:limit]
    return rows


def _value_set(column: str, rows: list[Row]) -> frozenset | tuple:
    """A subquery's finished rows as the set of *column*'s non-NULL values
    (a tuple when a value is unhashable)."""
    values = [row[column] for row in rows if row.get(column) is not None]
    try:
        return frozenset(values)
    except TypeError:
        return tuple(values)


class QueryEngine:
    """Executes SELECT statements against one datastore.

    Safe for concurrent :meth:`execute` calls: shared plans are read-only,
    each execution binds its own, and the plan cache serializes its puts.
    A plan with subquery cells fills and runs them under
    :attr:`_subquery_lock`; cell-less plans (every discovery hot-path
    query) take no lock.  The ``stats`` counters are plain ``+=`` and may
    undercount by a hair under contention — they are observability, not
    accounting.
    """

    def __init__(self, store: DataStore, *, planner: bool = True) -> None:
        self.store = store
        self.use_planner = planner
        #: observability counters (plan cache, subquery cache, row traffic)
        self.stats = {
            "plans_built": 0,
            "plan_hits": 0,
            "subquery_materializations": 0,
            "subquery_hits": 0,
            "rows_materialized": 0,
            "result_hits": 0,
            "result_misses": 0,
        }
        self._plans = None
        self._results = None
        self._subqueries = None
        if planner:
            from repro.query.planner import PlanCache

            self._plans = PlanCache()
            #: hot ad-hoc results, patched or dropped per changelog record —
            #: only string-keyed statements over virtual tables participate;
            #: the ``planner=False`` scan path stays the untouched parity oracle
            self._results = QueryResultView(store)
            #: (subquery, its bound values) → materialized value set: patched
            #: per record where the subquery allows it, else dropped per RIM
            #: type read; never for NodeState
            self._subqueries = QueryResultView(store, capacity=64)
        #: serializes subquery fills; re-entrant because materializing a
        #: subquery recurses into :meth:`_run_plan`
        self._subquery_lock = threading.RLock()

    # -- row sources -----------------------------------------------------------

    def _rows_for_table(self, table_name: str) -> list[Row]:
        key = table_name.lower()
        if key in VIRTUAL_TABLES:
            table = VIRTUAL_TABLES[key]
            type_name, project = table.type_name, table.project
            # project straight off the stored views — the projection only
            # reads, so the per-object copy() would be pure overhead
            if type_name == "*":
                rows: list[Row] = []
                for tname in self.store.type_names():
                    rows.extend(
                        project(obj) for obj in self.store.iter_views_of_type(tname)
                    )
                return rows
            return [project(obj) for obj in self.store.iter_views_of_type(type_name)]
        if key == NODESTATE_TABLE.lower():
            return self._relational_rows()
        raise QuerySyntaxError(f"unknown table: {table_name!r}")

    def _relational_rows(self) -> list[Row]:
        """NodeState's rows, all of one generation, five lower-case keys each."""
        return [sample.as_row() for sample in self.store.node_state.generation()[1].values()]

    # -- planning ----------------------------------------------------------------

    def _plan_for(self, query: str | Select):
        """The plan of one execution: the shared plan of the query's shape
        and access-path decision (a statement is its own shape), bound to
        the query's literal values.  A text is parsed only to build a
        shared plan."""
        from repro.query.planner import ShapePlan

        key, values = lift(query) if isinstance(query, str) else (query, ())
        shared = self._plans.get(key)
        template = None
        if shared is not None and (decision := shared.decide(values)) != shared.decision:
            template, key = shared.select, (key, decision)
            shared = self._plans.get(key)
        if shared is None:
            if template is None:
                select = parse_select(query) if isinstance(query, str) else query
                # its literals are the lifted values, in text order
                template = slotted(select, values) if values else select
            shared = ShapePlan(template, values)
            self._plans.put(key, shared)
            self.stats["plans_built"] += 1
        else:
            self.stats["plan_hits"] += 1
        return shared.bind(values)

    def explain(self, query: str | Select) -> dict[str, Any]:
        """The plan the engine would run: access path, residual, subqueries."""
        if self.use_planner:
            return self._plan_for(query).explain()
        from repro.query.planner import ShapePlan

        select = parse_select(query) if isinstance(query, str) else query
        return ShapePlan(select, ()).bind(()).explain()

    # -- execution ----------------------------------------------------------------

    def execute(self, query: str | Select) -> list[Row]:
        """Run a query, returning projected rows.

        A query *text* is answered from the result view (:meth:`_answer`),
        and parsed only when its shape has no plan yet; a parsed statement
        always runs.
        """
        if not self.use_planner:
            select = parse_select(query) if isinstance(query, str) else query
            rows = self._rows_for_table(select.table)
            if select.where is not None:
                where = self._resolve_subqueries(select.where)
                rows = [row for row in rows if eval_predicate(where, row)]
            return finish_rows(select, rows, select.limit)
        if not isinstance(query, str):
            return self._run(self._plan_for(query))
        answer = self._answer(
            self._results,
            query,
            partial(self._plan_for, query),
            tuple,
            ("result_hits", "result_misses"),
        )
        # rows are scalar-valued; a per-row shallow copy keeps callers free
        # to mutate their result set
        return [dict(row) for row in answer]

    def _answer(self, view: QueryResultView, key, plan_of, shape, counters):
        """The finished rows of *key* (a query text, or a subquery and its
        bound values), *shape*d, from *view* when it holds them, else from
        the plan ``plan_of()`` gives.

        On a miss a statement a record can patch (a patchable plan, at most
        :data:`~repro.persistence.views.ROW_CAP` survivors) files its
        survivors as a :class:`~repro.persistence.views.KeptRows`, which
        later writes patch; any other statement over RIM types files its
        shaped answer when it has at most ``ROW_CAP`` rows, and a write to a
        type it read drops it.  *counters* names the hit and miss stats.
        """
        as_of = view.catch_up()
        answer = view.get(key)
        if answer is not None:
            self.stats[counters[0]] += 1
            return answer
        self.stats[counters[1]] += 1
        plan = plan_of()
        rows = self._run(plan, shape=shape)
        if isinstance(rows, KeptRows):
            answer = rows.read()
            view.put(key, (plan.type_name,), rows, as_of=as_of)
            return answer
        answer = shape(rows)
        types = plan.shape.types
        if types is not None and len(rows) <= ROW_CAP:
            view.put(key, types, answer, as_of=as_of)
        return answer

    def _run(self, plan, *, shape=None) -> list[Row] | KeptRows:
        if plan.cells:
            # fill the cells and filter under the lock: two threads do not
            # materialize one subquery at once
            with self._subquery_lock:
                return self._run_plan(plan, shape=shape)
        return self._run_plan(plan, shape=shape)

    def _run_plan(self, plan, *, shape=None) -> list[Row] | KeptRows:
        """Bind subquery cells, probe, filter, project, finish — one execution.

        Rows are built late: the residual runs on the candidate *objects*,
        a ``COUNT(*)`` answers with the number of survivors, and only the
        survivors of any other statement are projected into row dicts for
        the shared tail.  ``stats["rows_materialized"]`` counts those dicts.
        Given a *shape*, a patchable plan whose survivors fit ``ROW_CAP``
        answers with a :class:`KeptRows` of them instead: the survivors
        projected once, to the columns the tail reads
        (``plan.kept_projection``); ids only for a ``COUNT(*)``.
        """
        select = plan.select
        for cell in plan.cells:
            # the subquery's answer read as its column's value set, so a
            # binding semi-join runs once, not once per write; one over
            # NodeState always runs
            cell.values = self._answer(
                self._subqueries,
                cell.key,
                partial(cell.plan.bind, cell.bound),
                partial(_value_set, cell.column),
                ("subquery_hits", "subquery_materializations"),
            )
        fast_count = plan.fast_count(self.store)
        if fast_count is not None:
            return [{"count": fast_count}]
        residual = plan.residual
        if plan.shape.relational:
            rows = self._relational_rows()
            if residual is not None:
                rows = list(filter(residual, rows))
            return finish_rows(select, rows, plan.limit)
        survivors = plan.candidates(self.store)
        if residual is not None:
            survivors = list(filter(residual, survivors))
        keep = (
            shape is not None
            and plan.shape.patchable
            and len(survivors) <= ROW_CAP
            and plan.kept_projection() is not None
        )
        if select.count:
            if keep:
                return KeptRows(plan, shape, dict.fromkeys(map(_ID, survivors)))
            return [{"count": len(survivors)}]
        rows = list(map(plan.kept_projection() if keep else plan.shape.project, survivors))
        self.stats["rows_materialized"] += len(rows)
        if keep:
            return KeptRows(plan, shape, dict(zip(map(_ID, survivors), rows)))
        return finish_rows(select, rows, plan.limit, id_ordered=plan.type_name != "*")

    def execute_windowed(
        self,
        query: str | Select,
        *,
        start_index: int = 0,
        max_results: int | None = None,
    ) -> tuple[list[Row], int]:
        """Run a query and window it in one pass: ``(window, total_count)``.

        The iterative-query protocol needs the total match count alongside
        the window; doing the slice here means exactly one sub-list is built
        (``rows[start:end]``) instead of materializing intermediate slices.
        """
        rows = self.execute(query)
        total = len(rows)
        end = None if max_results is None else start_index + max_results
        return rows[start_index:end], total

    def _resolve_subqueries(self, predicate: Predicate) -> Predicate:
        """Rewrite InSubquery nodes into InList by running the subqueries.

        Subqueries are uncorrelated (no access to the outer row), so one
        execution per statement suffices.
        """
        if isinstance(predicate, InSubquery):
            sub_rows = self.execute(predicate.subquery)
            column = predicate.subquery.columns[0]  # validated by the parser
            values = tuple(
                row[column] for row in sub_rows if row.get(column) is not None
            )
            return InList(
                column=predicate.column, values=values, negated=predicate.negated
            )
        if isinstance(predicate, Not):
            return Not(self._resolve_subqueries(predicate.operand))
        if isinstance(predicate, And):
            return And(
                self._resolve_subqueries(predicate.left),
                self._resolve_subqueries(predicate.right),
            )
        if isinstance(predicate, Or):
            return Or(
                self._resolve_subqueries(predicate.left),
                self._resolve_subqueries(predicate.right),
            )
        return predicate

    def execute_ids(self, query: str | Select) -> list[str]:
        """Run a query and return the ``id`` column (object discovery helper)."""
        rows = self.execute(query)
        return [row["id"] for row in rows if "id" in row and row["id"] is not None]
