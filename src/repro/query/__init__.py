"""AdhocQuery engine: SQL-92 subset + XML filter queries over ebRIM.

One evaluator serves both syntaxes (filter queries translate into the SQL
AST), matching freebXML's QueryManager which prefers SQL-92 and merely
tolerates filter queries.
"""

from repro.query.ast import Select, flatten_conjuncts
from repro.query.evaluator import (
    QueryEngine,
    coerce_between,
    eval_predicate,
    like_to_regex,
)
from repro.query.filterquery import parse_filter_query
from repro.query.parser import parse_select
from repro.query.planner import AccessPath, CompiledPlan, PlanCache, ShapePlan
from repro.query.tokens import tokenize

__all__ = [
    "AccessPath",
    "CompiledPlan",
    "PlanCache",
    "Select",
    "ShapePlan",
    "QueryEngine",
    "coerce_between",
    "eval_predicate",
    "flatten_conjuncts",
    "like_to_regex",
    "parse_filter_query",
    "parse_select",
    "tokenize",
]
