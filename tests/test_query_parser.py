"""Tests for the SQL-92 subset tokenizer and parser."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.ast import (
    And,
    Between,
    Column,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from repro.persistence import DataStore
from repro.query import QueryEngine, evaluator, parser
from repro.query.parser import Parser, parse_select
from repro.rim import Service
from repro.query.tokens import TokenType, tokenize
from repro.util.errors import QuerySyntaxError
from repro.util.ids import IdFactory


class TestTokenizer:
    def test_basic_statement(self):
        tokens = tokenize("SELECT * FROM Service")
        kinds = [t.type for t in tokens]
        assert kinds == [
            TokenType.KEYWORD,
            TokenType.STAR,
            TokenType.KEYWORD,
            TokenType.IDENT,
            TokenType.EOF,
        ]

    def test_string_escaping(self):
        tokens = tokenize("name = 'O''Brien'")
        strings = [t for t in tokens if t.type is TokenType.STRING]
        assert strings[0].value == "O'Brien"

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select * from x where a like 'b'")
        keywords = [t.value for t in tokens if t.type is TokenType.KEYWORD]
        assert keywords == ["SELECT", "FROM", "WHERE", "LIKE"]

    def test_operators(self):
        ops = [t.value for t in tokenize("a <> 1 <= 2 >= 3 < 4 > 5 = 6") if t.type is TokenType.OPERATOR]
        assert ops == ["<>", "<=", ">=", "<", ">", "="]

    def test_bad_character(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("SELECT ; FROM x")


class TestParserShapes:
    def test_select_star(self):
        sel = parse_select("SELECT * FROM Service")
        assert sel.table == "Service"
        assert sel.columns is None
        assert sel.where is None

    def test_column_projection(self):
        sel = parse_select("SELECT id, name FROM Organization")
        assert sel.columns == ("id", "name")

    def test_alias_dropped(self):
        sel = parse_select("SELECT s.id FROM Service s WHERE s.name = 'x'")
        assert sel.columns == ("id",)
        assert sel.where == Comparison("=", Column("name"), Literal("x"))

    def test_where_comparison(self):
        sel = parse_select("SELECT * FROM Service WHERE name = 'NodeStatus'")
        assert sel.where == Comparison("=", Column("name"), Literal("NodeStatus"))

    def test_like(self):
        sel = parse_select("SELECT * FROM Organization WHERE name LIKE 'Demo%'")
        assert sel.where == Like(Column("name"), "Demo%")

    def test_not_like(self):
        sel = parse_select("SELECT * FROM Organization WHERE name NOT LIKE 'Demo%'")
        assert sel.where == Like(Column("name"), "Demo%", negated=True)

    def test_in_list(self):
        sel = parse_select("SELECT * FROM Service WHERE status IN ('Approved', 'Submitted')")
        assert sel.where == InList(Column("status"), ("Approved", "Submitted"))

    def test_between(self):
        sel = parse_select("SELECT * FROM NodeState WHERE load BETWEEN 0 AND 2")
        assert sel.where == Between(Column("load"), Literal(0), Literal(2))

    def test_is_null_and_is_not_null(self):
        sel = parse_select("SELECT * FROM Service WHERE provider IS NULL")
        assert sel.where == IsNull(Column("provider"))
        sel = parse_select("SELECT * FROM Service WHERE provider IS NOT NULL")
        assert sel.where == IsNull(Column("provider"), negated=True)

    def test_boolean_precedence_and_binds_tighter(self):
        sel = parse_select("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(sel.where, Or)
        assert isinstance(sel.where.right, And)

    def test_parentheses_override(self):
        sel = parse_select("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(sel.where, And)
        assert isinstance(sel.where.left, Or)

    def test_not_factor(self):
        sel = parse_select("SELECT * FROM t WHERE NOT a = 1")
        assert isinstance(sel.where, Not)

    def test_order_by_multi(self):
        sel = parse_select("SELECT * FROM t ORDER BY name DESC, id")
        assert sel.order_by[0].column.name == "name"
        assert sel.order_by[0].descending
        assert not sel.order_by[1].descending

    def test_distinct_and_limit(self):
        sel = parse_select("SELECT DISTINCT name FROM t LIMIT 5")
        assert sel.distinct
        assert sel.limit == 5

    def test_numeric_literals(self):
        sel = parse_select("SELECT * FROM t WHERE a = 1.5")
        assert sel.where == Comparison("=", Column("a"), Literal(1.5))


class TestParserErrors:
    @pytest.mark.parametrize(
        "query",
        [
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t WHERE name",
            "SELECT * FROM t WHERE name LIKE 5",
            "SELECT * FROM t trailing garbage ( )",
            "UPDATE t SET a = 1",
            "SELECT * FROM t WHERE NOT IN ('a')",
            "SELECT * FROM t WHERE 'x' LIKE 'y'",
        ],
    )
    def test_rejects(self, query):
        with pytest.raises(QuerySyntaxError):
            parse_select(query)

    def test_decimal_limit_is_reported_at_its_token(self):
        with pytest.raises(QuerySyntaxError, match="LIMIT needs an integer") as info:
            parse_select("SELECT id FROM Service LIMIT 1.5")
        assert info.value.position == len("SELECT id FROM Service LIMIT ")


# -- one Parser run per statement shape ---------------------------------------


def _outcome(parse, text):
    """A parse's tree by ``repr`` (``Literal(1) == Literal(1.0)``), or its
    exception by type, message and position."""
    try:
        return "tree", repr(parse(text))
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def _full(text):
    return Parser(text).parse()


def _quoted(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


strings = st.text(alphabet="ab'% 0.\x00_", max_size=6).map(_quoted)
integers = st.text(alphabet="0123456789", min_size=1, max_size=4)
decimals = st.tuples(integers, integers).map(".".join)
literals = st.one_of(strings, integers, decimals, st.just("NULL"))
columns = st.sampled_from(("name", "s.name", "host01", "a.5", "id"))


@st.composite
def atoms(draw):
    column = draw(columns)
    form = draw(st.integers(0, 5))
    if form == 0:
        op = draw(st.sampled_from(("=", "<>", "<", ">=")))
        return f"{column} {op} {draw(literals)}"
    if form == 1:
        return f"{column} {draw(st.sampled_from(('', 'NOT ')))}LIKE {draw(strings)}"
    if form == 2:
        values = draw(st.lists(literals, min_size=1, max_size=3))
        return f"{column} IN ({', '.join(values)})"
    if form == 3:
        return f"{column} BETWEEN {draw(literals)} AND {draw(literals)}"
    if form == 4:
        return f"{column} IS {draw(st.sampled_from(('', 'NOT ')))}NULL"
    inner = f"SELECT service FROM ServiceBinding WHERE host = {draw(strings)}"
    return f"id IN ({inner})"


predicates = st.recursive(
    atoms(),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]} AND {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"{p[0]} OR {p[1]}"),
        inner.map(lambda p: f"NOT {p}"),
    ),
    max_leaves=4,
)


@st.composite
def statements(draw):
    head = draw(st.sampled_from(("SELECT *", "SELECT id, name", "SELECT COUNT(*)")))
    text = f"{head} FROM {draw(st.sampled_from(('Service', 'Service s')))}"
    if draw(st.booleans()):
        text += f" WHERE {draw(predicates)}"
    if draw(st.booleans()):
        text += " ORDER BY name DESC"
    if draw(st.booleans()):
        text += f" LIMIT {draw(st.one_of(integers, decimals))}"
    return text


KINDS = {"string": strings, "integer": integers, "decimal": decimals}


def _relit(text: str, pick) -> str:
    """*text* with every literal swapped for ``pick(kind)``: the same shape."""
    def swap(match):
        if match.group(1) is not None:
            return pick("string")
        return pick("decimal" if "." in match.group(2) else "integer")

    return parser._LITERAL_RE.sub(swap, text)


@st.composite
def mutations(draw, text):
    """*text* with one character deleted, inserted or replaced."""
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("'.0 5a(\x00"))
    how = draw(st.integers(0, 2))
    if how == 0:
        return text[:at] + text[at + 1 :]
    if how == 1:
        return text[:at] + char + text[at:]
    return text[:at] + char + text[at + 1 :]


class TestShapeMatchesParser:
    """``parse_select`` answers every text as ``Parser`` does, whether its
    shape is new or was filed by a sibling text with other literals."""

    @given(data=st.data(), text=statements())
    @settings(max_examples=300, deadline=None)
    def test_a_statement_and_its_siblings(self, data, text):
        sibling = _relit(text, lambda kind: data.draw(KINDS[kind]))
        for each in (text, sibling, data.draw(mutations(sibling))):
            assert _outcome(parse_select, each) == _outcome(_full, each), each

    NAMED = [
        # a number inside a word is no literal
        "SELECT * FROM t WHERE host01 = 'host01'",
        "SELECT * FROM t WHERE a.5 = 5",
        "SELECT a.5, b FROM t WHERE x = 1",
        # a literal a word runs on from, or one a second number runs on from
        "SELECT * FROM t WHERE a = 5abc",
        "SELECT * FROM t LIMIT 5abc",
        "SELECT * FROM t WHERE a = 1.5.3",
        "SELECT * FROM t WHERE a IN (1, 2.5.3)",
        "SELECT * FROM t LIMIT 1.5",
        # unterminated quotes
        "SELECT * FROM t WHERE a = 'abc",
        "SELECT * FROM t WHERE a = 'it''s",
        "SELECT * FROM t WHERE a = 'abc 5",
        "SELECT * FROM t WHERE a = 'x' AND b = 'y",
        # the markers' own forms in a text
        "SELECT * FROM t WHERE a = 1000000000000000",
        "SELECT * FROM t WHERE a = '\x000' AND b = 1000000000000001.5",
        "SELECT * FROM t WHERE a = 1 AND b = 1.0 LIMIT 1",
    ]

    @pytest.mark.parametrize("text", NAMED)
    def test_named_case(self, text):
        sibling = _relit(text, {"string": "'zz'", "integer": "42", "decimal": "4.25"}.get)
        for each in (text, sibling):
            assert _outcome(parse_select, each) == _outcome(_full, each), each

    @pytest.mark.parametrize("sentinel", ["", "s", "i", "f", "str", "int", "float", "0"])
    def test_a_raw_nul_is_not_a_lifted_literal(self, sentinel):
        """A ``\\x00`` outside literals is a syntax error, whichever shape
        with a literal in its place was filed first."""
        for literal in ("'x'", "7", "7.5"):
            parse_select(f"SELECT * FROM t WHERE a = {literal}")
            text = f"SELECT * FROM t WHERE a = \x00{sentinel}"
            assert _outcome(parse_select, text) == _outcome(_full, text)


# -- parse budget: counted Parser runs, no clock -------------------------------


def _adhoc_texts(rng: random.Random, count: int) -> list[str]:
    """*count* texts of six shapes, with random literals: the f-string
    templates a registry client fills in."""
    def text(kind):
        p, host = rng.randrange(4000), f"host{rng.randrange(64):02d}.example.org"
        if kind == 0:
            return f"SELECT id FROM Service WHERE name = 'Svc{p:04d}'"
        if kind == 1:
            return (
                f"SELECT id, name FROM Service WHERE name LIKE 'Svc{p % 100:03d}%' "
                f"ORDER BY name LIMIT {1 + p // 100}"
            )
        if kind == 2:
            return (
                "SELECT id, name FROM Service WHERE id IN (SELECT service FROM "
                f"ServiceBinding WHERE host = '{host}') AND name LIKE 'Svc{p:03d}%'"
            )
        if kind == 3:
            return f"SELECT id FROM Service WHERE name LIKE '%{p % 1000:03d}'"
        if kind == 4:
            return (
                f"SELECT COUNT(*) FROM ServiceBinding WHERE host = '{host}' "
                f"AND name LIKE 'Svc{p:03d}%'"
            )
        return f"SELECT * FROM Service WHERE name BETWEEN 'Svc{p:04d}' AND 'Svc{p + 39:04d}'"

    return [text(rng.randrange(6)) for _ in range(count)]


class TestParseBudget:
    def test_texts_of_six_shapes_run_the_parser_six_times(self, monkeypatch):
        """4 096 texts of six shapes run ``Parser`` once per shape; an error
        text runs it twice: its marked form, which files nothing, then the
        text itself for the error at its own position."""
        runs = []
        real = Parser.__init__
        monkeypatch.setattr(Parser, "__init__", lambda p, text: runs.append(text) or real(p, text))
        parser._rebuilder.cache_clear()
        texts = _adhoc_texts(random.Random(38), 4096)
        errors = [f"SELECT id FROM Service LIMIT {n}.5" for n in range(8)]
        errors += [f"SELECT id FROM Service WHERE name = 'Svc{n}" for n in range(8)]
        outcomes = [_outcome(parse_select, text) for text in texts + errors]
        assert len(runs) == 6 + 2 * len(errors)
        assert outcomes == [_outcome(_full, text) for text in texts + errors]
        assert [kind for kind, *_ in outcomes] == ["tree"] * len(texts) + [
            "QuerySyntaxError"
        ] * len(errors)
        parser._rebuilder.cache_clear()

    def test_a_repeated_text_is_parsed_once(self, monkeypatch):
        calls = []
        real = evaluator.parse_select
        monkeypatch.setattr(evaluator, "parse_select", lambda text: calls.append(text) or real(text))
        ids, store = IdFactory(38), DataStore()
        with store.transaction():
            for n in range(4):
                store.insert_object(Service(ids.new_id(), name=f"Svc{n:04d}"))
        engine = QueryEngine(store)
        texts = (
            "SELECT id FROM Service WHERE name LIKE 'Svc%'",  # kept in the result view
            "SELECT host FROM NodeState WHERE load < 1.5",  # answered from its plan
        )
        for text in texts:
            for _ in range(1000):
                engine.execute(text)
        assert calls == list(texts)
