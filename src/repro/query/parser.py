"""Recursive-descent parser for the SQL-92 subset.

Grammar::

    select   := SELECT [DISTINCT] cols FROM ident [alias] [WHERE pred]
                [ORDER BY order (, order)*] [LIMIT integer]
    cols     := '*' | ident (, ident)*
    pred     := term (OR term)*
    term     := factor (AND factor)*
    factor   := NOT factor | '(' pred ')' | condition
    condition:= expr op expr
              | column [NOT] LIKE string
              | column [NOT] IN '(' literal (, literal)* ')'
              | column [NOT] BETWEEN expr AND expr
              | column IS [NOT] NULL
    expr     := column | literal

Column references may be qualified (``s.name``); the qualifier is dropped
because the engine is single-table (freebXML's common queries are too).
"""

from __future__ import annotations

import re
from dataclasses import is_dataclass
from functools import lru_cache
from operator import itemgetter

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
    Literal,
    Not,
    Or,
    OrderTerm,
    Predicate,
    Select,
)
from repro.query.tokens import (
    NUMBER_PATTERN,
    STRING_PATTERN,
    Token,
    TokenType,
    tokenize,
    unquote,
)
from repro.util.errors import QuerySyntaxError


class Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise QuerySyntaxError(
                f"expected {word}, got {self.current.value!r}",
                position=self.current.position,
            )
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect(self, token_type: TokenType) -> Token:
        if self.current.type is not token_type:
            raise QuerySyntaxError(
                f"expected {token_type.value}, got {self.current.value!r}",
                position=self.current.position,
            )
        return self.advance()

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Select:
        select = self.parse_body()
        if self.current.type is not TokenType.EOF:
            raise QuerySyntaxError(
                f"unexpected trailing input: {self.current.value!r}",
                position=self.current.position,
            )
        return select

    def parse_body(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        count = False
        columns: tuple[str, ...] | None = None
        if self.current.is_keyword("COUNT"):
            self.advance()
            self.expect(TokenType.LPAREN)
            self.expect(TokenType.STAR)
            self.expect(TokenType.RPAREN)
            count = True
        else:
            columns = self._parse_columns()
        self.expect_keyword("FROM")
        table = self.expect(TokenType.IDENT).value
        # optional single-letter alias, common in freebXML examples (FROM Service s)
        if self.current.type is TokenType.IDENT:
            self.advance()
        where = None
        if self.accept_keyword("WHERE"):
            where = self._parse_predicate()
        order_by: list[OrderTerm] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_term())
            while self.current.type is TokenType.COMMA:
                self.advance()
                order_by.append(self._parse_order_term())
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.expect(TokenType.NUMBER)
            if "." in token.value:
                raise QuerySyntaxError(
                    f"LIMIT needs an integer, got {token.value!r}",
                    position=token.position,
                )
            limit = int(token.value)
        return Select(
            table=table,
            columns=columns,
            where=where,
            order_by=tuple(order_by),
            distinct=distinct,
            limit=limit,
            count=count,
        )

    def _parse_columns(self) -> tuple[str, ...] | None:
        if self.current.type is TokenType.STAR:
            self.advance()
            return None
        names = [self._parse_column().name]
        while self.current.type is TokenType.COMMA:
            self.advance()
            names.append(self._parse_column().name)
        return tuple(names)

    def _parse_column(self) -> Column:
        token = self.expect(TokenType.IDENT)
        # drop alias qualifier: s.name -> name
        name = token.value.rsplit(".", 1)[-1]
        return Column(name)

    def _parse_order_term(self) -> OrderTerm:
        column = self._parse_column()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderTerm(column=column, descending=descending)

    def _parse_predicate(self) -> Predicate:
        left = self._parse_term()
        while self.current.is_keyword("OR"):
            self.advance()
            left = Or(left, self._parse_term())
        return left

    def _parse_term(self) -> Predicate:
        left = self._parse_factor()
        while self.current.is_keyword("AND"):
            self.advance()
            left = And(left, self._parse_factor())
        return left

    def _parse_factor(self) -> Predicate:
        if self.accept_keyword("NOT"):
            return Not(self._parse_factor())
        if self.current.type is TokenType.LPAREN:
            self.advance()
            inner = self._parse_predicate()
            self.expect(TokenType.RPAREN)
            return inner
        return self._parse_condition()

    def _parse_condition(self) -> Predicate:
        left = self._parse_expr()
        negated = self.accept_keyword("NOT")
        if self.current.is_keyword("LIKE"):
            self.advance()
            if not isinstance(left, Column):
                raise QuerySyntaxError("LIKE requires a column on the left")
            pattern = self.expect(TokenType.STRING).value
            return Like(column=left, pattern=pattern, negated=negated)
        if self.current.is_keyword("IN"):
            self.advance()
            if not isinstance(left, Column):
                raise QuerySyntaxError("IN requires a column on the left")
            self.expect(TokenType.LPAREN)
            if self.current.is_keyword("SELECT"):
                subquery = self.parse_body()
                self.expect(TokenType.RPAREN)
                if subquery.count or subquery.columns is None or len(subquery.columns) != 1:
                    raise QuerySyntaxError(
                        "IN subquery must project exactly one column"
                    )
                return InSubquery(column=left, subquery=subquery, negated=negated)
            values = [self._parse_literal().value]
            while self.current.type is TokenType.COMMA:
                self.advance()
                values.append(self._parse_literal().value)
            self.expect(TokenType.RPAREN)
            return InList(column=left, values=tuple(values), negated=negated)
        if self.current.is_keyword("BETWEEN"):
            self.advance()
            if not isinstance(left, Column):
                raise QuerySyntaxError("BETWEEN requires a column on the left")
            low = self._parse_expr()
            self.expect_keyword("AND")
            high = self._parse_expr()
            return Between(column=left, low=low, high=high, negated=negated)
        if negated:
            raise QuerySyntaxError(
                "NOT must precede LIKE / IN / BETWEEN",
                position=self.current.position,
            )
        if self.current.is_keyword("IS"):
            self.advance()
            is_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            if not isinstance(left, Column):
                raise QuerySyntaxError("IS NULL requires a column on the left")
            return IsNull(column=left, negated=is_negated)
        if self.current.type is TokenType.OPERATOR:
            op = self.advance().value
            right = self._parse_expr()
            return Comparison(op=op, left=left, right=right)
        raise QuerySyntaxError(
            f"expected a condition, got {self.current.value!r}",
            position=self.current.position,
        )

    def _parse_expr(self) -> Expr:
        if self.current.type is TokenType.IDENT:
            return self._parse_column()
        return self._parse_literal()

    def _parse_literal(self) -> Literal:
        token = self.current
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.type is TokenType.NUMBER:
            self.advance()
            return Literal(_number(token.value))
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(None)
        raise QuerySyntaxError(
            f"expected a literal, got {token.value!r}", position=token.position
        )


def _number(text: str) -> float | int:
    return float(text) if "." in text else int(text)


#: a text's literals in one pass: a string, or a number that starts a token
#: (none after a word character or ``.``: ``host01`` and ``a.5`` are words)
_LITERAL_RE = re.compile(
    rf"(?=['\d])(?:({STRING_PATTERN})|(?<![\w.])({NUMBER_PATTERN}))"
)
#: the first number marker (the n-th literal's is _MARK + n, or + n + 0.5)
_MARK = 10**15


def parse_select(text: str) -> Select:
    """Parse a SELECT statement (the module's public entry point).

    The text's string and number literals are lifted out in one regex pass;
    what is left, with each literal's kind, is the statement's *shape*.
    :class:`Parser` runs once per shape, on the text with every literal
    swapped for a marker of its kind, and each text of the shape gets that
    tree rebuilt around its own literals.  A text whose marked form does not
    parse files nothing and goes to :class:`Parser` itself, which stays the
    one grammar and reports every error at the text's own position.
    """
    parts = _LITERAL_RE.split(text)
    values = [
        unquote(string) if string is not None else _number(number)
        for string, number in zip(parts[1::3], parts[2::3])
    ]
    try:
        rebuild = _rebuilder(tuple(parts[::3]), tuple(map(type, values)))
    except QuerySyntaxError:
        return Parser(text).parse()
    return rebuild(values)


@lru_cache(maxsize=512)
def _rebuilder(segments: tuple[str, ...], kinds: tuple[type, ...]):
    """values → the ``Select`` of one shape: the text between the literals
    (*segments*) and each literal's kind (``str``, ``int`` or ``float``).

    Builds only the nodes on a path to a marker and shares the rest (AST
    nodes are frozen).  A marker is matched by kind and value, so ``True``
    is never taken for ``1``; one not found exactly once files nothing.
    """
    texts, markers = [segments[0]], {}
    for index, (kind, segment) in enumerate(zip(kinds, segments[1:])):
        value = {str: f"\x00{index}", int: _MARK + index, float: _MARK + index + 0.5}[kind]
        markers[kind, value] = index
        texts += (f"'{value}'" if kind is str else str(value), segment)
    tree = Parser("".join(texts)).parse()
    found: list[int] = []
    build = _compile(tree, markers, found)
    if sorted(found) != list(range(len(kinds))):
        raise QuerySyntaxError("a literal marker collides with the statement")
    return build or (lambda values: tree)


def _compile(node, markers: dict, found: list[int]):
    """values → *node* with its markers replaced, or ``None`` when no marker
    is under *node* (then it is shared as it is)."""
    kind = type(node)
    if kind is not tuple and not is_dataclass(kind):
        index = markers.get((kind, node))
        if index is not None:
            found.append(index)
            return itemgetter(index)
        return None
    items = dict(enumerate(node)) if kind is tuple else vars(node)
    slots = [
        (key, part) for key, item in items.items()
        if (part := _compile(item, markers, found)) is not None
    ]  # fmt: skip
    if not slots:
        return None

    def build(values):
        state = items.copy()
        for key, part in slots:
            state[key] = part(values)
        if kind is tuple:
            return tuple(state.values())
        # a shallow copy with the marked fields replaced, as copy.copy makes
        fresh = object.__new__(kind)
        fresh.__dict__.update(state)
        return fresh

    return build
