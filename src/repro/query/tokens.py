"""Tokenizer for the SQL-92 subset accepted by the AdhocQuery engine.

freebXML's preferred AdhocQuery syntax is SQL-92 over the ebRIM virtual
tables (thesis §2.2.3).  This tokenizer covers the slice the registry
actually uses: SELECT statements with comparison/LIKE/IN/BETWEEN/NULL
predicates, boolean connectives, parentheses, and ORDER BY.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.util.errors import QuerySyntaxError

KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "LIKE",
    "IN",
    "IS",
    "NULL",
    "BETWEEN",
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "DISTINCT",
    "LIMIT",
    "COUNT",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    STAR = "*"
    DOT = "."
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word


#: a string and a number literal, shared with the parser's literal pass
STRING_PATTERN = r"'(?:[^']|'')*'"
NUMBER_PATTERN = r"\d+(?:\.\d+)?"

#: groups are named after their ``TokenType``; a word is a KEYWORD or an IDENT
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<STRING>{STRING_PATTERN})
  | (?P<NUMBER>{NUMBER_PATTERN})
  | (?P<OPERATOR><>|<=|>=|=|<|>)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<STAR>\*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)


def unquote(literal: str) -> str:
    """A string literal's value: quotes stripped, doubled quotes undone."""
    return literal[1:-1].replace("''", "'")


def tokenize(text: str) -> list[Token]:
    """Tokenize a query string, raising QuerySyntaxError on bad input."""
    tokens: list[Token] = []
    pos = 0
    length = len(text)
    while pos < length:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", position=pos
            )
        kind, value = match.lastgroup, match.group()
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, pos))
            else:
                tokens.append(Token(TokenType.IDENT, value, pos))
        elif kind == "STRING":
            tokens.append(Token(TokenType.STRING, unquote(value), pos))
        elif kind != "ws":
            tokens.append(Token(TokenType[kind], value, pos))
        pos = match.end()
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens
