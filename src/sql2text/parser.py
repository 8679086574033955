"""Parser for a restricted SQL dialect into a typed AST.

Supported shape::

    [SELECT] [COUNT|MAX|MIN|SUM|AVG] column[, column ...]
        [WHERE condition ((AND|OR) condition)* ...]

Conditions are ``column <cmp> value`` with comparators ``=  !=  <>  <  >
<=  >=`` (plus their unicode forms), combined with AND/OR/NOT and
parentheses.  Keywords are case-insensitive; identifiers are lowercased.
Multi-word column names go in double quotes, string values in single
quotes.  JOIN, ORDER BY and friends are deliberately rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

AGGREGATIONS = ("count", "max", "min", "sum", "avg")
COMPARATORS = ("=", "!=", "<", ">", "<=", ">=")

UNSUPPORTED_KEYWORDS = frozenset(
    {"from", "join", "order", "by", "group", "having", "limit", "inner", "outer", "left", "right", "on"}
)

_PLACEHOLDER_RE = re.compile(r"val_?(\d+)$", re.IGNORECASE)


class SqlParseError(ValueError):
    """Structured parse failure with byte offset and expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at byte {offset}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(detail)


class UnsupportedSyntaxError(SqlParseError):
    """Valid SQL outside the restricted dialect (JOIN, ORDER BY, ...)."""


@dataclass(frozen=True)
class ValueToken:
    kind: str  # "placeholder" | "literal"
    text: str


@dataclass(frozen=True)
class Condition:
    column: str
    comparator: str
    value: ValueToken


@dataclass(frozen=True)
class BoolOp:
    """Logical combinator: NOT has exactly one child, AND/OR two or more.

    Nested same-operator children are flattened at construction time, so
    an AND never sits directly under an AND.
    """

    op: str  # "and" | "or" | "not"
    children: tuple  # of Condition | BoolOp

    def __post_init__(self):
        if self.op == "not" and len(self.children) != 1:
            raise ValueError("NOT takes exactly one operand")
        if self.op in ("and", "or") and len(self.children) < 2:
            raise ValueError(f"{self.op.upper()} takes at least two operands")


LogicExpr = Union[Condition, BoolOp]


@dataclass(frozen=True)
class SqlQuery:
    aggregation: Optional[str]
    select_columns: tuple[str, ...]
    where: Optional[LogicExpr]

    def __post_init__(self):
        if not self.select_columns:
            raise ValueError("select_columns must be non-empty")


def conditions_in_order(expr: Optional[LogicExpr]) -> list[Condition]:
    """All condition leaves, left to right."""
    if expr is None:
        return []
    if isinstance(expr, Condition):
        return [expr]
    out: list[Condition] = []
    for child in expr.children:
        out.extend(conditions_in_order(child))
    return out


def flatten(op: str, children: Iterable[LogicExpr]) -> LogicExpr:
    """Combine children under AND/OR, merging same-operator children."""
    flat: list[LogicExpr] = []
    for child in children:
        if isinstance(child, BoolOp) and child.op == op:
            flat.extend(child.children)
        else:
            flat.append(child)
    if len(flat) == 1:
        return flat[0]
    return BoolOp(op, tuple(flat))


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<cmp><=|>=|<>|!=|=|<|>|≠|≤|≥)
  | (?P<comma>,)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<dquote>"(?:[^"\\]|\\.)*")
  | (?P<squote>'(?:[^'\\]|\\.)*')
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)

_CMP_CANONICAL = {"<>": "!=", "≠": "!=", "≤": "<=", "≥": ">="}

_KEYWORDS = frozenset({"select", "where", "and", "or", "not", *AGGREGATIONS})


@dataclass(frozen=True)
class _Token:
    kind: str  # keyword | ident | number | string | cmp | comma | lparen | rparen | eof
    text: str
    offset: int  # byte offset into the utf-8 encoding of the input


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SqlParseError(
                f"unexpected character {text[pos]!r}", _byte_offset(text, pos)
            )
        offset = _byte_offset(text, pos)
        if m.lastgroup == "ws":
            pass
        elif m.lastgroup == "cmp":
            raw = m.group()
            tokens.append(_Token("cmp", _CMP_CANONICAL.get(raw, raw), offset))
        elif m.lastgroup == "comma":
            tokens.append(_Token("comma", ",", offset))
        elif m.lastgroup == "lparen":
            tokens.append(_Token("lparen", "(", offset))
        elif m.lastgroup == "rparen":
            tokens.append(_Token("rparen", ")", offset))
        elif m.lastgroup == "dquote":
            inner = m.group()[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            tokens.append(_Token("ident", inner.lower(), offset))
        elif m.lastgroup == "squote":
            inner = m.group()[1:-1].replace("\\'", "'").replace("\\\\", "\\")
            tokens.append(_Token("string", inner.lower(), offset))
        elif m.lastgroup == "number":
            tokens.append(_Token("number", m.group(), offset))
        else:
            word = m.group().lower()
            if word in _KEYWORDS:
                tokens.append(_Token("keyword", word, offset))
            elif word in UNSUPPORTED_KEYWORDS:
                raise UnsupportedSyntaxError(
                    f"unsupported syntax: {word.upper()} is outside the dialect", offset
                )
            else:
                tokens.append(_Token("ident", word, offset))
        pos = m.end()
    tokens.append(_Token("eof", "", _byte_offset(text, len(text))))
    return tokens


# --- recursive-descent parser ----------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> None:
        raise SqlParseError(message, self.peek().offset, expected)

    def query(self) -> SqlQuery:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "select":
            self.advance()
        elif not (tok.kind == "keyword" and tok.text in AGGREGATIONS):
            self.fail(
                f"expected SELECT, found {tok.text or 'end of input'!r}", ("SELECT",)
            )
        aggregation = None
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in AGGREGATIONS:
            aggregation = tok.text
            self.advance()
        columns = self.select_list()
        where = None
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "where":
            self.advance()
            where = self.or_expr()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"trailing input {tok.text!r}", ("end of input",))
        return SqlQuery(aggregation, tuple(columns), where)

    def select_list(self) -> list[str]:
        # An aggregation may wrap its columns in parentheses: COUNT(player).
        parenthesized = False
        if self.peek().kind == "lparen":
            parenthesized = True
            self.advance()
        columns = [self.column_name()]
        while self.peek().kind == "comma":
            self.advance()
            columns.append(self.column_name())
        if parenthesized:
            if self.peek().kind != "rparen":
                self.fail("unbalanced parentheses in select list", (")",))
            self.advance()
        return columns

    def column_name(self) -> str:
        tok = self.peek()
        if tok.kind not in ("ident", "number"):
            self.fail(
                f"expected a column name, found {tok.text or 'end of input'!r}",
                ("column name",),
            )
        self.advance()
        name = tok.text.strip()
        if not name:
            self.fail("empty column name", ("column name",))
        return name

    def or_expr(self) -> LogicExpr:
        terms = [self.and_expr()]
        while self.peek().kind == "keyword" and self.peek().text == "or":
            self.advance()
            terms.append(self.and_expr())
        return flatten("or", terms)

    def and_expr(self) -> LogicExpr:
        terms = [self.not_expr()]
        while self.peek().kind == "keyword" and self.peek().text == "and":
            self.advance()
            terms.append(self.not_expr())
        return flatten("and", terms)

    def not_expr(self) -> LogicExpr:
        if self.peek().kind == "keyword" and self.peek().text == "not":
            self.advance()
            return BoolOp("not", (self.not_expr(),))
        return self.primary()

    def primary(self) -> LogicExpr:
        if self.peek().kind == "lparen":
            self.advance()
            inner = self.or_expr()
            if self.peek().kind != "rparen":
                self.fail("unbalanced parentheses", (")",))
            self.advance()
            return inner
        return self.condition()

    def condition(self) -> Condition:
        column = self.column_name()
        tok = self.peek()
        if tok.kind != "cmp":
            self.fail(
                f"expected a comparator after {column!r}", COMPARATORS
            )
        comparator = self.advance().text
        tok = self.peek()
        if tok.kind in ("ident", "number", "string"):
            self.advance()
            return Condition(column, comparator, _value_token(tok))
        self.fail("dangling comparator: expected a value", ("value",))
        raise AssertionError("unreachable")


def _value_token(tok: _Token) -> ValueToken:
    if tok.kind == "ident":
        m = _PLACEHOLDER_RE.match(tok.text)
        if m:
            return ValueToken("placeholder", f"val_{int(m.group(1))}")
    return ValueToken("literal", tok.text)


def _anonymize(query: SqlQuery) -> SqlQuery:
    """Replace distinct literal values with placeholders val_0, val_1, ...

    Identical literals share a placeholder; fresh indices continue after
    the highest placeholder already present in the query.
    """
    existing = [
        int(c.value.text.split("_")[1])
        for c in conditions_in_order(query.where)
        if c.value.kind == "placeholder"
    ]
    next_index = max(existing) + 1 if existing else 0
    mapping: dict[str, str] = {}

    def rewrite(expr: LogicExpr) -> LogicExpr:
        nonlocal next_index
        if isinstance(expr, Condition):
            if expr.value.kind == "literal":
                if expr.value.text not in mapping:
                    mapping[expr.value.text] = f"val_{next_index}"
                    next_index += 1
                return Condition(
                    expr.column,
                    expr.comparator,
                    ValueToken("placeholder", mapping[expr.value.text]),
                )
            return expr
        return BoolOp(expr.op, tuple(rewrite(c) for c in expr.children))

    where = rewrite(query.where) if query.where is not None else None
    return SqlQuery(query.aggregation, query.select_columns, where)


def parse(sql_text: str, anonymize: bool = False) -> SqlQuery:
    """Parse one query in the restricted dialect.

    Raises SqlParseError (with byte offset and the expected-token set) on
    malformed input and UnsupportedSyntaxError on syntax outside the
    dialect.  With ``anonymize`` set, distinct literal values become
    val_0, val_1, ... in first-occurrence order.
    """
    query = _Parser(_tokenize(sql_text)).query()
    if anonymize:
        query = _anonymize(query)
    return query


# --- rendering ---------------------------------------------------------------

_BARE_RE = re.compile(r"^[a-z_][a-z0-9_.]*\Z|^-?\d+(?:\.\d+)?\Z")
_RESERVED = _KEYWORDS | UNSUPPORTED_KEYWORDS


def _render_column(name: str) -> str:
    if _BARE_RE.match(name) and name not in _RESERVED:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _render_value(value: ValueToken) -> str:
    if value.kind == "placeholder":
        return value.text
    # Bare text must not re-parse as a keyword or as a placeholder.
    if _BARE_RE.match(value.text) and value.text not in _RESERVED and not _PLACEHOLDER_RE.match(value.text):
        return value.text
    escaped = value.text.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _render_expr(expr: LogicExpr, parenthesize: bool = False) -> str:
    if isinstance(expr, Condition):
        return f"{_render_column(expr.column)} {expr.comparator} {_render_value(expr.value)}"
    if expr.op == "not":
        return f"not ({_render_expr(expr.children[0])})"
    joined = f" {expr.op} ".join(
        _render_expr(c, parenthesize=True) for c in expr.children
    )
    return f"({joined})" if parenthesize else joined


def render(query: SqlQuery) -> str:
    """Canonical text such that parse(render(q)) equals q structurally."""
    parts = ["select"]
    if query.aggregation:
        parts.append(query.aggregation)
    parts.append(", ".join(_render_column(c) for c in query.select_columns))
    if query.where is not None:
        parts.append("where")
        parts.append(_render_expr(query.where))
    return " ".join(parts)
