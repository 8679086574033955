"""Parser for a restricted SQL dialect into a typed AST.

Supported shape::

    [SELECT] [COUNT|MAX|MIN|SUM|AVG] column[, column ...]
        [WHERE condition ((AND|OR) condition)* ...]

Conditions are ``column <cmp> value`` with comparators ``=  !=  <>  <  >
<=  >=`` (plus their unicode forms), combined with AND/OR/NOT and
parentheses, nested at most ``_MAX_DEPTH`` levels deep.  Keywords are
case-insensitive; identifiers are lowercased.  Multi-word column names go
in double quotes, string values in single quotes.  JOIN, ORDER BY and
friends are deliberately rejected.

The tokenizer is one regex pass that records character offsets; only a
``SqlParseError`` converts its offset to bytes of the UTF-8 input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple, NoReturn, Optional, Union

AGGREGATIONS = ("count", "max", "min", "sum", "avg")
COMPARATORS = ("=", "!=", "<", ">", "<=", ">=")

UNSUPPORTED_KEYWORDS = frozenset(
    {"from", "join", "order", "by", "group", "having", "limit", "inner", "outer", "left", "right", "on"}
)

_PLACEHOLDER_RE = re.compile(r"val_?(\d+)\Z", re.IGNORECASE)


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

# One match per token: leading whitespace, then exactly one named group.
# ``eof`` matches only at the end of the input and ``bad`` any character
# that starts no token.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<cmp><=|>=|<>|!=|=|<|>|≠|≤|≥)
      | (?P<comma>,)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<ident>"(?:[^"\\]|\\.)*")
      | (?P<string>'(?:[^'\\]|\\.)*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

_CMP_CANONICAL = {"<>": "!=", "≠": "!=", "≤": "<=", "≥": ">="}

_WORD_KINDS = {
    **dict.fromkeys(("select", "where", "and", "or", "not"), "keyword"),
    **dict.fromkeys(AGGREGATIONS, "aggregation"),
    **dict.fromkeys(UNSUPPORTED_KEYWORDS, "unsupported"),
}


class _Token(NamedTuple):
    kind: str  # a group name of _TOKEN_RE, or a _WORD_KINDS value for a word
    text: str
    pos: int  # character offset into the input


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value, pos = m.group(kind), m.start(kind)
        if kind == "cmp":
            value = _CMP_CANONICAL.get(value, value)
        elif kind == "ident" or kind == "string":
            quote = value[0]
            value = value[1:-1].replace("\\" + quote, quote).replace("\\\\", "\\").lower()
        elif kind == "word":
            value = value.lower()
            kind = _WORD_KINDS.get(value, "ident")
            if kind == "unsupported":
                raise UnsupportedSyntaxError(
                    f"unsupported syntax: {value.upper()} is outside the dialect",
                    _byte_offset(text, pos),
                )
        elif kind == "bad":
            raise SqlParseError(f"unexpected character {value!r}", _byte_offset(text, pos))
        tokens.append(_Token(kind, value, pos))
        if kind == "eof":
            break
    return tokens


# --- recursive-descent parser ----------------------------------------------

# Deepest nesting accepted, of parentheses in the text and of logical operators
# in the AST: the parser and each walk over the AST recurse once per level.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.parens = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        """Consume and return the next token if it has this kind (and text)."""
        tok = self.tokens[self.i]
        if tok.kind == kind and (text is None or tok.text == text):
            self.i += 1
            return tok
        return None

    def fail(
        self, message: str, expected: tuple[str, ...] = (), at: Optional[_Token] = None
    ) -> NoReturn:
        """Raise at token ``at``, by default at the next token."""
        pos = (at or self.peek()).pos
        raise SqlParseError(message, _byte_offset(self.text, pos), expected)

    def query(self) -> SqlQuery:
        select = self.accept("keyword", "select")
        aggregation = self.accept("aggregation")
        if not (select or aggregation):
            self.fail(f"expected SELECT, found {self.peek().text or 'end of input'!r}", ("SELECT",))
        columns = self.select_list()
        where = self.logic("or")[0] if self.accept("keyword", "where") else None
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}", ("end of input",))
        return SqlQuery(aggregation and aggregation.text, tuple(columns), where)

    def select_list(self) -> list[str]:
        # An aggregation may wrap its columns in parentheses: COUNT(player).
        parenthesized = self.accept("lparen")
        columns = [self.column_name()]
        while self.accept("comma"):
            columns.append(self.column_name())
        if parenthesized and not self.accept("rparen"):
            self.fail("unbalanced parentheses in select list", (")",))
        return columns

    def column_name(self) -> str:
        tok = self.accept("ident") or self.accept("number")
        if tok is None:
            found = self.peek().text or "end of input"
            self.fail(f"expected a column name, found {found!r}", ("column name",))
        name = tok.text.strip()
        if not name:
            self.fail("empty column name", ("column name",))
        return name

    def check_depth(self, depth: int, tok: _Token) -> None:
        if depth > _MAX_DEPTH:
            self.fail(f"query nested deeper than {_MAX_DEPTH} levels", at=tok)

    def logic(self, op: str) -> tuple[LogicExpr, int]:
        """An OR of AND terms (op "or") or an AND of NOT terms (op "and"), and,
        as from not_expr and primary, its operator depth (0 for a condition)."""
        term = partial(self.logic, "and") if op == "or" else self.not_expr
        terms, ops = [term()], []
        while tok := self.accept("keyword", op):
            ops.append(tok)
            terms.append(term())
        if not ops:
            return terms[0]
        # flatten() lifts the children of a same-operator term one level up.
        depth = max(d if isinstance(e, BoolOp) and e.op == op else d + 1 for e, d in terms)
        self.check_depth(depth, ops[0])
        return flatten(op, [e for e, _ in terms]), depth

    def not_expr(self) -> tuple[LogicExpr, int]:
        nots = []
        while tok := self.accept("keyword", "not"):
            nots.append(tok)
        expr, depth = self.primary()
        for tok in reversed(nots):
            depth += 1
            self.check_depth(depth, tok)
            expr = BoolOp("not", (expr,))
        return expr, depth

    def primary(self) -> tuple[LogicExpr, int]:
        tok = self.accept("lparen")
        if tok is None:
            return self.condition(), 0
        self.parens += 1
        self.check_depth(self.parens, tok)
        inner = self.logic("or")
        if not self.accept("rparen"):
            self.fail("unbalanced parentheses", (")",))
        self.parens -= 1
        return inner

    def condition(self) -> Condition:
        column = self.column_name()
        comparator = self.accept("cmp")
        if comparator is None:
            self.fail(f"expected a comparator after {column!r}", COMPARATORS)
        tok = self.accept("ident") or self.accept("number") or self.accept("string")
        if tok is None:
            self.fail("dangling comparator: expected a value", ("value",))
        return Condition(column, comparator.text, _value_token(tok))


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
    query = _Parser(sql_text).query()
    if anonymize:
        query = _anonymize(query)
    return query


# --- rendering ---------------------------------------------------------------

_BARE_RE = re.compile(r"^[a-z_][a-z0-9_.]*\Z|^-?\d+(?:\.\d+)?\Z")
_RESERVED = frozenset(_WORD_KINDS)


def _escape(text: str, quote: str) -> str:
    """Text to go between two ``quote`` characters: backslashes doubled,
    quotes backslash-escaped."""
    return text.replace("\\", "\\\\").replace(quote, "\\" + quote)


def _render_column(name: str) -> str:
    if _BARE_RE.match(name) and name not in _RESERVED:
        return name
    return '"' + _escape(name, '"') + '"'


def _render_value(value: ValueToken) -> str:
    if value.kind == "placeholder":
        return value.text
    # Bare text must not re-parse as a keyword or as a placeholder.
    if _BARE_RE.match(value.text) and value.text not in _RESERVED and not _PLACEHOLDER_RE.match(value.text):
        return value.text
    return "'" + _escape(value.text, "'") + "'"


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
