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

The tokenizer is one regex pass giving each token's kind and text; only a
``SqlParseError`` scans again for its token's byte offset in the UTF-8 input.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NoReturn, Optional, Union

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

# One match per token: leading whitespace, then a token in group 1 (empty
# only at the end of the input) or, in group 2, a character that starts no
# token.  The token alternatives start on distinct characters, the common
# kinds first.  Quoted text is unrolled, a run of plain characters after
# each escape, so that the engine does not branch on every character.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        ( [A-Za-z_][A-Za-z0-9_.]* | "[^"\\]*(?:\\.[^"\\]*)*" | <=|>=|<>|!=|[=<>≠≤≥]
        | '[^'\\]*(?:\\.[^'\\]*)*' | -?\d+(?:\.\d+)? | [,()] | \Z )
      | (.)
    )
    """,
    re.VERBOSE,
)

# A group-1 token's kind by its first character; any other first character
# is a non-ASCII decimal digit, which starts a number.
_KIND_BY_FIRST = {
    **dict.fromkeys(string.ascii_letters + "_", "word"), **dict.fromkeys("<>=!≠≤≥", "cmp"),
    **dict.fromkeys("-" + string.digits, "number"), '"': "ident", "'": "string",
    ",": "comma", "(": "lparen", ")": "rparen", "": "eof",
}

_CMP_CANONICAL = {"<>": "!=", "≠": "!=", "≤": "<=", "≥": ">="}

# A word's kind: each keyword is its own kind, so that the parser tests a
# token with one comparison; other words are identifiers.
_WORD_KINDS = {
    **{k: k for k in ("select", "where", "and", "or", "not")},
    **dict.fromkeys(AGGREGATIONS, "aggregation"),
    **dict.fromkeys(UNSUPPORTED_KEYWORDS, "unsupported"),
}


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of the tokens of ``text``, ending with ``eof``."""
    kinds: list[str] = []
    texts: list[str] = []
    for value, bad in _TOKEN_RE.findall(text):
        if bad:
            raise SqlParseError(f"unexpected character {bad!r}", _offset(text, len(kinds)))
        kind = _KIND_BY_FIRST.get(value[:1], "number")
        if kind == "word":
            value = value.lower()
            kind = _WORD_KINDS.get(value, "ident")
            if kind == "unsupported":
                message = f"unsupported syntax: {value.upper()} is outside the dialect"
                raise UnsupportedSyntaxError(message, _offset(text, len(kinds)))
        elif kind == "ident" or kind == "string":
            quote = value[0]
            value = value[1:-1].replace("\\" + quote, quote).replace("\\\\", "\\").lower()
        elif kind == "cmp":
            value = _CMP_CANONICAL.get(value, value)
        kinds.append(kind)
        texts.append(value)
        if kind == "eof":
            break
    return kinds, texts


def _offset(text: str, index: int) -> int:
    """Offset in bytes of UTF-8 of token ``index`` of ``text``, where a lone
    surrogate, which strict UTF-8 cannot encode, counts as 3 bytes.  Only
    errors need an offset, so tokens record none: an error scans again."""
    m = next(islice(_TOKEN_RE.finditer(text), index, None))
    return len(text[: m.start(m.lastindex)].encode("utf-8", "surrogatepass"))


# --- recursive-descent parser ----------------------------------------------

# Deepest nesting accepted, of parentheses in the text and of logical operators
# in the AST: the parser and each walk over the AST recurse once per level.
_MAX_DEPTH = 100
_TOO_DEEP = f"query nested deeper than {_MAX_DEPTH} levels"


class _Parser:
    """Descent over the token kinds and texts; ``i`` is the next token."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.i = 0
        self.parens = 0

    def accept(self, kind: str) -> Optional[str]:
        """Consume the next token if it has this kind and return its text."""
        i = self.i
        if self.kinds[i] == kind:
            self.i = i + 1
            return self.texts[i]
        return None

    def fail(self, message: str, expected: tuple[str, ...] = (), at: Optional[int] = None) -> NoReturn:
        """Raise at token index ``at``, by default at the next token."""
        raise SqlParseError(message, _offset(self.text, self.i if at is None else at), expected)

    def query(self) -> SqlQuery:
        select = self.accept("select")
        aggregation = self.accept("aggregation")
        if not (select or aggregation):
            self.fail(f"expected SELECT, found {self.texts[self.i] or 'end of input'!r}", ("SELECT",))
        columns = self.select_list()
        where = self.logic("or")[0] if self.accept("where") else None
        if self.kinds[self.i] != "eof":
            self.fail(f"trailing input {self.texts[self.i]!r}", ("end of input",))
        return SqlQuery(aggregation, tuple(columns), where)

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
        i = self.i
        if self.kinds[i] not in ("ident", "number"):
            found = self.texts[i] or "end of input"
            self.fail(f"expected a column name, found {found!r}", ("column name",))
        self.i = i + 1
        name = self.texts[i].strip()
        if not name:
            self.fail("empty column name", ("column name",))
        return name

    def logic(self, op: str) -> tuple[LogicExpr, int]:
        """An OR of AND terms (op "or") or an AND of NOT terms (op "and"), and,
        as from not_expr, its operator depth (0 for a condition)."""
        term = (lambda: self.logic("and")) if op == "or" else self.not_expr
        terms = [term()]
        at = self.i  # the first operator, where a query too deep fails
        while self.accept(op):
            terms.append(term())
        if len(terms) == 1:
            return terms[0]
        # flatten() lifts the children of a same-operator term one level up.
        depth = 0
        for expr, d in terms:
            d += not (isinstance(expr, BoolOp) and expr.op == op)
            depth = d if d > depth else depth
        if depth > _MAX_DEPTH:
            self.fail(_TOO_DEEP, at=at)
        return flatten(op, [expr for expr, _ in terms]), depth

    def not_expr(self) -> tuple[LogicExpr, int]:
        """A condition or a parenthesized OR under any NOTs, and its depth."""
        kinds, first_not = self.kinds, self.i
        while kinds[self.i] == "not":
            self.i += 1
        nots = self.i
        if kinds[nots] != "lparen":
            expr, depth = self.condition(), 0
        else:
            self.parens += 1
            if self.parens > _MAX_DEPTH:
                self.fail(_TOO_DEEP)
            self.i += 1
            expr, depth = self.logic("or")
            if not self.accept("rparen"):
                self.fail("unbalanced parentheses", (")",))
            self.parens -= 1
        while nots > first_not:  # the NOT tokens, innermost first
            nots -= 1
            depth += 1
            if depth > _MAX_DEPTH:
                self.fail(_TOO_DEEP, at=nots)
            expr = BoolOp("not", (expr,))
        return expr, depth

    def condition(self) -> Condition:
        column = self.column_name()
        kinds, texts, i = self.kinds, self.texts, self.i
        if kinds[i] != "cmp":
            self.fail(f"expected a comparator after {column!r}", COMPARATORS)
        kind, text = kinds[i + 1], texts[i + 1]
        if kind not in ("ident", "number", "string"):
            self.i = i + 1
            self.fail("dangling comparator: expected a value", ("value",))
        self.i = i + 2
        m = kind == "ident" and _PLACEHOLDER_RE.match(text)
        value = ValueToken("placeholder", f"val_{int(m.group(1))}") if m else ValueToken("literal", text)
        return Condition(column, texts[i], value)


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
