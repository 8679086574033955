import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sql2text.graphs import build_graph, template_interpret
from sql2text.parser import (
    _MAX_DEPTH,
    AGGREGATIONS,
    UNSUPPORTED_KEYWORDS,
    BoolOp,
    Condition,
    SqlParseError,
    SqlQuery,
    UnsupportedSyntaxError,
    ValueToken,
    _offset,
    _tokenize,
    conditions_in_order,
    flatten,
    parse,
    render,
)

EXAMPLE_QUERY = (
    "SELECT company WHERE assets > val0 AND sales > val0 "
    "AND industry <= val1 AND profits = val2"
)


class TestParse:
    def test_example_query(self):
        q = parse(EXAMPLE_QUERY)
        assert q.aggregation is None
        assert q.select_columns == ("company",)
        assert isinstance(q.where, BoolOp) and q.where.op == "and"
        assert len(q.where.children) == 4
        assert q.where.children[0] == Condition(
            "assets", ">", ValueToken("placeholder", "val_0")
        )

    def test_count_query(self):
        q = parse("SELECT COUNT Player WHERE starter = val0 AND touchdowns = val1 AND position = val2")
        assert q.aggregation == "count"
        assert q.select_columns == ("player",)
        assert len(q.where.children) == 3

    def test_aggregation_without_select_keyword(self):
        q = parse("COUNT Player WHERE starter = val0")
        assert q.aggregation == "count"
        assert q.select_columns == ("player",)

    def test_aggregation_with_parens(self):
        q = parse("SELECT COUNT(player)")
        assert q.aggregation == "count"
        assert q.select_columns == ("player",)

    def test_minimal_query(self):
        q = parse("SELECT name")
        assert q == SqlQuery(None, ("name",), None)

    def test_empty_select_list_is_error(self):
        with pytest.raises(SqlParseError):
            parse("SELECT WHERE a = 1")

    def test_multiple_columns(self):
        q = parse("SELECT a, b, c")
        assert q.select_columns == ("a", "b", "c")

    def test_quoted_multiword_column(self):
        q = parse('SELECT "gross assets" WHERE "net income" > val0')
        assert q.select_columns == ("gross assets",)
        assert q.where.column == "net income"

    @pytest.mark.parametrize(
        "surface,canonical",
        [("=", "="), ("!=", "!="), ("<>", "!="), ("<", "<"), (">", ">"),
         ("<=", "<="), (">=", ">="), ("≠", "!="), ("≤", "<="), ("≥", ">=")],
    )
    def test_comparator_surface_forms(self, surface, canonical):
        q = parse(f"SELECT a WHERE b {surface} 5")
        assert q.where.comparator == canonical

    def test_keywords_case_insensitive(self):
        q = parse("select Name where Age > val0 and City = val1")
        assert q.select_columns == ("name",)
        assert q.where.op == "and"

    def test_operator_precedence_not_and_or(self):
        q = parse("SELECT a WHERE NOT b = 1 AND c = 2 OR d = 3")
        assert q.where.op == "or"
        left = q.where.children[0]
        assert left.op == "and"
        assert left.children[0].op == "not"

    def test_parentheses_group(self):
        q = parse("SELECT a WHERE b = 1 AND (c = 2 OR d = 3)")
        assert q.where.op == "and"
        assert q.where.children[1].op == "or"

    def test_and_chains_are_flattened(self):
        q = parse("SELECT a WHERE b = 1 AND c = 2 AND d = 3")
        assert q.where.op == "and"
        assert len(q.where.children) == 3
        assert all(isinstance(c, Condition) for c in q.where.children)

    def test_string_values(self):
        q = parse("SELECT a WHERE city = 'New York'")
        assert q.where.value == ValueToken("literal", "new york")

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t",
        "SELECT a JOIN b",
        "SELECT a WHERE b = 1 ORDER BY c",
        "SELECT a LIMIT 5",
    ])
    def test_unsupported_syntax_rejected(self, sql):
        with pytest.raises(UnsupportedSyntaxError) as err:
            parse(sql)
        assert "unsupported syntax" in str(err.value)

    def test_error_carries_offset_and_expected(self):
        with pytest.raises(SqlParseError) as err:
            parse("SELECT a WHERE b >")
        assert err.value.offset == len("SELECT a WHERE b >")
        assert err.value.expected == ("value",)

    def test_unbalanced_parentheses(self):
        with pytest.raises(SqlParseError) as err:
            parse("SELECT a WHERE (b = 1")
        assert ")" in err.value.expected

    def test_dangling_comparator(self):
        with pytest.raises(SqlParseError):
            parse("SELECT a WHERE b =")

    def test_trailing_garbage(self):
        with pytest.raises(SqlParseError):
            parse("SELECT a WHERE b = 1 extra tokens")

    def test_unicode_offsets_are_byte_offsets(self):
        with pytest.raises(SqlParseError) as err:
            parse('SELECT "café" WHERE')
        # 'café' is 5 bytes in utf-8, so the error lands past the ASCII position.
        assert err.value.offset == len('SELECT "café" WHERE'.encode("utf-8"))

    @pytest.mark.parametrize("surrogate", ["\ud800", "\udcff", "\udfff"])
    def test_lone_surrogate_before_an_error_counts_three_bytes(self, surrogate):
        # A non-UTF-8 byte of a command-line argument decodes to a lone
        # surrogate, which strict UTF-8 cannot encode.
        with pytest.raises(SqlParseError) as err:
            parse(f'SELECT "{surrogate}" WHERE')
        assert err.value.offset == len('SELECT "') + 3 + len('" WHERE')
        with pytest.raises(SqlParseError) as err:
            parse(f"SELECT a WHERE b = 'é{surrogate}' ;")
        assert err.value.offset == len("SELECT a WHERE b = 'é") + 1 + 3 + len("' ")


class TestPlaceholders:
    def test_val_forms_normalized(self):
        q = parse("SELECT a WHERE b = val0 AND c = VAL_1")
        conds = conditions_in_order(q.where)
        assert conds[0].value == ValueToken("placeholder", "val_0")
        assert conds[1].value == ValueToken("placeholder", "val_1")

    def test_placeholder_spelling_with_a_trailing_newline_is_a_literal(self):
        q = parse('SELECT a WHERE b = "val_0\n"')
        assert q.where.value == ValueToken("literal", "val_0\n")
        assert q != parse("SELECT a WHERE b = val_0")
        assert parse(render(q)) == q

    def test_passthrough_keeps_given_indices(self):
        q = parse("SELECT a WHERE b = val_7")
        assert q.where.value.text == "val_7"

    def test_anonymize_first_occurrence_order(self):
        q = parse("SELECT a WHERE b = 5 AND c = 'x' AND d = 5", anonymize=True)
        conds = conditions_in_order(q.where)
        assert [c.value.text for c in conds] == ["val_0", "val_1", "val_0"]
        assert all(c.value.kind == "placeholder" for c in conds)

    def test_anonymize_is_stable(self):
        sql = "SELECT a WHERE b = 5 AND c = 7"
        assert parse(sql, anonymize=True) == parse(sql, anonymize=True)

    def test_anonymize_continues_after_existing_placeholders(self):
        q = parse("SELECT a WHERE b = val_0 AND c = 9", anonymize=True)
        conds = conditions_in_order(q.where)
        assert conds[1].value.text == "val_1"


class TestRender:
    def test_example_round_trip(self):
        q = parse(EXAMPLE_QUERY)
        assert parse(render(q)) == q

    def test_not_renders_parenthesized(self):
        q = SqlQuery(
            None,
            ("a",),
            BoolOp("not", (Condition("b", "=", ValueToken("placeholder", "val_0")),)),
        )
        text = render(q)
        assert "not (" in text
        assert parse(text) == q

    def test_aggregation_rendered(self):
        q = parse("SELECT COUNT player WHERE pos = val0")
        assert render(q).startswith("select count")
        assert parse(render(q)) == q

    def test_multiword_column_quoted(self):
        q = parse('SELECT "gross assets"')
        assert render(q) == 'select "gross assets"'


WHERE = "SELECT a WHERE "


def nested_parens(n):
    return WHERE + "(" * n + "b = 1" + ")" * n


def nested_nots(n):
    return WHERE + "NOT " * n + "b = 1"


def nested_not_parens(n):
    return WHERE + "NOT (" * n + "b = 1" + ")" * n


def nested_and_or(n):
    """Operator depth n from AND/OR alone: one parenthesis per two levels."""
    text = WHERE + "c = 1 AND (d = 2 OR " * (n // 2) + "b = 1" + ")" * (n // 2)
    return text + " OR e = 3" if n % 2 else text


class TestNesting:
    @pytest.mark.parametrize("make", [nested_parens, nested_nots, nested_not_parens, nested_and_or])
    def test_query_at_the_bound_parses_and_round_trips(self, make):
        query = parse(make(_MAX_DEPTH))
        assert parse(render(query)) == query
        assert build_graph(query).nodes
        assert template_interpret(query).startswith("which a where")

    @pytest.mark.parametrize(
        "make,offset",
        [
            # the parenthesis that opens level _MAX_DEPTH + 1
            (nested_parens, len(WHERE) + _MAX_DEPTH),
            (nested_not_parens, len(WHERE) + 5 * _MAX_DEPTH + len("NOT ")),
            # the keyword of the operator at depth _MAX_DEPTH + 1
            (nested_nots, len(WHERE)),
            (nested_and_or, nested_and_or(_MAX_DEPTH + 1).rindex(" OR ") + 1),
        ],
    )
    def test_one_level_deeper_is_rejected_at_its_offset(self, make, offset):
        with pytest.raises(SqlParseError) as err:
            parse(make(_MAX_DEPTH + 1))
        assert err.value.offset == offset
        assert f"nested deeper than {_MAX_DEPTH} levels" in str(err.value)

    @pytest.mark.parametrize("make", [nested_parens, nested_nots, nested_and_or])
    def test_far_deeper_nesting_is_a_parse_error(self, make):
        with pytest.raises(SqlParseError):
            parse(make(5000))

    def test_a_long_not_chain_fails_at_the_not_that_crosses_the_bound(self):
        # NOTs apply innermost first: of 103, the third is level 101.
        with pytest.raises(SqlParseError) as err:
            parse(nested_nots(_MAX_DEPTH + 3))
        assert err.value.offset == len(WHERE) + 2 * len("NOT ")

    def test_flattened_operators_count_once_towards_the_bound(self):
        # 60 nested ANDs flatten to one level, so 50 NOTs over them make 51.
        expr = parse(WHERE + "NOT " * 50 + "(b = 1 AND " * 60 + "c = 1" + ")" * 60).where
        for _ in range(50):
            assert expr.op == "not"
            (expr,) = expr.children
        assert expr.op == "and" and len(expr.children) == 61


# --- property tests ----------------------------------------------------------

_columns = st.sampled_from(["a", "b", "company", "name_1", "two words", "two  words", "a\tb", "assets"])
_comparators = st.sampled_from(["=", "!=", "<", ">", "<=", ">="])
_values = st.one_of(
    st.integers(0, 3).map(lambda i: ValueToken("placeholder", f"val_{i}")),
    st.sampled_from(
        ["5", "12.5", "tokyo", "new york", "new  york", "x1", "val_0", "val3", "'val_0'",
         "from", "x\n", "a\tb", "  ", ""]
    ).map(lambda t: ValueToken("literal", t)),
)
_conditions = st.builds(Condition, _columns, _comparators, _values)


def _operators(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda cs: flatten("and", cs)),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: flatten("or", cs)),
        children.map(lambda c: BoolOp("not", (c,))),
    )


_logic = st.recursive(_conditions, _operators, max_leaves=6)

_queries = st.builds(
    SqlQuery,
    st.sampled_from([None, "count", "max", "min", "sum", "avg"]),
    st.lists(_columns, min_size=1, max_size=3, unique=True).map(tuple),
    st.one_of(st.none(), _logic),
)


@settings(deadline=None, max_examples=200)
@given(_queries)
def test_parse_render_identity(query):
    assert parse(render(query)) == query


@settings(deadline=None, max_examples=300)
@given(st.text(max_size=60))
def test_parse_never_panics(text):
    try:
        parse(text)
    except SqlParseError:
        pass


@settings(deadline=None, max_examples=100)
@given(st.binary(max_size=40))
def test_parse_never_panics_on_bytes(blob):
    try:
        parse(blob.decode("utf-8", errors="replace"))
    except SqlParseError:
        pass


@settings(deadline=None)
@given(_queries)
def test_parse_is_deterministic(query):
    text = render(query)
    assert parse(text) == parse(text)


# Characters of every category, lone surrogates included: st.characters()
# alone almost never draws one.
_any_char = st.one_of(st.characters(categories=["Cs"]), st.characters())


@settings(deadline=None, max_examples=300)
@given(st.text(_any_char, max_size=6), st.text(_any_char, max_size=12))
def test_parse_never_panics_after_quoted_text(quoted, rest):
    try:
        parse(f'SELECT "{quoted}" {rest}')
    except SqlParseError:
        pass


# --- tokenizer against its reference -----------------------------------------

# The tokenizer at c0f5148, before its rewrite for speed: one named group per
# kind, and a token tuple with its character offset.  The rewrite gives each
# keyword its own kind where this one gave "keyword".  Its errors count a
# lone surrogate as 3 bytes, as the rewrite does.
_REFERENCE_TOKEN_RE = re.compile(
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

_REFERENCE_CMP_CANONICAL = {"<>": "!=", "≠": "!=", "≤": "<=", "≥": ">="}

_REFERENCE_WORD_KINDS = {
    **dict.fromkeys(("select", "where", "and", "or", "not"), "keyword"),
    **dict.fromkeys(AGGREGATIONS, "aggregation"),
    **dict.fromkeys(UNSUPPORTED_KEYWORDS, "unsupported"),
}


def _byte_offset(text, pos):
    return len(text[:pos].encode("utf-8", "surrogatepass"))


def reference_tokenize(text):
    """(kind, text, character offset) of each token of ``text``."""
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value, pos = m.group(kind), m.start(kind)
        if kind == "cmp":
            value = _REFERENCE_CMP_CANONICAL.get(value, value)
        elif kind == "ident" or kind == "string":
            quote = value[0]
            value = value[1:-1].replace("\\" + quote, quote).replace("\\\\", "\\").lower()
        elif kind == "word":
            value = value.lower()
            kind = _REFERENCE_WORD_KINDS.get(value, "ident")
            if kind == "unsupported":
                raise UnsupportedSyntaxError(
                    f"unsupported syntax: {value.upper()} is outside the dialect",
                    _byte_offset(text, pos),
                )
        elif kind == "bad":
            raise SqlParseError(f"unexpected character {value!r}", _byte_offset(text, pos))
        tokens.append((kind, value, pos))
        if kind == "eof":
            break
    return tokens


# Text weighted toward the characters and fragments where token kinds meet:
# quotes and backslashes, comparators, punctuation, parts of numbers, keyword
# fragments in any case, and unicode whitespace.
_token_text = st.lists(
    st.one_of(
        st.sampled_from(
            ['"', "'", "\\", "\\\\", '\\"', "\\'", "=", "!", "!=", "<>", "<", ">", "<=", ">=",
             "≠", "≤", "≥", "(", ")", ",", "-", ".", "_", "0", "7", "42", "٣", "²", "val", "val_1",
             "select", "SeLeCt", "where", "WHERE", "and", "Or", "not", "count", "AVG", "from",
             "Order", "a", "Z", " ", "\t", "\n", "\xa0", "　", " ", "\x1c"]
        ),
        _any_char,
    ),
    max_size=24,
).map("".join)


@settings(deadline=None, max_examples=500)
@given(_token_text)
def test_tokenizer_matches_reference(text):
    try:
        want = [(value if kind == "keyword" else kind, value, pos)
                for kind, value, pos in reference_tokenize(text)]
    except SqlParseError as exc:
        with pytest.raises(SqlParseError) as err:
            _tokenize(text)
        assert type(err.value) is type(exc)
        assert (str(err.value), err.value.offset) == (str(exc), exc.offset)
        return
    kinds, texts = _tokenize(text)
    got = [(kind, value, _offset(text, n)) for n, (kind, value) in enumerate(zip(kinds, texts))]
    assert got == [(kind, value, _byte_offset(text, pos)) for kind, value, pos in want]
