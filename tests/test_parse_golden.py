"""Parse outcomes of the restricted SQL dialect: the AST as JSON for
accepted input, and the error's class, message, byte offset and expected
set for rejected input.

The rows above the ``# Recorded at c0f5148`` comment were recorded from
the parser at 617d5bd (before the single-pass tokenizer), the rows below
it from the parser at c0f5148 (before the tokenizer and descent were
rewritten for speed). Neither set has been edited since."""

import json
from dataclasses import asdict

import pytest

from sql2text.parser import SqlParseError, parse

GOLDEN = [
    ('SELECT company WHERE assets > val0 AND sales > val0 AND industry <= val1 AND profits = val2', {'ast': {'aggregation': None, 'select_columns': ['company'], 'where': {'children': [{'column': 'assets', 'comparator': '>', 'value': {'kind': 'placeholder', 'text': 'val_0'}}, {'column': 'sales', 'comparator': '>', 'value': {'kind': 'placeholder', 'text': 'val_0'}}, {'column': 'industry', 'comparator': '<=', 'value': {'kind': 'placeholder', 'text': 'val_1'}}, {'column': 'profits', 'comparator': '=', 'value': {'kind': 'placeholder', 'text': 'val_2'}}], 'op': 'and'}}}),
    ('select "gross assets" where "net \\"income\\"" > VAL_1', {'ast': {'aggregation': None, 'select_columns': ['gross assets'], 'where': {'column': 'net "income"', 'comparator': '>', 'value': {'kind': 'placeholder', 'text': 'val_1'}}}}),
    ("SELECT a WHERE city = 'New York'", {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'city', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'new york'}}}}),
    ("SELECT a WHERE name = 'o\\'brien' AND path = 'c:\\\\dir'", {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'column': 'name', 'comparator': '=', 'value': {'kind': 'literal', 'text': "o'brien"}}, {'column': 'path', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'c:\\dir'}}], 'op': 'and'}}}),
    ('SELECT a WHERE b <> 5', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '!=', 'value': {'kind': 'literal', 'text': '5'}}}}),
    ('SELECT a WHERE b ≠ 5 AND c ≤ 2.5 OR d ≥ -3', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'children': [{'column': 'b', 'comparator': '!=', 'value': {'kind': 'literal', 'text': '5'}}, {'column': 'c', 'comparator': '<=', 'value': {'kind': 'literal', 'text': '2.5'}}], 'op': 'and'}, {'column': 'd', 'comparator': '>=', 'value': {'kind': 'literal', 'text': '-3'}}], 'op': 'or'}}}),
    ('SELECT a WHERE b != 1 AND c >= 2 AND d <= 3 AND e < 4 AND f > 5', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'column': 'b', 'comparator': '!=', 'value': {'kind': 'literal', 'text': '1'}}, {'column': 'c', 'comparator': '>=', 'value': {'kind': 'literal', 'text': '2'}}, {'column': 'd', 'comparator': '<=', 'value': {'kind': 'literal', 'text': '3'}}, {'column': 'e', 'comparator': '<', 'value': {'kind': 'literal', 'text': '4'}}, {'column': 'f', 'comparator': '>', 'value': {'kind': 'literal', 'text': '5'}}], 'op': 'and'}}}),
    ('SELECT COUNT(player) WHERE pos = val0', {'ast': {'aggregation': 'count', 'select_columns': ['player'], 'where': {'column': 'pos', 'comparator': '=', 'value': {'kind': 'placeholder', 'text': 'val_0'}}}}),
    ('COUNT(a, b)', {'ast': {'aggregation': 'count', 'select_columns': ['a', 'b'], 'where': None}}),
    ("select max points where team = 'lakers'", {'ast': {'aggregation': 'max', 'select_columns': ['points'], 'where': {'column': 'team', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'lakers'}}}}),
    ('SELECT a WHERE NOT (b = 1 OR NOT c = 2) AND d = 3', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'children': [{'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}, {'children': [{'column': 'c', 'comparator': '=', 'value': {'kind': 'literal', 'text': '2'}}], 'op': 'not'}], 'op': 'or'}], 'op': 'not'}, {'column': 'd', 'comparator': '=', 'value': {'kind': 'literal', 'text': '3'}}], 'op': 'and'}}}),
    ('SELECT a WHERE NOT NOT b = 1', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}], 'op': 'not'}], 'op': 'not'}}}),
    ('SELECT a WHERE ((b = 1 OR c = 2) AND (d = 3 OR e = 4)) OR f = 5', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'children': [{'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}, {'column': 'c', 'comparator': '=', 'value': {'kind': 'literal', 'text': '2'}}], 'op': 'or'}, {'children': [{'column': 'd', 'comparator': '=', 'value': {'kind': 'literal', 'text': '3'}}, {'column': 'e', 'comparator': '=', 'value': {'kind': 'literal', 'text': '4'}}], 'op': 'or'}], 'op': 'and'}, {'column': 'f', 'comparator': '=', 'value': {'kind': 'literal', 'text': '5'}}], 'op': 'or'}}}),
    ('  SELECT\ta\nWHERE\r\nb=val_3  ', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'placeholder', 'text': 'val_3'}}}}),
    ('SELECT a.b, c_1, 2019 WHERE x = 12.50 AND y = -7', {'ast': {'aggregation': None, 'select_columns': ['a.b', 'c_1', '2019'], 'where': {'children': [{'column': 'x', 'comparator': '=', 'value': {'kind': 'literal', 'text': '12.50'}}, {'column': 'y', 'comparator': '=', 'value': {'kind': 'literal', 'text': '-7'}}], 'op': 'and'}}}),
    ('SELECT "café" WHERE "naïve" = \'Ümlaut\' AND z = "Quoted Ident"', {'ast': {'aggregation': None, 'select_columns': ['café'], 'where': {'children': [{'column': 'naïve', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'ümlaut'}}, {'column': 'z', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'quoted ident'}}], 'op': 'and'}}}),
    ('SELECT a WHERE b = 1 ;', {'error': ['SqlParseError', "unexpected character ';' at byte 21", 21, []]}),
    ("SELECT a WHERE b = 'unterminated", {'error': ['SqlParseError', 'unexpected character "\'" at byte 19', 19, []]}),
    ('SELECT a FROM t', {'error': ['UnsupportedSyntaxError', 'unsupported syntax: FROM is outside the dialect at byte 9', 9, []]}),
    ('SELECT a WHERE b = 1 ORDER BY c', {'error': ['UnsupportedSyntaxError', 'unsupported syntax: ORDER is outside the dialect at byte 21', 21, []]}),
    ('SELECT a WHERE b >', {'error': ['SqlParseError', 'dangling comparator: expected a value at byte 18 (expected one of: value)', 18, ['value']]}),
    ('SELECT a WHERE b AND c = 1', {'error': ['SqlParseError', "expected a comparator after 'b' at byte 17 (expected one of: =, !=, <, >, <=, >=)", 17, ['=', '!=', '<', '>', '<=', '>=']]}),
    ('SELECT a WHERE (b = 1', {'error': ['SqlParseError', 'unbalanced parentheses at byte 21 (expected one of: ))', 21, [')']]}),
    ('SELECT a WHERE b = 1)', {'error': ['SqlParseError', "trailing input ')' at byte 20 (expected one of: end of input)", 20, ['end of input']]}),
    ('SELECT COUNT(a', {'error': ['SqlParseError', 'unbalanced parentheses in select list at byte 14 (expected one of: ))', 14, [')']]}),
    ('SELECT a WHERE b = 1 extra tokens', {'error': ['SqlParseError', "trailing input 'extra' at byte 21 (expected one of: end of input)", 21, ['end of input']]}),
    ('', {'error': ['SqlParseError', "expected SELECT, found 'end of input' at byte 0 (expected one of: SELECT)", 0, ['SELECT']]}),
    ('   ', {'error': ['SqlParseError', "expected SELECT, found 'end of input' at byte 3 (expected one of: SELECT)", 3, ['SELECT']]}),
    ('SELECT "café" WHERE', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 20 (expected one of: column name)", 20, ['column name']]}),
    ('SELECT "日本" WHERE x = 1 @', {'error': ['SqlParseError', "unexpected character '@' at byte 28", 28, []]}),
    ('SELECT "ünï" WHERE \'é\' = 1', {'error': ['SqlParseError', "expected a column name, found 'é' at byte 21 (expected one of: column name)", 21, ['column name']]}),
    ('SELECT ""', {'error': ['SqlParseError', 'empty column name at byte 9 (expected one of: column name)', 9, ['column name']]}),
    ('WHERE a = 1', {'error': ['SqlParseError', "expected SELECT, found 'where' at byte 0 (expected one of: SELECT)", 0, ['SELECT']]}),
    ('SELECT a WHERE b = 1 AND', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 24 (expected one of: column name)", 24, ['column name']]}),
    ("SELECT a WHERE b = 'x'\xa0\u3000;", {'error': ['SqlParseError', "unexpected character ';' at byte 27", 27, []]}),
    ('SELECT count', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 12 (expected one of: column name)", 12, ['column name']]}),
    # Recorded at c0f5148: quoted-text escapes, tokens written without
    # spaces, placeholder spellings, mixed-case keywords and nesting at the bound.
    ('SELECT "a\\\\" WHERE b = 1', {'ast': {'aggregation': None, 'select_columns': ['a\\'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}}}),
    ("SELECT a WHERE b = 'it\\'s'", {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': "it's"}}}}),
    ("SELECT a WHERE b = 'it\\''", {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': "it'"}}}}),
    ('SELECT "a\\', {'error': ['SqlParseError', 'unexpected character \'"\' at byte 7', 7, []]}),
    ("SELECT a WHERE b = 'x\\", {'error': ['SqlParseError', 'unexpected character "\'" at byte 19', 19, []]}),
    ('SELECT "a\\\\\\"b\\\\\\"" WHERE c = \'\\\\\\\'\\\\\\\'\'', {'ast': {'aggregation': None, 'select_columns': ['a\\"b\\"'], 'where': {'column': 'c', 'comparator': '=', 'value': {'kind': 'literal', 'text': "\\'\\'"}}}}),
    ("SELECT a WHERE b = ''", {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': ''}}}}),
    ('SELECT a WHERE b = ""', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': ''}}}}),
    ('SELECT a WHERE "" = 1', {'error': ['SqlParseError', 'empty column name at byte 18 (expected one of: column name)', 18, ['column name']]}),
    ('"" a', {'error': ['SqlParseError', "expected SELECT, found 'end of input' at byte 0 (expected one of: SELECT)", 0, ['SELECT']]}),
    ('SELECT a WHERE b = 1 ""', {'error': ['SqlParseError', "trailing input '' at byte 21 (expected one of: end of input)", 21, ['end of input']]}),
    ('SELECT COUNT(', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 13 (expected one of: column name)", 13, ['column name']]}),
    ('SELECT COUNT()', {'error': ['SqlParseError', "expected a column name, found ')' at byte 13 (expected one of: column name)", 13, ['column name']]}),
    ('SELECT(a, b)', {'ast': {'aggregation': None, 'select_columns': ['a', 'b'], 'where': None}}),
    ('SELECT a WHERE NOT(b = 1)', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}], 'op': 'not'}}}),
    ('SELECT a WHERE NOT(', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 19 (expected one of: column name)", 19, ['column name']]}),
    ('SELECT a WHERE b = 1.', {'error': ['SqlParseError', "unexpected character '.' at byte 20", 20, []]}),
    ('SELECT a WHERE b = -', {'error': ['SqlParseError', "unexpected character '-' at byte 19", 19, []]}),
    ('SELECT a WHERE b = - 1', {'error': ['SqlParseError', "unexpected character '-' at byte 19", 19, []]}),
    ('SELECT 1.5.6 WHERE -2.5 = 1..2', {'error': ['SqlParseError', "unexpected character '.' at byte 10", 10, []]}),
    ('SELECT a WHERE b = -٣.٤', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '-٣.٤'}}}}),
    ('SeLeCt CoUnT a wHeRe b = 1 AnD nOt c = 2 oR d = 3', {'ast': {'aggregation': 'count', 'select_columns': ['a'], 'where': {'children': [{'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}, {'children': [{'column': 'c', 'comparator': '=', 'value': {'kind': 'literal', 'text': '2'}}], 'op': 'not'}], 'op': 'and'}, {'column': 'd', 'comparator': '=', 'value': {'kind': 'literal', 'text': '3'}}], 'op': 'or'}}}),
    ('SELECT a FrOm t', {'error': ['UnsupportedSyntaxError', 'unsupported syntax: FROM is outside the dialect at byte 9', 9, []]}),
    ('sElEcT a WHERE b = 1 LiMiT 5', {'error': ['UnsupportedSyntaxError', 'unsupported syntax: LIMIT is outside the dialect at byte 21', 21, []]}),
    ('SELECT a WHERE b = val_007 AND c = "val_٣" AND d = "val_²" AND e = val_ AND f = val_1.5 AND g = "VAL_2" AND h = \'val_1\'', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'placeholder', 'text': 'val_7'}}, {'column': 'c', 'comparator': '=', 'value': {'kind': 'placeholder', 'text': 'val_3'}}, {'column': 'd', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'val_²'}}, {'column': 'e', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'val_'}}, {'column': 'f', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'val_1.5'}}, {'column': 'g', 'comparator': '=', 'value': {'kind': 'placeholder', 'text': 'val_2'}}, {'column': 'h', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'val_1'}}], 'op': 'and'}}}),
    ('SELECT a WHERE b = xval_1 AND c = val__1 AND d = _val_1', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'xval_1'}}, {'column': 'c', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'val__1'}}, {'column': 'd', 'comparator': '=', 'value': {'kind': 'literal', 'text': '_val_1'}}], 'op': 'and'}}}),
    ('SELECT count count a', {'error': ['SqlParseError', "expected a column name, found 'count' at byte 13 (expected one of: column name)", 13, ['column name']]}),
    ('SELECT SELECT a', {'error': ['SqlParseError', "expected a column name, found 'select' at byte 7 (expected one of: column name)", 7, ['column name']]}),
    ('SELECT a WHERE b = and', {'error': ['SqlParseError', 'dangling comparator: expected a value at byte 19 (expected one of: value)', 19, ['value']]}),
    ('SELECT a WHERE b = select', {'error': ['SqlParseError', 'dangling comparator: expected a value at byte 19 (expected one of: value)', 19, ['value']]}),
    ('SELECT a WHERE b = max', {'error': ['SqlParseError', 'dangling comparator: expected a value at byte 19 (expected one of: value)', 19, ['value']]}),
    ('SELECT a WHERE max = 1', {'error': ['SqlParseError', "expected a column name, found 'max' at byte 15 (expected one of: column name)", 15, ['column name']]}),
    ('SELECT a WHERE b = 1 AND OR c = 2', {'error': ['SqlParseError', "expected a column name, found 'or' at byte 25 (expected one of: column name)", 25, ['column name']]}),
    ('SELECT a WHERE b = 1 AND c = 2 OR d = 3 AND e = 4 OR NOT f = 5', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}, {'column': 'c', 'comparator': '=', 'value': {'kind': 'literal', 'text': '2'}}], 'op': 'and'}, {'children': [{'column': 'd', 'comparator': '=', 'value': {'kind': 'literal', 'text': '3'}}, {'column': 'e', 'comparator': '=', 'value': {'kind': 'literal', 'text': '4'}}], 'op': 'and'}, {'children': [{'column': 'f', 'comparator': '=', 'value': {'kind': 'literal', 'text': '5'}}], 'op': 'not'}], 'op': 'or'}}}),
    ('SELECT a WHERE (b = 1 AND c = 2) AND (d = 3 AND e = 4)', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}, {'column': 'c', 'comparator': '=', 'value': {'kind': 'literal', 'text': '2'}}, {'column': 'd', 'comparator': '=', 'value': {'kind': 'literal', 'text': '3'}}, {'column': 'e', 'comparator': '=', 'value': {'kind': 'literal', 'text': '4'}}], 'op': 'and'}}}),
    ('SELECT a WHERE (b = 1 OR c = 2) OR (d = 3 OR (e = 4 OR f = 5))', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'children': [{'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}, {'column': 'c', 'comparator': '=', 'value': {'kind': 'literal', 'text': '2'}}, {'column': 'd', 'comparator': '=', 'value': {'kind': 'literal', 'text': '3'}}, {'column': 'e', 'comparator': '=', 'value': {'kind': 'literal', 'text': '4'}}, {'column': 'f', 'comparator': '=', 'value': {'kind': 'literal', 'text': '5'}}], 'op': 'or'}}}),
    ('SELECT a WHERE ((b = 1))', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}}}),
    ('SELECT ()', {'error': ['SqlParseError', "expected a column name, found ')' at byte 8 (expected one of: column name)", 8, ['column name']]}),
    ('SELECT (a', {'error': ['SqlParseError', 'unbalanced parentheses in select list at byte 9 (expected one of: ))', 9, [')']]}),
    ('SELECT a,', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 9 (expected one of: column name)", 9, ['column name']]}),
    ('SELECT a, , b', {'error': ['SqlParseError', "expected a column name, found ',' at byte 10 (expected one of: column name)", 10, ['column name']]}),
    ('SELECT a WHERE b == 1', {'error': ['SqlParseError', 'dangling comparator: expected a value at byte 18 (expected one of: value)', 18, ['value']]}),
    ('SELECT a WHERE b =< 1', {'error': ['SqlParseError', 'dangling comparator: expected a value at byte 18 (expected one of: value)', 18, ['value']]}),
    ('SELECT a WHERE b <=> 1', {'error': ['SqlParseError', 'dangling comparator: expected a value at byte 19 (expected one of: value)', 19, ['value']]}),
    ('SELECT a WHERE b ! 1', {'error': ['SqlParseError', "unexpected character '!' at byte 17", 17, []]}),
    ('SELECT a WHERE b = !', {'error': ['SqlParseError', "unexpected character '!' at byte 19", 19, []]}),
    ('SELECT\x1ca\x85WHERE\u2028b\u3000=\x0b1\x0c', {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}}}),
    ('SELECT " a\u3000" WHERE "\t" = 1', {'error': ['SqlParseError', 'empty column name at byte 25 (expected one of: column name)', 25, ['column name']]}),
    ('SELECT "İSTANBUL" WHERE b = \'ΣΑΣ\'', {'ast': {'aggregation': None, 'select_columns': ['i̇stanbul'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': 'σας'}}}}),
    ('SELECT "😀" WHERE 😀 = 1', {'error': ['SqlParseError', "unexpected character '😀' at byte 20", 20, []]}),
    ('SELECT a WHERE b = 1 OR', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 23 (expected one of: column name)", 23, ['column name']]}),
    ('SELECT a WHERE NOT', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 18 (expected one of: column name)", 18, ['column name']]}),
    ('SELECT a WHERE', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 14 (expected one of: column name)", 14, ['column name']]}),
    ('SELECT a WHERE b', {'error': ['SqlParseError', "expected a comparator after 'b' at byte 16 (expected one of: =, !=, <, >, <=, >=)", 16, ['=', '!=', '<', '>', '<=', '>=']]}),
    ('SELECT a b', {'error': ['SqlParseError', "trailing input 'b' at byte 9 (expected one of: end of input)", 9, ['end of input']]}),
    ('COUNT', {'error': ['SqlParseError', "expected a column name, found 'end of input' at byte 5 (expected one of: column name)", 5, ['column name']]}),
    ('avg(x)', {'ast': {'aggregation': 'avg', 'select_columns': ['x'], 'where': None}}),
    ("SELECT a WHERE " + "(" * 100 + "b = 1" + ")" * 100, {'ast': {'aggregation': None, 'select_columns': ['a'], 'where': {'column': 'b', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}}}),
    ("SELECT a WHERE " + "(" * 101 + "b = 1" + ")" * 101, {'error': ['SqlParseError', 'query nested deeper than 100 levels at byte 115', 115, []]}),
    ("SELECT a WHERE " + "NOT " * 101 + "b = 1", {'error': ['SqlParseError', 'query nested deeper than 100 levels at byte 15', 15, []]}),
    ("SELECT a WHERE " + "c = 1 AND (d = 2 OR " * 50 + "b = 1" + ")" * 50 + " OR e = 3", {'error': ['SqlParseError', 'query nested deeper than 100 levels at byte 1071', 1071, []]}),
    ('SELECT "a\\nb" WHERE "a\nb" = 1', {'ast': {'aggregation': None, 'select_columns': ['a\\nb'], 'where': {'column': 'a\nb', 'comparator': '=', 'value': {'kind': 'literal', 'text': '1'}}}}),
    ('SELECT "a\\\nb"', {'error': ['SqlParseError', 'unexpected character \'"\' at byte 7', 7, []]}),
    ("SELECT a WHERE b = 'x\\\ny'", {'error': ['SqlParseError', 'unexpected character "\'" at byte 19', 19, []]}),
]


def outcome(sql):
    try:
        return {"ast": json.loads(json.dumps(asdict(parse(sql)), sort_keys=True))}
    except SqlParseError as exc:
        return {"error": [type(exc).__name__, str(exc), exc.offset, list(exc.expected)]}


@pytest.mark.parametrize("sql,expected", GOLDEN)
def test_parse_outcome_matches_golden(sql, expected):
    assert outcome(sql) == expected
