"""Parse outcomes of the restricted SQL dialect, recorded from the parser
at 617d5bd (before the single-pass tokenizer) and not edited since: the
AST as JSON for accepted input, and the error's class, message, byte
offset and expected set for rejected input."""

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
]


def outcome(sql):
    try:
        return {"ast": json.loads(json.dumps(asdict(parse(sql)), sort_keys=True))}
    except SqlParseError as exc:
        return {"error": [type(exc).__name__, str(exc), exc.offset, list(exc.expected)]}


@pytest.mark.parametrize("sql,expected", GOLDEN)
def test_parse_outcome_matches_golden(sql, expected):
    assert outcome(sql) == expected
