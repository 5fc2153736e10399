"""Header and line-number errors of the three text formats.

Every parser reports the same header errors, naming what n counts
("variable" for formulas and posets, "vertex" for colored graphs), at
the 1-based line of the offending text, blank and comment lines included.
"""

import pytest

from obtf.boolfn import ParseError, parse_formula
from obtf.cgraph import parse_colored_graph
from obtf.litposet import parse_poset

PARSERS = [
    (parse_formula, "variable", "expected two signed integers"),
    (parse_poset, "variable", "expected two signed integers"),
    (parse_colored_graph, "vertex", "expected 'u v R|B'"),
]

CASES = [
    ("", 1, "missing header 'n <int>'"),
    ("\n# only a comment\n   \n", 1, "missing header 'n <int>'"),
    ("# c\n\n1 2\n", 3, "expected header 'n <int>'"),
    ("n\n", 1, "expected header 'n <int>'"),
    ("n x\n", 1, "bad {noun} count 'x'"),
    ("n -1\n", 1, "{noun} count must be >= 0"),
    ("\n# c\nn two\n", 3, "bad {noun} count 'two'"),
    ("\n  # c\n\nn -2  # negative\n", 4, "{noun} count must be >= 0"),
    ("\n# c\nn 2\n\n1\n", 5, "{body}"),
]


@pytest.mark.parametrize("parse,noun,body", PARSERS,
                         ids=[p[0].__name__ for p in PARSERS])
@pytest.mark.parametrize("text,line_no,message", CASES)
def test_header_error(parse, noun, body, text, line_no, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: " + message.format(noun=noun, body=body)


FORMULA_BODY_CASES = [
    ("n 2\n0 1\n", "0 is not a valid signed literal"),
    ("n 2\n1 0\n", "0 is not a valid signed literal"),
    ("n 2\n1 -1\n", "clause literals must use different variables"),
    ("n 2\n3 -3\n", "clause literals must use different variables"),
    ("n 2\n1 3\n", "variable beyond n=2"),
    ("n 2\n-3 1\n", "variable beyond n=2"),
]


@pytest.mark.parametrize("text,message", FORMULA_BODY_CASES)
def test_formula_body_error(text, message):
    """The clause checks run in this order: zero literal, same variable,
    variable beyond n (3 -3 under n 2 names the variable, not the range)."""
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert str(info.value) == "line 2: " + message
