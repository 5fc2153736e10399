"""Property-based round trips of the formula and poset text formats:
printing a parsed object gives back the printed text, and parsing it
gives back the object (the colored-graph format is checked the same way
in test_cgraph_properties)."""

from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from obtf.boolfn import parse_formula
from obtf.litposet import LiteralPoset, format_poset, parse_poset

from test_boolfn import format_formula, formula


@st.composite
def formulas(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    literal = st.integers(-max(n, 1), max(n, 1)).filter(bool)
    clauses = st.tuples(literal, literal).filter(lambda c: abs(c[0]) != abs(c[1]))
    pairs = draw(st.lists(clauses, max_size=8)) if n >= 2 else []
    return formula(n, *pairs)


@st.composite
def posets(draw, max_n=4):
    n = draw(st.integers(0, max_n))
    literal = st.integers(0, 2 * n - 1)
    relations = draw(st.lists(st.tuples(literal, literal), max_size=4)) if n else []
    assume(all(u >> 1 != v >> 1 for u, v in relations))
    try:
        return LiteralPoset.from_relations(n, relations)
    except ValueError:    # the relations close to a non-member
        reject()


@settings(max_examples=200, deadline=None)
@given(f=formulas())
def test_formula_round_trip(f):
    text = format_formula(*f)
    assert parse_formula(text) == f
    assert format_formula(*parse_formula(text)) == text


@settings(max_examples=200, deadline=None)
@given(p=posets())
def test_poset_round_trip(p):
    text = format_poset(p)
    assert parse_poset(text) == p
    assert format_poset(parse_poset(text)) == text
