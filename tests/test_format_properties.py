"""Property-based round trips of the formula and poset text formats:
printing a parsed object gives back the printed text, and parsing it
gives back the object (the colored-graph format is checked the same way
in test_cgraph_properties).  The strategies draw only valid objects, so
no draw is discarded."""

from hypothesis import given, settings
from hypothesis import strategies as st

from obtf.boolfn import all_clauses, parse_formula
from obtf.litposet import format_poset, parse_poset, poset_from_relations

from test_boolfn import format_formula


@st.composite
def formulas(draw, max_n=5):
    """n <= max_n and a clause set of up to 2n clauses from all_clauses(n),
    so that elementary and non-elementary functions both come up."""
    n = draw(st.integers(0, max_n))
    clauses = all_clauses(n)
    chosen = draw(st.lists(st.sampled_from(clauses), max_size=2 * n)) if clauses else []
    return n, frozenset(chosen)


@st.composite
def posets(draw, max_n=4):
    """A member of the family on n <= max_n variables: the closure of a
    few drawn relations u < v, each kept only if the closure stays a
    member.  The relations of a member close to a member, so any member
    with few enough generators can come up."""
    n = draw(st.integers(0, max_n))
    literal = st.integers(0, 2 * n - 1)
    relations = []
    for pair in draw(st.lists(st.tuples(literal, literal), max_size=4)) if n else []:
        try:
            poset_from_relations(n, relations + [pair])
        except ValueError:
            continue
        relations.append(pair)
    return poset_from_relations(n, relations)


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
