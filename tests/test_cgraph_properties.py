"""Property-based checks of the colored-graph engines against their oracles,
and of the colored-graph text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtf.cgraph import (
    ColoredGraph,
    format_colored_graph,
    graph_of_poset,
    pairs_colex,
    parse_colored_graph,
    posets_of_graph,
)
from obtf.litposet import enumerate_pn_oracle


@pytest.fixture(scope="module")
def oracle_fibers():
    """Sorted poset rows per colored graph, n <= 4, from the relation sweep."""
    fibers = {}
    for n in range(5):
        for p in enumerate_pn_oracle(n):
            fibers.setdefault(graph_of_poset(p), []).append(p.rows)
    return {g: sorted(rows) for g, rows in fibers.items()}


@st.composite
def colored_graphs(draw, max_n=4):
    n = draw(st.integers(0, max_n))
    pairs = pairs_colex(n)
    states = draw(st.lists(st.sampled_from((0, 1, 2)),
                           min_size=len(pairs), max_size=len(pairs)))
    return ColoredGraph(n, frozenset(p for p, s in zip(pairs, states) if s == 1),
                        frozenset(p for p, s in zip(pairs, states) if s == 2))


@settings(max_examples=300, deadline=None)
@given(g=colored_graphs())
def test_posets_of_graph_is_the_oracle_fiber(oracle_fibers, g):
    assert [p.rows for p in posets_of_graph(g)] == oracle_fibers.get(g, [])


@settings(max_examples=200, deadline=None)
@given(g=colored_graphs(max_n=6))
def test_colored_graph_text_round_trip(g):
    text = format_colored_graph(g)
    assert parse_colored_graph(text) == g
    assert format_colored_graph(parse_colored_graph(text)) == text
