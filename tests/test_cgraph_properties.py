"""Property-based checks of the colored-graph engines against their oracles,
and of the colored-graph text format."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obtf.census import strict_orders
from obtf.cgraph import (
    ColoredGraph,
    bipartition_sweep,
    enumerate_colored_graphs,
    find_blue_bipartition,
    format_colored_graph,
    gamma,
    graph_of_poset,
    pairs_colex,
    parse_colored_graph,
    posets_of_graph,
    triangles,
)


@pytest.fixture(scope="module")
def oracle_fibers():
    """Sorted posets per colored graph, n <= 4, from the order search."""
    fibers = {}
    for n in range(5):
        for p in strict_orders(2 * n, negation=True):
            fibers.setdefault(graph_of_poset(p), []).append(p)
    return {g: sorted(ps) for g, ps in fibers.items()}


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
    assert posets_of_graph(g) == oracle_fibers.get(g, [])


@settings(max_examples=200, deadline=None)
@given(g=colored_graphs(max_n=6))
def test_colored_graph_text_round_trip(g):
    text = format_colored_graph(g)
    assert parse_colored_graph(text) == g
    assert format_colored_graph(parse_colored_graph(text)) == text


def gamma_sweep(g):
    """gamma's oracle: the edge subsets in order of size, then subset
    order of the colex edge indices; the first whose deletion leaves the
    graph blue-bipartite."""
    all_edges = [(u, v) for u, v, _ in g.edges()]
    for k in range(len(all_edges) + 1):
        for drop in itertools.combinations(all_edges, k):
            if find_blue_bipartition(g.without_edges(drop)) is not None:
                return k, drop
    raise AssertionError("unreachable: deleting every edge always succeeds")


@settings(max_examples=300, deadline=None)
@given(g=colored_graphs(max_n=6))
def test_gamma_is_the_subset_sweep(g):
    assume(g.edge_count() <= 12)
    assert gamma(g) == gamma_sweep(g)


@settings(max_examples=300, deadline=None)
@given(g=colored_graphs(max_n=6))
def test_blue_bipartition_exists_iff_the_sweep_finds_one(g):
    assert (find_blue_bipartition(g) is None) == (bipartition_sweep(g) is None)


def triangle_sweep(g):
    """triangles' oracle: every vertex triple a < b < c, in combinations
    order, whose three edges are present."""
    present = g.red | g.blue
    return [(a, b, c) for a, b, c in itertools.combinations(range(1, g.n + 1), 3)
            if {(a, b), (a, c), (b, c)} <= present]


@pytest.mark.parametrize("n", range(5))
def test_triangles_is_the_triple_sweep_on_every_graph(n):
    for g in enumerate_colored_graphs(n):
        assert triangles(g) == triangle_sweep(g)


@settings(max_examples=300, deadline=None)
@given(g=colored_graphs(max_n=9))
def test_triangles_is_the_triple_sweep(g):
    assert triangles(g) == triangle_sweep(g)
