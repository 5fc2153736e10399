import itertools

import pytest

from obtf.boolfn import ParseError
from obtf.cgraph import (
    ColoredGraph,
    bipartition_sweep,
    check_closed_walks,
    double_cover,
    enumerate_colored_graphs,
    eta,
    find_blue_bipartition,
    find_odd_nonsimple_walk,
    format_colored_graph,
    gamma,
    graph_of_poset,
    is_obtf,
    is_triangle_connected,
    is_valid_bipartition,
    kappa,
    pairs_colex,
    parse_colored_graph,
    posets_of_graph,
    triangle_components,
    triangles,
)
from obtf.litposet import (
    LiteralPoset,
    ResourceGuardError,
    cover_relations,
    enumerate_pn_oracle,
)

G_BLUE = ColoredGraph.of(2, blue=[(1, 2)])
G_RED = ColoredGraph.of(2, red=[(1, 2)])
ODD_TRIANGLE = ColoredGraph.of(3, red=[(1, 2), (1, 3)], blue=[(2, 3)])
EVEN_TRIANGLE = ColoredGraph.of(3, red=[(2, 3)], blue=[(1, 2), (1, 3)])
FOUR_CYCLE = ColoredGraph.of(4, blue=[(1, 2)], red=[(2, 3), (3, 4), (1, 4)])


class TestColoredGraph:
    def test_pairs_colex(self):
        assert pairs_colex(4) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_no_double_color(self):
        with pytest.raises(ValueError):
            ColoredGraph(2, frozenset({(1, 2)}), frozenset({(1, 2)}))

    def test_edges_sorted_colex(self):
        g = ColoredGraph.of(4, red=[(3, 4), (1, 2)], blue=[(1, 3)])
        assert [e[:2] for e in g.edges()] == [(1, 2), (1, 3), (3, 4)]

    def test_enumeration_size(self):
        assert sum(1 for _ in enumerate_colored_graphs(3)) == 27


class TestObtf:
    def test_one_blue_triangle(self):
        assert not is_obtf(ODD_TRIANGLE)

    def test_two_blue_triangle(self):
        assert is_obtf(EVEN_TRIANGLE)

    def test_triangle_free_vacuous(self):
        assert is_obtf(FOUR_CYCLE)
        assert triangles(FOUR_CYCLE) == []


class TestBipartition:
    def test_single_blue_edge(self):
        bp = find_blue_bipartition(G_BLUE)
        assert bp.as_dict() == {1: "U", 2: "W"}

    def test_four_cycle_frustrated(self):
        assert find_blue_bipartition(FOUR_CYCLE) is None
        assert bipartition_sweep(FOUR_CYCLE) is None

    def test_empty_graph_all_u(self):
        bp = find_blue_bipartition(ColoredGraph.of(3))
        assert bp.as_dict() == {1: "U", 2: "U", 3: "U"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_propagation_matches_sweep(self, n):
        for g in enumerate_colored_graphs(n):
            fast = find_blue_bipartition(g)
            slow = bipartition_sweep(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert is_valid_bipartition(g, fast)
                assert is_valid_bipartition(g, slow)


class TestDeletionDistances:
    def test_bb_graph_needs_nothing(self):
        assert kappa(G_BLUE) == (0, ())
        assert gamma(G_BLUE) == (0, ())

    def test_four_cycle(self):
        kv, kw = kappa(FOUR_CYCLE)
        assert kv == 1
        assert find_blue_bipartition(FOUR_CYCLE.without_vertices(kw)) is not None
        gv, gw = gamma(FOUR_CYCLE)
        assert gv == 1
        assert find_blue_bipartition(FOUR_CYCLE.without_edges(gw)) is not None

    def test_odd_triangle(self):
        assert kappa(ODD_TRIANGLE)[0] == 1
        assert gamma(ODD_TRIANGLE)[0] == 1

    def test_guards(self):
        with pytest.raises(ResourceGuardError):
            kappa(ColoredGraph.of(13))


class TestTriangleComponents:
    def test_single_triangle_one_class(self):
        tc = triangle_components(EVEN_TRIANGLE)
        assert len(tc.classes) == 1
        assert len(tc.classes[0]) == 3
        assert is_triangle_connected(EVEN_TRIANGLE)

    def test_bowtie_two_classes(self):
        bow = ColoredGraph.of(
            5, red=[(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
        assert eta(bow) == 2

    def test_single_edge_singleton_class(self):
        g = ColoredGraph.of(2, red=[(1, 2)])
        assert eta(g) == 1
        assert is_triangle_connected(g)

    def test_edgeless_counts_as_connected(self):
        assert eta(ColoredGraph.of(3)) == 0
        assert is_triangle_connected(ColoredGraph.of(3))

    def test_four_cycle_four_singletons(self):
        assert eta(FOUR_CYCLE) == 4


class TestGraphOfPoset:
    def test_red_edge(self):
        p = LiteralPoset.from_relations(2, [(1, 2)])  # !x1 < x2
        assert graph_of_poset(p) == G_RED

    def test_blue_edge(self):
        p = LiteralPoset.from_relations(2, [(0, 2)])  # x1 < x2
        assert graph_of_poset(p) == G_BLUE

    def test_antichain_empty_graph(self):
        assert graph_of_poset(LiteralPoset.antichain(2)) == ColoredGraph.of(2)


class TestDoubleCover:
    def test_blue_lifts_same_polarity(self):
        assert sorted(double_cover(G_BLUE).edges) == [(0, 2), (1, 3)]

    def test_red_lifts_mixed_polarity(self):
        assert sorted(double_cover(G_RED).edges) == [(0, 3), (1, 2)]

    def test_empty(self):
        assert double_cover(ColoredGraph.of(2)).edges == frozenset()

    def test_edge_count_doubles(self):
        for g in enumerate_colored_graphs(3):
            assert len(double_cover(g).edges) == 2 * g.edge_count()


# The five 7-vertex graphs of the benchmark's seed-1 analyze workload (edge
# counts 12..16; the 13- and 15-edge graphs are frustrated), with their
# exact poset lists as sorted relation rows (bit v of rows[u] means u < v).
SEVEN_VERTEX_GRAPHS = [
    ("n 7\n1 2 R\n1 3 B\n2 3 B\n1 4 B\n2 4 B\n3 4 R\n2 5 B\n4 5 R\n"
     "1 6 B\n1 7 R\n4 7 B\n6 7 B\n",
     [(0, 6308, 0, 673, 133, 0, 4645, 0, 132, 0, 4097, 0, 0, 2177),
      (9304, 0, 338, 0, 0, 74, 0, 8474, 0, 72, 0, 8194, 1090, 0)]),
    ("n 7\n1 3 B\n2 3 B\n1 4 B\n2 4 B\n2 5 B\n3 5 B\n1 6 R\n3 6 R\n"
     "4 6 R\n5 6 R\n1 7 B\n3 7 B\n5 7 B\n",
     []),
    ("n 7\n1 2 B\n1 3 R\n1 4 B\n2 4 R\n1 5 B\n2 5 R\n4 5 R\n1 6 B\n"
     "2 6 R\n3 6 B\n5 6 R\n1 7 R\n4 7 B\n6 7 B\n",
     [(0, 6808, 2689, 0, 0, 2049, 4617, 0, 2185, 0, 4633, 0, 0, 2177),
      (9572, 0, 0, 1346, 1026, 0, 0, 8454, 0, 1094, 0, 8486, 1090, 0)]),
    ("n 7\n1 2 R\n1 3 B\n2 3 R\n1 4 B\n3 4 B\n1 5 B\n3 5 R\n1 6 R\n"
     "2 6 R\n3 6 B\n5 6 B\n2 7 R\n3 7 R\n4 7 R\n5 7 R\n",
     []),
    ("n 7\n1 2 B\n1 3 R\n2 3 B\n1 4 B\n2 4 R\n3 4 B\n1 5 B\n2 5 R\n"
     "3 5 B\n4 5 R\n1 6 R\n5 6 B\n1 7 R\n3 7 R\n4 7 B\n6 7 R\n",
     [(0, 5784, 657, 0, 0, 4745, 4633, 0, 1177, 0, 0, 4609, 0, 1169),
      (10596, 0, 0, 354, 8518, 0, 0, 8486, 0, 2150, 8450, 0, 2146, 0)]),
]


class TestPosetsOfGraph:
    def test_single_blue_edge_two_posets(self):
        ps = posets_of_graph(G_BLUE)
        assert len(ps) == 2
        assert {frozenset(p.relation_pairs()) for p in ps} == {
            frozenset({(0, 2), (3, 1)}), frozenset({(2, 0), (1, 3)})}

    def test_odd_triangle_empty(self):
        assert posets_of_graph(ODD_TRIANGLE) == []

    def test_empty_graph_antichain_only(self):
        assert posets_of_graph(ColoredGraph.of(2)) == [LiteralPoset.antichain(2)]

    def test_four_cycle(self):
        assert len(posets_of_graph(FOUR_CYCLE)) == 8

    def test_exactly_the_fiber_of_graph_of_poset(self):
        # group the family, found by the independent relation sweep, by its
        # graph and compare per graph
        by_graph = {}
        for p in enumerate_pn_oracle(3):
            by_graph.setdefault(graph_of_poset(p), set()).add(p.rows)
        for g in enumerate_colored_graphs(3):
            expect = by_graph.get(g, set())
            assert {p.rows for p in posets_of_graph(g)} == expect

    def test_output_sorted(self):
        ps = posets_of_graph(FOUR_CYCLE)
        assert [p.rows for p in ps] == sorted(p.rows for p in ps)

    @pytest.mark.parametrize("text,expect", SEVEN_VERTEX_GRAPHS,
                             ids=[f"{12 + i}-edges" for i in range(5)])
    def test_seven_vertex_graphs_exact_posets(self, text, expect):
        g = parse_colored_graph(text)
        assert [p.rows for p in posets_of_graph(g)] == expect


class TestClosedWalks:
    def test_even_triangle_repeated_edge_walk(self):
        # length-5 walk 1-2-3-1-2-1 re-uses edge {1,2}: parity must be even
        walk = [1, 2, 3, 1, 2, 1]
        blues = sum(
            1 for a, b in zip(walk, walk[1:])
            if (min(a, b), max(a, b)) in EVEN_TRIANGLE.blue)
        assert blues % 2 == 0
        assert check_closed_walks(EVEN_TRIANGLE)

    def test_rejects_non_obtf_input(self):
        with pytest.raises(ValueError):
            check_closed_walks(ODD_TRIANGLE)

    def test_empty_graph(self):
        assert check_closed_walks(ColoredGraph.of(3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_small(self, n):
        for g in enumerate_colored_graphs(n):
            if is_obtf(g):
                assert find_odd_nonsimple_walk(g) is None


class TestGraphText:
    def test_roundtrip(self):
        text = format_colored_graph(FOUR_CYCLE)
        assert parse_colored_graph(text) == FOUR_CYCLE

    def test_comments_and_blanks(self):
        g = parse_colored_graph("# hi\nn 3\n\n1 2 B  # blue\n2 3 r\n")
        assert g == ColoredGraph.of(3, blue=[(1, 2)], red=[(2, 3)])

    def test_conflicting_colors(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_colored_graph("n 2\n1 2 B\n2 1 R\n")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_colored_graph("n 2\n1 1 R\n")

    def test_vertex_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_colored_graph("n 2\n1 3 R\n")

    def test_bad_color(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_colored_graph("n 2\n1 2 X\n")
