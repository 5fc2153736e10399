import itertools
import re

import pytest

from obtf import census, litposet
from obtf.boolfn import ParseError, ResourceGuardError, bits, orbits
from obtf.census import strict_orders
from obtf.cgraph import (
    EDGE_GUARD,
    ColoredGraph,
    bipartition_sweep,
    double_cover,
    enumerate_colored_graphs,
    eta,
    find_blue_bipartition,
    find_odd_nonsimple_walk,
    format_colored_graph,
    gamma,
    graph_of_poset,
    is_obtf,
    is_valid_bipartition,
    kappa,
    pairs_colex,
    parse_colored_graph,
    posets_of_graph,
    triangles,
    weighted_colored_graphs,
)
from obtf.litposet import poset_from_relations
from test_boolfn import adjacent_swaps

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

    @pytest.mark.parametrize("n, red, blue, message", [
        (-1, (), (), "vertex count must be >= 0"),
        (2, {(2, 1)}, (), "bad edge (2, 1) for n=2"),
        (2, (), {(1, 3)}, "bad edge (1, 3) for n=2"),
        (3, {(2, 2)}, (), "bad edge (2, 2) for n=3"),
        (3, {(0, 1)}, (), "bad edge (0, 1) for n=3"),
        (3, {(1, 2), (2, 3)}, {(2, 3)}, "an edge cannot be both red and blue"),
    ])
    def test_refusals(self, n, red, blue, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ColoredGraph(n, frozenset(red), frozenset(blue))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ColoredGraph(n=n, red=frozenset(red), blue=frozenset(blue))

    def test_equal_graphs_hash_equal(self):
        g = ColoredGraph.of(4, red=[(2, 1), (3, 4)], blue=[(3, 1)])
        h = ColoredGraph(4, frozenset({(3, 4), (1, 2)}), frozenset({(1, 3)}))
        assert g == h and hash(g) == hash(h)
        assert {g: "memo"}[h] == "memo"
        assert g != ColoredGraph.of(4, red=[(1, 2)], blue=[(1, 3), (3, 4)])
        assert g != ColoredGraph.of(5, red=[(1, 2), (3, 4)], blue=[(1, 3)])
        assert (g.n, g.red, g.blue) == (4, frozenset({(1, 2), (3, 4)}), frozenset({(1, 3)}))

    def test_immutable(self):
        g = ColoredGraph.of(2, red=[(1, 2)])
        with pytest.raises(AttributeError):
            g.n = 3
        with pytest.raises(AttributeError):
            g.extra = 1

    def test_without(self):
        g = ColoredGraph.of(4, red=[(1, 2), (3, 4)], blue=[(1, 3)])
        assert g.without_vertices([3]) == ColoredGraph.of(4, red=[(1, 2)])
        assert g.without_edges([(4, 3), (1, 3)]) == ColoredGraph.of(4, red=[(1, 2)])
        assert g.edge_count() == 3

    def test_edges_sorted_colex(self):
        g = ColoredGraph.of(4, red=[(3, 4), (1, 2)], blue=[(1, 3)])
        assert [e[:2] for e in g.edges()] == [(1, 2), (1, 3), (3, 4)]

    def test_enumeration_size(self):
        assert sum(1 for _ in enumerate_colored_graphs(3)) == 27


def relabelled(n, edges, perm):
    """The edge set of the graph on 1..n that perm, a tuple of the images
    of 1..n, makes of edges."""
    return frozenset(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges)


def switched(g, side):
    """g switched at every vertex of side: each edge with one end in side
    changes colour."""
    cut = {e for e in g.red | g.blue if (e[0] in side) != (e[1] in side)}
    return ColoredGraph(g.n, g.red ^ cut, g.blue ^ cut)


def relabelling_walk(n):
    """Every colouring of one graph per orbit under relabelling, weighted
    by the orbit's size: the walk weighted_colored_graphs replaced, kept
    as its oracle, under the adjacent swaps rather than the engine's
    generators."""
    pairs = pairs_colex(n)
    for orbit in orbits(range(1 << len(pairs)), adjacent_swaps(n)):
        edges, size = [pairs[k] for k in bits(orbit[0])], len(orbit)
        for colours in itertools.product((False, True), repeat=len(edges)):
            blue = frozenset(e for e, is_blue in zip(edges, colours) if is_blue)
            yield ColoredGraph(n, frozenset(edges) - blue, blue), size


class TestWeightedColoredGraphs:
    """One colouring per switching class of one uncoloured graph per
    orbit under relabelling, weighted by the orbit's size times the
    class's, 2^(n - c)."""

    @pytest.mark.parametrize("n,orbit_count,rep_count", [
        (0, 1, 1), (1, 1, 1), (2, 2, 2), (3, 4, 5), (4, 11, 24), (5, 34, 220)])
    def test_orbits_and_representatives(self, n, orbit_count, rep_count):
        # the orbits are the unlabelled graphs, OEIS A000088
        found = list(weighted_colored_graphs(n))
        assert len(found) == rep_count
        assert len({g.red | g.blue for g, _ in found}) == orbit_count

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_weights_count_every_labelled_graph(self, n):
        assert sum(w for _, w in weighted_colored_graphs(n)) == 3 ** (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_weights_are_the_sizes_of_relabelling_classes(self, n):
        # every permutation of the vertices and every switching, against
        # the generated representatives: carried to each labelled copy of
        # its graph by one permutation, each representative's switchings
        # make a class as large as its weight, and the classes partition
        # the labelled coloured graphs
        vertices = range(1, n + 1)
        sides = [set(side) for k in range(n + 1) for side in itertools.combinations(vertices, k)]
        met = set()
        for g, w in weighted_colored_graphs(n):
            copies = {}
            for p in itertools.permutations(vertices):
                copies.setdefault(relabelled(n, g.red | g.blue, p), p)
            cls = {ColoredGraph(n, relabelled(n, h.red, p), relabelled(n, h.blue, p))
                   for h in {switched(g, side) for side in sides} for p in copies.values()}
            assert not cls & met
            met |= cls
            assert len(cls) == w
        assert len(met) == 3 ** (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_tallies_equal_the_relabelling_walk(self, n):
        # the weighted tallies of odd-blue-triangle-free graphs, of
        # blue-bipartite ones, of their posets and of eta, over the
        # switching classes and over every colouring, are F, B and Pn
        def tallies(walk):
            out = dict.fromkeys(("F", "B", "Pn", "eta"), 0)
            for g, w in walk:
                if is_obtf(g):
                    out["F"] += w
                    out["Pn"] += w * len(posets_of_graph(g))
                out["B"] += w * (find_blue_bipartition(g) is not None)
                out["eta"] += w * eta(g)
            return out

        found = tallies(weighted_colored_graphs(n))
        assert found == tallies(relabelling_walk(n))
        assert {q: found[q] for q in ("F", "B", "Pn")} == {
            q: census.count(q, n).value for q in ("F", "B", "Pn")}

    def test_each_orbit_met_at_its_smallest_mask(self):
        # the first labelled graph of each orbit in mask order over the
        # colex pairs, with its colourings in the labelled walk's order
        index = {pair: k for k, pair in enumerate(pairs_colex(4))}
        mask = lambda es: sum(1 << index[e] for e in es)
        found = list(weighted_colored_graphs(4))
        reps = list(dict.fromkeys(g.red | g.blue for g, _ in found))
        for edges in reps:
            assert mask(edges) == min(mask(relabelled(4, edges, p))
                                      for p in itertools.permutations(range(1, 5)))
        assert [mask(e) for e in reps] == sorted(mask(e) for e in reps)
        order = {g: k for k, g in enumerate(enumerate_colored_graphs(4))}
        for edges in reps:
            ranks = [order[g] for g, _ in found if g.red | g.blue == edges]
            assert ranks == sorted(ranks)


class TestObtf:
    def test_one_blue_triangle(self):
        assert not is_obtf(ODD_TRIANGLE)

    def test_two_blue_triangle(self):
        assert is_obtf(EVEN_TRIANGLE)

    def test_triangle_free_vacuous(self):
        assert is_obtf(FOUR_CYCLE)
        assert triangles(FOUR_CYCLE) == []

    @pytest.mark.parametrize("n", range(5))
    def test_matches_the_triangle_by_triangle_definition(self, n):
        for g in enumerate_colored_graphs(n):
            edges = g.red | g.blue
            odd = any({(a, b), (a, c), (b, c)} <= edges
                      and len({(a, b), (a, c), (b, c)} & g.blue) % 2
                      for a, b, c in itertools.combinations(range(1, n + 1), 3))
            assert is_obtf(g) == (not odd), format_colored_graph(g)


class TestBipartition:
    def test_single_blue_edge(self):
        assert find_blue_bipartition(G_BLUE) == frozenset({2})

    def test_four_cycle_frustrated(self):
        assert find_blue_bipartition(FOUR_CYCLE) is None
        assert bipartition_sweep(FOUR_CYCLE) is None

    def test_empty_graph_all_u(self):
        # an empty W is still a witness
        assert find_blue_bipartition(ColoredGraph.of(3)) == frozenset()

    def test_component_roots_stay_out_of_w(self):
        # components {1, 3} and {2, 4, 5}: roots 1 and 2 stay in U
        g = ColoredGraph.of(5, red=[(2, 4)], blue=[(1, 3), (4, 5)])
        assert find_blue_bipartition(g) == frozenset({3, 5})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_propagation_matches_sweep(self, n):
        for g in enumerate_colored_graphs(n):
            fast = find_blue_bipartition(g)
            slow = bipartition_sweep(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert is_valid_bipartition(g, fast)
                assert is_valid_bipartition(g, slow)
                low = list(range(n + 1))    # the lowest vertex of each one's component
                for _ in range(n):
                    for u, v in g.red | g.blue:
                        low[u] = low[v] = min(low[u], low[v])
                assert not fast & set(low[1:])


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

    def test_gamma_sweeps_only_the_core(self):
        # 20 edges on 36 vertices, but only the odd triangle survives the
        # stripping of degree-1 vertices: 4 colourings, not 2^35
        g = ColoredGraph.of(60, red=[(1, 2), (1, 3)] + [(2 * i, 2 * i + 1) for i in range(5, 21)],
                            blue=[(2, 3), (3, 4)])
        assert g.edge_count() == 20
        assert gamma(g) == (1, ((1, 2),))

    def test_guards(self):
        with pytest.raises(ResourceGuardError):
            kappa(ColoredGraph.of(13))


def triangle_component_count(g):
    """The triangle components of g, by brute force: each vertex triple
    whose three edges are present merges every class that meets it."""
    present = g.red | g.blue
    classes = [{e} for e in present]
    for a, b, c in itertools.combinations(range(1, g.n + 1), 3):
        tri = {(a, b), (a, c), (b, c)}
        if tri <= present:
            merged = set().union(*(k for k in classes if k & tri))
            classes = [k for k in classes if not k & tri] + [merged]
    return len(classes)


class TestTriangleComponents:
    def test_single_triangle_one_class(self):
        assert eta(EVEN_TRIANGLE) == 1

    def test_bowtie_two_classes(self):
        bow = ColoredGraph.of(
            5, red=[(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
        assert eta(bow) == 2

    def test_single_edge_singleton_class(self):
        assert eta(ColoredGraph.of(2, red=[(1, 2)])) == 1

    def test_edgeless_counts_as_connected(self):
        assert eta(ColoredGraph.of(3)) == 0

    def test_four_cycle_four_singletons(self):
        assert eta(FOUR_CYCLE) == 4

    @pytest.mark.parametrize("n", range(5))
    def test_matches_brute_force(self, n):
        for g in enumerate_colored_graphs(n):
            assert eta(g) == triangle_component_count(g), format_colored_graph(g)


class TestGraphOfPoset:
    def test_red_edge(self):
        p = poset_from_relations(2, [(1, 2)])  # !x1 < x2
        assert graph_of_poset(p) == G_RED

    def test_blue_edge(self):
        p = poset_from_relations(2, [(0, 2)])  # x1 < x2
        assert graph_of_poset(p) == G_BLUE

    def test_antichain_empty_graph(self):
        assert graph_of_poset((0,) * 4) == ColoredGraph.of(2)


class TestDoubleCover:
    def test_blue_lifts_same_polarity(self):
        assert sorted(double_cover(G_BLUE)) == [(0, 2), (1, 3)]

    def test_red_lifts_mixed_polarity(self):
        assert sorted(double_cover(G_RED)) == [(0, 3), (1, 2)]

    def test_empty(self):
        assert double_cover(ColoredGraph.of(2)) == frozenset()

    def test_edge_count_doubles(self):
        for g in enumerate_colored_graphs(3):
            assert len(double_cover(g)) == 2 * g.edge_count()


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
        assert {frozenset((u, v) for u, row in enumerate(p) for v in bits(row))
                for p in ps} == {frozenset({(0, 2), (3, 1)}), frozenset({(2, 0), (1, 3)})}

    def test_odd_triangle_empty(self):
        assert posets_of_graph(ODD_TRIANGLE) == []

    def test_empty_graph_antichain_only(self):
        assert posets_of_graph(ColoredGraph.of(2)) == [(0,) * 4]

    def test_four_cycle(self):
        assert len(posets_of_graph(FOUR_CYCLE)) == 8

    def test_exactly_the_fiber_of_graph_of_poset(self):
        # group the family, found by the independent order search, by its
        # graph and compare per graph
        by_graph = {}
        for p in strict_orders(6, negation=True):
            by_graph.setdefault(graph_of_poset(p), set()).add(p)
        for g in enumerate_colored_graphs(3):
            assert set(posets_of_graph(g)) == by_graph.get(g, set())

    def test_output_sorted(self):
        ps = posets_of_graph(FOUR_CYCLE)
        assert ps == sorted(ps)

    def test_a_non_member_found_raises(self, monkeypatch):
        # each poset is checked as the search finds it; a graph that
        # carries none checks nothing
        monkeypatch.setattr(litposet, "is_pn_member", lambda rows: False)
        assert posets_of_graph(ODD_TRIANGLE) == []
        with pytest.raises(AssertionError, match="non-member"):
            posets_of_graph(G_BLUE)

    @pytest.mark.parametrize("text,expect", SEVEN_VERTEX_GRAPHS,
                             ids=[f"{12 + i}-edges" for i in range(5)])
    def test_seven_vertex_graphs_exact_posets(self, text, expect):
        g = parse_colored_graph(text)
        assert posets_of_graph(g) == expect


class TestClosedWalks:
    def test_even_triangle_repeated_edge_walk(self):
        # length-5 walk 1-2-3-1-2-1 re-uses edge {1,2}: parity must be even
        walk = [1, 2, 3, 1, 2, 1]
        blues = sum(
            1 for a, b in zip(walk, walk[1:])
            if (min(a, b), max(a, b)) in EVEN_TRIANGLE.blue)
        assert blues % 2 == 0
        assert find_odd_nonsimple_walk(EVEN_TRIANGLE) is None

    def test_empty_graph(self):
        assert find_odd_nonsimple_walk(ColoredGraph.of(3)) is None

    def test_walks_take_neighbours_in_ascending_order(self):
        assert find_odd_nonsimple_walk(ODD_TRIANGLE) == [1, 2, 1, 2, 3, 1]
        frustrated = ColoredGraph.of(5, red=[(1, 2), (1, 5), (2, 5), (1, 3), (1, 4)],
                                     blue=[(3, 4)])
        assert find_odd_nonsimple_walk(frustrated) == [1, 2, 1, 3, 4, 1]
        # no odd walk starts at 1, so the first one starts at 2
        late = ColoredGraph.of(6, red=[(1, 4), (2, 3), (2, 5), (3, 6), (5, 6)],
                               blue=[(2, 6), (4, 5)])
        assert find_odd_nonsimple_walk(late) == [2, 3, 2, 3, 6, 2]

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

    def test_edge_guard(self):
        # K200 (19,900 edges) plus edges of a K201 to vertex 201
        def graph(m):
            edges = pairs_colex(201)[:m]
            return "n 201\n" + "".join(f"{u} {v} B\n" for u, v in edges)

        assert parse_colored_graph(graph(EDGE_GUARD)).edge_count() == 20_000
        with pytest.raises(ResourceGuardError, match="<= 20000 edges, got 20001$"):
            parse_colored_graph(graph(EDGE_GUARD + 1))
