import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtf import covers
from obtf.boolfn import (
    ParseError,
    ResourceGuardError,
    all_ones,
    bits,
    is_elementary,
    literal_index,
    realize_formula,
    truth_table,
)
from obtf.census import strict_orders
from obtf.cgraph import ColoredGraph, enumerate_pn, graph_of_covers, posets_of_graph
from obtf.litposet import (
    cover_orders,
    cover_pairs,
    cover_rows,
    format_poset,
    implication_poset,
    is_pn_member,
    parse_poset,
    poset_from_relations,
    poset_to_function,
    transitive_closure,
)

from test_boolfn import all_formulas, formula
from test_format_properties import formulas, posets

X1, NX1, X2, NX2, X3, NX3 = range(6)


def poset_of(n, *relations):
    return poset_from_relations(n, relations)


def relation_pairs(p):
    """Every relation u < v of a poset's closure rows."""
    return {(u, v) for u, row in enumerate(p) for v in bits(row)}


class TestMembership:
    def test_antichain(self):
        assert is_pn_member((0,) * 4)

    def test_own_negation_comparable_rejected(self):
        rows = (0b10, 0)  # x1 < !x1
        assert not is_pn_member(rows)

    def test_negation_symmetry_required(self):
        # x1 < x2 without !x2 < !x1
        rows = (1 << X2, 0, 0, 0)
        assert not is_pn_member(rows)

    def test_transitivity_required(self):
        # x1 < x2 < x3 with duals but without the closing relations
        rows = [0] * 6
        rows[X1] |= 1 << X2
        rows[X2] |= 1 << X3
        rows[NX2] |= 1 << NX1
        rows[NX3] |= 1 << NX2
        assert not is_pn_member(tuple(rows))
        assert is_pn_member(transitive_closure(tuple(rows)))

    def test_from_relations_refuses_a_non_member(self):
        assert poset_of(2, (X1, X2)) == (1 << X2, 0, 0, 1 << NX1)
        with pytest.raises(ValueError, match="not a member"):
            poset_of(2, (X1, X2), (X2, NX1))   # closes to x1 < !x1

    def test_raw_matrix_sweep_n2_finds_exactly_five(self):
        # every irreflexive relation matrix on the 4 literals of n=2
        cells = [(u, v) for u in range(4) for v in range(4) if u != v]
        members = set()
        for picks in itertools.product((0, 1), repeat=len(cells)):
            rows = [0, 0, 0, 0]
            for (u, v), bit in zip(cells, picks):
                if bit:
                    rows[u] |= 1 << v
            if is_pn_member(tuple(rows)):
                members.add(tuple(rows))
        assert len(members) == 5


def closure_membership(rows):
    """The membership test's oracle: irreflexive, no literal comparable
    to its negation, equal to its own Warshall closure, negation
    symmetric and antisymmetric."""
    size = len(rows)
    for u in range(size):
        if (rows[u] >> u) & 1:
            return False
        if (rows[u] >> (u ^ 1)) & 1:
            return False
    if transitive_closure(rows) != rows:
        return False
    for u in range(size):
        for v in range(size):
            if (rows[u] >> v) & 1:
                if not (rows[v ^ 1] >> (u ^ 1)) & 1:
                    return False
                if (rows[v] >> u) & 1:
                    return False
    return True


def test_membership_is_the_closure_oracle_on_every_n2_matrix():
    members = 0
    for cells in range(1 << 16):
        rows = tuple((cells >> (4 * u)) & 0b1111 for u in range(4))
        member = closure_membership(rows)
        assert is_pn_member(rows) == member
        members += member
    assert members == 5


@st.composite
def relation_matrices(draw, max_n=4):
    """A random relation matrix over the 2n literals, n <= max_n: a few
    random relations u < v, each with or without its negation dual, the
    whole either as drawn or transitively closed, so that members and
    near-members both turn up."""
    n = draw(st.integers(0, max_n))
    rows = [0] * (2 * n)
    if n:
        literal = st.integers(0, 2 * n - 1)
        for u, v in draw(st.lists(st.tuples(literal, literal), max_size=6)):
            rows[u] |= 1 << v
            if draw(st.booleans()):
                rows[v ^ 1] |= 1 << (u ^ 1)
    rows = tuple(rows)
    if draw(st.booleans()):
        rows = transitive_closure(rows)
    return rows


@settings(max_examples=500, deadline=None)
@given(rows=relation_matrices())
def test_membership_is_the_closure_oracle(rows):
    assert is_pn_member(rows) == closure_membership(rows)


class TestImplicationPoset:
    def test_single_clause(self):
        p = implication_poset(*formula(2, (1, 2)))
        assert relation_pairs(p) == {(NX1, X2), (NX2, X1)}

    def test_empty_formula_gives_antichain(self):
        assert implication_poset(2, ()) == (0,) * 4

    def test_closure_added(self):
        p = implication_poset(*formula(3, (-1, 2), (-2, 3)))
        assert (p[X1] >> X3) & 1
        assert (p[NX3] >> NX1) & 1

    def test_non_elementary_rejected(self):
        f = formula(2, (1, 2), (1, -2))  # forces x1
        with pytest.raises(ValueError, match="elementary"):
            implication_poset(*f)

    def test_refused_exactly_off_elementary_on_every_small_formula(self):
        checked = 0
        for n in range(4):
            for f in all_formulas(n):
                assert implication_refused(n, f) == (not is_elementary(n, truth_table(n, f)))
                checked += 1
        assert checked == 4114


def implication_refused(n, clauses):
    """Whether implication_poset raises ValueError on the formula."""
    try:
        implication_poset(n, clauses)
    except ValueError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(f=formulas(max_n=7))
def test_implication_poset_refused_exactly_off_elementary(f):
    assert implication_refused(*f) == (not is_elementary(f[0], truth_table(*f)))


class TestCoverRelations:
    def test_height_one_relations_are_covers(self):
        p = poset_of(2, (NX1, X2))
        assert cover_pairs(p) == frozenset({(NX1, X2), (X1, NX2)})

    def test_chain_drops_transitive_edge(self):
        p = poset_of(3, (X1, X2), (X2, X3))
        edges = cover_pairs(p)
        assert edges == frozenset({(X1, X2), (X2, X3), (NX1, NX2), (NX2, NX3)})
        assert (X1, X3) not in edges

    def test_antichain_has_no_covers(self):
        assert cover_pairs((0,) * 6) == frozenset()

    def test_covers_negation_symmetric(self):
        for p in enumerate_pn(3):
            edges = cover_pairs(p)
            for u, v in edges:
                du, dv = u ^ 1, v ^ 1
                assert (min(du, dv), max(du, dv)) in edges

    def test_covers_generate_the_order(self):
        for p in enumerate_pn(3):
            rows = [0] * len(p)
            for u, v in cover_pairs(p):
                if (p[u] >> v) & 1:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
            assert transitive_closure(tuple(rows)) == p

    def test_graph_of_covers_rejects_negation_pair(self):
        # a literal covering its own negation would be a loop on vertex 1
        with pytest.raises(ValueError):
            graph_of_covers(1, frozenset({(0, 1)}))


@st.composite
def closed_dags(draw, max_points=8):
    """The closure rows of a random DAG on up to max_points points, its
    edges oriented along a random permutation of the labels."""
    m = draw(st.integers(0, max_points))
    perm = draw(st.permutations(range(m)))
    rows = [0] * m
    for j in range(m):
        for i in range(j):
            if draw(st.booleans()):
                rows[perm[i]] |= 1 << perm[j]
    return transitive_closure(tuple(rows))


@settings(max_examples=300, deadline=None)
@given(rows=closed_dags())
def test_cover_routine_finds_exactly_the_covers(rows):
    m = len(rows)

    def less(u, v):
        return (rows[u] >> v) & 1

    covers = {(u, v) for u in range(m) for v in range(m)
              if less(u, v) and not any(less(u, w) and less(w, v) for w in range(m))}
    assert {(u, v) for u, row in enumerate(cover_rows(rows))
            for v in range(m) if (row >> v) & 1} == covers
    assert cover_pairs(rows) == {(min(u, v), max(u, v)) for u, v in covers}


@settings(max_examples=300, deadline=None)
@given(rows=closed_dags())
def test_order_is_among_its_cover_graphs_orders(rows):
    # the cover-graph question's orientation search, on up to 8 points
    graph = sum(1 << b * (b - 1) // 2 + a for a, b in cover_pairs(rows))
    found = list(covers._cover_orders(len(rows), graph))
    assert rows in found
    assert all(cover_pairs(order) == cover_pairs(rows) for order in found)
    assert len(set(found)) == len(found)


def orientations(*edges):
    """Plain seeds: each edge (a, b) taken as a < b or as b < a."""
    return [(((a, b),), ((b, a),)) for a, b in edges]


def lifted(*pairs):
    """Literal seeds: each literal pair (a, b) taken as a < b or as b < a,
    each with its negation dual."""
    return [(((a, b), (b ^ 1, a ^ 1)), ((b, a), (a ^ 1, b ^ 1))) for a, b in pairs]


class TestCoverOrders:
    def test_orders_are_yielded_not_listed(self):
        found = cover_orders(3, orientations((0, 1), (1, 2)), 0)
        assert iter(found) is found
        assert not isinstance(found, list)
        assert next(found) in {(0, 0b001, 0b011), (0, 0b101, 0),
                               (0b010, 0, 0b010), (0b110, 0b100, 0)}

    def test_three_point_path_has_four_orders(self):
        # the chains 0 < 1 < 2 and 2 < 1 < 0, and 1 as the top or the bottom
        found = cover_orders(3, orientations((0, 1), (1, 2)), 0)
        assert sorted(found) == [(0, 0b001, 0b011), (0, 0b101, 0),
                                 (0b010, 0, 0b010), (0b110, 0b100, 0)]

    def test_triangle_has_none(self):
        assert list(cover_orders(3, orientations((0, 1), (0, 2), (1, 2)), 0)) == []

    def test_single_blue_edge_lifts_to_two_posets(self):
        # the blue edge {1, 2} lifts to the literals x1 = 0 and x2 = 2:
        # x1 < x2 with not-x2 < not-x1, or the reverse
        found = list(cover_orders(4, lifted((0, 2)), 0b0101))
        assert sorted(found) == [(0, 1 << NX2, 1 << X1, 0), (1 << X2, 0, 0, 1 << NX1)]
        assert sorted(found) == posets_of_graph(ColoredGraph.of(2, blue=[(1, 2)]))

    def test_pos_keeps_literals_apart_from_their_negations(self):
        # blue 1-2 and 1-3, red 2-3: without pos, x1 < x2 < not-x3 < not-x1
        # is kept, with x1 below its own negation (one edge alone, as in
        # the test above, cannot join a literal to its negation)
        seeds = lifted((X1, X2), (X1, X3), (X2, NX3))
        members = list(cover_orders(6, seeds, 0b010101))
        assert sorted(members) == posets_of_graph(
            ColoredGraph.of(3, blue=[(1, 2), (1, 3)], red=[(2, 3)]))
        assert len(members) == 2 and all(is_pn_member(p) for p in members)
        unchecked = list(cover_orders(6, seeds, 0))
        assert set(members) < set(unchecked)
        assert any(p[u] >> (u ^ 1) & 1 for p in unchecked for u in range(6))
        assert not all(is_pn_member(p) for p in unchecked)


class TestPosetToFunction:
    def test_antichain_is_constant_true(self):
        t = poset_to_function((0,) * 4)
        assert t == all_ones(2)

    def test_two_examples(self):
        t = poset_to_function(poset_of(2, (NX1, X2)))
        assert t == 0b1110
        t = poset_to_function(poset_of(2, (X1, X2)))
        assert t == 0b1101

    def test_formula_uses_all_relations(self):
        p = poset_of(3, (X1, X2), (X2, X3))
        f = relation_formula(p)
        # three relations up to duality: x1<x2, x2<x3, x1<x3
        assert len(f) == 3

    def test_roundtrip_through_own_formula(self):
        for p in enumerate_pn(3):
            assert implication_poset(3, relation_formula(p)) == p

    @pytest.mark.parametrize("n", range(4))
    def test_is_the_clause_route(self, n):
        for p in enumerate_pn(n):
            assert poset_to_function(p) == truth_table(n, relation_formula(p))


@settings(max_examples=200, deadline=None)
@given(p=posets(max_n=6))
def test_function_round_trip_beyond_verify_sizes(p):
    # verify's bijection-roundtrip walks the whole family only up to n = 4
    n, t = len(p) // 2, poset_to_function(p)
    assert is_elementary(n, t)
    assert implication_poset(n, realize_formula(n, t)) == p


def relation_formula(p):
    """The clause set of p's oracle formula: one clause (not-u or v) per
    relation u < v, every relation rather than just the covers."""
    return frozenset((min(u ^ 1, v), max(u ^ 1, v)) for u, v in relation_pairs(p))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 5), (3, 69)])
    def test_counts(self, n, count):
        ps = list(enumerate_pn(n))
        assert len(ps) == count
        assert all(is_pn_member(p) for p in ps)

    def test_no_duplicates(self):
        ps = list(enumerate_pn(3))
        assert len(set(ps)) == len(ps)

    @pytest.mark.parametrize("n", [
        1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])    # 5: 138,057, about 10 s
    def test_matches_relation_sweep_oracle(self, n):
        assert set(enumerate_pn(n)) == set(strict_orders(2 * n, negation=True))

    @pytest.mark.parametrize("n", [
        0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])    # 4: about 7 s, all in the sweep
    def test_order_search_is_the_relation_sweep(self, n):
        assert set(strict_orders(2 * n, negation=True)) == relation_sweep(n)

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            list(enumerate_pn(6))


def relation_sweep(n):
    """The order search's oracle: per unordered variable pair there are
    two negation-symmetry orbits of literal pairs (same polarity and
    mixed); choose <, > or incomparable per orbit, 3^(2*C(n,2)) candidates
    in all, and keep the members of the family."""
    orbits = []
    for j in range(2, n + 1):
        for i in range(1, j):
            xi, xj = literal_index(i), literal_index(j)
            orbits += [(xi, xj), (xi, xj ^ 1)]
    out = set()
    for states in itertools.product((0, 1, 2), repeat=len(orbits)):
        rows = [0] * (2 * n)
        for (u, v), s in zip(orbits, states):
            if s == 1:
                rows[u] |= 1 << v
                rows[v ^ 1] |= 1 << (u ^ 1)
            elif s == 2:
                rows[v] |= 1 << u
                rows[u ^ 1] |= 1 << (v ^ 1)
        if is_pn_member(tuple(rows)):
            out.add(tuple(rows))
    return out


class TestPosetText:
    def test_roundtrip_all_of_p3(self):
        for p in enumerate_pn(3):
            assert parse_poset(format_poset(p)) == p

    def test_closure_and_duals_implied(self):
        p = parse_poset("n 3\n1 2\n2 3\n")
        assert (p[X1] >> X3) & 1
        assert (p[NX2] >> NX1) & 1

    def test_bad_relation_rejected(self):
        with pytest.raises(ParseError):
            parse_poset("n 2\n1 -1\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_poset("n 2\n1 3\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_poset("1 2\n")


def test_lit_index_layout():
    assert [literal_index(1), literal_index(-1)] == [0, 1]
    assert [literal_index(3), literal_index(-3)] == [4, 5]
