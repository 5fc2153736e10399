"""The fast census kernels against their independent oracles.

G's and H's median-dp engines count the median-closed tables from the
orbits of their projections, and F's DFS has no second engine above
n = 5, so engine agreement alone does not pin either kernel at its cap;
these tests compare each one with the reference definitions (the orbit
sums with the same count over every projection, one table at a time),
the switching-class key of F's memo with brute-force switching, and the
star tables F's last vertex is counted from with every star, triangle by
triangle.  The mask sweeps that verify compares with F's DFS and B's
closed form are compared with cgraph's tests of every colored graph, and
order-dfs's count of the last level with the orders strict_orders lists.
"""

import itertools
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtf import census, cgraph
from obtf.boolfn import bits, colex_pairs, is_elementary, literal_masks, switching
from test_boolfn import (
    associated_pairs,
    closure,
    orbit_sizes,
    spine,
    variable_swaps_and_negation,
)


def _median_closed(n: int) -> frozenset[int]:
    """The half-table median filter's family, and the clause closure's at
    n = 5, where the half-table build takes seconds."""
    return census._conjunctions(n) if n == 5 else census._median_closed_tables(n)


@pytest.mark.parametrize("n", range(6))
def test_projection_family_is_every_median_closed_table(n):
    family = census._projection_family(n)
    assert family == _median_closed(n)
    if n >= 2:
        assert census._conjunctions(n) == family


@pytest.mark.parametrize("n", range(8))
def test_dfs_pairs_are_the_colex_pairs(n):
    """F's DFS branches over cgraph's colex pairs, 0-based: its order fixes
    the branch order."""
    assert colex_pairs(n) == [(a - 1, b - 1) for a, b in cgraph.pairs_colex(n)]


@pytest.mark.parametrize("n", range(6))
def test_elementary_filter_on_every_family_member(n):
    want = sum(1 for t in _median_closed(n) if is_elementary(n, t))
    assert census.count("H", n, "t0", "median-dp").value == want


@pytest.mark.parametrize("n", range(6))
def test_clause_sweep_h_is_the_elementary_conjunctions(n):
    # the masks tested all at once drop exactly what is_elementary drops
    want = sum(1 for t in census._conjunctions(n) if is_elementary(n, t))
    assert census._elementary_conjunction_count(n) == want


# the orbits of MC(n) under the 2^n * n! symmetries of the n-cube
ORBIT_COUNTS = {0: 2, 1: 3, 2: 6, 3: 14, 4: 45, 5: 196}


def _image(perm, t):
    """The table t with each point a moved to perm[a], bit by bit."""
    return sum(1 << perm[a] for a in bits(t))


@pytest.mark.parametrize("n", range(6))
def test_orbits_partition_the_family(n):
    family = census._projection_family(n)
    found = census._orbits(n)
    assert len(found) == ORBIT_COUNTS[n]
    assert sum(size for _, size in found) == len(family)
    assert {rep for rep, _ in found} <= family


@pytest.mark.parametrize("n", range(5))
def test_every_orbit_member_is_in_the_family(n):
    family = census._projection_family(n)
    generators = census._cube_generators(n)
    for rep, size in census._orbits(n):
        orbit = [rep]
        for t in orbit:
            orbit += {_image(g, t) for g in generators} - set(orbit)
        assert len(orbit) == size
        assert set(orbit) <= family


@pytest.mark.parametrize("n", range(6))
def test_generators_map_the_family_and_the_cubes_onto_themselves(n):
    generators = census._cube_generators(n)
    assert len(generators) == min(n, 2)     # the signed cycle, and the swap from n = 2
    cubes = set(census._cubes(n))
    family = census._projection_family(n) if n < 5 else ()
    for g in generators:
        assert sorted(g) == list(range(1 << n))
        assert {_image(g, c) for c in cubes} == cubes
        assert {_image(g, t) for t in family} == set(family)


@pytest.mark.parametrize("n", range(5))
def test_cube_generators_generate_every_symmetry(n):
    group = closure(census._cube_generators(n), 1 << n)
    assert len(group) == (1 << n) * factorial(n)
    assert group == closure(variable_swaps_and_negation(n), 1 << n)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_orbits_match_the_swaps_and_negation(n):
    assert census._orbits(n) == orbit_sizes(census._grown(n), variable_swaps_and_negation(n))


def unweighted_count(n: int) -> int:
    """G_t0(n), n >= 1, as the covering pairs of every median-closed
    table on n - 1 variables, one table at a time."""
    return sum(len(census._covering_pairs(n - 1, p)) for p in census._projection_family(n - 1))


def unweighted_elementary_count(n: int) -> int:
    """H_t0(n), n >= 1, the same way: the covering pairs of every
    elementary projection whose halves are non-empty and where no literal
    u is false on all of lo while true on all of hi."""
    m = n - 1
    literals = literal_masks(m)
    return sum(1 for p in census._projection_family(m) if is_elementary(m, p)
               for lo, hi in census._covering_pairs(m, p) if lo and hi and not any(
                   not lo & x and not hi & literals[u ^ 1] for u, x in enumerate(literals)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_orbit_sum_equals_the_unweighted_count(n):
    # n = 6 walks the 224,716 tables on 5 variables: about 25 s
    assert census._orbit_sum(n, False) == unweighted_count(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_elementary_orbit_sum_equals_the_unweighted_count(n):
    assert census._orbit_sum(n, True) == unweighted_elementary_count(n)


def test_n5_counts_never_build_the_clause_closure():
    for cached in (census._conjunctions, census._orbit_sum):
        cached.cache_clear()
    for quantity in ("G", "H"):
        for convention in ("t0", "t1"):
            census.count(quantity, 5, convention)
    assert census._conjunctions.cache_info().currsize == 0


@st.composite
def truth_tables(draw):
    n = draw(st.integers(0, 5))
    return n, draw(st.integers(0, (1 << (1 << n)) - 1))


@settings(max_examples=500, deadline=None)
@given(table=truth_tables())
def test_elementary_filter_on_random_tables(table):
    # is_elementary stops at the first fixed variable or locked pair
    n, t = table
    assert is_elementary(n, t) == (t != 0 and not spine(n, t) and not associated_pairs(n, t))


def test_f7():
    # about 0.2 s: the switching-class memo holds 1,309 classes, for the
    # vertices before the last, which is counted by popcount
    assert census.count("F", 7, method="dfs-prune").value == 266_919_023


def _rows(b: int, states: tuple) -> tuple[list[int], list[int]]:
    """nbr and blue rows of the graph with the given pair states, in
    itertools.combinations order."""
    nbr, blue = [0] * b, [0] * b
    for (a, c), s in zip(itertools.combinations(range(b), 2), states):
        if s:
            nbr[a] |= 1 << c
            nbr[c] |= 1 << a
        if s == 2:
            blue[a] |= 1 << c
            blue[c] |= 1 << a
    return nbr, blue


def _switched(b: int, states: tuple, t: int) -> tuple:
    """The states after switching at vertex set t: an edge with exactly
    one end in t swaps red (1) and blue (2)."""
    return tuple(s ^ 3 if s and (t >> a ^ t >> c) & 1 else s
                 for (a, c), s in zip(itertools.combinations(range(b), 2), states))


def _switch_key(nbr: list[int], blue: list[int]) -> tuple:
    """F's memo key, less its vertex count: the rows nbr and the blue rows
    that boolfn.switching leaves."""
    return (*nbr, *switching(nbr, blue)[1])


@pytest.mark.parametrize("b", range(5))
def test_switch_key_names_exactly_the_switching_classes(b):
    graphs = list(itertools.product((0, 1, 2), repeat=b * (b - 1) // 2))
    key = {g: _switch_key(*_rows(b, g)) for g in graphs}
    cls = {g: frozenset(_switched(b, g, t) for t in range(1 << b)) for g in graphs}
    assert len(set(key.values())) == len(set(cls.values()))
    assert len({(key[g], cls[g]) for g in graphs}) == len(set(cls.values()))


@st.composite
def colored_graphs(draw):
    b = draw(st.sampled_from((5, 6)))
    pairs = b * (b - 1) // 2
    return b, tuple(draw(st.lists(st.sampled_from((0, 1, 2)), min_size=pairs, max_size=pairs)))


@st.composite
def switched_pairs(draw):
    b, states = draw(colored_graphs())
    return b, states, _switched(b, states, draw(st.integers(0, (1 << b) - 1)))


@settings(max_examples=300, deadline=None)
@given(case=switched_pairs())
def test_switch_key_is_switching_invariant(case):
    b, states, other = case
    assert _switch_key(*_rows(b, states)) == _switch_key(*_rows(b, other))


def _unruled_stars(b: int, states: tuple) -> set[int]:
    """The states N << b | beta that census._star_states leaves to a new
    vertex b joining the graph with the given pair states, in
    itertools.combinations order."""
    full, ruled = census._star_states(b)
    colour = dict(zip(itertools.combinations(range(b), 2), states))
    bad = 0
    for pair, out in zip(colex_pairs(b), ruled):
        if colour[pair]:
            bad |= out[colour[pair] - 1]
    return set(bits(full & ~bad))


def _even_stars(b: int, states: tuple) -> set[int]:
    """The same states by brute force: each of the 3^b stars, vertex v
    out (0), joined red (1) or blue (2), kept iff every triangle u w b it
    closes has an even number of blue edges."""
    edges = [(u, w, s) for (u, w), s in zip(itertools.combinations(range(b), 2), states) if s]
    found = set()
    for star in itertools.product((0, 1, 2), repeat=b):
        if all((s == 2) + (star[u] == 2) + (star[w] == 2) in (0, 2)
               for u, w, s in edges if star[u] and star[w]):
            nb = sum(1 << v for v in range(b) if star[v])
            beta = sum(1 << v for v in range(b) if star[v] == 2)
            found.add(nb << b | beta)
    return found


@pytest.mark.parametrize("b", range(5))
def test_star_states_on_every_graph(b):
    for states in itertools.product((0, 1, 2), repeat=b * (b - 1) // 2):
        assert _unruled_stars(b, states) == _even_stars(b, states), states


@settings(max_examples=200, deadline=None)
@given(case=colored_graphs())
def test_star_states_on_sampled_graphs(case):
    b, states = case
    assert _unruled_stars(b, states) == _even_stars(b, states)


# The reference sweeps: each colored graph built by cgraph and tested
# whole, by the checks analyze and verify use


def _obtf_graph_sweep(n: int) -> int:
    return sum(map(cgraph.is_obtf, cgraph.enumerate_colored_graphs(n)))


def _bb_graph_sweep(n: int) -> int:
    return sum(cgraph.find_blue_bipartition(g) is not None
               for g in cgraph.enumerate_colored_graphs(n))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_mask_sweeps_equal_the_graph_sweeps(n):
    assert census._obtf_sweep(n) == _obtf_graph_sweep(n)
    assert census._bb_sweep(n) == _bb_graph_sweep(n)


@pytest.mark.parametrize("m,negation", [*((m, False) for m in range(7)),
                                        *((m, True) for m in range(0, 9, 2))])
def test_order_count_is_the_streams_length(m, negation):
    assert census._order_count(m, negation) == sum(1 for _ in census.strict_orders(m, negation))


@pytest.mark.parametrize("m,negation", [(-1, False), (-2, True), (1, True), (3, True)])
def test_order_count_refuses_what_strict_orders_refuses(m, negation):
    with pytest.raises(ValueError) as counted:
        census._order_count(m, negation)
    with pytest.raises(ValueError) as listed:
        list(census.strict_orders(m, negation))
    assert str(counted.value) == str(listed.value)
