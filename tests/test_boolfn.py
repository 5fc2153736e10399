import functools
import itertools
import random
from math import factorial
from operator import getitem

import pytest

from obtf import census, covers
from obtf.boolfn import (
    ParseError,
    _byte_images,
    all_clauses,
    all_ones,
    bits,
    colex_pairs,
    is_elementary,
    literal_index,
    literal_masks,
    orbits,
    parse_formula,
    realize_formula,
    signed_literal,
    truth_table,
    variable_masks,
    vertex_generators,
)


def table(*assignments):
    """Build a table from assignment tuples like (1,0) meaning x1=1, x2=0."""
    t = 0
    for a in assignments:
        t |= 1 << sum(v << i for i, v in enumerate(a))
    return t


def all_formulas(n, min_clauses=0):
    """Every clause set on n variables with at least min_clauses clauses."""
    clauses = all_clauses(n)
    for r in range(min_clauses, len(clauses) + 1):
        for sub in itertools.combinations(clauses, r):
            yield frozenset(sub)


def formula(n, *signed_pairs):
    """n and the clause set of the given signed-literal pairs, as
    parse_formula returns them."""
    indices = ((literal_index(a), literal_index(b)) for a, b in signed_pairs)
    return n, frozenset((min(u, v), max(u, v)) for u, v in indices)


def format_formula(n, clauses):
    """The formula text format, one clause per line, sorted by variable
    with not-x_i before x_i."""
    lines = [f"n {n}"]
    for a, b in sorted(clauses, key=lambda c: (c[0] ^ 1, c[1] ^ 1)):
        lines.append(f"{signed_literal(a)} {signed_literal(b)}")
    return "\n".join(lines) + "\n"


def spine(n, t):
    """The definition is_elementary is checked against: the variables
    taking one value in every model, as {variable: forced value}.
    ValueError on the unsatisfiable table, where it is undefined."""
    if t == 0:
        raise ValueError("trivial function: spine undefined")
    forced = {}
    for i, m in enumerate(variable_masks(n), start=1):
        if t & ~m == 0:
            forced[i] = True
        elif t & m == 0:
            forced[i] = False
    return forced


def associated_pairs(n, t):
    """The variable pairs locked together in every model: (i, j, +1) when
    x_i == x_j everywhere, (i, j, -1) when x_i != x_j, i < j.  ValueError
    on the unsatisfiable table."""
    if t == 0:
        raise ValueError("trivial function: associated pairs undefined")
    masks = variable_masks(n)
    pairs = set()
    for i, j in itertools.combinations(range(1, n + 1), 2):
        diff = masks[i - 1] ^ masks[j - 1]
        if t & diff == 0:
            pairs.add((i, j, +1))
        elif t & ~diff == 0:
            pairs.add((i, j, -1))
    return pairs


def adjacent_swaps(m):
    """The m - 1 adjacent point swaps (i, i + 1) of points 0..m-1, each as
    the permutation it makes of the colex_pairs(m): a second generating
    set of the relabellings, the oracle of vertex_generators' orbits."""
    pairs = colex_pairs(m)
    index = {pair: k for k, pair in enumerate(pairs)}
    return [tuple(index[tuple(sorted(v + (v == i) - (v == i + 1) for v in pair))]
                  for pair in pairs) for i in range(m - 1)]


def variable_swaps_and_negation(n):
    """The n - 1 adjacent variable swaps and the negation of x_1, each as
    the permutation it makes of the 2^n assignments: a second generating
    set of the n-cube's symmetries, the oracle of census's cube
    generators."""
    points = range(1 << n)
    swaps = [tuple(a ^ ((a >> i ^ a >> (i + 1)) & 1) * (3 << i) for a in points)
             for i in range(n - 1)]
    return [*swaps, tuple(a ^ 1 for a in points)] if n else []


def closure(perms, size):
    """Every permutation of range(size) that perms generate, as tuples."""
    group = [tuple(range(size))]
    seen = set(group)
    for g in group:
        for p in perms:
            h = tuple(p[x] for x in g)
            if h not in seen:
                seen.add(h)
                group.append(h)
    return seen


def byte_images_by_entry(perm):
    """The per-entry definition of boolfn._byte_images: entry v of byte k
    is the sum of the images of the points 8k + i, i a set bit of v, that
    perm has."""
    return tuple(tuple(sum(1 << perm[8 * k + i] for i in bits(v) if 8 * k + i < len(perm))
                       for v in range(256))
                 for k in range((len(perm) + 7) // 8))


def orbits_by_byte_sums(members, point_perms):
    """The orbit walk with each image the sum of its bytes' entries, read
    through to_bytes: the reference for boolfn.orbits' lists."""
    tables = [byte_images_by_entry(tuple(perm)) for perm in point_perms]
    seen = set()
    for t in members:
        if t in seen:
            continue
        seen.add(t)
        orbit = [t]
        for x in orbit:
            for images in tables:
                y = sum(map(getitem, images, x.to_bytes(len(images), "little")))
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        yield orbit


def random_cyclic_walk(size):
    """200 random bitsets on size points, and a random perm p with its
    square: they generate a cyclic group, so every orbit is small."""
    rng = random.Random(size)
    p = rng.sample(range(size), size)
    return [rng.getrandbits(size) for _ in range(200)], [p, [p[i] for i in p]]


# the members and generators of walks over 2 to 4 bytes
WALKS = {
    "MC(4)": lambda: (list(census._grown(4)), census._cube_generators(4)),
    "triangle-free(6)": lambda: (list(covers._triangle_free_graphs(6)), vertex_generators(6)),
    **{f"random({size})": functools.partial(random_cyclic_walk, size) for size in (10, 21, 32)},
}


def orbit_sizes(members, point_perms):
    """The walk's orbits as (representative, size) pairs."""
    return [(orbit[0], len(orbit)) for orbit in orbits(members, point_perms)]


class TestOrbits:
    def test_subsets_of_three_points_under_their_symmetric_group(self):
        # swaps (0 1) and (1 2) generate S_3: one orbit per subset size,
        # each led by its first member and listed in the walk's order
        found = list(orbits(range(8), [(1, 0, 2), (0, 2, 1)]))
        assert found == [[0], [1, 2, 4], [3, 5, 6], [7]]

    def test_binary_necklaces_of_length_ten(self):
        # two bytes per bitset, the second one partly filled: the rotation
        # of 10 points has 108 orbits on the 1,024 subsets (OEIS A000031)
        found = list(orbits(range(1 << 10), [tuple((i + 1) % 10 for i in range(10))]))
        assert len(found) == 108
        assert sum(len(orbit) for orbit in found) == 1 << 10
        assert [0b1111111111] in found
        assert found[1] == [1 << i for i in range(10)]    # the orbit of 0b1, met second

    @pytest.mark.parametrize("n,want", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_graphs_up_to_isomorphism(self, n, want):
        # the points are the C(n,2) vertex pairs and the generators the
        # adjacent vertex swaps: the orbits are the unlabelled graphs, OEIS
        # A000088
        pairs = list(itertools.combinations(range(n), 2))
        index = {pair: k for k, pair in enumerate(pairs)}
        swaps = [tuple(index[tuple(sorted(v + (v == i) - (v == i + 1) for v in pair))]
                       for pair in pairs) for i in range(n - 1)]
        assert len(list(orbits(range(1 << len(pairs)), swaps))) == want

    def test_vertex_swaps_permute_the_colex_pairs(self):
        # the pairs (0, 1), (0, 2), (1, 2): swapping points 0 and 1 swaps
        # the last two, and the cycle 0 -> 1 -> 2 -> 0 takes (0, 1) to
        # (1, 2), (0, 2) to (0, 1) and (1, 2) to (0, 2)
        assert vertex_generators(3) == [(0, 2, 1), (2, 0, 1)]
        assert vertex_generators(2) == [(0,)]
        assert vertex_generators(1) == vertex_generators(0) == []

    @pytest.mark.parametrize("m", range(7))
    def test_vertex_generators_generate_every_relabelling(self, m):
        # two points have one pair, which every relabelling keeps
        group = closure(vertex_generators(m), m * (m - 1) // 2)
        assert len(group) == (1 if m == 2 else factorial(m))
        assert group == closure(adjacent_swaps(m), m * (m - 1) // 2)

    @pytest.mark.parametrize("n,want", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_vertex_swaps_give_graphs_up_to_isomorphism(self, n, want):
        masks = range(1 << n * (n - 1) // 2)
        found = list(orbits(masks, vertex_generators(n)))
        assert len(found) == want
        # the same representatives and sizes as under the adjacent swaps
        assert [(orbit[0], len(orbit)) for orbit in found] == orbit_sizes(masks, adjacent_swaps(n))
        # the orbits partition the labelled graphs, and up to 5 vertices
        # each is every relabelling of its first member, by brute force
        assert sorted(g for orbit in found for g in orbit) == list(masks)
        if n <= 5:
            pairs = colex_pairs(n)
            index = {pair: k for k, pair in enumerate(pairs)}
            for orbit in found:
                edges = [pairs[k] for k in bits(orbit[0])]
                assert set(orbit) == {
                    sum(1 << index[min(p[a], p[b]), max(p[a], p[b])] for a, b in edges)
                    for p in itertools.permutations(range(n))}
        assert list(orbits([], vertex_generators(n))) == []

    def test_no_generators_leave_every_member_alone(self):
        assert list(orbits([5, 3, 5], [])) == [[5], [3]]

    def test_byte_images_match_the_per_entry_definition(self):
        # every size from none to five bytes, the last byte partly filled
        # unless the size is a multiple of 8
        rng = random.Random(33)
        for size in range(34):
            perm = tuple(rng.sample(range(size), size))
            assert _byte_images(perm) == byte_images_by_entry(perm), size

    @pytest.mark.parametrize("case", WALKS)
    def test_walk_lists_match_the_byte_sum_walk(self, case):
        # the same representatives, sizes and member order
        members, perms = WALKS[case]()
        assert list(orbits(members, perms)) == list(orbits_by_byte_sums(members, perms))


class TestLiteral:
    def test_negation_involution(self):
        # negation is index XOR 1
        for a in (1, 2, 7):
            assert literal_index(-a) == literal_index(a) ^ 1
            assert signed_literal(literal_index(a) ^ 1) == -a

    def test_signed_roundtrip(self):
        for a in (1, -1, 3, -5):
            assert signed_literal(literal_index(a)) == a
        for u in range(10):
            assert literal_index(signed_literal(u)) == u

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="^0 is not a valid signed literal$"):
            literal_index(0)


@pytest.mark.parametrize("n", range(7))
def test_literal_masks_by_definition(n):
    # the mask of x_v (of not-x_v) holds the assignments a giving x_v the
    # value True (False), read as bit v-1 of a
    masks = literal_masks(n)
    assert len(masks) == 2 * n
    for v in range(1, n + 1):
        for positive in (True, False):
            want = sum(1 << a for a in range(1 << n) if (a >> (v - 1)) & 1 == positive)
            assert masks[literal_index(v if positive else -v)] == want


class TestClause:
    def test_all_clauses_order(self):
        assert all_clauses(2) == ((0, 2), (0, 3), (1, 2), (1, 3))
        assert all_clauses(3)[4:] == ((0, 4), (0, 5), (1, 4), (1, 5),
                                      (2, 4), (2, 5), (3, 4), (3, 5))


class TestTruthTable:
    def test_single_clause(self):
        t = truth_table(*formula(2, (1, 2)))
        assert t == table((0, 1), (1, 0), (1, 1))
        assert t.bit_count() == 3

    def test_empty_formula_is_true(self):
        assert truth_table(2, ()) == all_ones(2)

    def test_four_clauses_unsatisfiable(self):
        assert truth_table(*formula(2, (1, 2), (-1, 2), (1, -2), (-1, -2))) == 0

    def test_adding_clause_never_adds_assignments(self):
        # exhaustive at n=2
        for f in all_formulas(2):
            base = truth_table(2, f)
            for c in all_clauses(2):
                extended = truth_table(2, f | {c})
                assert extended & ~base == 0


class TestSpine:
    def test_singleton_fixes_everything(self):
        assert spine(2, table((1, 1))) == {1: True, 2: True}

    def test_three_assignments_empty_spine(self):
        assert spine(2, table((0, 1), (1, 0), (1, 1))) == {}

    def test_one_forced_variable(self):
        assert spine(2, table((1, 0), (1, 1))) == {1: True}

    def test_unsatisfiable_rejected(self):
        with pytest.raises(ValueError, match="trivial function"):
            spine(2, 0)


class TestAssociatedPairs:
    def test_equal(self):
        assert associated_pairs(2, table((0, 0), (1, 1))) == {(1, 2, +1)}

    def test_complementary(self):
        assert associated_pairs(2, table((0, 1), (1, 0))) == {(1, 2, -1)}

    def test_none(self):
        assert associated_pairs(2, table((0, 1), (1, 0), (1, 1))) == set()

    def test_unsatisfiable_rejected(self):
        with pytest.raises(ValueError):
            associated_pairs(2, 0)

    def test_singleton_has_spine_and_associations(self):
        # no mutual exclusion for one-assignment tables: the definitions
        # all hold literally
        t = table((1, 0))
        assert spine(2, t) == {1: True, 2: False}
        assert associated_pairs(2, t) == {(1, 2, -1)}


class TestElementary:
    def test_examples(self):
        assert is_elementary(2, table((0, 1), (1, 0), (1, 1)))
        assert not is_elementary(2, table((0, 0), (1, 1)))
        assert is_elementary(1, 0b11)
        assert not is_elementary(2, 0)

    def test_early_exit_keeps_the_definition(self):
        tables = [(n, t) for n in range(4) for t in range(1 << (1 << n))]
        tables += [(4, t) for t in census._median_closed_tables(4)]
        for n, t in tables:
            assert is_elementary(n, t) == (
                t != 0 and not spine(n, t) and not associated_pairs(n, t)), (n, t)

    def _relabeled(self, n, t, perm, flips):
        out = 0
        for a in range(1 << n):
            old = 0
            for i in range(n):
                if ((a >> i) & 1) ^ flips[i]:
                    old |= 1 << (perm[i] - 1)
            if (t >> old) & 1:
                out |= 1 << a
        return out

    def test_invariant_under_relabeling(self):
        n = 3
        tables = dict.fromkeys(truth_table(n, f) for f in all_formulas(n, min_clauses=1))
        for t in list(tables)[:80]:
            want = is_elementary(n, t)
            for perm in itertools.permutations(range(1, n + 1)):
                for flips in itertools.product((0, 1), repeat=n):
                    assert is_elementary(n, self._relabeled(n, t, perm, flips)) == want


def is_median_closed(t):
    """Closed under coordinatewise majority of any three satisfying
    assignments: the oracle the median-closed engines are tested against.

    The assignment encoding makes majority a bitwise expression on the
    indices themselves: maj(a,b,c) = (a&b)|(a&c)|(b&c).
    """
    return all((t >> ((a & b) | (a & c) | (b & c))) & 1
               for a, b, c in itertools.combinations(bits(t), 3))


def is_2sat_definable(n, t, allow_empty):
    """Whether some formula (empty allowed iff allow_empty) has this table.

    For n >= 2 this is the median-closure criterion, with constant True
    reachable only through the empty formula. With fewer than two
    variables no clause exists at all, so only constant True is definable
    and only by the empty formula.
    """
    if n < 2:
        return allow_empty and t == all_ones(n)
    return is_median_closed(t) and (allow_empty or t != all_ones(n))


class TestMedianClosed:
    def test_examples(self):
        assert is_median_closed(table((0, 1), (1, 0), (1, 1)))
        assert is_median_closed(table((0, 0), (1, 0)))
        assert is_median_closed(0)
        assert not is_median_closed(table((0, 0, 1), (0, 1, 0), (1, 0, 0)))

    def test_every_formula_table_is_median_closed(self):
        for f in all_formulas(2):
            assert is_median_closed(truth_table(2, f))
        # spot-check n=3 over single- and double-clause formulas
        cs = all_clauses(3)
        for a, b in itertools.combinations(cs, 2):
            assert is_median_closed(truth_table(3, [a, b]))


class TestDefinable:
    def test_examples(self):
        assert is_2sat_definable(2, table((0, 1), (1, 0), (1, 1)), allow_empty=False)
        assert not is_2sat_definable(2, all_ones(2), allow_empty=False)
        assert is_2sat_definable(2, all_ones(2), allow_empty=True)

    def test_small_n(self):
        assert is_2sat_definable(1, 0b11, allow_empty=True)
        assert not is_2sat_definable(1, 0b11, allow_empty=False)
        assert not is_2sat_definable(1, 0b01, allow_empty=True)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_formula_sweep_exactly(self, n):
        swept = {truth_table(n, f) for f in all_formulas(n, min_clauses=1)}
        decided = {t for t in range(1 << (1 << n))
                   if is_2sat_definable(n, t, allow_empty=False)}
        assert swept == decided


class TestRealize:
    def test_roundtrip_on_definable(self):
        for f in all_formulas(2, min_clauses=1):
            t = truth_table(2, f)
            assert truth_table(2, realize_formula(2, t)) == t

    def test_constant_true_realized_by_empty(self):
        assert realize_formula(2, all_ones(2)) == frozenset()

    def test_undefinable_rejected(self):
        bad = table((0, 0, 1), (0, 1, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            realize_formula(3, bad)


class TestFormulaText:
    def test_parse_format_roundtrip(self):
        text = "n 3\n# comment\n1 -2\n\n-1 3\n"
        f = parse_formula(text)
        assert f == formula(3, (1, -2), (-1, 3))
        assert parse_formula(format_formula(*f)) == f

    def test_parse_orders_each_clause_pair(self):
        # x1 is literal 0 and not-x2 literal 3, in whichever order written
        assert parse_formula("n 2\n-2 1\n") == (2, frozenset({(0, 3)}))
        assert parse_formula("n 2\n1 -2\n") == (2, frozenset({(0, 3)}))

    def test_format_orders_negated_literal_first(self):
        f = formula(3, (1, 2), (-1, 2), (2, -3), (1, -2), (-2, -3))
        assert format_formula(*f) == "n 3\n-1 2\n1 -2\n1 2\n-2 -3\n2 -3\n"

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_formula("3\n1 2\n")

    def test_bad_clause_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_formula("n 2\n1 2 3\n")

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_formula("n 2\n1 -3\n")

    def test_same_variable_clause(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_formula("n 2\n1 -1\n")
