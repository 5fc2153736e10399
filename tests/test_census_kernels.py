"""The fast census kernels against their independent oracles.

Both H engines share the elementary filter, and F's DFS has no second
engine above n = 5, so engine agreement alone cannot see a bug in either
kernel; these tests compare each one with the reference definitions.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtf import census
from obtf.boolfn import TruthTable, is_elementary
from obtf.cgraph import enumerate_colored_graphs, is_obtf, pairs_colex


def _is_elementary_fast(n: int, bits: int) -> bool:
    return census._elementary_count(n, frozenset({bits})) == 1


@pytest.mark.parametrize("n", range(5))
def test_elementary_filter_on_every_family_member(n):
    family = census._median_closed_family_dp(n)
    assert family
    for bits in family:
        assert _is_elementary_fast(n, bits) == is_elementary(TruthTable(n, bits)), bits


@st.composite
def truth_tables(draw):
    n = draw(st.integers(0, 5))
    return n, draw(st.integers(0, (1 << (1 << n)) - 1))


@settings(max_examples=500, deadline=None)
@given(table=truth_tables())
def test_elementary_filter_on_random_tables(table):
    n, bits = table
    assert _is_elementary_fast(n, bits) == is_elementary(TruthTable(n, bits))


def _obtf_states(n: int) -> list[tuple[int, ...]]:
    """Pair states (0 absent, 1 red, 2 blue, colex order) of every OBTF
    graph, from the flat sweep."""
    pairs = pairs_colex(n)
    return [tuple(1 if p in g.red else 2 if p in g.blue else 0 for p in pairs)
            for g in enumerate_colored_graphs(n) if is_obtf(g)]


@pytest.mark.parametrize("n", range(6))
def test_obtf_prefix_count_matches_the_sweep(n):
    states = _obtf_states(n)
    depth = min(1 if n == 5 else 3, len(pairs_colex(n)))
    for d in range(depth + 1):
        for prefix in itertools.product((0, 1, 2), repeat=d):
            expected = sum(1 for s in states if s[:d] == prefix)
            assert census._obtf_prefix_count((n, prefix)) == expected, prefix


@pytest.mark.slow
def test_f7():
    # about 100 s on one worker; deselected unless run with `pytest -m slow`
    assert census.count("F", 7).value == 266_919_023
