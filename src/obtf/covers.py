"""The cover-graph multiplicity question: at most how many strict orders
on m labelled points share one cover graph?

An order's covers are the edges of an orientation of its cover graph
with no directed cycle and no edge bridged by a longer directed path,
and the order is that orientation's closure.  So the orders whose cover
graph is a graph G are G's orientations of that kind, one each.  G has
no triangle, as the other two edges of an acyclic triangle bridge the
third, and relabelling the points keeps the count.

posets_per_cover_graph answers the question per graph: for one
triangle-free graph per orbit under relabelling, found by the orbit walk
median-dp uses, boolfn.orbits, generated by boolfn.vertex_generators, it
counts the orders as litposet.cover_orders, the search that lists
cgraph's posets too, yields them, with no list built.  The members of the
largest orbits, as that walk lists them, are the witness candidates;
boolfn.orbits is the only code that builds an orbit.  A graph stays a
mask over colex_pairs(m) throughout: the orbit walk permutes its bits,
and its set bits, in order, are its edges in colex order.  Only `posets
--cover-multiplicity` loads this module; census.strict_orders, grouped
by cover graph, is the tests' oracle for it.
"""

from __future__ import annotations

from typing import Iterator

from . import litposet
from .boolfn import ResourceGuardError, bits, colex_pairs, orbits, vertex_generators

__all__ = ["COVER_QUESTION_GUARD", "posets_per_cover_graph"]

COVER_QUESTION_GUARD = 6


def _triangle_free_graphs(m: int, nbr: tuple = (), graph: int = 0):
    """Yield every labelled triangle-free graph on points 0..m-1 as a mask
    over colex_pairs(m), pair (a, b) being bit C(b, 2) + a: point b
    joins each graph on 0..b-1 with an independent set s of it as its
    neighbours, the bits from C(b, 2) on."""
    b = len(nbr)
    sets = [0]
    for v in range(b):
        sets += [s | 1 << v for s in sets if not nbr[v] & s]
    shift = b * (b - 1) // 2
    if b == m - 1:
        yield from (graph | s << shift for s in sets)
        return
    for s in sets:
        yield from _triangle_free_graphs(
            m, tuple(r | (s >> v & 1) << b for v, r in enumerate(nbr)) + (s,), graph | s << shift)


def _cover_orders(m: int, graph: int) -> Iterator[tuple[int, ...]]:
    """An iterator over the closure rows of every strict order on points
    0..m-1 whose cover graph is graph, a mask over colex_pairs(m): each
    edge (a, b), in bit order, which is colex order, taken first as b < a,
    pair state 2, so the large pair-state vectors come early, then a < b."""
    pairs = colex_pairs(m)
    seeds = [(((b, a),), ((a, b),)) for a, b in (pairs[k] for k in bits(graph))]
    return litposet.cover_orders(m, seeds, 0)


def posets_per_cover_graph(m: int) -> tuple[int, frozenset[tuple[int, int]]]:
    """Over all strict orders on m labelled points, the largest number
    sharing one cover graph, with a witness graph: the first, in
    census.strict_orders' order, to reach that number.

    The orders are counted per triangle-free graph, for one graph in each
    orbit under relabelling.  strict_orders yields the orders sorted by
    pair-state vector, so a graph with the most orders reaches that
    number at its largest vector, and the witness is the member of a
    largest orbit whose largest vector is smallest: only those members,
    as the orbit walk met them, are searched again, each only until its
    vectors pass the best so far, which _cover_orders, trying b < a
    first, reaches early.  An order's vector fixes the order and so its
    cover graph, so no two members share a vector, and neither the order
    the members are met in nor the order their orders are yielded in can
    change the witness or the count."""
    if m > COVER_QUESTION_GUARD:
        raise ResourceGuardError(
            f"order enumeration capped at m <= {COVER_QUESTION_GUARD}, got {m}")
    if m < 1:
        raise ValueError("need at least one point")
    most, candidates = 0, []
    for orbit in orbits(_triangle_free_graphs(m), vertex_generators(m)):
        found = sum(1 for _ in _cover_orders(m, orbit[0]))
        if found > most:
            most, candidates = found, []
        if found == most:
            candidates += orbit
    pairs = colex_pairs(m)
    best = None     # (largest vector, graph); a graph whose vectors pass it is dropped
    for g in candidates:
        top = []
        for rows in _cover_orders(m, g):
            top = max(top, [rows[a] >> b & 1 or (rows[b] >> a & 1) << 1 for a, b in pairs])
            if best and top > best[0]:
                break
        else:
            best = (top, g)
    return most, frozenset((pairs[k][0] + 1, pairs[k][1] + 1) for k in bits(best[1]))
