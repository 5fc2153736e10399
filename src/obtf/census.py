"""Exact counting engines, their records, and the census cache.

Five quantities are counted, each by at least two independent routes:

  G   two-clause-definable functions (convention t1 = at least one clause,
      t0 = empty conjunction admitted)
  H   elementary functions among them
  Pn  literal posets with the negation symmetry
  F   odd-blue-triangle-free colored graphs
  B   blue-bipartite colored graphs

Every engine walks its search space in a fixed order (vertex pairs in
colex, states in lexicographic order) in one process, so values and
checksums are bit-identical across runs.

ENGINES lists every engine with its size cap.  count() is the one way
in: the default method is the first whose cap admits n, and every method
whose cap admits n must return the same value (verify checks this and
the identities between quantities).

F and B each have a flat-sweep engine, the oracle verify compares with
the fast one: every colouring of every graph on n vertices, an edge mask
and a blue submask of it over colex_pairs(n), tested by its definition.
They make no graph object, so census loads cgraph nowhere.

G and H count median-closed tables, the sets a 2-CNF defines (Schaefer
1978), by three routes: clause-sweep closes the clause masks under AND
(for H it drops, all tables at once, those missing a side of a variable
or of an x_i xor x_j mask), median-filter joins each median-closed
half-table with those inside the points it keeps, and median-dp grows
each table from its projection on x_1..x_{n-1}.  A symmetry of the cube,
which permutes and negates variables, maps the tables over a projection
one-to-one onto those over its image, so median-dp counts them for one
representative per orbit of the projections and weights it by the orbit
size: over MC(n - 1) up to n = 6, and at n = 7 over MC(5) again, two
projection levels deep.  The orbits are walked under two generators of
the cube's symmetries, a signed cycle of the variables and a swap.

strict_orders adds one point at a time and yields the orders sorted by
pair-state vector.  Grouped by cover graph, it is the tests' oracle for
the cover-graph multiplicity question, and on the 2n literals under
negation it is census's only route to Pn: the order-dfs engine counts
that stream without a membership check, growing the orders on all but
the last point and adding each one's extensions by it, so the last and
largest level is never built; verify compares the same
stream, as a set of closure rows, with the graph-driven family, whose
posets are checked for membership as the orientation search finds them.

posets_per_cover_graph answers the cover-graph question per graph: for
one triangle-free graph per orbit under relabelling, found by the same
orbits walk as median-dp's, generated by boolfn.vertex_generators, it
counts the orientations that make every edge a cover as
litposet.cover_orders, the search that lists cgraph's posets too, yields
them, with no list built.  The members of the largest orbits, as that
walk lists them, are the witness candidates; boolfn.orbits is the only
code that builds an orbit.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import os
import time
from functools import lru_cache, reduce
from math import comb
from operator import or_
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from . import litposet
from .boolfn import (
    QUANTITIES,
    CacheError,
    all_ones,
    bits,
    clause_masks,
    colex_pairs,
    is_elementary,
    literal_masks,
    orbits,
    switching,
    variable_masks,
    vertex_generators,
)
from .litposet import ResourceGuardError

# the builtin SHA-256, as random takes its _sha512: hashlib would load
# OpenSSL's _hashlib for one checksum per record
try:
    from _sha2 import sha256            # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "CacheError",
    "CensusCache",
    "CensusRecord",
    "ENGINES",
    "ORDER_SEED",
    "QUANTITIES",
    "b_benchmark",
    "conventions",
    "count",
    "default_method",
    "max_n",
    "methods",
    "posets_per_cover_graph",
    "record_checksum",
]

ORDER_SEED = "pair-colex/state-lex/v1"

COVER_QUESTION_GUARD = 6


def conventions(quantity: str) -> tuple:
    """The conventions a quantity is counted under, in census's order: t0
    and t1 for G and H, none for the rest."""
    return ("t0", "t1") if quantity in ("G", "H") else (None,)


def record_checksum(quantity: str, n: int, convention: Optional[str],
                    method: str, value: int) -> str:
    payload = "|".join([quantity, str(n), convention or "-", method, ORDER_SEED, str(value)])
    return sha256(payload.encode("ascii")).hexdigest()[:16]


# field -> (the types a cache record may hold there, their name in errors)
_FIELD_TYPES = {
    "quantity": ((str,), "a string"),
    "n": ((int,), "an integer"),
    "convention": ((str, type(None)), "a string or null"),
    "value": ((int,), "an integer"),
    "method": ((str,), "a string"),
    "wall_time": ((int, float), "a number"),
    "checksum": ((str,), "a string"),
}


class CensusRecord(NamedTuple):
    """One exact count.  wall_time is observability metadata; it is the
    only field excluded from the checksum."""

    quantity: str
    n: int
    convention: Optional[str]
    value: int
    method: str
    wall_time: float
    checksum: str

    def key(self) -> tuple:
        return (self.quantity, self.n, self.convention, self.method)

    def checksum_valid(self) -> bool:
        return self.checksum == record_checksum(
            self.quantity, self.n, self.convention, self.method, self.value)

    def to_json_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json_dict(cls, d: dict) -> "CensusRecord":
        # the checksum hashes str(n) and str(value), so it cannot tell 23
        # from "23", and wall_time is outside it; the types are checked
        # here instead, exactly, so a bool is no integer
        for name, (types, what) in _FIELD_TYPES.items():
            if type(d[name]) not in types:
                raise TypeError(f"{name} must be {what}, got {d[name]!r}")
        return cls(**{name: d[name] for name in _FIELD_TYPES})


# ---------------------------------------------------------------------------
# G and H: function counting


@lru_cache(maxsize=None)
def _conjunctions(n: int) -> frozenset[int]:
    """The tables of all conjunctions of two-clauses, the empty one
    included: after mask k the set holds the ANDs of all-ones with every
    subset of the first k masks.  From n = 2 on these are all the
    median-closed tables, as a unit clause is the AND of two proper
    ones."""
    acc: set[int] = {all_ones(n)}
    for m in clause_masks(n):
        acc |= {v & m for v in acc}
    return frozenset(acc)


# cached, like every G and H count: both conventions count the same n's tables
@lru_cache(maxsize=None)
def _elementary_conjunction_count(n: int) -> int:
    """The elementary tables among the conjunctions: those meeting both
    sides of every variable's mask (none is fixed) and of x_i xor x_j for
    every pair (none is locked).  Each mask tests all tables at once, as
    fields of one int with a guard bit each: adding all-ones to a field
    carries into its guard iff the field is not zero."""
    width, tables = (1 << n) // 8 + 1, _conjunctions(n)     # bytes per field, its guard included
    packed = int.from_bytes(b"".join(t.to_bytes(width, "little") for t in tables), "little")
    every = int.from_bytes((b"\x01" + bytes(width - 1)) * len(tables), "little")    # 1 in each field
    ones, kept, x = all_ones(n) * every, (1 << (1 << n)) * every, variable_masks(n)
    for m in (*x, *(a ^ b for a, b in itertools.combinations(x, 2))):
        m *= every
        kept &= ((packed & m) + ones) & ((packed & (ones ^ m)) + ones)
    return kept.bit_count()


@lru_cache(maxsize=None)
def _median_closed_tables(n: int) -> frozenset[int]:
    """Every median-closed table on n variables, built from half-tables.

    A table splits by x_n into lo, its lower 2^(n-1) bits, and hi, the
    upper ones, both tables on n-1 variables.  It is median-closed iff lo
    and hi are and every triple across the halves has its median inside:
    a, b in lo and c in hi have median (a&b)|(c&(a|b)) in lo, and the
    same with the halves swapped.  keeps[t] holds the points c whose
    median with any two points of t stays in t: t's own, and each c that
    lies between no two points of t (else it is their median) and whose
    union with t is median-closed.  So lo is joined only with the
    half-tables inside keeps[lo]: itself, and its submasks above lo, each
    with its mirror (hi, lo).  Only the median-majority definition is used.
    """
    if n == 0:
        return frozenset({0, 1})
    half = _median_closed_tables(n - 1)
    points = 1 << (n - 1)
    span = [[sum(1 << c for c in range(points) if not (a ^ c) & (b ^ c))    # c between a and b
             for b in range(points)] for a in range(points)]
    keeps = {}
    for t in half:
        between = reduce(or_, (span[a][b] for a, b in itertools.combinations(bits(t), 2)), t)
        keeps[t] = t | sum(1 << c for c in bits(~between & (1 << points) - 1) if t | 1 << c in half)
    tables = [t | t << points for t in half]
    for lo, k in keeps.items():
        hi = k
        while hi > lo:      # the submasks of k above lo, largest first
            if hi in keeps and not lo & ~keeps[hi]:
                tables += lo | hi << points, hi | lo << points
            hi = hi - 1 & k
    return frozenset(tables)


@lru_cache(maxsize=None)
def _cubes(n: int) -> tuple[int, ...]:
    """The table of every cube on n variables, each variable absent,
    true or false: the 3^n conjunctions of literals, all-ones the empty
    one, then the contradictory cube 0."""
    full = all_ones(n)
    cubes = [full]
    for x in variable_masks(n):
        cubes = [c & m for c in cubes for m in (full, x, full ^ x)]
    return (*cubes, 0)


def _covering_pairs(n: int, p: int) -> list[tuple[int, int]]:
    """The halves (lo, hi) on n variables of every median-closed table on
    n + 1 whose projection, lo | hi, is the median-closed table p.

    Such a table is f & (x | a) & (~x | b), with x = x_{n+1}, f a 2-CNF
    on x_1..x_n and a, b cubes (the cube 0 for a unit clause on x).  Its
    projection is p = f & (a | b), so lo = p & a and hi = p & b;
    conversely, every such pair with lo | hi == p is p & (x | a) &
    (~x | b), again a 2-CNF.
    """
    s = {p & c for c in _cubes(n)}
    return [(lo, hi) for lo in s for hi in s if lo | hi == p]


def _grown(n: int):
    """Every median-closed table on n variables, each grown once from its
    projection on x_1..x_{n-1}: the projection of a median-closed table
    is median-closed.  Neither the clause closure nor the half-table
    median test is used."""
    if n == 0:
        return (0, 1)
    shift = 1 << (n - 1)
    return (lo | hi << shift for p in _projection_family(n - 1)
            for lo, hi in _covering_pairs(n - 1, p))


@lru_cache(maxsize=None)
def _projection_family(n: int) -> frozenset[int]:
    """MC(n), the median-closed tables on n variables, as one set."""
    return frozenset(_grown(n))


@lru_cache(maxsize=None)
def _cube_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """The signed cycle x_i -> x_{i+1}, x_n -> not x_1 and the swap
    x_1 <-> x_2, each as the permutation it makes of the 2^n assignments:
    they generate the 2^n * n! symmetries of the n-cube (Coxeter and
    Moser 1957).  At n = 1 the cycle is the negation of x_1 and there is
    no swap, and at n = 0 there is nothing to generate."""
    if n == 0:
        return ()
    points = range(1 << n)
    # x_i's value moves to x_{i+1}, and x_n's, negated, to x_1
    cycle = tuple((a << 1 & (1 << n) - 1) | (a >> (n - 1) ^ 1) for a in points)
    swap = tuple(a ^ ((a ^ a >> 1) & 1) * 3 for a in points)
    return (cycle, swap) if n > 1 else (cycle,)


@lru_cache(maxsize=None)
def _orbits(n: int) -> list[tuple[int, int]]:
    """MC(n) as (representative, orbit size) under the symmetries of the
    n-cube.  The walk takes the tables as they are grown, so MC(n) is held
    once, in its seen set, and only MC(n - 1) is kept."""
    return [(orbit[0], len(orbit)) for orbit in orbits(_grown(n), _cube_generators(n))]


def _fibre_count(m: int, p: int, levels: int, sig: Optional[dict]) -> int:
    """The median-closed tables on m + levels variables whose projection
    on x_1..x_m is the table p, grown one variable per level; with sig,
    only the elementary ones, p being elementary.

    A table on k + 1 variables is elementary iff its projection is (x_1..x_k
    keep their spine and associated pairs), both halves are non-empty
    (x_{k+1} is not fixed), and no literal u is false on all of lo and
    true on all of hi (x_{k+1} is not locked to u).  sig memoises, per
    (k, t), the literals t has no model of, and those every model of t
    satisfies: the first set of lo must miss the second of hi."""
    pairs = _covering_pairs(m, p)
    if sig is not None:
        literals = literal_masks(m)
        for t in {t for pair in pairs for t in pair}:
            if (m, t) not in sig:
                missed = [u for u, x in enumerate(literals) if not t & x]
                sig[m, t] = (sum(1 << u for u in missed), sum(1 << (u ^ 1) for u in missed))
        pairs = [(lo, hi) for lo, hi in pairs
                 if lo and hi and not sig[m, lo][0] & sig[m, hi][1]]
    if levels == 1:
        return len(pairs)
    return sum(_fibre_count(m + 1, lo | hi << (1 << m), levels - 1, sig) for lo, hi in pairs)


# cached: both conventions count the same n's tables
@lru_cache(maxsize=None)
def _orbit_sum(n: int, elementary: bool) -> int:
    """The median-closed tables on n >= 1 variables (the elementary ones
    if elementary), summed over the orbits of MC(m), m = min(n - 1, 5):
    a symmetry g of the m-cube maps cubes to cubes and keeps elementarity,
    so it maps the fibre over p one-to-one onto the fibre over g.p, and
    each orbit counts |O| times its representative's fibre."""
    m = min(n - 1, 5)
    sig = {} if elementary else None
    return sum(size * _fibre_count(m, rep, n - m, sig) for rep, size in _orbits(m)
               if not elementary or is_elementary(m, rep))


# ---------------------------------------------------------------------------
# F: odd-blue-triangle-free graphs
#
# Vertices are 0-based bits here.  nbr[v] and blue[v] are the neighbours
# and blue neighbours of v among the pairs decided so far.  Pairs go in
# colex order, so when (a, b) is decided every pair (x, a) and (x, b)
# with x < a already is, and the triangles it closes are exactly the
# common neighbours of a and b.  d marks those whose two other edges have
# one blue edge between them: (a, b) may be red iff d is empty (every
# triangle keeps an even blue count) and blue iff d is all of them.
#
# The last vertex, b = n - 1, is not walked pair by pair.  It joins the
# graph on 0..b-1 by a star: a neighbour set N and a blue set beta within
# it, one of the 3^b states _star_states lists.  The star closes the
# triangles u w b with uw an edge and u, w in N, and such a triangle is
# even iff beta(u) xor beta(w) is the colour of uw, so each edge of the
# graph rules out a fixed set of states.  The DFS ORs those sets into a
# mask bad as it decides the pairs of 0..b-1, and once they are all
# decided, and every triangle among them is even, the completions are the
# states no edge rules out: one popcount.
#
# Switching at a set T of decided vertices flips every edge with one end
# in T, later ones too, and keeps every triangle's blue parity (Harary
# 1953; Zaslavsky, "Signed graphs", 1982): it maps a graph's completions
# one-to-one onto the switched graph's.  So once the pairs among 0..b-1
# are decided, their count depends only on the switching class, and the
# DFS memoises it for each vertex b < n - 1 under the rows nbr and the
# blue rows boolfn.switching leaves.  Its forest fixes T up to whole
# components, which flip nothing, so those rows name the class.  The
# last vertex's popcount is cheaper than its key.


@lru_cache(maxsize=None)
def _star_states(b: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The stars of a new vertex b over vertices 0..b-1, as bitsets over
    the states (N, beta), state N << b | beta: full, the 3^b states with
    beta a subset of N, and for each pair (u, w) of colex_pairs(b) the
    states an edge uw rules out, red then blue.  A red edge rules out u
    and w in N with one of them in beta, a blue edge with both or
    neither."""
    low = (1 << b) - 1
    full = sum(1 << (nb << b | beta) for nb in range(1 << b)
               for beta in range(1 << b) if not beta & ~nb)
    ruled = []
    for u, w in colex_pairs(b):
        red = blue = 0
        for state in bits(full):
            nb, beta = state >> b, state & low
            if nb >> u & nb >> w & 1:
                if (beta >> u ^ beta >> w) & 1:
                    red |= 1 << state
                else:
                    blue |= 1 << state
        ruled.append((red, blue))
    return full, tuple(ruled)


def _obtf_count_rec(nbr: list[int], blue: list[int], bad: int, k: int, pairs,
                    star: tuple, memo: dict) -> int:
    """Completions of the pairs from k on, and of the last vertex's star,
    bad holding the stars that the edges decided so far rule out;
    memoised by switching class where pair (0, b) opens vertex b."""
    if k == len(pairs):
        return (star[0] & ~bad).bit_count()
    a, b = pairs[k]
    key = None
    if a == 0:
        key = (b, *nbr[:b], *switching(nbr[:b], blue[:b])[1])
        if key in memo:
            return memo[key]
    common = nbr[a] & nbr[b]
    d = (blue[a] ^ blue[b]) & common
    total = _obtf_count_rec(nbr, blue, bad, k + 1, pairs, star, memo)
    red_out, blue_out = star[1][k]
    ba, bb = 1 << a, 1 << b
    nbr[a] |= bb
    nbr[b] |= ba
    if d == 0:
        total += _obtf_count_rec(nbr, blue, bad | red_out, k + 1, pairs, star, memo)
    if d == common:
        blue[a] |= bb
        blue[b] |= ba
        total += _obtf_count_rec(nbr, blue, bad | blue_out, k + 1, pairs, star, memo)
        blue[a] ^= bb
        blue[b] ^= ba
    nbr[a] ^= bb
    nbr[b] ^= ba
    if key is not None:
        memo[key] = total
    return total


def _obtf_count(n: int) -> int:
    """F(n): branch over the pairs of vertices 0..n-2 in colex order, cut
    a branch the moment a completed triangle is odd-blue (deleting edges
    preserves the property, so pruning is sound), memoise by the switching
    class that boolfn.switching names, and finish each branch by counting
    the stars of vertex n - 1.

    Each OBTF graph on n vertices is one OBTF graph on 0..n-2, which the
    pruned DFS reaches exactly once, plus one star (N, beta), a distinct
    state of _star_states(n - 1).  The triangles the star closes are the
    u w (n - 1) with uw an edge and u, w in N, and each is even iff its
    edge's table leaves the state in, so the completions of a branch are
    the popcount of the states no edge rules out.  flat-sweep, which tests
    every colored graph, stays its oracle up to n = 5, in verify's
    engine-agreement-F lines."""
    if n == 0:
        return 1    # the empty graph, which has no last vertex
    b = n - 1
    return _obtf_count_rec([0] * b, [0] * b, 0, 0, colex_pairs(b), _star_states(b), {})


def _obtf_sweep(n: int) -> int:
    """F(n) by testing every colored graph on n vertices, the flat-sweep
    oracle: every edge mask over colex_pairs(n), with every blue submask
    of it down to the all-red 0, kept when each triangle the edges hold
    has an even blue count.  No pruning, memo or star table is shared
    with dfs-prune."""
    index = {pair: k for k, pair in enumerate(colex_pairs(n))}
    triangles = [1 << index[a, b] | 1 << index[a, c] | 1 << index[b, c]
                 for a, b, c in itertools.combinations(range(n), 3)]
    total = 0
    for edges in range(1 << len(index)):
        held = [t for t in triangles if t & edges == t]
        blue = edges
        while True:
            total += not any((blue & t).bit_count() & 1 for t in held)
            if not blue:
                break
            blue = (blue - 1) & edges
    return total


# ---------------------------------------------------------------------------
# B: blue-bipartite graphs


def _connected_graph_counts(n: int) -> list[int]:
    """Labelled connected graphs on 1..n vertices, by the standard
    inclusion-exclusion recurrence (computed here, never read from
    external tables)."""
    c = [0] * (n + 1)
    for k in range(1, n + 1):
        total = 1 << comb(k, 2)
        for j in range(1, k):
            total -= comb(k - 1, j - 1) * c[j] * (1 << comb(k - j, 2))
        c[k] = total
    return c


def _bb_closed_form(n: int) -> int:
    """Sum of 2^(n - components) over all labelled graphs: a blue-bipartite
    coloring is an uncolored graph plus an unordered bipartition per
    component, and distinct bipartition classes give distinct colorings."""
    conn = _connected_graph_counts(n)
    w = [0] * (n + 1)
    w[0] = 1
    for k in range(1, n + 1):
        w[k] = sum(comb(k - 1, j - 1) * conn[j] * (1 << (j - 1)) * w[k - j]
                   for j in range(1, k + 1))
    return w[n]


def _bb_sweep(n: int) -> int:
    """B(n) by testing every colored graph on n vertices, the flat-sweep
    oracle.  A colouring is blue-bipartite iff some split S of the
    vertices has the blue edges crossing it and the red ones not, i.e.
    its blue set is edges & crossing[S], crossing[S] the pairs S
    separates; so each edge mask adds its number of distinct such sets.
    No component count or recurrence is shared with the closed form."""
    pairs = colex_pairs(n)
    crossing = [sum(((s >> a ^ s >> b) & 1) << k for k, (a, b) in enumerate(pairs))
                for s in range(1 << n)]
    return sum(len({edges & x for x in crossing}) for edges in range(1 << len(pairs)))


def b_benchmark(n: int) -> int:
    """The benchmark count 2^(C(n+1,2)-1); n >= 1."""
    if n < 1:
        raise ValueError("benchmark defined for n >= 1")
    return 1 << (comb(n + 1, 2) - 1)


# ---------------------------------------------------------------------------
# The engine table and its entry point


# quantity -> {method: (run, cap)}, methods in preference order.  run(n)
# returns the value, for G and H under t0; cap is the largest n it admits.
ENGINES = {
    "G": {
        "clause-sweep": (lambda n: len(_conjunctions(n)), 4),
        # below n = 2 no clause exists: only the empty formula's constant True
        "median-filter": (lambda n: 1 if n < 2 else len(_median_closed_tables(n)), 4),
        "median-dp": (lambda n: 1 if n < 2 else _orbit_sum(n, False), 7),
    },
    "H": {
        "clause-sweep": (_elementary_conjunction_count, 4),
        # n = 0: the constant True
        "median-dp": (lambda n: 1 if n == 0 else _orbit_sum(n, True), 7),
    },
    "Pn": {
        "order-dfs": (lambda n: _order_count(2 * n, negation=True), litposet.P_N_GUARD),
    },
    "F": {
        "dfs-prune": (lambda n: _obtf_count(n), 7),
        "flat-sweep": (_obtf_sweep, 5),
    },
    "B": {
        "component-closed-form": (lambda n: _bb_closed_form(n), 7),
        "flat-sweep": (_bb_sweep, 5),
    },
}


def _engines(quantity: str) -> dict:
    try:
        return ENGINES[quantity]
    except KeyError:
        raise ValueError(f"unknown quantity {quantity!r}") from None


def max_n(quantity: str) -> int:
    """The largest n any engine for the quantity admits."""
    return max(cap for _, cap in _engines(quantity).values())


def methods(quantity: str, n: int) -> list[str]:
    """The methods whose cap admits n, in preference order."""
    return [method for method, (_, cap) in _engines(quantity).items() if n <= cap]


def default_method(quantity: str, n: int) -> str:
    """The first method, in preference order, whose cap admits n."""
    admitted = methods(quantity, n)
    if not admitted:
        raise ResourceGuardError(f"{quantity}(n={n}) exceeds every engine cap, "
                                 f"the largest is {max_n(quantity)}")
    return admitted[0]


def count(quantity: str, n: int, convention: Optional[str] = None,
          method: Optional[str] = None) -> CensusRecord:
    """quantity(n) by the given method, else the default one, as a record.

    The engines count G and H under t0.  The t1 convention drops the
    empty formula, and no clause holds on every assignment, so only the
    all-ones table, which is elementary, is lost: t1 is t0 less one.

    Raises ResourceGuardError above the engine's cap, and ValueError for an
    unknown quantity or method, n < 0 or a convention that does not apply.
    """
    engines = _engines(quantity)
    if n < 0:
        raise ValueError(f"{quantity} needs n >= 0, got {n}")
    method = method or default_method(quantity, n)
    if method not in engines:
        raise ValueError(f"unknown method {method!r} for {quantity}")
    if convention not in conventions(quantity):
        raise ValueError(f"convention {convention!r} does not apply to {quantity}")
    run, cap = engines[method]
    if n > cap:
        raise ResourceGuardError(f"{quantity} {method} capped at n <= {cap}, got {n}")
    started = time.perf_counter()
    value = run(n) - (convention == "t1")
    return CensusRecord(
        quantity=quantity,
        n=n,
        convention=convention,
        value=value,
        method=method,
        wall_time=round(time.perf_counter() - started, 6),
        checksum=record_checksum(quantity, n, convention, method, value),
    )


# ---------------------------------------------------------------------------
# The order search: Pn, and the cover-graph multiplicity question's oracle


def _transpose(rows: tuple) -> list[int]:
    """below[v]: the points u with v in rows[u], i.e. the points below v."""
    below = [0] * len(rows)
    for u, r in enumerate(rows):
        for v in bits(r):
            below[v] |= 1 << u
    return below


def _extensions(rows: tuple, below: list[int], negation: bool) -> list[tuple[int, int]]:
    """Every (D, U) that point j = len(rows) can have below and above it,
    in lexicographic order of the states of points 0..j-1 (0 neither, 1 in
    D, 2 in U).  D is down-closed, U up-closed, all of D below all of U,
    and under negation neither holds a literal with its negation: each a
    condition on a pair of points, checked when the later one is decided."""
    j = len(rows)
    parts = [(0, 0)]
    for i in range(j):
        bit = 1 << i
        up, down = rows[i], below[i]
        done_up, done_down = up & (bit - 1), down & (bit - 1)
        pair = (1 << (i ^ 1)) & (bit - 1) if negation else 0
        grown = []
        add = grown.append
        for d, u in parts:
            if not (up & d or down & u):
                add((d, u))
            if not (done_down & ~d or u & ~up or d & pair):
                add((d | bit, u))
            if not (done_up & ~u or d & ~down or u & pair):
                add((d, u | bit))
        parts = grown
    return parts


def strict_orders(m: int, negation: bool = False):
    """Yield every strict partial order on m labelled points, as closure
    row tuples (bit v of rows[u] means u < v, 0-based), sorted by their
    pair-state vector: pairs (i, j) in colex order, state 0 incomparable,
    1 for i < j, 2 for j < i.  With negation (m = 2n literals, u's
    negation u^1) only the orders symmetric under u -> u^1 that leave u
    and u^1 incomparable: the family Pn.  ValueError for m < 0, or odd m
    under negation.

    Each order on points 0..j-1 grows by point j with a down-set D below
    and an up-set U above (Brinkmann and McKay, "Posets on up to 16
    points", Order 19, 2002); under negation j^1 comes with j."""
    level, last = _orders_before_last(m, negation)
    yield from level if last is None else _grow(level, last, negation)


def _order_count(m: int, negation: bool = False) -> int:
    """len(strict_orders(m, negation)), the order-dfs engine: the orders
    before the last point, each adding its number of extensions by it,
    so the last level is never built."""
    level, last = _orders_before_last(m, negation)
    if last is None:
        return 1
    return sum(len(_extensions(rows, _transpose(rows), negation)) for rows in level)


def _orders_before_last(m: int, negation: bool):
    """The orders strict_orders grows its last point (or pair) from, and
    that point, None for m = 0; ValueError for m < 0, or odd m under
    negation."""
    if m < 0:
        raise ValueError(f"need m >= 0 points, got {m}")
    if negation and m % 2:
        raise ValueError(f"negation needs an even number of literals, got {m}")
    step = 2 if negation else 1
    level = [()]
    for j in range(0, m - step, step):
        level = _grow(level, j, negation)
    return level, (m - step if m else None)


def _grow(level, j: int, negation: bool):
    """Grow each order of level by point j, and by j^1 under negation,
    with flip(U) below it and flip(D) above."""
    # under[s][x] is bit j if x is in s: OR'd into the rows, it puts s under j
    under = [tuple(((s >> x) & 1) << j for x in range(j)) for s in range(1 << j)]
    if not negation:
        for rows in level:
            yield from [tuple(map(or_, rows, under[d])) + (u,)
                        for d, u in _extensions(rows, _transpose(rows), False)]
        return
    flip = [sum(((s >> x) & 1) << (x ^ 1) for x in range(j)) for s in range(1 << j)]
    under1 = [tuple(b << 1 for b in row) for row in under]
    for rows in level:
        yield from [tuple(map(or_, map(or_, rows, under[d]), under1[flip[u]])) + (u, flip[d])
                    for d, u in _extensions(rows, _transpose(rows), True)]


# ---------------------------------------------------------------------------
# The cover-graph multiplicity question
#
# An order's covers are the edges of an orientation of its cover graph
# with no directed cycle and no edge bridged by a longer directed path,
# and the order is that orientation's closure.  So the orders whose cover
# graph is a graph G are G's orientations of that kind, one each.  G has
# no triangle, as the other two edges of an acyclic triangle bridge the
# third, and relabelling the points keeps the count.  litposet.cover_orders
# yields them, as it yields a colored graph's posets for cgraph.  A graph
# stays a mask over colex_pairs(m) throughout: the orbit walk permutes
# its bits, and its set bits, in order, are its edges in colex order.


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
    strict_orders' order, to reach that number.

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


# ---------------------------------------------------------------------------
# Cache


class CensusCache:
    """Append-only JSON-lines store of census records.

    Loading validates every line, including recomputing the checksum from
    the record fields; a record without a valid checksum is refused, and
    so is a second record for a key whose value or checksum differs.
    """

    def __init__(self, path):
        self.path = Path(path)

    def load(self) -> dict[tuple, CensusRecord]:
        records: dict[tuple, CensusRecord] = {}
        first_line: dict[tuple, int] = {}
        if not self.path.exists():
            return records
        try:
            text = self.path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CacheError(f"cannot read cache {self.path}: {exc}") from exc
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                rec = CensusRecord.from_json_dict(d)
            except (ValueError, KeyError, TypeError) as exc:
                raise CacheError(
                    f"{self.path}:{line_no}: bad record: {exc}; if an interrupted "
                    f"write left it, delete line {line_no} and rerun") from exc
            if not rec.checksum:
                raise CacheError(f"{self.path}:{line_no}: record without checksum refused")
            if not rec.checksum_valid():
                raise CacheError(f"{self.path}:{line_no}: checksum mismatch")
            key = rec.key()
            old = records.get(key)
            if old is not None and (old.value, old.checksum) != (rec.value, rec.checksum):
                raise CacheError(
                    f"{self.path}:{line_no}: conflicts with line {first_line[key]}: "
                    f"{rec.quantity}(n={rec.n}) is {rec.value} here and {old.value} there")
            first_line.setdefault(key, line_no)
            records[key] = rec
        return records

    def append(self, record: CensusRecord) -> None:
        """Append one record as a single write on an O_APPEND descriptor,
        under an exclusive lock, so concurrent writers never interleave
        within a line."""
        line = (json.dumps(record.to_json_dict(), sort_keys=True) + "\n").encode("ascii")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                written = os.write(fd, line)
            finally:
                os.close(fd)    # releases the lock
        except OSError as exc:
            raise CacheError(f"cannot write cache {self.path}: {exc}") from exc
        if written != len(line):
            raise CacheError(f"short write to cache {self.path}: "
                             f"{written} of {len(line)} bytes; delete its last line")
