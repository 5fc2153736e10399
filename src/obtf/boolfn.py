"""Two-clause Boolean functions as truth-table bitsets.

A function of n variables is its truth table: the set of its satisfying
assignments packed into a plain int, passed together with n.  Assignment
(a_1..a_n) sits at bit index sum(a_i * 2**(i-1)), i.e. little-endian in
the variable index, so a table lies in 0..all_ones(n) and its bit count
is its number of models.  That fixed encoding keeps checksums stable
across runs.

Literals are indices among the 2n literals: x_i is 2(i-1), not-x_i is
2(i-1)+1, so negation is index XOR 1.  literal_index and signed_literal
convert from and to the signed form (i or -i) of the text formats.  A
clause is an ordered pair (a, b) of literal indices with a < b, on two
different variables, and a formula is the frozenset of its clauses,
passed together with n like a table; the empty set is the always-true
conjunction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "CacheError",
    "P_N_GUARD",
    "ParseError",
    "QUANTITIES",
    "ResourceGuardError",
    "all_clauses",
    "all_ones",
    "bits",
    "clause_masks",
    "colex_pairs",
    "is_elementary",
    "literal_index",
    "literal_masks",
    "orbits",
    "parse_formula",
    "parse_lines",
    "realize_formula",
    "signed_literal",
    "signed_pair",
    "switching",
    "truth_table",
    "variable_masks",
    "vertex_generators",
]


# The census quantities, the size guards' error, Pn's cap and the census
# cache's error live here, beside ParseError, so the command line can
# offer and catch them without importing the engines.
QUANTITIES = ("G", "H", "Pn", "F", "B")
P_N_GUARD = 5


class ResourceGuardError(RuntimeError):
    """An operation was asked to exceed its exact-search size cap."""


class CacheError(RuntimeError):
    """Unreadable, malformed, or checksum-failing census cache."""


class ParseError(ValueError):
    """Malformed text input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def literal_index(a: int) -> int:
    """The index of signed literal a: i -> 2(i-1), -i -> 2(i-1)+1."""
    if a == 0:
        raise ValueError("0 is not a valid signed literal")
    return 2 * (abs(a) - 1) + (a < 0)


def signed_literal(u: int) -> int:
    """The signed form of literal index u, inverse of literal_index."""
    return -(u >> 1) - 1 if u & 1 else (u >> 1) + 1


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def all_ones(n: int) -> int:
    """Bitset of the constant-True function on n variables."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def variable_masks(n: int) -> tuple[int, ...]:
    """masks[i-1] has bit a set iff assignment a gives variable i the value True."""
    masks = [0] * n
    for a in range(1 << n):
        for i in range(n):
            if (a >> i) & 1:
                masks[i] |= 1 << a
    return tuple(masks)


@lru_cache(maxsize=None)
def literal_masks(n: int) -> tuple[int, ...]:
    """masks[u] has bit a set iff assignment a makes literal u true, so
    masks[u ^ 1] is the complement of masks[u]."""
    full = all_ones(n)
    return tuple(m for x in variable_masks(n) for m in (x, full ^ x))


def truth_table(n: int, clauses: Iterable[tuple[int, int]]) -> int:
    """Evaluate a formula; the empty conjunction is constant True."""
    masks = literal_masks(n)
    t = all_ones(n)
    for a, b in clauses:
        t &= masks[a] | masks[b]
        if not t:
            break
    return t


@lru_cache(maxsize=None)
def _lock_masks(n: int) -> tuple[int, ...]:
    """Every variable mask, then x_i xor x_j for every i < j: a variable
    is fixed, or a pair locked, iff the table misses the mask or its
    complement."""
    masks = variable_masks(n)
    return (*masks, *(masks[i] ^ m for j, m in enumerate(masks) for i in range(j)))


def is_elementary(n: int, t: int) -> bool:
    """Satisfiable with empty spine and no associated pairs.

    The unsatisfiable function is classified trivial, never elementary.
    Stops at the first fixed variable or locked pair.
    """
    if t == 0:
        return False
    for m in _lock_masks(n):
        if not t & m or not t & ~m:
            return False
    return True


@lru_cache(maxsize=None)
def _byte_images(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """images[k][v]: the image under perm of the points 8k..8k+7 that byte
    v holds, built by doubling: point 8k + i appends the first 2^i entries
    with its image set, and a point past the perm sets nothing."""
    tables = []
    for k in range(0, len(perm), 8):
        images = [0]
        for i in range(k, k + 8):
            bit = 1 << perm[i] if i < len(perm) else 0
            images += [y | bit for y in images]
        tables.append(tuple(images))
    return tuple(tables)


def orbits(members: Iterable[int], point_perms) -> Iterator[list[int]]:
    """Yield each orbit of members, bitsets on the points that point_perms
    permute (perm[i] the image of point i), under the group they
    generate, as the list of its members: the first member met leads, as
    the orbit's representative, and the rest follow in the order the
    walk from it reaches them, one lookup and OR per byte and generator.
    Every member meets every generator, so the fewer generators the
    faster the walk: vertex_generators and census's cube generators are
    two each.  The walk is lazy, so a caller that keeps only the orbits'
    lengths holds the members once, in the walk's seen set."""
    steps = [[(8 * k, images) for k, images in enumerate(_byte_images(tuple(perm)))]
             for perm in point_perms]
    seen: set[int] = set()
    for t in members:
        if t in seen:
            continue
        seen.add(t)
        orbit = [t]
        for x in orbit:
            for step in steps:
                y = 0
                for shift, images in step:
                    y |= images[x >> shift & 255]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        yield orbit


def switching(nbr: list[int], blue: list[int]) -> tuple[int, list[int]]:
    """Switch the graph with neighbour and blue-neighbour rows nbr and blue
    at the vertex set T that turns red a breadth-first forest grown from
    each component's lowest vertex, neighbours ascending.  Returns T and
    the blue rows after switching: all 0 iff the graph is balanced."""
    flip = seen = 0     # T, and the vertices reached
    for root in range(len(nbr)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        queue = [root]
        for u in queue:
            for w in bits(nbr[u] & ~seen):
                seen |= 1 << w
                flip |= ((blue[u] >> w ^ flip >> u) & 1) << w
                queue.append(w)
    return flip, [blue[v] ^ nbr[v] & (~flip if flip >> v & 1 else flip)
                  for v in range(len(nbr))]


def colex_pairs(m: int) -> list[tuple[int, int]]:
    """The point pairs (a, b), a < b, of points 0..m-1 in colex order,
    (0, 1), (0, 2), (1, 2), (0, 3), ...: pair (a, b) has index
    b(b - 1)/2 + a."""
    return [(a, b) for b in range(1, m) for a in range(b)]


def vertex_generators(m: int) -> list[tuple[int, ...]]:
    """The swap (0 1) and the cycle (0 1 ... m-1) of points 0..m-1, each
    as the permutation it makes of the indices of the colex_pairs(m): at
    m = 2 the two are one, the swap alone, and below that there is none.
    They generate every relabelling (Coxeter and Moser, "Generators and
    Relations for Discrete Groups", 1957), so their orbits on graphs,
    bitsets over those pairs, are the graphs up to isomorphism."""
    pairs = colex_pairs(m)
    index = {pair: k for k, pair in enumerate(pairs)}
    swap, cycle = (1, 0, *range(2, m)), (*range(1, m), 0)
    point_perms = [swap, cycle] if m > 2 else [swap] if m == 2 else []
    return [tuple(index[min(p[a], p[b]), max(p[a], p[b])] for a, b in pairs)
            for p in point_perms]


@lru_cache(maxsize=None)
def all_clauses(n: int) -> tuple[tuple[int, int], ...]:
    """Every clause on n variables: variable pairs in colex order, each
    with the polarities (+,+), (+,-), (-,+), (-,-)."""
    return tuple((2 * i + p, 2 * j + q)
                 for i, j in colex_pairs(n) for p in (0, 1) for q in (0, 1))


@lru_cache(maxsize=None)
def clause_masks(n: int) -> tuple[int, ...]:
    """The satisfying-assignment bitset of every clause, in all_clauses order."""
    masks = literal_masks(n)
    return tuple(masks[a] | masks[b] for a, b in all_clauses(n))


def realize_formula(n: int, t: int) -> frozenset[tuple[int, int]]:
    """A canonical formula for a definable table: the conjunction of every
    clause valid on it.

    Raises ValueError if no formula matches (the table is not definable
    with the empty formula admitted).
    """
    clauses = frozenset(c for c, m in zip(all_clauses(n), clause_masks(n)) if t & ~m == 0)
    if truth_table(n, clauses) != t:
        raise ValueError("table is not definable by a two-clause conjunction")
    return clauses


def parse_lines(text: str, noun: str) -> tuple[int, list[tuple[int, list[str]]]]:
    """The line reader behind the three text formats: the count from the
    `n <int>` header, then the fields of every later line with its 1-based
    number.  Blank lines and `#` comments are skipped; noun names what the
    count counts in the header errors."""
    n = None
    lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if n is not None:
            lines.append((line_no, fields))
            continue
        if len(fields) != 2 or fields[0] != "n":
            raise ParseError(line_no, "expected header 'n <int>'")
        try:
            n = int(fields[1])
        except ValueError:
            raise ParseError(line_no, f"bad {noun} count {fields[1]!r}") from None
        if n < 0:
            raise ParseError(line_no, f"{noun} count must be >= 0")
    if n is None:
        raise ParseError(1, "missing header 'n <int>'")
    return n, lines


def signed_pair(line_no: int, fields: list[str]) -> tuple[int, int]:
    """A body line of two signed integers (formula and poset formats)."""
    try:
        a, b = map(int, fields)
    except ValueError:
        raise ParseError(line_no, "expected two signed integers") from None
    return a, b


def parse_formula(text: str) -> tuple[int, frozenset[tuple[int, int]]]:
    """The formula text format: `n <int>` then one clause per line as two
    signed integers; blank lines and `#` comments ignored.  Returns n and
    the clause set."""
    n, lines = parse_lines(text, "variable")
    clauses = []
    for line_no, fields in lines:
        a, b = signed_pair(line_no, fields)
        try:
            u, v = literal_index(a), literal_index(b)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if u >> 1 == v >> 1:
            raise ParseError(line_no, "clause literals must use different variables")
        if max(u, v) >> 1 >= n:
            raise ParseError(line_no, f"variable beyond n={n}")
        clauses.append((min(u, v), max(u, v)))
    return n, frozenset(clauses)

