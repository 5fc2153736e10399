"""Strict partial orders on the 2n literals of n Boolean variables.

The orders of interest leave each literal incomparable to its own
negation and are symmetric under it: u < v holds exactly when
not-v < not-u.  Relations live in a 2n x 2n boolean matrix stored as one
bitmask row per literal, indexed by the literal layout of boolfn
(literal_index).  A poset's cover graph is the frozenset of its covering
pairs of literal indices (cover_pairs), and its function the int truth
table of boolfn (poset_to_function).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .boolfn import (
    ParseError,
    all_ones,
    bits,
    literal_index,
    literal_masks,
    parse_lines,
    signed_literal,
    signed_pair,
)

__all__ = [
    "LiteralPoset",
    "IMPLICATION_GUARD",
    "P_N_GUARD",
    "ResourceGuardError",
    "cover_pairs",
    "cover_rows",
    "format_poset",
    "implication_poset",
    "is_pn_member",
    "parse_poset",
    "poset_to_function",
    "transitive_closure",
]

P_N_GUARD = 5
IMPLICATION_GUARD = 14


class ResourceGuardError(RuntimeError):
    """An operation was asked to exceed its exact-search size cap."""


@dataclass(frozen=True)
class LiteralPoset:
    """A member of the negation-symmetric poset family: relation matrix
    over the 2n literals, bit v of rows[u] meaning u < v.

    Making one checks its shape and then its membership (is_pn_member),
    raising ValueError on either, so every LiteralPoset is checked
    exactly once, when it is made, and nothing that takes one checks it
    again.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be >= 0")
        if len(self.rows) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} rows, got {len(self.rows)}")
        full = (1 << (2 * self.n)) - 1
        for r in self.rows:
            if not 0 <= r <= full:
                raise ValueError("row bits out of range")
        if not is_pn_member(self.rows):
            raise ValueError("not a member of the literal-poset family")

    @classmethod
    def antichain(cls, n: int) -> "LiteralPoset":
        return cls(n, (0,) * (2 * n))

    @classmethod
    def from_relations(cls, n: int, relations: Iterable[tuple[int, int]]) -> "LiteralPoset":
        """Build from (u, v) literal-index pairs meaning u < v, adding the
        negation-symmetric duals and closing transitively."""
        rows = [0] * (2 * n)
        for u, v in relations:
            rows[u] |= 1 << v
            rows[v ^ 1] |= 1 << (u ^ 1)
        return cls(n, transitive_closure(tuple(rows)))

    def relation_pairs(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.rows):
            for v in bits(row):
                yield (u, v)


def transitive_closure(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Boolean Warshall closure over bitmask rows."""
    out = list(rows)
    for k in range(len(out)):
        rk = out[k]
        if not rk:
            continue
        bit = 1 << k
        for i in range(len(out)):
            if out[i] & bit:
                out[i] |= rk
    return tuple(out)


def is_pn_member(rows: tuple[int, ...]) -> bool:
    """Whether bitmask rows over the 2n literals form a member of the
    family: a strict order, each literal incomparable to its negation,
    and u < v iff not-v < not-u.  Irreflexive and transitive makes it
    antisymmetric; transitivity is checked per relation u < v as
    "everything above v is above u"."""
    for u, row in enumerate(rows):
        if (row >> u) & 1 or (row >> (u ^ 1)) & 1:
            return False
        for v in bits(row):
            if rows[v] & ~row or not (rows[v ^ 1] >> (u ^ 1)) & 1:
                return False
    return True


def implication_poset(n: int, clauses: Iterable[tuple[int, int]]) -> LiteralPoset:
    """The implication order of a formula with an elementary function.

    Seeds not-a < b for each clause (a or b), adds the negation duals and
    closes transitively.  For a satisfiable formula, x < not-x in the
    closure exactly when every model sets x false, and u < v < u exactly
    when u and v agree on every model (Aspvall, Plass and Tarjan, 1979);
    an unsatisfiable one has some x < not-x < x.  So the closure is a
    member of the poset family exactly when the function is elementary:
    making the LiteralPoset decides that, and its refusal becomes the
    ValueError for non-elementary input.  No truth table is built; n is
    capped at IMPLICATION_GUARD only as a bound on outside input.
    """
    if n > IMPLICATION_GUARD:
        raise ResourceGuardError(
            f"implication poset capped at n <= {IMPLICATION_GUARD} variables, got {n}")
    try:
        return LiteralPoset.from_relations(n, ((a ^ 1, b) for a, b in clauses))
    except ValueError:
        raise ValueError("implication poset is defined only for elementary functions") from None


def cover_rows(rows: tuple[int, ...]) -> list[int]:
    """The cover relation of a strict order given as closed bitmask rows
    (bit v of rows[u] means u < v): row u less everything above a point of
    row u, so bit v stays iff nothing lies strictly between u and v."""
    out = []
    for r in rows:
        far, rest = 0, r
        # set bits inline: over all 130,023 orders on 6 points, bits()
        # took 0.49 s against 0.30 s (posets --cover-multiplicity 6 calls
        # this once per order on 5 points, 4,231 times)
        while rest:
            low = rest & -rest
            far |= rows[low.bit_length() - 1]
            rest ^= low
        out.append(r & ~far)
    return out


def cover_pairs(rows: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Covering pairs of a strict order given as closed bitmask rows, each
    written (min, max) in index order (not in the order itself).  For a
    family member this set is its cover graph on the 2n literals."""
    return frozenset((min(u, v), max(u, v))
                     for u, row in enumerate(cover_rows(rows)) for v in bits(row))


def poset_to_function(p: LiteralPoset) -> int:
    """The function of the clauses (not-u or v), one per relation u < v:
    the AND of masks[u ^ 1] | masks[v] over every relation, not just the
    covers, so the result does not depend on a choice of generating set.
    The antichain gives constant True."""
    masks = literal_masks(p.n)
    t = all_ones(p.n)
    for u, v in p.relation_pairs():
        t &= masks[u ^ 1] | masks[v]
    return t


def parse_poset(text: str) -> LiteralPoset:
    """Poset text format: `n <int>` then one relation per line as two
    signed integers `a b` meaning literal(a) < literal(b); relations not
    listed are implied by closure and negation symmetry."""
    n, lines = parse_lines(text, "variable")
    relations = []
    for line_no, fields in lines:
        a, b = signed_pair(line_no, fields)
        for x in (a, b):
            if x == 0 or abs(x) > n:
                raise ParseError(line_no, f"literal {x} out of range for n={n}")
        relations.append((literal_index(a), literal_index(b)))
    try:
        return LiteralPoset.from_relations(n, relations)
    except ValueError:
        raise ParseError(1, "relations do not close to a member of the poset family") from None


def format_poset(p: LiteralPoset) -> str:
    """Covers only, each u < v, sorted by index; their closure is the order."""
    lines = [f"n {p.n}"] + [f"{signed_literal(u)} {signed_literal(v)}"
                            for u, row in enumerate(cover_rows(p.rows)) for v in bits(row)]
    return "\n".join(lines) + "\n"
