"""Strict partial orders on the 2n literals of n Boolean variables.

The orders of interest leave each literal incomparable to its own
negation and are symmetric under it: u < v holds exactly when
not-v < not-u.  A poset is the tuple of its 2n transitively closed
bitmask rows, one per literal in the literal layout of boolfn
(literal_index), bit v of rows[u] meaning u < v; n is len(rows) // 2.
Membership in the family (is_pn_member) is checked where a poset is
made: poset_from_relations here, and cgraph.posets_of_graph on each one
cover_orders finds.  cover_orders is the one search for the orders with
a given cover graph; covers also runs it on plain graphs.  A poset's cover
graph is the frozenset of its covering pairs of literal indices
(cover_pairs), and its function the int truth table of boolfn
(poset_to_function).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .boolfn import (
    ParseError,
    ResourceGuardError,
    bits,
    literal_index,
    parse_lines,
    signed_literal,
    signed_pair,
    truth_table,
)

__all__ = [
    "IMPLICATION_GUARD",
    "cover_orders",
    "cover_pairs",
    "cover_rows",
    "format_poset",
    "implication_poset",
    "is_pn_member",
    "parse_poset",
    "poset_from_relations",
    "poset_to_function",
    "transitive_closure",
]

IMPLICATION_GUARD = 14


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
    antisymmetric; transitivity is checked per literal u as "everything
    above a literal above u is above u"."""
    for u, row in enumerate(rows):
        neg, far, rest = 1 << (u ^ 1), 0, row
        while rest:                 # set bits inline, as in cover_rows
            v = (rest & -rest).bit_length() - 1
            if not rows[v ^ 1] & neg:
                return False
            far |= rows[v]
            rest &= rest - 1
        if row >> (u & ~1) & 3 or far & ~row:   # u < u, u < not-u, or not closed
            return False
    return True


def poset_from_relations(n: int, relations: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The closed rows of (u, v) literal-index pairs meaning u < v, with
    their negation-symmetric duals added; ValueError if they are not a
    member of the family."""
    rows = [0] * (2 * n)
    for u, v in relations:
        rows[u] |= 1 << v
        rows[v ^ 1] |= 1 << (u ^ 1)
    rows = transitive_closure(tuple(rows))
    if not is_pn_member(rows):
        raise ValueError("not a member of the literal-poset family")
    return rows


def implication_poset(n: int, clauses: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The implication order of a formula with an elementary function.

    Seeds not-a < b for each clause (a or b), adds the negation duals and
    closes transitively.  For a satisfiable formula, x < not-x in the
    closure exactly when every model sets x false, and u < v < u exactly
    when u and v agree on every model (Aspvall, Plass and Tarjan, 1979);
    an unsatisfiable one has some x < not-x < x.  So the closure is a
    member of the poset family exactly when the function is elementary:
    poset_from_relations decides that, and its refusal becomes the
    ValueError for non-elementary input.  No truth table is built; n is
    capped at IMPLICATION_GUARD only as a bound on outside input.
    """
    if n > IMPLICATION_GUARD:
        raise ResourceGuardError(
            f"implication poset capped at n <= {IMPLICATION_GUARD} variables, got {n}")
    try:
        return poset_from_relations(n, ((a ^ 1, b) for a, b in clauses))
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
        # took 0.49 s against 0.30 s (the cover-graph question's oracle in
        # the tests calls this once per order)
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


def cover_orders(size: int, seeds, pos: int) -> Iterator[tuple[int, ...]]:
    """An iterator over the closure rows of every strict order on points
    0..size-1 whose covers are exactly one choice from each seeds[k]: a
    tuple of relations (a, b), meaning a < b, for each orientation of
    edge k.  pos is the mask of the even points x whose negation is
    x + 1, or 0 when the points have no negation; no point may become
    comparable to its negation.

    Depth-first search over the seeds, adding each choice's relations to
    a transitively closed relation kept with its predecessor rows; each
    order is yielded as the search reaches it, so a caller that counts
    holds no list and one that stops early stops the search.  A branch
    is pruned as soon as a new relation or its reverse is already in the
    closure (a cycle, or an implied relation, which is no cover), a point
    becomes comparable to its negation, or a relation chosen earlier
    stops being a cover.  Adding relations never undoes these events, so
    no pruned branch holds such an order.
    """
    rows = [0] * size      # rows[u]: points above u
    preds = [0] * size     # preds[v]: points below v
    chosen: list[tuple[int, int]] = []
    m = len(seeds)

    def add(a: int, b: int) -> bool:
        """Close under a < b; False if the branch must be pruned."""
        if (rows[a] >> b) & 1 or (rows[b] >> a) & 1:
            return False
        below = preds[a] | (1 << a)
        above = rows[b] | (1 << b)
        negated = ((below & pos) << 1) | ((below >> 1) & pos)
        if negated & above:
            return False        # some u <= a has not-u >= b
        rest = below
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1] |= above
            rest ^= low
        rest = above
        while rest:
            low = rest & -rest
            preds[low.bit_length() - 1] |= below
            rest ^= low
        chosen.append((a, b))
        return True

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k == m:
            yield tuple(rows)
            return
        saved_rows, saved_preds, depth = rows[:], preds[:], len(chosen)
        for choice in seeds[k]:
            # a loop: all() over the relations was about 10% slower
            for a, b in choice:
                if not add(a, b):
                    break
            else:
                for x, y in chosen:
                    if rows[x] & preds[y]:
                        break
                else:
                    yield from extend(k + 1)
            rows[:] = saved_rows
            preds[:] = saved_preds
            del chosen[depth:]

    return extend(0)


def poset_to_function(rows: tuple[int, ...]) -> int:
    """The function of the clauses (not-u or v), one per relation u < v:
    every relation, not just the covers, so the result does not depend on
    a choice of generating set.  The antichain gives constant True."""
    return truth_table(len(rows) // 2, ((u ^ 1, v) for u, row in enumerate(rows) for v in bits(row)))


def parse_poset(text: str) -> tuple[int, ...]:
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
        return poset_from_relations(n, relations)
    except ValueError:
        raise ParseError(1, "relations do not close to a member of the poset family") from None


def format_poset(rows: tuple[int, ...]) -> str:
    """Covers only, each u < v, sorted by index; their closure is the order."""
    lines = [f"n {len(rows) // 2}"] + [f"{signed_literal(u)} {signed_literal(v)}"
                                       for u, row in enumerate(cover_rows(rows)) for v in bits(row)]
    return "\n".join(lines) + "\n"
