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
clause is an ordered pair (a, b) of literal indices with a < b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_
from typing import Iterable, Iterator

__all__ = [
    "Formula",
    "CacheError",
    "ParseError",
    "QUANTITIES",
    "all_clauses",
    "all_ones",
    "associated_pairs",
    "bits",
    "clause_masks",
    "is_elementary",
    "literal_index",
    "literal_masks",
    "parse_formula",
    "parse_lines",
    "format_formula",
    "realize_formula",
    "signed_literal",
    "signed_pair",
    "spine",
    "truth_table",
    "variable_masks",
]


# The census quantities and the census cache's error live here, beside
# ParseError, so the command line can offer and catch them without
# importing the census engines.
QUANTITIES = ("G", "H", "Pn", "F", "B")

_SAME_VARIABLE = "clause literals must use different variables"


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


@dataclass(frozen=True)
class Formula:
    """A conjunction of two-literal clauses over variables 1..n.

    Clauses are (a, b) literal-index pairs with a < b on different
    variables; two formulas are equal iff their clause sets are.  The
    empty clause set denotes the always-true conjunction (only meaningful
    where the empty formula is admitted).
    """

    n: int
    clauses: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be >= 0")
        for a, b in self.clauses:
            if a >> 1 == b >> 1:
                raise ValueError(_SAME_VARIABLE)
            if not 0 <= a < b:
                raise ValueError(f"clause {(a, b)} is not an ordered pair of literal indices")
            if b >> 1 >= self.n:
                raise ValueError(f"clause {(signed_literal(a), signed_literal(b))} "
                                 f"uses a variable beyond n={self.n}")

    @classmethod
    def of(cls, n: int, clauses: Iterable[tuple[int, int]] = ()) -> "Formula":
        """From literal-index pairs in either order."""
        return cls(n, frozenset((min(a, b), max(a, b)) for a, b in clauses))

    @classmethod
    def from_signed_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Formula":
        return cls.of(n, ((literal_index(a), literal_index(b)) for a, b in pairs))


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


def truth_table(f: Formula) -> int:
    """Evaluate a formula; the empty conjunction is constant True."""
    masks = literal_masks(f.n)
    t = all_ones(f.n)
    for a, b in f.clauses:
        t &= masks[a] | masks[b]
        if not t:
            break
    return t


def _require_satisfiable(t: int) -> None:
    if t == 0:
        raise ValueError("trivial function: spine undefined")


def spine(n: int, t: int) -> dict[int, bool]:
    """Variables taking a single value in every satisfying assignment.

    Returns {variable: forced value}. Raises ValueError on the trivial
    (unsatisfiable) function, for which the notion is undefined.
    """
    _require_satisfiable(t)
    masks = variable_masks(n)
    forced = {}
    for i in range(1, n + 1):
        m = masks[i - 1]
        if t & ~m == 0:
            forced[i] = True
        elif t & m == 0:
            forced[i] = False
    return forced


def associated_pairs(n: int, t: int) -> set[tuple[int, int, int]]:
    """Variable pairs locked together across all satisfying assignments.

    Yields (i, j, +1) when x_i == x_j everywhere, (i, j, -1) when
    x_i != x_j everywhere, with i < j. Undefined for the trivial function.
    """
    _require_satisfiable(t)
    masks = variable_masks(n)
    pairs = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            diff = masks[i - 1] ^ masks[j - 1]
            if t & diff == 0:
                pairs.add((i, j, +1))
            elif t & ~diff == 0:
                pairs.add((i, j, -1))
    return pairs


def is_elementary(n: int, t: int) -> bool:
    """Satisfiable with empty spine and no associated pairs.

    The unsatisfiable function is classified trivial, never elementary.
    """
    if t == 0:
        return False
    return not spine(n, t) and not associated_pairs(n, t)


@lru_cache(maxsize=None)
def all_clauses(n: int) -> tuple[tuple[int, int], ...]:
    """Every clause on n variables: variable pairs in colex order, each
    with the polarities (+,+), (+,-), (-,+), (-,-)."""
    return tuple((2 * i + p, 2 * j + q)
                 for j in range(n) for i in range(j) for p in (0, 1) for q in (0, 1))


@lru_cache(maxsize=None)
def clause_masks(n: int) -> tuple[int, ...]:
    """The satisfying-assignment bitset of every clause, in all_clauses order."""
    masks = literal_masks(n)
    return tuple(masks[a] | masks[b] for a, b in all_clauses(n))


def realize_formula(n: int, t: int) -> Formula:
    """A canonical formula for a definable table: the conjunction of every
    clause valid on it.

    Raises ValueError if no formula matches (the table is not definable
    with the empty formula admitted).
    """
    valid = [(c, m) for c, m in zip(all_clauses(n), clause_masks(n)) if t & ~m == 0]
    if reduce(and_, (m for _, m in valid), all_ones(n)) != t:
        raise ValueError("table is not definable by a two-clause conjunction")
    return Formula.of(n, (c for c, _ in valid))


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


def parse_formula(text: str) -> Formula:
    """Formula text format: `n <int>` then one clause per line as two
    signed integers; blank lines and `#` comments ignored."""
    n, lines = parse_lines(text, "variable")
    clauses = []
    for line_no, fields in lines:
        a, b = signed_pair(line_no, fields)
        try:
            u, v = literal_index(a), literal_index(b)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if u >> 1 == v >> 1:
            raise ParseError(line_no, _SAME_VARIABLE)
        if max(u, v) >> 1 >= n:
            raise ParseError(line_no, f"variable beyond n={n}")
        clauses.append((u, v))
    return Formula.of(n, clauses)


def format_formula(f: Formula) -> str:
    """One clause per line, sorted by variable with not-x_i before x_i."""
    lines = [f"n {f.n}"]
    for a, b in sorted(f.clauses, key=lambda c: (c[0] ^ 1, c[1] ^ 1)):
        lines.append(f"{signed_literal(a)} {signed_literal(b)}")
    return "\n".join(lines) + "\n"
