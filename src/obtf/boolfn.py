"""Two-clause Boolean functions as truth-table bitsets.

A function of n variables is stored as the set of its satisfying
assignments, packed into a single integer: assignment (a_1..a_n) sits at
bit index sum(a_i * 2**(i-1)), i.e. little-endian in the variable index.
That fixed encoding keeps checksums stable across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_
from typing import Iterable, Iterator

__all__ = [
    "Literal",
    "Clause",
    "Formula",
    "TruthTable",
    "CacheError",
    "ParseError",
    "QUANTITIES",
    "all_clauses",
    "all_ones",
    "associated_pairs",
    "bits",
    "clause_masks",
    "is_2sat_definable",
    "is_elementary",
    "is_median_closed",
    "literal_masks",
    "parse_formula",
    "parse_lines",
    "format_formula",
    "realize_formula",
    "signed_pair",
    "spine",
    "truth_table",
    "variable_masks",
]


# The census quantities and the census cache's error live here, beside
# ParseError, so the command line can offer and catch them without
# importing the census engines.
QUANTITIES = ("G", "H", "Pn", "F", "B")


class CacheError(RuntimeError):
    """Unreadable, malformed, or checksum-failing census cache."""


class ParseError(ValueError):
    """Malformed text input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, order=True)
class Literal:
    """A variable occurrence, positive or negated. Variables are 1-based."""

    var: int
    positive: bool = True

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    def negate(self) -> "Literal":
        return Literal(self.var, not self.positive)

    @property
    def index(self) -> int:
        """Position among the 2n literals: x_i -> 2(i-1), negated x_i -> 2(i-1)+1."""
        return 2 * (self.var - 1) + (0 if self.positive else 1)

    @classmethod
    def from_signed(cls, a: int) -> "Literal":
        if a == 0:
            raise ValueError("0 is not a valid signed literal")
        return cls(abs(a), a > 0)

    def signed(self) -> int:
        return self.var if self.positive else -self.var


@dataclass(frozen=True)
class Clause:
    """Disjunction of two literals over distinct variables; unordered."""

    first: Literal
    second: Literal

    def __post_init__(self):
        if self.first.var == self.second.var:
            raise ValueError("clause literals must use different variables")
        if self.second < self.first:
            a, b = self.second, self.first
            object.__setattr__(self, "first", a)
            object.__setattr__(self, "second", b)

    def signed(self) -> tuple[int, int]:
        return (self.first.signed(), self.second.signed())


@dataclass(frozen=True)
class Formula:
    """A conjunction of two-literal clauses over variables 1..n.

    Clauses are deduplicated; two formulas are equal iff their clause sets
    are. The empty clause set denotes the always-true conjunction (only
    meaningful where the empty formula is admitted).
    """

    n: int
    clauses: frozenset[Clause]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be >= 0")
        for c in self.clauses:
            if c.second.var > self.n:
                raise ValueError(f"clause {c.signed()} uses a variable beyond n={self.n}")

    @classmethod
    def of(cls, n: int, clauses: Iterable[Clause] = ()) -> "Formula":
        return cls(n, frozenset(clauses))

    @classmethod
    def from_signed_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Formula":
        return cls.of(
            n,
            (Clause(Literal.from_signed(a), Literal.from_signed(b)) for a, b in pairs),
        )


@dataclass(frozen=True)
class TruthTable:
    """Satisfying-assignment bitset of an n-variable Boolean function."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be >= 0")
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError(f"bitset out of range for n={self.n}")

    @property
    def satisfying_count(self) -> int:
        return self.bits.bit_count()


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
    """masks[lit.index] has bit a set iff assignment a makes lit true, so
    masks[u ^ 1] is the complement of masks[u]."""
    full = all_ones(n)
    return tuple(m for x in variable_masks(n) for m in (x, full ^ x))


def truth_table(f: Formula) -> TruthTable:
    """Evaluate a formula; the empty conjunction is constant True."""
    masks = literal_masks(f.n)
    bits = all_ones(f.n)
    for c in f.clauses:
        bits &= masks[c.first.index] | masks[c.second.index]
        if not bits:
            break
    return TruthTable(f.n, bits)


def _require_satisfiable(t: TruthTable) -> None:
    if t.bits == 0:
        raise ValueError("trivial function: spine undefined")


def spine(t: TruthTable) -> dict[int, bool]:
    """Variables taking a single value in every satisfying assignment.

    Returns {variable: forced value}. Raises ValueError on the trivial
    (unsatisfiable) function, for which the notion is undefined.
    """
    _require_satisfiable(t)
    masks = variable_masks(t.n)
    forced = {}
    for i in range(1, t.n + 1):
        m = masks[i - 1]
        if t.bits & ~m == 0:
            forced[i] = True
        elif t.bits & m == 0:
            forced[i] = False
    return forced


def associated_pairs(t: TruthTable) -> set[tuple[int, int, int]]:
    """Variable pairs locked together across all satisfying assignments.

    Yields (i, j, +1) when x_i == x_j everywhere, (i, j, -1) when
    x_i != x_j everywhere, with i < j. Undefined for the trivial function.
    """
    _require_satisfiable(t)
    masks = variable_masks(t.n)
    pairs = set()
    for i in range(1, t.n + 1):
        for j in range(i + 1, t.n + 1):
            diff = masks[i - 1] ^ masks[j - 1]
            if t.bits & diff == 0:
                pairs.add((i, j, +1))
            elif t.bits & ~diff == 0:
                pairs.add((i, j, -1))
    return pairs


def is_elementary(t: TruthTable) -> bool:
    """Satisfiable with empty spine and no associated pairs.

    The unsatisfiable function is classified trivial, never elementary.
    """
    if t.bits == 0:
        return False
    return not spine(t) and not associated_pairs(t)


def is_median_closed(t: TruthTable) -> bool:
    """Closed under coordinatewise majority of any three satisfying assignments.

    The assignment encoding makes majority a bitwise expression on the
    indices themselves: maj(a,b,c) = (a&b)|(a&c)|(b&c).
    """
    table = t.bits
    sat = list(bits(table))
    if len(sat) <= 2:
        return True
    for a, b, c in itertools.combinations(sat, 3):
        if not (table >> ((a & b) | (a & c) | (b & c))) & 1:
            return False
    return True


def is_2sat_definable(t: TruthTable, allow_empty: bool) -> bool:
    """Whether some formula (empty allowed iff allow_empty) has this table.

    For n >= 2 this is the median-closure criterion, with constant True
    reachable only through the empty formula. With fewer than two
    variables no clause exists at all, so only constant True is definable
    and only by the empty formula.
    """
    if t.n < 2:
        return allow_empty and t.bits == all_ones(t.n)
    if not is_median_closed(t):
        return False
    return allow_empty or t.bits != all_ones(t.n)


@lru_cache(maxsize=None)
def all_clauses(n: int) -> tuple[Clause, ...]:
    """Every clause on n variables, in colex pair order, fixed polarity order."""
    out = []
    for j in range(2, n + 1):
        for i in range(1, j):
            for pi, pj in ((True, True), (True, False), (False, True), (False, False)):
                out.append(Clause(Literal(i, pi), Literal(j, pj)))
    return tuple(out)


@lru_cache(maxsize=None)
def clause_masks(n: int) -> tuple[int, ...]:
    """The satisfying-assignment bitset of every clause, in all_clauses order."""
    masks = literal_masks(n)
    return tuple(masks[c.first.index] | masks[c.second.index] for c in all_clauses(n))


def realize_formula(t: TruthTable) -> Formula:
    """A canonical formula for a definable table: the conjunction of every
    clause valid on it.

    Raises ValueError if no formula matches (the table is not definable
    with the empty formula admitted).
    """
    valid = [(c, m) for c, m in zip(all_clauses(t.n), clause_masks(t.n)) if t.bits & ~m == 0]
    if reduce(and_, (m for _, m in valid), all_ones(t.n)) != t.bits:
        raise ValueError("table is not definable by a two-clause conjunction")
    return Formula.of(t.n, (c for c, _ in valid))


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
    pairs = []
    for line_no, fields in lines:
        a, b = signed_pair(line_no, fields)
        try:
            c = Clause(Literal.from_signed(a), Literal.from_signed(b))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if c.second.var > n:
            raise ParseError(line_no, f"variable beyond n={n}")
        pairs.append((a, b))
    return Formula.from_signed_pairs(n, pairs)


def format_formula(f: Formula) -> str:
    lines = [f"n {f.n}"]
    for c in sorted(f.clauses, key=lambda c: (c.first, c.second)):
        a, b = c.signed()
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
