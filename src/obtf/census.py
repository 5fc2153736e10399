"""Exact counting engines, their records, and the census cache.

Five quantities are counted, each by at least two independent routes:

  G   two-clause-definable functions (convention t1 = at least one clause,
      t0 = empty conjunction admitted)
  H   elementary functions among them
  Pn  literal posets with the negation symmetry
  F   odd-blue-triangle-free colored graphs
  B   blue-bipartite colored graphs

Every engine walks its search space in a fixed order (vertex pairs in
colex, states in lexicographic order), so values and checksums are
bit-identical across runs and worker counts.

ENGINES lists every engine with its size cap.  count() is the one way
in: the default method is the first whose cap admits n, and every method
whose cap admits n must return the same value (verify checks this and
the identities between quantities).

Pn's second route lives here too: enumerate_pn_oracle lists the family
by strict_orders, the order search on the 2n literals under negation,
and verify compares it with the graph-driven enumeration as sets.
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import comb
from pathlib import Path
from typing import Optional

from . import cgraph, litposet
from .boolfn import (
    QUANTITIES,
    CacheError,
    TruthTable,
    all_clauses,
    all_ones,
    is_2sat_definable,
    literal_mask,
    variable_masks,
)
from .litposet import ResourceGuardError

__all__ = [
    "CacheError",
    "CensusCache",
    "CensusRecord",
    "ENGINES",
    "ORDER_SEED",
    "QUANTITIES",
    "b_benchmark",
    "convention_label",
    "conventions",
    "count",
    "count_bb",
    "count_elementary",
    "count_functions",
    "count_obtf",
    "count_pn",
    "default_method",
    "definable_tables",
    "enumerate_pn_oracle",
    "max_n",
    "posets_per_cover_graph",
    "record_checksum",
]

ORDER_SEED = "pair-colex/state-lex/v1"

COVER_QUESTION_GUARD = 6


def convention_label(allow_empty: bool) -> str:
    return "t0" if allow_empty else "t1"


def conventions(quantity: str) -> tuple:
    """The conventions a quantity is counted under: t1 and t0 for G and H,
    none for the rest."""
    return ("t1", "t0") if quantity in ("G", "H") else (None,)


def record_checksum(quantity: str, n: int, convention: Optional[str],
                    method: str, value: int) -> str:
    payload = "|".join([quantity, str(n), convention or "-", method, ORDER_SEED, str(value)])
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


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


@dataclass(frozen=True)
class CensusRecord:
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
        return asdict(self)

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


def _clause_masks(n: int) -> list[int]:
    """Violation bitset per clause, in the fixed clause order."""
    full = all_ones(n)
    return [full & ~(literal_mask(n, c.first) | literal_mask(n, c.second))
            for c in all_clauses(n)]


def _nonempty_or_closure(masks: list[int]) -> set[int]:
    """All ORs of nonempty subsets, deduplicated incrementally.

    Equivalent to sweeping every clause subset: after processing mask k
    the set holds exactly the ORs of nonempty subsets of the first k
    masks."""
    acc: set[int] = set()
    for m in masks:
        acc |= {v | m for v in acc}
        acc.add(m)
    return acc


def definable_tables(n: int, allow_empty: bool) -> frozenset[int]:
    """Bitsets of every function realizable by a formula (clause-subset
    sweep route)."""
    cap = ENGINES["G"]["clause-sweep"][1]
    if n > cap:
        raise ResourceGuardError(f"clause sweep capped at n <= {cap}, got {n}")
    full = all_ones(n)
    tables = {full & ~viol for viol in _nonempty_or_closure(_clause_masks(n))}
    if allow_empty:
        tables.add(full)
    return frozenset(tables)


@lru_cache(maxsize=None)
def _median_closed_family_dp(n: int) -> frozenset[int]:
    """All median-closed subsets of {0,1}^n as solution sets of unit- and
    two-clause conjunctions (conjunction-closure dynamic program).

    Units make every median-closed set reachable; for n >= 2 they are
    syntactic sugar (a unit is two proper clauses), so the family equals
    the t0-definable tables there.  Validated against the direct filter
    wherever both run.
    """
    full = all_ones(n)
    masks = [variable_masks(n)[i] for i in range(n)]
    masks += [full ^ m for m in masks[:n]]
    masks += [literal_mask(n, c.first) | literal_mask(n, c.second) for c in all_clauses(n)]
    acc: set[int] = {full}
    for m in masks:
        acc |= {v & m for v in acc}
    return frozenset(acc)


def _definable_tables_fast(n: int, allow_empty: bool) -> frozenset[int]:
    family = _median_closed_family_dp(n)
    if n < 2:
        return frozenset({all_ones(n)}) if allow_empty else frozenset()
    if allow_empty:
        return family
    return family - {all_ones(n)}


def _median_filter_count(n: int, allow_empty: bool) -> int:
    """Test every truth table for median closure."""
    return sum(1 for bits in range(1 << (1 << n))
               if is_2sat_definable(TruthTable(n, bits), allow_empty))


@lru_cache(maxsize=None)
def _elementary_lookups(n: int) -> tuple[tuple[int, ...], ...]:
    """Per-byte lookup tables for the elementary test.

    A table is elementary iff it meets every test mask: all-ones (it is
    satisfiable), x_i and not-x_i (no spine), x_i xor x_j and its
    complement (no associated pair).  Entry h of the table for byte k has
    bit t set iff byte value h at byte k meets test t, so a bitset passes
    iff the OR of its byte lookups sets every test bit.  Four bytes hold
    the truth table of every n <= 5.
    """
    masks = variable_masks(n)
    full = all_ones(n)
    tests = [full, *masks, *(full ^ m for m in masks)]
    for i, j in itertools.combinations(range(n), 2):
        diff = masks[i] ^ masks[j]
        tests += [diff, full ^ diff]
    return tuple(
        tuple(sum(1 << t for t, test in enumerate(tests) if (h << (8 * k)) & test)
              for h in range(256))
        for k in range(4))


def _elementary_count(n: int, tables: frozenset[int]) -> int:
    if n > 5:
        raise ResourceGuardError(f"elementary filter capped at n <= 5, got {n}")
    l0, l1, l2, l3 = _elementary_lookups(n)
    want = l0[255] | l1[255] | l2[255] | l3[255]    # the all-ones table meets every test
    return sum(1 for b in tables
               if l0[b & 255] | l1[(b >> 8) & 255] | l2[(b >> 16) & 255] | l3[b >> 24] == want)


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


def _obtf_count_rec(nbr: list[int], blue: list[int], k: int, pairs) -> int:
    """Completions of the pairs from k on."""
    if k == len(pairs):
        return 1
    a, b = pairs[k]
    common = nbr[a] & nbr[b]
    d = (blue[a] ^ blue[b]) & common
    if k + 1 == len(pairs):
        return 1 + (d == 0) + (d == common)
    total = _obtf_count_rec(nbr, blue, k + 1, pairs)
    ba, bb = 1 << a, 1 << b
    nbr[a] |= bb
    nbr[b] |= ba
    if d == 0:
        total += _obtf_count_rec(nbr, blue, k + 1, pairs)
    if d == common:
        blue[a] |= bb
        blue[b] |= ba
        total += _obtf_count_rec(nbr, blue, k + 1, pairs)
        blue[a] ^= bb
        blue[b] ^= ba
    nbr[a] ^= bb
    nbr[b] ^= ba
    return total


def _obtf_prefix_count(args) -> int:
    """Worker task: count completions of one state prefix (0 absent, 1
    red, 2 blue; 0 if the prefix itself already contains an odd-blue
    triangle)."""
    n, prefix = args
    pairs = [(a - 1, b - 1) for a, b in cgraph.pairs_colex(n)]
    nbr, blue = [0] * n, [0] * n
    for (a, b), s in zip(pairs, prefix):
        if not s:
            continue
        common = nbr[a] & nbr[b]
        if (blue[a] ^ blue[b]) & common != (common if s == 2 else 0):
            return 0
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        if s == 2:
            blue[a] |= 1 << b
            blue[b] |= 1 << a
    return _obtf_count_rec(nbr, blue, len(prefix), pairs)


# F below this n takes under 10 ms on one worker, less than a pool start
# (10-20 ms, 2-core Linux); at n = 6 two workers took 0.50-0.62 s, one 0.64-0.66 s
_POOL_MIN_N = 6


def _obtf_dfs(n: int, workers: int) -> int:
    """Branch over pairs in colex order and cut a branch the moment a
    completed triangle is odd-blue (deleting edges preserves the property,
    so pruning is sound).  With several workers (at most one per CPU) the
    state prefixes of n >= _POOL_MIN_N are counted in a process pool."""
    m = comb(n, 2)
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or n < _POOL_MIN_N:
        return _obtf_prefix_count((n, ()))
    depth = 1
    while 3 ** depth < 8 * workers and depth < m:
        depth += 1
    tasks = [(n, prefix) for prefix in itertools.product((0, 1, 2), repeat=depth)]
    chunk = max(1, len(tasks) // (workers * 8))
    # imported here, its only use: loading it pulls in multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_obtf_prefix_count, tasks, chunksize=chunk))


def _sweep_count(n: int, keep) -> int:
    """Test every colored graph on n vertices (the flat-sweep oracles)."""
    return sum(1 for g in cgraph.enumerate_colored_graphs(n) if keep(g))


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


def b_benchmark(n: int) -> int:
    """The benchmark count 2^(C(n+1,2)-1); n >= 1."""
    if n < 1:
        raise ValueError("benchmark defined for n >= 1")
    return 1 << (comb(n + 1, 2) - 1)


# ---------------------------------------------------------------------------
# The engine table and its entry point


# quantity -> {method: (run, cap)}, methods in preference order.  run(n,
# allow_empty, workers) returns the value; cap is the largest n it admits.
ENGINES = {
    "G": {
        "clause-sweep": (lambda n, t0, _w: len(definable_tables(n, t0)), 4),
        "median-filter": (lambda n, t0, _w: _median_filter_count(n, t0), 4),
        "median-dp": (lambda n, t0, _w: len(_definable_tables_fast(n, t0)), 5),
    },
    "H": {
        "clause-sweep": (lambda n, t0, _w: _elementary_count(n, definable_tables(n, t0)), 4),
        "median-dp": (lambda n, t0, _w: _elementary_count(n, _definable_tables_fast(n, t0)), 5),
    },
    "Pn": {
        "orientation-sweep": (lambda n, _t0, _w: sum(1 for _ in litposet.enumerate_pn(n)),
                              litposet.P_N_GUARD),
    },
    "F": {
        "dfs-prune": (lambda n, _t0, w: _obtf_dfs(n, w), 7),
        "flat-sweep": (lambda n, _t0, _w: _sweep_count(n, cgraph.is_obtf), 5),
    },
    "B": {
        "component-closed-form": (lambda n, _t0, _w: _bb_closed_form(n), 7),
        "flat-sweep": (lambda n, _t0, _w: _sweep_count(
            n, lambda g: cgraph.find_blue_bipartition(g) is not None), 5),
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


def default_method(quantity: str, n: int) -> str:
    """The first method, in preference order, whose cap admits n."""
    for method, (_, cap) in _engines(quantity).items():
        if n <= cap:
            return method
    raise ResourceGuardError(f"{quantity}(n={n}) exceeds every engine cap, "
                             f"the largest is {max_n(quantity)}")


def count(quantity: str, n: int, convention: Optional[str] = None,
          method: Optional[str] = None, workers: int = 1) -> CensusRecord:
    """quantity(n) by the given method, else the default one, as a record.

    Raises ResourceGuardError above the engine's cap, and ValueError for an
    unknown quantity or method or a convention that does not apply.
    """
    engines = _engines(quantity)
    method = method or default_method(quantity, n)
    if method not in engines:
        raise ValueError(f"unknown method {method!r} for {quantity}")
    if convention not in conventions(quantity):
        raise ValueError(f"convention {convention!r} does not apply to {quantity}")
    run, cap = engines[method]
    if n > cap:
        raise ResourceGuardError(f"{quantity} {method} capped at n <= {cap}, got {n}")
    started = time.perf_counter()
    value = run(n, convention == "t0", workers)
    return CensusRecord(
        quantity=quantity,
        n=n,
        convention=convention,
        value=value,
        method=method,
        wall_time=round(time.perf_counter() - started, 6),
        checksum=record_checksum(quantity, n, convention, method, value),
    )


def count_functions(n: int, allow_empty: bool = True,
                    method: Optional[str] = None) -> CensusRecord:
    """G: distinct truth tables over all formulas (per convention)."""
    return count("G", n, convention_label(allow_empty), method)


def count_elementary(n: int, allow_empty: bool = True,
                     method: Optional[str] = None) -> CensusRecord:
    """H: elementary tables among the definable ones."""
    return count("H", n, convention_label(allow_empty), method)


def count_pn(n: int, method: Optional[str] = None) -> CensusRecord:
    """Pn: the poset family, streamed over colored graphs."""
    return count("Pn", n, method=method)


def count_obtf(n: int, method: Optional[str] = None, workers: int = 1) -> CensusRecord:
    """F: odd-blue-triangle-free graphs."""
    return count("F", n, method=method, workers=workers)


def count_bb(n: int, method: Optional[str] = None) -> CensusRecord:
    """B: blue-bipartite graphs."""
    return count("B", n, method=method)


# ---------------------------------------------------------------------------
# The order search: the cover-graph multiplicity question, and Pn's
# second route


def strict_orders(m: int, negation: bool = False):
    """Yield every strict partial order on m labelled points, as closure
    row tuples (bit v of rows[u] means u < v, 0-based).  With negation
    (m = 2n literals, u's negation u^1), yield only the orders symmetric
    under u -> u^1 that leave each u incomparable to u^1: the poset
    family Pn.

    Decides each vertex pair (colex) as <, > or incomparable while
    maintaining the transitive closure, so conflicts prune immediately;
    pairs the closure or an earlier mark already decides are not branched
    on.  Under negation the pairs {u, u^1} start marked incomparable, the
    image {a^1, b^1} is marked with {a, b}, and b^1 < a^1 is closed in
    after each a < b.
    """
    pairs = [(i, j) for j in range(1, m) for i in range(j)]
    rows = [0] * m
    incomp = [1 << (u ^ 1) if negation else 0 for u in range(m)]
    # the (row, bit) flips that mark pair k incomparable, or unmark it
    marks = [((a, 1 << b), (b, 1 << a))
             + (((a ^ 1, 1 << (b ^ 1)), (b ^ 1, 1 << (a ^ 1))) if negation else ())
             for a, b in pairs]

    def relate(a: int, b: int, added: list) -> bool:
        """Close a<b into rows, appending each new pair to added; False on
        conflict with a decided incomparability (the caller undoes added)."""
        ups = [x for x in range(m) if (rows[x] >> a) & 1] + [a]
        downs_mask = rows[b] | (1 << b)
        for x in ups:     # set bits inline: bits() made strict_orders(6) 18% slower
            r = downs_mask & ~rows[x]
            while r:
                low = r & -r
                y = low.bit_length() - 1
                r ^= low
                if x == y or (incomp[x] >> y) & 1:
                    return False
                rows[x] |= low
                added.append((x, y))
        return True

    def rec(k: int):
        if k == len(pairs):
            yield tuple(rows)
            return
        a, b = pairs[k]
        if ((rows[a] >> b) & 1) or ((rows[b] >> a) & 1) or ((incomp[a] >> b) & 1):
            yield from rec(k + 1)
            return
        for u, bit in marks[k]:
            incomp[u] ^= bit
        yield from rec(k + 1)
        for u, bit in marks[k]:
            incomp[u] ^= bit
        for x, y in ((a, b), (b, a)):
            added: list = []
            if relate(x, y, added) and (not negation or relate(y ^ 1, x ^ 1, added)):
                yield from rec(k + 1)
            for px, py in added:
                rows[px] ^= 1 << py

    yield from rec(0)


def posets_per_cover_graph(m: int) -> tuple[int, frozenset[tuple[int, int]]]:
    """Over all strict orders on m labelled points, the largest number
    sharing one cover graph, with a witness graph."""
    if m > COVER_QUESTION_GUARD:
        raise ResourceGuardError(
            f"order enumeration capped at m <= {COVER_QUESTION_GUARD}, got {m}")
    if m < 1:
        raise ValueError("need at least one point")
    groups: dict[frozenset, int] = {}
    best: tuple[int, frozenset] = (0, frozenset())
    for order in strict_orders(m):
        cg = litposet.cover_pairs(order)
        k = groups.get(cg, 0) + 1
        groups[cg] = k
        if k > best[0]:
            best = (k, cg)
    return best[0], frozenset((u + 1, v + 1) for u, v in best[1])


def enumerate_pn_oracle(n: int) -> list[litposet.LiteralPoset]:
    """Pn by the order search on the 2n literals: Pn's second route,
    independent of the graph-driven enumerate_pn."""
    if n > litposet.P_N_GUARD:
        raise ResourceGuardError(
            f"poset order search capped at n <= {litposet.P_N_GUARD}, got {n}")
    out = [litposet.LiteralPoset(n, rows) for rows in strict_orders(2 * n, negation=True)]
    if not all(map(litposet.is_pn_member, out)):
        raise AssertionError("order search produced a non-member")
    return out


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
