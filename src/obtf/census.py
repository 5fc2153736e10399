"""Exact counting engines and identity checks.

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
whose cap admits n must return the same value (checked by verify).
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path
from typing import Iterable, Optional

from . import cgraph, litposet
from .boolfn import (
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
    "CheckResult",
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
    "max_n",
    "posets_per_cover_graph",
    "record_checksum",
    "verify_identities",
]

ORDER_SEED = "pair-colex/state-lex/v1"
QUANTITIES = ("G", "H", "Pn", "F", "B")

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
        return {
            "quantity": self.quantity,
            "n": self.n,
            "convention": self.convention,
            "value": self.value,
            "method": self.method,
            "wall_time": self.wall_time,
            "checksum": self.checksum,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CensusRecord":
        # the checksum hashes str(n) and str(value), so it cannot tell 23
        # from "23"; the types are checked here instead
        for name in ("n", "value"):
            if type(d[name]) is not int:
                raise TypeError(f"{name} must be an integer, got {d[name]!r}")
        return cls(
            quantity=d["quantity"],
            n=d["n"],
            convention=d["convention"],
            value=d["value"],
            method=d["method"],
            wall_time=d["wall_time"],
            checksum=d["checksum"],
        )


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


def _obtf_dfs(n: int, workers: int) -> int:
    """Branch over pairs in colex order and cut a branch the moment a
    completed triangle is odd-blue (deleting edges preserves the property,
    so pruning is sound).  With several workers (at most one per CPU) the
    state prefixes are counted in a process pool."""
    m = comb(n, 2)
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or m == 0:
        return _obtf_prefix_count((n, ()))
    depth = 1
    while 3 ** depth < 8 * workers and depth < m:
        depth += 1
    tasks = [(n, prefix) for prefix in itertools.product((0, 1, 2), repeat=depth)]
    chunk = max(1, len(tasks) // (workers * 8))
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
# Identity checks


@dataclass
class CheckResult:
    name: str
    scope: str
    status: str          # PASS / FAIL / INFO
    detail: str
    witness: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _chain_upper_bound(n: int, h_values: dict[int, int]) -> int:
    return 1 + sum(h_values[n - k] * comb(n, k) * (2 * n - 2 * k + 2) ** k
                   for k in range(n + 1))


def verify_identities(ns: Iterable[int], workers: int = 1) -> list[CheckResult]:
    """The census-level identity checks, one result line per instance.

    Covers the counting lower bound, the elementary-function chain
    inequality, closed form versus sweep for B, the poset/function
    bijection, the poset-count bounds per graph, and the descriptive
    ratio table.
    """
    ns = sorted(set(ns))
    out: list[CheckResult] = []

    # (i) G(n) > 2^n (2^C(n,2) - 1), both conventions
    for n in ns:
        if not 2 <= n <= max_n("G"):
            continue
        bound = (1 << n) * ((1 << comb(n, 2)) - 1)
        for allow_empty in (False, True):
            g = count_functions(n, allow_empty).value
            label = convention_label(allow_empty)
            out.append(CheckResult(
                "counting-lower-bound", f"n={n} {label}",
                _verdict(g > bound), f"G={g} > {bound}"))

    # (ii) H(n) <= G(n) <= 1 + sum H(n-k) C(n,k) (2n-2k+2)^k
    for n in ns:
        if n > ENGINES["H"]["clause-sweep"][1]:
            continue
        h0 = {m: count_elementary(m, True).value for m in range(n + 1)}
        g0 = count_functions(n, True).value
        ub0 = _chain_upper_bound(n, h0)
        ok = h0[n] <= g0 <= ub0
        out.append(CheckResult(
            "elementary-chain", f"n={n} t0",
            _verdict(ok), f"H={h0[n]} <= G={g0} <= {ub0}"))
        h1 = {m: count_elementary(m, False).value for m in range(n + 1)}
        g1 = count_functions(n, False).value
        ub1 = _chain_upper_bound(n, h1)
        out.append(CheckResult(
            "elementary-chain", f"n={n} t1", "INFO",
            f"H={h1[n]}, G={g1}, bound={ub1}, holds={h1[n] <= g1 <= ub1}"))

    # (iii) B closed form == flat sweep
    for n in ns:
        if n > ENGINES["B"]["flat-sweep"][1]:
            continue
        closed = count_bb(n, "component-closed-form").value
        sweep = count_bb(n, "flat-sweep").value
        out.append(CheckResult(
            "bb-closed-form", f"n={n}",
            _verdict(closed == sweep), f"closed={closed} sweep={sweep}"))

    # (iv) bijection: |Pn| == H(n, t0)
    for n in ns:
        if n > litposet.P_N_GUARD:
            continue
        pn = count_pn(n).value
        h = count_elementary(n, True).value
        out.append(CheckResult(
            "poset-function-bijection", f"n={n}",
            _verdict(pn == h), f"|Pn|={pn} H_t0={h}"))

    # (v) per-graph poset bounds: triangle-connected blue-bipartite <= 2,
    #     and |posets| <= 2^eta <= (2n)! over all graphs
    for n in ns:
        if n <= 5:
            bad = None
            two = edgeless = 0
            short = []
            for g in cgraph.enumerate_colored_graphs(n):
                if cgraph.find_blue_bipartition(g) is None:
                    continue
                if not cgraph.is_triangle_connected(g):
                    continue
                k = len(cgraph.posets_of_graph(g))
                if k > 2:
                    bad = g
                    break
                if k == 2:
                    two += 1
                elif g.edge_count() == 0:
                    edgeless += 1
                else:
                    short.append(g)
            out.append(CheckResult(
                "triangle-connected-two-posets", f"n={n}",
                _verdict(bad is None),
                f"graphs with 2 posets: {two}, edgeless (1 poset): {edgeless}, "
                f"other shortfalls: {len(short)}",
                witness=cgraph.format_colored_graph(bad) if bad else None))
            out.append(CheckResult(
                "two-poset-equality-tally", f"n={n}", "INFO",
                f"equality holds at every graph with an edge ({two} graphs)"
                if not short else
                f"equality fails at {len(short)} non-edgeless graphs, first: "
                + cgraph.format_colored_graph(short[0]).replace("\n", "; ")))
        if n <= 4:
            bad = None
            detail = ""
            bound_fact = 1
            for i in range(1, 2 * n + 1):
                bound_fact *= i
            for g in cgraph.enumerate_colored_graphs(n):
                k = len(cgraph.posets_of_graph(g))
                e = 1 << cgraph.eta(g)
                if not (k <= e <= bound_fact):
                    bad = g
                    detail = f"|posets|={k} 2^eta={e} (2n)!={bound_fact}"
                    break
            out.append(CheckResult(
                "poset-count-bounds", f"n={n}",
                _verdict(bad is None), detail or f"all graphs within 2^eta <= {bound_fact}",
                witness=cgraph.format_colored_graph(bad) if bad else None))

    # (vi) descriptive ratios; no pass/fail, the limits are out of reach here
    for n in ns:
        if n < 1:
            continue
        parts = []
        bn = b_benchmark(n)
        if n <= max_n("F"):
            f_val = count_obtf(n, workers=workers).value
            parts.append(f"F/b = {f_val}/{bn} = {float(Fraction(f_val, bn)):.6f}")
        if n <= max_n("B"):
            b_val = count_bb(n).value
            parts.append(f"B/b = {b_val}/{bn} = {float(Fraction(b_val, bn)):.6f}")
        if 2 <= n <= max_n("G"):
            g_val = count_functions(n, True).value
            denom = 1 << comb(n + 1, 2)
            parts.append(f"G/2^C(n+1,2) = {g_val}/{denom} = {float(Fraction(g_val, denom)):.6f}")
        if parts:
            out.append(CheckResult("ratio-table", f"n={n}", "INFO", "; ".join(parts)))

    return out


# ---------------------------------------------------------------------------
# Cover-graph multiplicity (general posets on m labelled points)


def strict_orders(m: int):
    """Yield every strict partial order on m labelled points, as closure
    row tuples (bit v of rows[u] means u < v, 0-based).

    Decides each vertex pair (colex) as <, > or incomparable while
    maintaining the transitive closure, so conflicts prune immediately;
    pairs already forced by the closure are not branched on.
    """
    if m > COVER_QUESTION_GUARD:
        raise ResourceGuardError(
            f"order enumeration capped at m <= {COVER_QUESTION_GUARD}, got {m}")
    if m < 1:
        raise ValueError("need at least one point")
    pairs = [(i, j) for j in range(1, m) for i in range(j)]
    rows = [0] * m
    incomp = [0] * m

    def relate(a: int, b: int):
        """Close a<b into rows; return the added pairs, or None on
        conflict with a decided incomparability."""
        ups = [x for x in range(m) if (rows[x] >> a) & 1] + [a]
        downs_mask = rows[b] | (1 << b)
        added = []
        for x in ups:
            r = downs_mask & ~rows[x]
            while r:
                low = r & -r
                y = low.bit_length() - 1
                r ^= low
                if x == y or (incomp[x] >> y) & 1:
                    for px, py in added:
                        rows[px] &= ~(1 << py)
                    return None
                rows[x] |= low
                added.append((x, y))
        return added

    def rec(k: int):
        if k == len(pairs):
            yield tuple(rows)
            return
        a, b = pairs[k]
        if ((rows[a] >> b) & 1) or ((rows[b] >> a) & 1):
            yield from rec(k + 1)
            return
        incomp[a] |= 1 << b
        incomp[b] |= 1 << a
        yield from rec(k + 1)
        incomp[a] &= ~(1 << b)
        incomp[b] &= ~(1 << a)
        for x, y in ((a, b), (b, a)):
            added = relate(x, y)
            if added is not None:
                yield from rec(k + 1)
                for px, py in added:
                    rows[px] &= ~(1 << py)

    yield from rec(0)


def posets_per_cover_graph(m: int) -> tuple[int, frozenset[tuple[int, int]]]:
    """Over all strict orders on m labelled points, the largest number
    sharing one cover graph, with a witness graph."""
    groups: dict[frozenset, int] = {}
    best: tuple[int, frozenset] = (0, frozenset())
    for order in strict_orders(m):
        cg = litposet.cover_pairs(order)
        k = groups.get(cg, 0) + 1
        groups[cg] = k
        if k > best[0]:
            best = (k, cg)
    return best[0], frozenset((u + 1, v + 1) for u, v in best[1])


# ---------------------------------------------------------------------------
# Cache


class CacheError(RuntimeError):
    """Unreadable, malformed, or checksum-failing census cache."""


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
            text = self.path.read_text()
        except OSError as exc:
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
            if not isinstance(rec.checksum, str) or not rec.checksum:
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
