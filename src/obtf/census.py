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
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Iterable, Optional

from . import cgraph, litposet
from .boolfn import (
    TruthTable,
    all_clauses,
    all_ones,
    is_2sat_definable,
    is_elementary,
    is_median_closed,
    literal_mask,
    variable_masks,
)
from .litposet import ResourceGuardError

__all__ = [
    "CacheError",
    "CensusCache",
    "CensusRecord",
    "CheckResult",
    "ORDER_SEED",
    "QUANTITIES",
    "b_benchmark",
    "convention_label",
    "count_bb",
    "count_elementary",
    "count_functions",
    "count_obtf",
    "count_pn",
    "default_method",
    "definable_tables",
    "posets_per_cover_graph",
    "record_checksum",
    "verify_identities",
]

ORDER_SEED = "pair-colex/state-lex/v1"
QUANTITIES = ("G", "H", "Pn", "F", "B")

G_SWEEP_GUARD = 4
G_FILTER_GUARD = 4
G_DP_GUARD = 5
F_DFS_GUARD = 7
F_SWEEP_GUARD = 5
B_CLOSED_GUARD = 7
B_SWEEP_GUARD = 5
COVER_QUESTION_GUARD = 6


def convention_label(allow_empty: bool) -> str:
    return "t0" if allow_empty else "t1"


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


def _finish(quantity: str, n: int, convention: Optional[str], method: str,
            value: int, started: float) -> CensusRecord:
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
    if n > G_SWEEP_GUARD:
        raise ResourceGuardError(f"clause sweep capped at n <= {G_SWEEP_GUARD}, got {n}")
    full = all_ones(n)
    tables = {full & ~viol for viol in _nonempty_or_closure(_clause_masks(n))}
    if allow_empty:
        tables.add(full)
    return frozenset(tables)


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


def count_functions(n: int, allow_empty: bool = True,
                    method: Optional[str] = None, workers: int = 1) -> CensusRecord:
    """Number of distinct truth tables over all formulas (per convention).

    Methods: clause-sweep (subset image, n <= 4), median-filter (test
    every table, n <= 4), median-dp (conjunction closure, n <= 5).
    """
    method = method or default_method("G", n)
    convention = convention_label(allow_empty)
    started = time.perf_counter()
    if method == "clause-sweep":
        value = len(definable_tables(n, allow_empty))
    elif method == "median-filter":
        if n > G_FILTER_GUARD:
            raise ResourceGuardError(f"median filter capped at n <= {G_FILTER_GUARD}, got {n}")
        value = sum(1 for bits in range(1 << (1 << n))
                    if is_2sat_definable(TruthTable(n, bits), allow_empty))
    elif method == "median-dp":
        if n > G_DP_GUARD:
            raise ResourceGuardError(f"median dp capped at n <= {G_DP_GUARD}, got {n}")
        value = len(_definable_tables_fast(n, allow_empty))
    else:
        raise ValueError(f"unknown method {method!r} for G")
    return _finish("G", n, convention, method, value, started)


def _elementary_bits(n: int, bits: int) -> bool:
    """is_elementary on a raw bitset; hot path for family filtering."""
    if bits == 0:
        return False
    masks = variable_masks(n)
    full = all_ones(n)
    for m in masks:
        if bits & ~m == 0 or bits & m == 0:
            return False
    for i in range(n):
        for j in range(i + 1, n):
            diff = masks[i] ^ masks[j]
            if bits & diff == 0 or bits & (full ^ diff) == 0:
                return False
    return True


def count_elementary(n: int, allow_empty: bool = True,
                     method: Optional[str] = None, workers: int = 1) -> CensusRecord:
    """Number of elementary tables among the definable ones."""
    method = method or default_method("H", n)
    convention = convention_label(allow_empty)
    started = time.perf_counter()
    if method == "clause-sweep":
        tables = definable_tables(n, allow_empty)
    elif method == "median-dp":
        if n > G_DP_GUARD:
            raise ResourceGuardError(f"median dp capped at n <= {G_DP_GUARD}, got {n}")
        tables = _definable_tables_fast(n, allow_empty)
    else:
        raise ValueError(f"unknown method {method!r} for H")
    value = sum(1 for bits in tables if _elementary_bits(n, bits))
    return _finish("H", n, convention, method, value, started)


# ---------------------------------------------------------------------------
# Pn: literal posets


def count_pn(n: int, method: Optional[str] = None, workers: int = 1) -> CensusRecord:
    """Size of the poset family, streamed over colored graphs."""
    method = method or default_method("Pn", n)
    if method != "orientation-sweep":
        raise ValueError(f"unknown method {method!r} for Pn")
    started = time.perf_counter()
    value = sum(1 for _ in litposet.enumerate_pn(n))
    return _finish("Pn", n, None, method, value, started)


# ---------------------------------------------------------------------------
# F: odd-blue-triangle-free graphs


def _obtf_structures(n: int):
    pairs = cgraph.pairs_colex(n)
    index = {p: i for i, p in enumerate(pairs)}
    tri = []
    for a, b in pairs:
        tri.append([(index[(x, a)], index[(x, b)]) for x in range(1, a)])
    return pairs, tri


def _color_ok(states, checks, s: int) -> bool:
    """Adding color s (1 red, 2 blue) completes no odd-blue triangle."""
    for i1, i2 in checks:
        s1 = states[i1]
        if not s1:
            continue
        s2 = states[i2]
        if not s2:
            continue
        if ((s1 == 2) + (s2 == 2) + (s == 2)) & 1:
            return False
    return True


def _obtf_count_rec(states, k: int, m: int, tri) -> int:
    if k == m:
        return 1
    total = 0
    checks = tri[k]
    for s in (0, 1, 2):
        if s and not _color_ok(states, checks, s):
            continue
        states[k] = s
        total += _obtf_count_rec(states, k + 1, m, tri)
    states[k] = 0
    return total


def _obtf_prefix_count(args) -> int:
    """Worker task: count completions of one state prefix (0 if the prefix
    itself already contains an odd-blue triangle)."""
    n, prefix = args
    _, tri = _obtf_structures(n)
    m = len(tri)
    states = [0] * m
    for k, s in enumerate(prefix):
        if s and not _color_ok(states, tri[k], s):
            return 0
        states[k] = s
    return _obtf_count_rec(states, len(prefix), m, tri)


def count_obtf(n: int, method: Optional[str] = None, workers: int = 1) -> CensusRecord:
    """Exact count of odd-blue-triangle-free graphs.

    dfs-prune branches over pairs in colex order and cuts a branch the
    moment a completed triangle is odd-blue (deleting edges preserves the
    property, so pruning is sound).  flat-sweep tests every coloring and
    is kept as the oracle.
    """
    method = method or default_method("F", n)
    started = time.perf_counter()
    if method == "dfs-prune":
        if n > F_DFS_GUARD:
            raise ResourceGuardError(f"pruning search capped at n <= {F_DFS_GUARD}, got {n}")
        _, tri = _obtf_structures(n)
        m = len(tri)
        if workers <= 1 or m == 0:
            value = _obtf_count_rec([0] * m, 0, m, tri)
        else:
            depth = 1
            while 3 ** depth < 8 * workers and depth < m:
                depth += 1
            tasks = [(n, prefix) for prefix in itertools.product((0, 1, 2), repeat=depth)]
            chunk = max(1, len(tasks) // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                value = sum(pool.map(_obtf_prefix_count, tasks, chunksize=chunk))
    elif method == "flat-sweep":
        if n > F_SWEEP_GUARD:
            raise ResourceGuardError(f"flat sweep capped at n <= {F_SWEEP_GUARD}, got {n}")
        value = sum(1 for g in cgraph.enumerate_colored_graphs(n) if cgraph.is_obtf(g))
    else:
        raise ValueError(f"unknown method {method!r} for F")
    return _finish("F", n, None, method, value, started)


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


def count_bb(n: int, method: Optional[str] = None, workers: int = 1) -> CensusRecord:
    """Exact count of blue-bipartite graphs."""
    method = method or default_method("B", n)
    started = time.perf_counter()
    if method == "component-closed-form":
        if n > B_CLOSED_GUARD:
            raise ResourceGuardError(f"closed form capped at n <= {B_CLOSED_GUARD}, got {n}")
        value = _bb_closed_form(n)
    elif method == "flat-sweep":
        if n > B_SWEEP_GUARD:
            raise ResourceGuardError(f"flat sweep capped at n <= {B_SWEEP_GUARD}, got {n}")
        value = sum(1 for g in cgraph.enumerate_colored_graphs(n)
                    if cgraph.find_blue_bipartition(g) is not None)
    else:
        raise ValueError(f"unknown method {method!r} for B")
    return _finish("B", n, None, method, value, started)


def b_benchmark(n: int) -> int:
    """The benchmark count 2^(C(n+1,2)-1); n >= 1."""
    if n < 1:
        raise ValueError("benchmark defined for n >= 1")
    return 1 << (comb(n + 1, 2) - 1)


def default_method(quantity: str, n: int) -> str:
    if quantity == "G" or quantity == "H":
        return "median-dp" if n > G_SWEEP_GUARD else "clause-sweep"
    if quantity == "Pn":
        return "orientation-sweep"
    if quantity == "F":
        return "dfs-prune"
    if quantity == "B":
        return "component-closed-form"
    raise ValueError(f"unknown quantity {quantity!r}")


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
        if not 2 <= n <= G_DP_GUARD:
            continue
        bound = (1 << n) * ((1 << comb(n, 2)) - 1)
        for allow_empty in (False, True):
            g = count_functions(n, allow_empty, workers=workers).value
            label = convention_label(allow_empty)
            out.append(CheckResult(
                "counting-lower-bound", f"n={n} {label}",
                _verdict(g > bound), f"G={g} > {bound}"))

    # (ii) H(n) <= G(n) <= 1 + sum H(n-k) C(n,k) (2n-2k+2)^k
    for n in ns:
        if n > G_SWEEP_GUARD:
            continue
        h0 = {m: count_elementary(m, True, workers=workers).value for m in range(n + 1)}
        g0 = count_functions(n, True, workers=workers).value
        ub0 = _chain_upper_bound(n, h0)
        ok = h0[n] <= g0 <= ub0
        out.append(CheckResult(
            "elementary-chain", f"n={n} t0",
            _verdict(ok), f"H={h0[n]} <= G={g0} <= {ub0}"))
        h1 = {m: count_elementary(m, False, workers=workers).value for m in range(n + 1)}
        g1 = count_functions(n, False, workers=workers).value
        ub1 = _chain_upper_bound(n, h1)
        out.append(CheckResult(
            "elementary-chain", f"n={n} t1", "INFO",
            f"H={h1[n]}, G={g1}, bound={ub1}, holds={h1[n] <= g1 <= ub1}"))

    # (iii) B closed form == flat sweep
    for n in ns:
        if n > B_SWEEP_GUARD:
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
        pn = count_pn(n, workers=workers).value
        h = count_elementary(n, True, workers=workers).value
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
        if n <= 6:
            f_val = count_obtf(n, workers=workers).value
            parts.append(f"F/b = {f_val}/{bn} = {float(Fraction(f_val, bn)):.6f}")
        if n <= B_CLOSED_GUARD:
            b_val = count_bb(n).value
            parts.append(f"B/b = {b_val}/{bn} = {float(Fraction(b_val, bn)):.6f}")
        if 2 <= n <= G_DP_GUARD:
            g_val = count_functions(n, True, workers=workers).value
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


def _covers_of_order(m: int, rows_t: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    preds = [0] * m
    for u in range(m):
        r = rows_t[u]
        while r:
            low = r & -r
            preds[low.bit_length() - 1] |= 1 << u
            r ^= low
    es = set()
    for u in range(m):
        r = rows_t[u]
        while r:
            low = r & -r
            v = low.bit_length() - 1
            r ^= low
            if rows_t[u] & preds[v] == 0:
                es.add((u + 1, v + 1) if u < v else (v + 1, u + 1))
    return frozenset(es)


def posets_per_cover_graph(m: int) -> tuple[int, frozenset[tuple[int, int]]]:
    """Over all strict orders on m labelled points, the largest number
    sharing one cover graph, with a witness graph."""
    groups: dict[frozenset, int] = {}
    best: tuple[int, frozenset] = (0, frozenset())
    for order in strict_orders(m):
        cg = _covers_of_order(m, order)
        count = groups.get(cg, 0) + 1
        groups[cg] = count
        if count > best[0]:
            best = (count, cg)
    return best


# ---------------------------------------------------------------------------
# Cache


class CacheError(RuntimeError):
    """Unreadable, malformed, or checksum-failing census cache."""


class CensusCache:
    """Append-only JSON-lines store of census records.

    Loading validates every line, including recomputing the checksum from
    the record fields; a record without a valid checksum is refused.
    """

    def __init__(self, path):
        self.path = Path(path)

    def load(self) -> dict[tuple, CensusRecord]:
        records: dict[tuple, CensusRecord] = {}
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
                raise CacheError(f"{self.path}:{line_no}: bad record: {exc}") from exc
            if not isinstance(rec.checksum, str) or not rec.checksum:
                raise CacheError(f"{self.path}:{line_no}: record without checksum refused")
            if not rec.checksum_valid():
                raise CacheError(f"{self.path}:{line_no}: checksum mismatch")
            records[rec.key()] = rec
        return records

    def append(self, record: CensusRecord) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
        except OSError as exc:
            raise CacheError(f"cannot write cache {self.path}: {exc}") from exc
