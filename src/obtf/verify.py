"""Every check behind the verify command; run_suites is the one entry.

The identity checks compare census values along the paper's counting
identities, and the property suites walk toy-sized spaces completely.
The checks that walk coloured graphs, or the posets graph by graph, walk
the switching classes of one uncoloured graph per orbit under
relabelling, one colouring per class, weighted by the orbit's size times
the class's (cgraph.weighted_colored_graphs): 24 graphs at n = 4 and 220
at n = 5.  Each tests a property that relabelling and switching keep, or
tallies one, so each tally is the one over all labelled graphs, and a
failure's witness is the first failing switching representative.
poset-enumeration-oracle alone compares the labelled family, as a set,
with census's order stream.
Each check(n, run) yields its CheckResult lines at n, sharing one Run
per verify pass; its row in _CHECKS owns the sizes it runs at, without
--big and with it, and RUN_LIMITS owns the sizes a run may ask for.
Failures carry the witness in the text formats, so a counterexample can
be re-analyzed directly.  A raise while checking becomes a failure
rather than a crash: a broken internal invariant is exactly what these
checks exist to catch.
"""

from __future__ import annotations

import random
from math import comb, factorial
from typing import Iterable, Iterator, NamedTuple, Optional

from . import census, cgraph, litposet
from .boolfn import all_clauses, clause_masks, is_elementary, realize_formula, truth_table

__all__ = ["CheckResult", "Run", "run_suites", "DEFAULT_SEED", "RUN_LIMITS"]

DEFAULT_SEED = 20260809

# The largest n a verify run takes without --big, and with it.
RUN_LIMITS = (4, 5)

class CheckResult(NamedTuple):
    name: str
    scope: str
    status: str          # PASS / FAIL / INFO
    detail: str
    witness: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


class Run:
    """What the checks of one verify run share: the seed, the --big flag,
    and one memo, so that each census value, each weighted walk and its
    posets, and each answer cgraph gives about one graph are computed once
    per run.  Made per run, never module-wide, and census.count and the
    cgraph functions are looked up at each call, so a patched one is seen;
    a raise is never stored."""

    def __init__(self, seed: int = DEFAULT_SEED, big: bool = False):
        self.seed, self.big = seed, big
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def count(self, quantity: str, n: int, convention: Optional[str] = None,
              method: Optional[str] = None) -> int:
        key = (quantity, n, convention, method or census.default_method(quantity, n))
        return self._once(key, lambda: census.count(*key).value)

    def answer(self, name: str, g: cgraph.ColoredGraph):
        """cgraph.<name>(g), for name posets_of_graph, is_obtf, eta and the like."""
        return self._once((name, g), lambda: getattr(cgraph, name)(g))

    def weighted(self, n: int) -> list[tuple[cgraph.ColoredGraph, int]]:
        """cgraph.weighted_colored_graphs(n), the walk of every check that
        visits graphs."""
        return self._once(("weighted", n), lambda: list(cgraph.weighted_colored_graphs(n)))

    def weighted_posets(self, n: int) -> list[tuple[tuple[int, ...], int]]:
        """The posets of each weighted odd-blue-triangle-free graph, with
        its weight: a sum over them is the sum over the family."""
        return self._once(("weighted_posets", n), lambda: [
            (p, w) for g, w in self.weighted(n) if self.answer("is_obtf", g)
            for p in self.answer("posets_of_graph", g)])

    def family(self, n: int) -> list[tuple[int, ...]]:
        """The labelled poset family on n variables in cgraph.enumerate_pn's
        order, the posets of each odd-blue-triangle-free graph in turn,
        which only poset-enumeration-oracle compares.  A graph's answers
        come from the memo when the weighted walk has asked for them, and
        are computed without being kept otherwise: as memo keys, the 16,921
        labelled graphs at n = 5 raised the peak of verify --range 4..5
        --big by about 14 MB."""
        def known(name, g):
            key = (name, g)
            return self._memo[key] if key in self._memo else getattr(cgraph, name)(g)

        return self._once(("family", n), lambda: [
            r for g in cgraph.enumerate_colored_graphs(n) if known("is_obtf", g)
            for r in known("posets_of_graph", g)])


# ---------------------------------------------------------------------------
# Identity checks: each yields its lines at one n


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _counting_lower_bound(n: int, run: Run) -> Iterator[CheckResult]:
    """G(n) > 2^n (2^C(n,2) - 1), both conventions."""
    bound = (1 << n) * ((1 << comb(n, 2)) - 1)
    for conv in ("t1", "t0"):
        g = run.count("G", n, conv)
        yield CheckResult("counting-lower-bound", f"n={n} {conv}",
                          _verdict(g > bound), f"G={g} > {bound}")


def _elementary_chain(n: int, run: Run) -> Iterator[CheckResult]:
    """H(n) <= G(n) <= 1 + sum H(n-k) C(n,k) (2n-2k+2)^k; checked under
    t0, reported under t1."""
    for conv in ("t0", "t1"):
        h = [run.count("H", m, conv) for m in range(n + 1)]
        g = run.count("G", n, conv)
        ub = 1 + sum(h[n - k] * comb(n, k) * (2 * n - 2 * k + 2) ** k for k in range(n + 1))
        ok = h[n] <= g <= ub
        if conv == "t0":
            yield CheckResult("elementary-chain", f"n={n} t0", _verdict(ok),
                              f"H={h[n]} <= G={g} <= {ub}")
        else:
            yield CheckResult("elementary-chain", f"n={n} t1", "INFO",
                              f"H={h[n]}, G={g}, bound={ub}, holds={ok}")


def _bb_closed_form(n: int, run: Run) -> Iterator[CheckResult]:
    """B's closed form equals its flat sweep."""
    closed = run.count("B", n, method="component-closed-form")
    sweep = run.count("B", n, method="flat-sweep")
    yield CheckResult("bb-closed-form", f"n={n}", _verdict(closed == sweep),
                      f"closed={closed} sweep={sweep}")


def _poset_function_bijection(n: int, run: Run) -> Iterator[CheckResult]:
    """|Pn| = H(n, t0)."""
    pn, h = run.count("Pn", n), run.count("H", n, "t0")
    yield CheckResult("poset-function-bijection", f"n={n}", _verdict(pn == h),
                      f"|Pn|={pn} H_t0={h}")


def _triangle_connected_two_posets(n: int, run: Run) -> Iterator[CheckResult]:
    """A triangle-connected blue-bipartite graph carries at most 2 posets,
    with a tally of where equality holds."""
    bad = first_short = None
    two = edgeless = short = 0
    for g, w in run.weighted(n):
        if run.answer("find_blue_bipartition", g) is None or run.answer("eta", g) > 1:
            continue
        k = len(run.answer("posets_of_graph", g))
        if k > 2:
            bad = g
            break
        if k == 2:
            two += w
        elif g.edge_count() == 0:
            edgeless += w
        else:
            short += w
            first_short = first_short or g
    yield CheckResult(
        "triangle-connected-two-posets", f"n={n}", _verdict(bad is None),
        f"graphs with 2 posets: {two}, edgeless (1 poset): {edgeless}, "
        f"other shortfalls: {short}",
        witness=cgraph.format_colored_graph(bad) if bad else None)
    yield CheckResult(
        "two-poset-equality-tally", f"n={n}", "INFO",
        f"equality holds at every graph with an edge ({two} graphs)"
        if not short else
        f"equality fails at {short} non-edgeless graphs, first: "
        + cgraph.format_colored_graph(first_short).replace("\n", "; "))


def _poset_count_bounds(n: int, run: Run) -> Iterator[CheckResult]:
    """|posets| <= 2^eta <= (2n)! over all graphs."""
    bound_fact = factorial(2 * n)
    for g, _ in run.weighted(n):
        k = len(run.answer("posets_of_graph", g))
        e = 1 << run.answer("eta", g)
        if not k <= e <= bound_fact:
            yield CheckResult("poset-count-bounds", f"n={n}", "FAIL",
                              f"|posets|={k} 2^eta={e} (2n)!={bound_fact}",
                              witness=cgraph.format_colored_graph(g))
            return
    yield CheckResult("poset-count-bounds", f"n={n}", "PASS",
                      f"all graphs within 2^eta <= {bound_fact}")


def _ratio_table(n: int, run: Run) -> Iterator[CheckResult]:
    """Descriptive ratios; no pass/fail, the limits are out of reach here.
    G's ratio is given at the sizes of its counting lower bound."""
    bn = census.b_benchmark(n)
    f, b = run.count("F", n), run.count("B", n)
    parts = [f"F/b = {f}/{bn} = {f / bn:.6f}", f"B/b = {b}/{bn} = {b / bn:.6f}"]
    if n in _G_SIZES:
        g = run.count("G", n, "t0")
        denom = 1 << comb(n + 1, 2)
        parts.append(f"G/2^C(n+1,2) = {g}/{denom} = {g / denom:.6f}")
    yield CheckResult("ratio-table", f"n={n}", "INFO", "; ".join(parts))


# ---------------------------------------------------------------------------
# Property suites


def check_poset_graph_properties(n: int, run: Run) -> Iterator[CheckResult]:
    """Single color per vertex pair, double cover equal to the cover
    relations, and no odd-blue triangle, for every family poset."""
    posets = run.weighted_posets(n)
    if not posets:
        # the family always contains the antichain; an empty
        # enumeration means something upstream is broken
        yield CheckResult("poset-graph-properties", f"n={n}", "FAIL",
                          "family enumeration came back empty")
        return
    for p, _ in posets:
        covers = litposet.cover_pairs(p)
        g = cgraph.graph_of_covers(n, covers)  # raises on two-color demand or odd-blue
        if cgraph.double_cover(g) != covers:
            yield CheckResult(
                "poset-graph-properties", f"n={n}", "FAIL",
                "double cover differs from cover relations",
                witness=litposet.format_poset(p))
            return
    yield CheckResult("poset-graph-properties", f"n={n}", "PASS",
                      f"{sum(w for _, w in posets)} posets checked")


def check_roundtrip(n: int, run: Run) -> Iterator[CheckResult]:
    """poset -> function -> canonical realizing formula -> implication
    poset returns the original, for every family poset."""
    posets = run.weighted_posets(n)
    if not posets:
        yield CheckResult("bijection-roundtrip", f"n={n}", "FAIL",
                          "family enumeration came back empty")
        return
    for p, _ in posets:
        t = litposet.poset_to_function(p)
        if not is_elementary(n, t):
            problem = "poset function is not elementary"
        elif litposet.implication_poset(n, realize_formula(n, t)) != p:
            problem = "roundtrip returned a different poset"
        else:
            continue
        yield CheckResult("bijection-roundtrip", f"n={n}", "FAIL", problem,
                          witness=litposet.format_poset(p))
        return
    yield CheckResult("bijection-roundtrip", f"n={n}", "PASS",
                      f"{sum(w for _, w in posets)} posets round-tripped")


def check_formula_independence(n: int, run: Run) -> Iterator[CheckResult]:
    """The implication poset depends only on the function: random formula
    pairs with equal elementary tables give equal posets."""
    rng = random.Random(run.seed + n)
    clauses = all_clauses(n)
    compared = 0
    for _ in range(200):
        size = rng.randint(0, len(clauses))
        f1 = frozenset(rng.sample(clauses, size))
        t = truth_table(n, f1)
        if not is_elementary(n, t):
            continue
        # second realization: pad with further clauses valid on the table
        extra = [c for c, m in zip(clauses, clause_masks(n)) if t & ~m == 0]
        f2 = f1.union(rng.sample(extra, rng.randint(0, len(extra))))
        if truth_table(n, f2) != t:
            yield CheckResult("formula-independence", f"n={n}", "FAIL",
                              "padding with valid clauses changed the table")
            return
        p1 = litposet.implication_poset(n, f1)
        p2 = litposet.implication_poset(n, f2)
        p3 = litposet.implication_poset(n, realize_formula(n, t))
        if not (p1 == p2 == p3):
            yield CheckResult("formula-independence", f"n={n}", "FAIL",
                              "equal functions produced different posets",
                              witness=litposet.format_poset(p1))
            return
        compared += 1
    yield CheckResult("formula-independence", f"n={n}", "PASS",
                      f"{compared} elementary formula pairs agreed (seed {run.seed})")


def check_partition_law(n: int, run: Run) -> Iterator[CheckResult]:
    """Poset counts per graph partition the family: the sum over all
    colored graphs matches census's Pn count, made by the order search,
    and every graph with an odd-blue triangle contributes zero."""
    total = 0
    for g, w in run.weighted(n):
        k = len(run.answer("posets_of_graph", g))
        if k and not run.answer("is_obtf", g):
            yield CheckResult(
                "graph-partition-law", f"n={n}", "FAIL",
                f"odd-blue-triangle graph carries {k} posets",
                witness=cgraph.format_colored_graph(g))
            return
        total += w * k
    pn = run.count("Pn", n)
    yield CheckResult("graph-partition-law", f"n={n}", _verdict(total == pn),
                      f"sum over graphs {total}, family count {pn}")


def check_walks(n: int, run: Run) -> Iterator[CheckResult]:
    """Every graph without an odd-blue triangle has even blue count on all
    short non-simple closed walks."""
    checked = 0
    for g, w in run.weighted(n):
        if not run.answer("is_obtf", g):
            continue
        walk = cgraph.find_odd_nonsimple_walk(g)
        if walk is not None:
            yield CheckResult(
                "short-closed-walks", f"n={n}", "FAIL",
                f"odd-blue non-simple walk {walk}",
                witness=cgraph.format_colored_graph(g))
            return
        checked += w
    yield CheckResult("short-closed-walks", f"n={n}", "PASS",
                      f"{checked} graphs free of odd short walks")


# F and B name their engines by these short labels in the detail text,
# G and H print the method -> value dict
_SHORT_LABELS = {"dfs-prune": "dfs", "component-closed-form": "closed", "flat-sweep": "sweep"}


def check_engine_agreement(n: int, run: Run) -> Iterator[CheckResult]:
    """Every method whose cap admits n returns the same value, for each
    quantity with two or more such methods."""
    for conv in ("t1", "t0", None):
        for quantity in census.ENGINES:
            methods = census.methods(quantity, n)
            if conv not in census.conventions(quantity) or len(methods) < 2:
                continue
            vals = {m: run.count(quantity, n, conv, m) for m in methods}
            if all(m in _SHORT_LABELS for m in vals):
                detail = " ".join(f"{_SHORT_LABELS[m]}={v}" for m, v in vals.items())
            else:
                detail = str(vals)
            yield CheckResult(
                f"engine-agreement-{quantity}", f"n={n} {conv}" if conv else f"n={n}",
                _verdict(len(set(vals.values())) == 1), detail)


def check_bb_coherence(n: int, run: Run) -> Iterator[CheckResult]:
    """A bipartition witness exists iff zero vertex deletions suffice iff
    zero edge deletions suffice; witnesses are valid; the propagation
    search matches the brute-force sweep."""
    for g, _ in run.weighted(n):
        bp = run.answer("find_blue_bipartition", g)
        if (bp is None) != (cgraph.bipartition_sweep(g) is None):
            problem = "propagation and sweep disagree"
        elif bp is not None and not cgraph.is_valid_bipartition(g, bp):
            problem = "invalid bipartition witness"
        else:
            kv, kw = cgraph.kappa(g)
            gv, gw = cgraph.gamma(g)
            if ((bp is not None) != (kv == 0)) or ((bp is not None) != (gv == 0)):
                problem = f"witness/kappa/gamma mismatch: kappa={kv} gamma={gv}"
            elif run.answer("find_blue_bipartition", g.without_vertices(kw)) is None:
                problem = "kappa witness does not work"
            elif run.answer("find_blue_bipartition", g.without_edges(gw)) is None:
                problem = "gamma witness does not work"
            else:
                continue
        yield CheckResult("bb-coherence", f"n={n}", "FAIL", problem,
                          witness=cgraph.format_colored_graph(g))
        return
    yield CheckResult("bb-coherence", f"n={n}", "PASS",
                      "witness/kappa/gamma/sweep all coherent")


def check_pn_oracle(n: int, run: Run) -> Iterator[CheckResult]:
    """The graph-driven family equals, as a set of closure rows, the order
    search on the 2n literals, census.strict_orders.  The orientation
    search has checked the membership of each family poset, so equal sets
    leave no order that is not a member."""
    via_graphs = set(run.family(n))
    via_orders = set(census.strict_orders(2 * n, negation=True))
    # the label says "sweep" because the pinned output digests include it
    yield CheckResult("poset-enumeration-oracle", f"n={n}", _verdict(via_graphs == via_orders),
                      f"graph-driven {len(via_graphs)}, sweep {len(via_orders)}")


def _sizes(lo: int, hi: int, big_hi: Optional[int] = None) -> tuple[range, range]:
    """lo..hi without --big, and lo..big_hi (else lo..hi) with it."""
    return range(lo, hi + 1), range(lo, (hi if big_hi is None else big_hi) + 1)


_PLAIN, _BIG = RUN_LIMITS
# the paper states G's counting lower bound from n = 2 on
_G_SIZES = range(2, census.max_n("G") + 1)

# (line name, check, sizes) groups, sizes being the n the check runs at
# without --big and with it.  A check that counts takes its top size from
# the engine caps in census; one that walks every graph or poset of a size
# takes it from RUN_LIMITS.  Each group runs over every n before the next
# group starts; the checks within a group take turns at each n.  A check
# is named rather than held, so a wrapped or patched module function is
# the one that runs.  The last group is the property suites.
_CHECKS = (
    (("counting-lower-bound", "_counting_lower_bound", (_G_SIZES, _G_SIZES)),),
    (("elementary-chain", "_elementary_chain",
      _sizes(0, census.ENGINES["H"]["clause-sweep"][1])),),
    (("bb-closed-form", "_bb_closed_form", _sizes(0, census.ENGINES["B"]["flat-sweep"][1])),),
    (("poset-function-bijection", "_poset_function_bijection", _sizes(0, census.max_n("Pn"))),),
    (("triangle-connected-two-posets", "_triangle_connected_two_posets", _sizes(0, _BIG)),
     ("poset-count-bounds", "_poset_count_bounds", _sizes(0, _PLAIN))),
    (("ratio-table", "_ratio_table", _sizes(1, min(census.max_n("F"), census.max_n("B")))),),
    (("poset-graph-properties", "check_poset_graph_properties", _sizes(1, _PLAIN)),
     ("bijection-roundtrip", "check_roundtrip", _sizes(1, _PLAIN)),
     ("formula-independence", "check_formula_independence", _sizes(2, 3)),
     ("graph-partition-law", "check_partition_law", _sizes(1, _PLAIN)),
     ("short-closed-walks", "check_walks", _sizes(1, _PLAIN, _BIG)),
     ("engine-agreement", "check_engine_agreement",
      _sizes(0, max(map(census.max_n, census.ENGINES)))),
     ("bb-coherence", "check_bb_coherence", _sizes(1, _PLAIN)),
     ("poset-enumeration-oracle", "check_pn_oracle", _sizes(1, 3, _BIG))),
)


def _run_checks(groups, ns: Iterable[int], run: Run) -> list[CheckResult]:
    """Each check's lines at each n its sizes hold under run.big, or one
    FAIL line saying what it raised."""
    ns = sorted(set(ns))
    out: list[CheckResult] = []
    for group in groups:
        for n in ns:
            for name, check, sizes in group:
                if n not in sizes[run.big]:    # False picks sizes[0], True sizes[1]
                    continue
                try:
                    out += list(globals()[check](n, run))
                except Exception as exc:  # noqa: BLE001 - a crash is a finding here
                    out.append(CheckResult(name, f"n={n}", "FAIL",
                                           f"raised {type(exc).__name__}: {exc}"))
    return out


def run_suites(ns: Iterable[int], seed: int = DEFAULT_SEED,
               big: bool = False) -> list[CheckResult]:
    """Every verify check over the requested sizes: the identity checks,
    then the property suites per size.  All of them share one Run, so each
    census value, each graph's posets and each family is computed once.
    Each check runs at the sizes its _CHECKS row gives under big.
    """
    return _run_checks(_CHECKS, ns, Run(seed, big))
