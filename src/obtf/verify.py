"""Exhaustive property suites behind the verify command.

Each suite walks a toy-sized space completely and returns one CheckResult
per instance; failures carry the witness object in the text formats, so a
counterexample can be re-analyzed directly.  Anything raised by the
library while checking is converted into a failure rather than a crash:
a broken internal invariant is exactly what these suites exist to catch.
"""

from __future__ import annotations

import random
from typing import Iterable

from . import census, cgraph, litposet
from .boolfn import Formula, all_clauses, realize_formula, truth_table, is_elementary
from .census import CheckResult

__all__ = ["run_suites", "DEFAULT_SEED"]

DEFAULT_SEED = 20260809

_PROPS_CAP = 4
_ROUNDTRIP_CAP = 4
_PARTITION_CAP = 4
_WALKS_CAP = 5
_COHERENCE_CAP = 4
_PN_ORACLE_CAP = 4


def _guard(name: str, scope: str, fn) -> CheckResult:
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - a crash is a finding here
        return CheckResult(name, scope, "FAIL", f"raised {type(exc).__name__}: {exc}")


def check_poset_graph_properties(n: int) -> CheckResult:
    """Single color per vertex pair, double cover equal to the cover
    relations, and no odd-blue triangle, for every family poset."""
    def run():
        count = 0
        for p in litposet.enumerate_pn(n):
            g = cgraph.graph_of_poset(p)  # raises on two-color demand or odd-blue
            if cgraph.double_cover(g) != litposet.cover_relations(p):
                return CheckResult(
                    "poset-graph-properties", f"n={n}", "FAIL",
                    "double cover differs from cover relations",
                    witness=litposet.format_poset(p))
            count += 1
        if count == 0:
            # the family always contains the antichain; an empty
            # enumeration means something upstream is broken
            return CheckResult("poset-graph-properties", f"n={n}", "FAIL",
                               "family enumeration came back empty")
        return CheckResult("poset-graph-properties", f"n={n}", "PASS",
                           f"{count} posets checked")
    return _guard("poset-graph-properties", f"n={n}", run)


def check_roundtrip(n: int) -> CheckResult:
    """poset -> function -> canonical realizing formula -> implication
    poset returns the original, for every family poset."""
    def run():
        count = 0
        for p in litposet.enumerate_pn(n):
            t = litposet.poset_to_function(p)
            if not is_elementary(t):
                return CheckResult(
                    "bijection-roundtrip", f"n={n}", "FAIL",
                    "poset function is not elementary",
                    witness=litposet.format_poset(p))
            back = litposet.implication_poset(realize_formula(t))
            if back != p:
                return CheckResult(
                    "bijection-roundtrip", f"n={n}", "FAIL",
                    "roundtrip returned a different poset",
                    witness=litposet.format_poset(p))
            count += 1
        if count == 0:
            return CheckResult("bijection-roundtrip", f"n={n}", "FAIL",
                               "family enumeration came back empty")
        return CheckResult("bijection-roundtrip", f"n={n}", "PASS",
                           f"{count} posets round-tripped")
    return _guard("bijection-roundtrip", f"n={n}", run)


def check_formula_independence(n: int, seed: int, trials: int = 200) -> CheckResult:
    """The implication poset depends only on the function: random formula
    pairs with equal elementary tables give equal posets."""
    def run():
        rng = random.Random(seed + n)
        clauses = all_clauses(n)
        compared = 0
        for _ in range(trials):
            size = rng.randint(0, len(clauses))
            f1 = Formula.of(n, rng.sample(clauses, size))
            t = truth_table(f1)
            if not is_elementary(t):
                continue
            # second realization: pad with further clauses valid on the table
            extra = [c for c in clauses
                     if truth_table(Formula.of(n, [c])).bits & t.bits == t.bits]
            f2 = Formula.of(n, list(f1.clauses) + rng.sample(extra, rng.randint(0, len(extra))))
            if truth_table(f2) != t:
                return CheckResult("formula-independence", f"n={n}", "FAIL",
                                   "padding with valid clauses changed the table")
            p1 = litposet.implication_poset(f1)
            p2 = litposet.implication_poset(f2)
            p3 = litposet.implication_poset(realize_formula(t))
            if not (p1 == p2 == p3):
                return CheckResult("formula-independence", f"n={n}", "FAIL",
                                   "equal functions produced different posets",
                                   witness=litposet.format_poset(p1))
            compared += 1
        return CheckResult("formula-independence", f"n={n}", "PASS",
                           f"{compared} elementary formula pairs agreed (seed {seed})")
    return _guard("formula-independence", f"n={n}", run)


def check_partition_law(n: int) -> CheckResult:
    """Poset counts per graph partition the family: the sum over all
    colored graphs matches the streamed family count, and every graph
    with an odd-blue triangle contributes zero."""
    def run():
        total = 0
        for g in cgraph.enumerate_colored_graphs(n):
            k = len(cgraph.posets_of_graph(g))
            if k and not cgraph.is_obtf(g):
                return CheckResult(
                    "graph-partition-law", f"n={n}", "FAIL",
                    f"odd-blue-triangle graph carries {k} posets",
                    witness=cgraph.format_colored_graph(g))
            total += k
        pn = census.count_pn(n).value
        ok = total == pn
        return CheckResult("graph-partition-law", f"n={n}",
                           "PASS" if ok else "FAIL",
                           f"sum over graphs {total}, family count {pn}")
    return _guard("graph-partition-law", f"n={n}", run)


def check_walks(n: int) -> CheckResult:
    """Every graph without an odd-blue triangle has even blue count on all
    short non-simple closed walks."""
    def run():
        checked = 0
        for g in cgraph.enumerate_colored_graphs(n):
            if not cgraph.is_obtf(g):
                continue
            walk = cgraph.find_odd_nonsimple_walk(g)
            if walk is not None:
                return CheckResult(
                    "short-closed-walks", f"n={n}", "FAIL",
                    f"odd-blue non-simple walk {walk}",
                    witness=cgraph.format_colored_graph(g))
            checked += 1
        return CheckResult("short-closed-walks", f"n={n}", "PASS",
                           f"{checked} graphs free of odd short walks")
    return _guard("short-closed-walks", f"n={n}", run)


# F and B name their engines by these short labels in the detail text,
# G and H print the method -> value dict
_SHORT_LABELS = {"dfs-prune": "dfs", "component-closed-form": "closed", "flat-sweep": "sweep"}


def check_engine_agreement(n: int) -> list[CheckResult]:
    """Every method whose cap admits n returns the same value, for each
    quantity with two or more such methods."""
    out = []
    for conv in ("t1", "t0", None):
        for quantity, engines in census.ENGINES.items():
            methods = [m for m, (_, cap) in engines.items() if n <= cap]
            if conv not in census.conventions(quantity) or len(methods) < 2:
                continue
            vals = {m: census.count(quantity, n, conv, m).value for m in methods}
            if all(m in _SHORT_LABELS for m in vals):
                detail = " ".join(f"{_SHORT_LABELS[m]}={v}" for m, v in vals.items())
            else:
                detail = str(vals)
            out.append(CheckResult(
                f"engine-agreement-{quantity}", f"n={n} {conv}" if conv else f"n={n}",
                "PASS" if len(set(vals.values())) == 1 else "FAIL", detail))
    return out


def check_bb_coherence(n: int) -> CheckResult:
    """A bipartition witness exists iff zero vertex deletions suffice iff
    zero edge deletions suffice; witnesses are valid; the propagation
    search matches the brute-force sweep."""
    def run():
        for g in cgraph.enumerate_colored_graphs(n):
            bp = cgraph.find_blue_bipartition(g)
            sweep = cgraph.bipartition_sweep(g)
            if (bp is None) != (sweep is None):
                return CheckResult("bb-coherence", f"n={n}", "FAIL",
                                   "propagation and sweep disagree",
                                   witness=cgraph.format_colored_graph(g))
            if bp is not None and not cgraph.is_valid_bipartition(g, bp):
                return CheckResult("bb-coherence", f"n={n}", "FAIL",
                                   "invalid bipartition witness",
                                   witness=cgraph.format_colored_graph(g))
            kv, kw = cgraph.kappa(g)
            gv, gw = cgraph.gamma(g)
            if ((bp is not None) != (kv == 0)) or ((bp is not None) != (gv == 0)):
                return CheckResult("bb-coherence", f"n={n}", "FAIL",
                                   f"witness/kappa/gamma mismatch: kappa={kv} gamma={gv}",
                                   witness=cgraph.format_colored_graph(g))
            if cgraph.find_blue_bipartition(g.without_vertices(kw)) is None:
                return CheckResult("bb-coherence", f"n={n}", "FAIL",
                                   "kappa witness does not work",
                                   witness=cgraph.format_colored_graph(g))
            if cgraph.find_blue_bipartition(g.without_edges(gw)) is None:
                return CheckResult("bb-coherence", f"n={n}", "FAIL",
                                   "gamma witness does not work",
                                   witness=cgraph.format_colored_graph(g))
        return CheckResult("bb-coherence", f"n={n}", "PASS",
                           "witness/kappa/gamma/sweep all coherent")
    return _guard("bb-coherence", f"n={n}", run)


def check_pn_oracle(n: int) -> CheckResult:
    """Graph-driven family enumeration equals the direct relation sweep,
    as sets."""
    def run():
        via_graphs = {p.rows for p in litposet.enumerate_pn(n)}
        via_sweep = {p.rows for p in litposet.enumerate_pn_oracle(n)}
        ok = via_graphs == via_sweep
        return CheckResult("poset-enumeration-oracle", f"n={n}",
                           "PASS" if ok else "FAIL",
                           f"graph-driven {len(via_graphs)}, sweep {len(via_sweep)}")
    return _guard("poset-enumeration-oracle", f"n={n}", run)


def run_suites(ns: Iterable[int], seed: int = DEFAULT_SEED,
               big: bool = False) -> list[CheckResult]:
    """All property suites over the requested sizes, capped per suite.

    The heaviest sweeps (poset relation oracle at n=4, anything at n=5)
    only run when big is set.
    """
    ns = sorted(set(ns))
    out: list[CheckResult] = []
    for n in ns:
        if 1 <= n <= _PROPS_CAP:
            out.append(check_poset_graph_properties(n))
        if 1 <= n <= _ROUNDTRIP_CAP:
            out.append(check_roundtrip(n))
        if n in (2, 3):
            out.append(check_formula_independence(n, seed))
        if 1 <= n <= _PARTITION_CAP:
            out.append(check_partition_law(n))
        if 1 <= n <= _WALKS_CAP and (big or n <= 4):
            out.append(check_walks(n))
        out.extend(check_engine_agreement(n))
        if 1 <= n <= _COHERENCE_CAP:
            out.append(check_bb_coherence(n))
        if 1 <= n <= _PN_ORACLE_CAP and (big or n <= 3):
            out.append(check_pn_oracle(n))
    return out
