"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Run with `pytest tests/test_acceptance.py -s` to see the one-line verdict
per criterion.  Every expected value here is pinned against an
independent oracle computed in-line (flat sweeps, relation-matrix sweeps,
closed forms), not against the engine under test.
"""

import itertools
import json
import time
from math import comb

from obtf import census, cgraph, litposet
from obtf.boolfn import (
    all_clauses,
    is_elementary,
    realize_formula,
    truth_table,
)
from obtf.cli import main as cli_main


def report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS — {detail}")


def literal_clause_subset_sweep(n, allow_empty):
    """The definitional oracle: every clause subset, full truth table each."""
    tables = set()
    clauses = all_clauses(n)
    for r in range(0 if allow_empty else 1, len(clauses) + 1):
        for sub in itertools.combinations(clauses, r):
            tables.add(truth_table(n, sub))
    return tables


def relation_matrix_sweep_n2():
    """Every irreflexive relation on the 4 literals of two variables."""
    cells = [(u, v) for u in range(4) for v in range(4) if u != v]
    members = set()
    for picks in itertools.product((0, 1), repeat=len(cells)):
        rows = [0, 0, 0, 0]
        for (u, v), bit in zip(cells, picks):
            if bit:
                rows[u] |= 1 << v
        if litposet.is_pn_member(tuple(rows)):
            members.add(tuple(rows))
    return members


def test_criterion_1_exact_baselines():
    started = time.perf_counter()

    swept_t1 = literal_clause_subset_sweep(2, allow_empty=False)
    swept_t0 = literal_clause_subset_sweep(2, allow_empty=True)
    assert len(swept_t1) == 15
    assert len(swept_t0) == 16
    assert census.count("G", 2, "t1").value == 15
    assert census.count("G", 2, "t0").value == 16

    h2_oracle = sum(1 for bits in swept_t1 if is_elementary(2, bits))
    assert h2_oracle == 4
    assert census.count("H", 2, "t1").value == 4

    pn2_oracle = relation_matrix_sweep_n2()
    assert len(pn2_oracle) == 5
    assert census.count("Pn", 2).value == 5
    assert set(cgraph.enumerate_pn(2)) == pn2_oracle

    for n, expect in ((2, 3), (3, 23)):
        assert census.count("F", n, method="flat-sweep").value == expect
        assert census.count("F", n, method="dfs-prune").value == expect
        assert census.count("B", n, method="flat-sweep").value == expect
        assert census.count("B", n, method="component-closed-form").value == expect

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"baseline censuses took {elapsed:.3f}s, budget 1s"
    report(1, "exact baselines",
           f"G(2)=15/16, H(2)=4, |Pn(2)|=5, F=B at n=2,3; all oracle-confirmed "
           f"in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    for n in range(1, 5):
        for conv in ("t1", "t0"):
            vals = {m: census.count("G", n, conv, m).value
                    for m in ("clause-sweep", "median-filter", "median-dp")}
            assert len(set(vals.values())) == 1, (n, conv, vals)
            hv = {m: census.count("H", n, conv, m).value
                  for m in ("clause-sweep", "median-dp")}
            assert len(set(hv.values())) == 1, (n, conv, hv)
    for n in range(1, 6):
        assert (census.count("F", n, method="dfs-prune").value
                == census.count("F", n, method="flat-sweep").value)
        assert (census.count("B", n, method="component-closed-form").value
                == census.count("B", n, method="flat-sweep").value)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(2, "oracle equivalence",
           f"G,H to n=4 (3 engines), F,B to n=5 (2 engines) in {elapsed:.1f}s")


def test_criterion_3_counting_lower_bound():
    rows = []
    for n in (2, 3, 4):
        bound = (1 << n) * ((1 << comb(n, 2)) - 1)
        for conv in ("t1", "t0"):
            g = census.count("G", n, conv).value
            assert g > bound, (n, conv, g, bound)
            rows.append(f"n={n} {conv}: {g}>{bound}")
    report(3, "counting lower bound", "; ".join(rows))


def test_criterion_4_chain_inequality():
    rows = []
    for n in range(1, 5):
        h = {m: census.count("H", m, "t0").value for m in range(n + 1)}
        g = census.count("G", n, "t0").value
        upper = 1 + sum(h[n - k] * comb(n, k) * (2 * n - 2 * k + 2) ** k
                        for k in range(n + 1))
        assert h[n] <= g <= upper, (n, h[n], g, upper)
        rows.append(f"n={n}: {h[n]}<={g}<={upper}")
    report(4, "chain inequality (t0)", "; ".join(rows))


def test_criterion_5_bijection_and_roundtrip():
    for n in (1, 2, 3):
        pn = census.count("Pn", n).value
        h = census.count("H", n, "t0").value
        assert pn == h, (n, pn, h)
    count = 0
    for p in cgraph.enumerate_pn(3):
        t = litposet.poset_to_function(p)
        assert is_elementary(3, t)
        assert litposet.implication_poset(3, realize_formula(3, t)) == p
        count += 1
    assert count == 69
    report(5, "bijection", f"|Pn|=H_t0 at n=1,2,3; all {count} posets of n=3 "
                           f"round-trip through realize")


def test_criterion_6_graph_map_properties():
    checked = 0
    for n in (1, 2, 3):
        for p in cgraph.enumerate_pn(n):
            g = cgraph.graph_of_poset(p)   # raises on any two-color demand
            assert cgraph.double_cover(g) == litposet.cover_pairs(p)
            assert cgraph.is_obtf(g)
            checked += 1
    assert checked == 1 + 5 + 69
    report(6, "graph-map properties", f"{checked} posets, zero failures")


def test_criterion_7_triangle_connected_bound():
    started = time.perf_counter()
    two = edgeless = 0
    shortfalls = []
    for n in range(1, 6):
        for g in cgraph.enumerate_colored_graphs(n):
            if cgraph.find_blue_bipartition(g) is None or cgraph.eta(g) > 1:
                continue
            k = len(cgraph.posets_of_graph(g))
            assert k <= 2, cgraph.format_colored_graph(g)
            if k == 2:
                two += 1
            elif g.edge_count() == 0:
                edgeless += 1
            else:
                shortfalls.append(g)
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    report(7, "triangle-connected bound",
           f"n<=5: |posets|<=2 everywhere; equality tally: {two} graphs hit 2, "
           f"{edgeless} edgeless graphs give 1, {len(shortfalls)} other "
           f"shortfalls, in {elapsed:.1f}s")


def test_criterion_8_component_bounds():
    for n in range(1, 5):
        factorial = 1
        for i in range(1, 2 * n + 1):
            factorial *= i
        for g in cgraph.enumerate_colored_graphs(n):
            k = len(cgraph.posets_of_graph(g))
            e = 1 << cgraph.eta(g)
            assert k <= e <= factorial, cgraph.format_colored_graph(g)
    report(8, "component bounds", "|posets| <= 2^eta <= (2n)! for all graphs n<=4")


def test_criterion_9_closed_walks():
    checked = 0
    for n in range(1, 6):
        for g in cgraph.enumerate_colored_graphs(n):
            if cgraph.is_obtf(g):
                assert cgraph.find_odd_nonsimple_walk(g) is None, cgraph.format_colored_graph(g)
                checked += 1
    report(9, "closed walks", f"{checked} OBTF graphs on n<=5, all even-blue "
                              f"on short non-simple closed walks")


def test_criterion_10_bb_closed_form_and_ratios():
    for n in range(1, 6):
        assert (census.count("B", n, method="component-closed-form").value
                == census.count("B", n, method="flat-sweep").value)
    lines = []
    for n in range(1, 7):
        f_val = census.count("F", n).value
        b_val = census.count("B", n).value
        assert f_val >= b_val, (n, f_val, b_val)
        bn = census.b_benchmark(n)
        lines.append(f"n={n}: F/b={f_val}/{bn}={f_val / bn:.4f} "
                     f"B/b={b_val}/{bn}={b_val / bn:.4f}")
    print("ratio table (descriptive):")
    for line in lines:
        print("  " + line)
    report(10, "blue-bipartite closed form", "closed=sweep n<=5, F>=B n<=6; "
                                             "ratio table emitted above")


def test_criterion_11_determinism(capsys, tmp_path):
    records = []
    for workers, tag in ((1, "a"), (2, "b")):
        cache = tmp_path / f"cache-{tag}.jsonl"
        for quantity, rng in (("F", "2..4"), ("G", "2..3"), ("B", "2..4")):
            code = cli_main(["census", "--quantity", quantity, "--n", rng,
                             "--workers", str(workers), "--cache", str(cache)])
            assert code == 0
        rows = [json.loads(line) for line in cache.read_text().splitlines()]
        for row in rows:
            row.pop("wall_time")  # timing is the only run-dependent field
        records.append(json.dumps(rows, sort_keys=True))
    capsys.readouterr()
    assert records[0] == records[1]
    report(11, "determinism", "records and checksums identical for "
                              "workers=1 and workers=2")
