import json
from collections import Counter
from math import factorial

import pytest

from obtf import cgraph, census, cli, litposet, verify


def test_default_suites_all_pass():
    checks = verify.run_suites([1, 2, 3])
    failed = [c for c in checks if c.failed]
    assert not failed, failed


def test_partition_law_detail():
    [check] = verify.check_partition_law(3, verify.Run())
    assert check.status == "PASS"
    assert "69" in check.detail


def test_formula_independence_is_seeded():
    [a] = verify.check_formula_independence(3, verify.Run(seed=7))
    [b] = verify.check_formula_independence(3, verify.Run(seed=7))
    assert a.detail == b.detail
    assert a.status == "PASS"


class TestMutationSensitivity:
    """Inverting the odd-blue-triangle test must surface as failing
    graph-route checks carrying a witness, not as silence."""

    @pytest.fixture
    def inverted_obtf(self, monkeypatch):
        real = cgraph.is_obtf
        monkeypatch.setattr(cgraph, "is_obtf", lambda g: not real(g))

    def test_partition_law_catches_inversion(self, inverted_obtf):
        [check] = verify.check_partition_law(2, verify.Run())
        assert check.status == "FAIL"
        assert check.witness is not None

    def test_inversion_fails_the_graph_route_only(self, inverted_obtf):
        # census counts Pn from the order search, so the bijection line
        # holds, and F's two routes count on masks, so they still agree;
        # every check that lists posets by graph fails
        checks = verify.run_suites([2])
        failed = {c.name: c for c in checks if c.failed}
        assert set(failed) == {"graph-partition-law", "poset-graph-properties",
                               "bijection-roundtrip", "poset-enumeration-oracle"}
        assert failed["graph-partition-law"].witness is not None
        for name in ("poset-function-bijection", "engine-agreement-F"):
            assert [c.status for c in checks if c.name == name] == ["PASS"]

    def test_property_suite_catches_inversion(self, inverted_obtf):
        [check] = verify.check_poset_graph_properties(2, verify.Run())
        assert check.status == "FAIL"


def test_engine_agreement_structure():
    checks = list(verify.check_engine_agreement(3, verify.Run()))
    names = {c.name for c in checks}
    assert names == {"engine-agreement-G", "engine-agreement-H",
                     "engine-agreement-F", "engine-agreement-B"}
    assert all(c.status == "PASS" for c in checks)


def test_engine_agreement_at_zero_runs_f_and_b():
    checks = list(verify.check_engine_agreement(0, verify.Run()))
    assert [(c.name, c.scope, c.detail) for c in checks if c.name[-1] in "FB"] == [
        ("engine-agreement-F", "n=0", "dfs=1 sweep=1"),
        ("engine-agreement-B", "n=0", "closed=1 sweep=1"),
    ]
    assert all(c.status == "PASS" for c in checks)


def test_engine_agreement_needs_two_engines():
    # at n=5 only median-dp runs G and H; F and B still have two engines
    names = [c.name for c in verify.check_engine_agreement(5, verify.Run())]
    assert names == ["engine-agreement-F", "engine-agreement-B"]


def test_bb_coherence_small():
    [check] = verify.check_bb_coherence(3, verify.Run())
    assert check.status == "PASS"


def test_walks_suite_small():
    [check] = verify.check_walks(3, verify.Run())
    assert check.status == "PASS"


@pytest.mark.parametrize("module,name,failing", [
    (cgraph, "posets_of_graph", ["triangle-connected-two-posets",
                                 "poset-count-bounds", "graph-partition-law"]),
    (census, "_bb_closed_form", ["bb-closed-form", "ratio-table", "engine-agreement"]),
])
def test_crashing_check_prints_fail_lines(monkeypatch, capsys, module, name, failing):
    def broken(*args):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(module, name, broken)
    assert cli.main(["verify", "--range", "1..2"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    lines = out.splitlines()
    for check in failing:
        assert f"[FAIL] {check} n=2: raised AssertionError: broken invariant" in lines
    # checks that never reach the broken function still report; census
    # counts Pn from the order search, which lists no graph
    assert "[PASS] counting-lower-bound n=2 t1: G=15 > 4" in lines
    assert "[PASS] poset-function-bijection n=2: |Pn|=5 H_t0=5" in lines
    assert "[PASS] short-closed-walks n=2: 3 graphs free of odd short walks" in lines


def labelled_lines(n):
    """The lines of the seven checks that walk the weighted graphs, at n,
    recounted over every labelled coloured graph: the walk they replaced,
    kept here as their oracle."""
    two = edgeless = short = total = checked = walks = 0
    bounds = coherent = True
    for g in cgraph.enumerate_colored_graphs(n):
        rows = cgraph.posets_of_graph(g)
        bp = cgraph.find_blue_bipartition(g)
        if bp is not None and cgraph.eta(g) <= 1:
            if len(rows) == 2:
                two += 1
            elif g.edge_count() == 0:
                edgeless += 1
            else:
                short += 1
        bounds &= len(rows) <= 1 << cgraph.eta(g) <= factorial(2 * n)
        total += len(rows)
        if cgraph.is_obtf(g):
            checked += len(rows)
            walks += cgraph.find_odd_nonsimple_walk(g) is None
        coherent &= ((bp is None) == (cgraph.bipartition_sweep(g) is None)
                     == (cgraph.kappa(g)[0] > 0) == (cgraph.gamma(g)[0] > 0))
    assert bounds and coherent and short == 0
    return [
        ("triangle-connected-two-posets", "PASS",
         f"graphs with 2 posets: {two}, edgeless (1 poset): {edgeless}, other shortfalls: 0"),
        ("two-poset-equality-tally", "INFO",
         f"equality holds at every graph with an edge ({two} graphs)"),
        ("poset-count-bounds", "PASS", f"all graphs within 2^eta <= {factorial(2 * n)}"),
        ("poset-graph-properties", "PASS", f"{checked} posets checked"),
        ("bijection-roundtrip", "PASS", f"{checked} posets round-tripped"),
        ("graph-partition-law", "PASS", f"sum over graphs {total}, family count {total}"),
        ("short-closed-walks", "PASS", f"{walks} graphs free of odd short walks"),
        ("bb-coherence", "PASS", "witness/kappa/gamma/sweep all coherent"),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weighted_tallies_equal_the_labelled_recount(n):
    run = verify.Run()
    lines = [c for check in (verify._triangle_connected_two_posets, verify._poset_count_bounds,
                             verify.check_poset_graph_properties, verify.check_roundtrip,
                             verify.check_partition_law, verify.check_walks,
                             verify.check_bb_coherence)
             for c in check(n, run)]
    assert [(c.name, c.status, c.detail) for c in lines] == labelled_lines(n)


def test_a_fail_names_the_first_failing_representative(monkeypatch):
    # a walk "found" on every graph with two red edges: the first such
    # representative on 3 vertices is the red path through vertex 1, not
    # the first such labelled graph, whose red edges are (1, 3) and (2, 3)
    real = cgraph.find_odd_nonsimple_walk
    monkeypatch.setattr(cgraph, "find_odd_nonsimple_walk",
                        lambda g: [1, 2, 1] if len(g.red) > 1 else real(g))
    [check] = verify.check_walks(3, verify.Run())
    assert (check.status, check.witness) == ("FAIL", "n 3\n1 2 R\n1 3 R\n")


def test_each_value_counted_once(monkeypatch, capsys):
    counted = Counter()
    real = census.count

    def spy(*args, **kwargs):
        rec = real(*args, **kwargs)
        counted[rec.key()] += 1
        return rec

    monkeypatch.setattr(census, "count", spy)
    monkeypatch.delenv("OBTF_CACHE", raising=False)
    assert cli.main(["verify", "--range", "1..4", "--format", "json"]) == 0
    capsys.readouterr()
    assert counted[("B", 4, None, "flat-sweep")] == 1
    assert {key: k for key, k in counted.items() if k > 1} == {}


def test_each_graph_listed_once(monkeypatch, capsys):
    listed, real = Counter(), cgraph.posets_of_graph

    def spy(g):
        listed[g] += 1
        return real(g)

    monkeypatch.setattr(cgraph, "posets_of_graph", spy)
    # the Pn engine counts the order search's stream and lists no graph
    assert [census.count("Pn", n).value for n in range(5)] == [1, 1, 5, 69, 2153]
    assert not listed
    monkeypatch.delenv("OBTF_CACHE", raising=False)
    assert cli.main(["verify", "--range", "1..4", "--format", "json"]) == 0
    capsys.readouterr()
    # one colouring per switching class of one graph per orbit on 1..4
    # vertices, and the labelled odd-blue-triangle-free graphs of the
    # oracle's family at n <= 3: at n = 3 these two are the 23 labelled
    # ones and the representative triangle with one blue edge
    reps = {g for n in range(1, 5) for g, _ in cgraph.weighted_colored_graphs(n)}
    labelled = {g for n in range(1, 4) for g in cgraph.enumerate_colored_graphs(n)
                if cgraph.is_obtf(g)}
    assert set(listed) == reps | labelled
    assert len(listed) == 1 + 3 + 24 + 24
    assert set(listed.values()) == {1}


def test_median_filter_built_once_per_n(monkeypatch, capsys):
    monkeypatch.delenv("OBTF_CACHE", raising=False)
    census._median_closed_tables.cache_clear()
    assert cli.main(["verify", "--range", "1..4", "--workers", "1", "--format", "json"]) == 0
    lines = json.loads(capsys.readouterr().out)
    assert {c["scope"] for c in lines
            if c["name"] == "engine-agreement-G" and "median-filter" in c["detail"]} == {
        f"n={n} {conv}" for n in range(1, 5) for conv in ("t1", "t0")}
    built = census._median_closed_tables.cache_info()
    assert built.misses == built.currsize == 5      # n = 0..4, shared by t1 and t0


def test_run_memo_sees_a_patch_and_keeps_no_error(monkeypatch):
    calls = []

    def flaky(g):
        calls.append(g)
        if len(calls) == 1:
            raise AssertionError("first call fails")
        return ["listed"]

    monkeypatch.setattr(cgraph, "posets_of_graph", flaky)
    run, g = verify.Run(), cgraph.ColoredGraph.of(2, blue=[(1, 2)])
    with pytest.raises(AssertionError):
        run.answer("posets_of_graph", g)
    assert run.answer("posets_of_graph", g) == run.answer("posets_of_graph", g) == ["listed"]
    assert len(calls) == 2


def test_run_asks_each_graph_once(monkeypatch):
    # the checks that walk graphs share the run's answers, and the
    # oracle's labelled family reads them for the graphs they cover
    asked, real = Counter(), cgraph.is_obtf

    def spy(g):
        asked[g] += 1
        return real(g)

    monkeypatch.setattr(cgraph, "is_obtf", spy)
    run = verify.Run()
    for n in (1, 2, 3):
        for check in (verify.check_roundtrip, verify.check_partition_law,
                      verify.check_walks, verify.check_pn_oracle):
            assert [c.status for c in check(n, run)] == ["PASS"]
    reps = {g for n in (1, 2, 3) for g, _ in cgraph.weighted_colored_graphs(n)}
    labelled = {g for n in (1, 2, 3) for g in cgraph.enumerate_colored_graphs(n)}
    assert set(asked) == reps | labelled
    assert set(asked.values()) == {1}


@pytest.fixture
def made(monkeypatch):
    """Every membership check, counted by the rows checked: a poset is
    checked where it is made."""
    made, real = Counter(), litposet.is_pn_member

    def spy(rows):
        made[rows] += 1
        return real(rows)

    monkeypatch.setattr(litposet, "is_pn_member", spy)
    return made


def test_each_family_poset_made_once(made):
    reps4 = {rows for g, _ in cgraph.weighted_colored_graphs(4) if cgraph.is_obtf(g)
             for rows in cgraph.posets_of_graph(g)}
    made.clear()
    assert not [c for c in verify.run_suites(range(1, 5)) if c.failed]
    # at n = 4 only the representatives' posets are made: each is checked
    # once as the orientation search finds it for the run's memo, and
    # again as the roundtrip's implication poset; nothing else checks
    # one, neither the Pn engine's count nor the oracle's order stream
    family4 = {rows for rows in made if len(rows) == 8}
    assert family4 == reps4
    assert len(family4) == 51
    assert {made[rows] for rows in family4} == {2}
    assert sum(made.values()) == 532


def test_pn_oracle_checks_no_poset(made):
    run = verify.Run()
    run.family(3)
    made.clear()
    [check] = verify.check_pn_oracle(3, run)
    assert check.status == "PASS"
    # the family is the run's memo, whose posets were checked as the
    # search found them, and the order stream is compared as it is
    assert not made


# x1 < not-x1: a strict order on the 4 literals of n = 2, but no member
_NON_MEMBER = (0b0010, 0, 0, 0)


@pytest.mark.parametrize("change,detail", [
    (lambda orders: [*orders, _NON_MEMBER], "graph-driven 5, sweep 6"),
    (lambda orders: orders[:-1], "graph-driven 5, sweep 4"),
], ids=["adds-a-non-member", "drops-an-order"])
def test_pn_oracle_fails_on_a_broken_order_stream(monkeypatch, change, detail):
    real = census.strict_orders
    monkeypatch.setattr(census, "strict_orders", lambda m, negation=False: change(
        list(real(m, negation))))
    [check] = verify.check_pn_oracle(2, verify.Run())
    assert (check.status, check.detail) == ("FAIL", detail)


def test_engine_agreement_h_runs_two_routes(monkeypatch):
    # clause-sweep tests each conjunction table for a spine or an
    # associated pair, so a wrong projection count disagrees with it
    real = census._orbit_sum
    monkeypatch.setattr(census, "_orbit_sum", lambda n, elementary: real(n, elementary) + 1)
    for n in range(2, 5):
        checks = [c for c in verify.check_engine_agreement(n, verify.Run())
                  if c.name == "engine-agreement-H"]
        assert [c.scope for c in checks] == [f"n={n} t1", f"n={n} t0"]
        assert {c.status for c in checks} == {"FAIL"}
