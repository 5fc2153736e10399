import hashlib
import itertools
import json
import os
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtf import census, cgraph, litposet
from obtf.boolfn import bits, colex_pairs, orbits, vertex_generators
from obtf.census import (
    CacheError,
    CensusCache,
    CensusRecord,
    ENGINES,
    b_benchmark,
    count,
    default_method,
    max_n,
    posets_per_cover_graph,
    record_checksum,
    strict_orders,
)
from obtf.litposet import ResourceGuardError
from obtf.verify import run_suites
from test_boolfn import adjacent_swaps, is_2sat_definable, is_median_closed, orbit_sizes

# Values below were first computed by the flat-sweep oracles (and by hand
# where feasible: B via the component recurrence, the family counts via
# the relation sweep), then frozen.
G_T1 = {1: 0, 2: 15, 3: 165, 4: 4169}
G_T0 = {1: 1, 2: 16, 3: 166, 4: 4170}
H_T0 = {0: 1, 1: 1, 2: 5, 3: 69, 4: 2153}
H_T1 = {0: 0, 1: 0, 2: 4, 3: 68, 4: 2152}
PN = {1: 1, 2: 5, 3: 69, 4: 2153}
F_COUNTS = {1: 1, 2: 3, 3: 23, 4: 417, 5: 16921}
B_COUNTS = {1: 1, 2: 3, 3: 23, 4: 393, 5: 13729, 6: 943227}

G_T0_5 = 224716
H_T0_5 = 138057
# median-dp's orbit sums; H_T0_7 equals Pn(7) from switching-class fibres
G_T0_6, H_T0_6 = 24_445_368, 17_221_933
G_T0_7, H_T0_7 = 5_167_757_614, 4_036_310_797
PN_5 = 138057
F_6 = 1474419


class TestFunctionCounts:
    @pytest.mark.parametrize("n", sorted(G_T1))
    def test_g_values(self, n):
        assert count("G", n, "t1").value == G_T1[n]
        assert count("G", n, "t0").value == G_T0[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_engines_agree(self, n):
        for conv in ("t1", "t0"):
            vals = {count("G", n, conv, m).value
                    for m in ("clause-sweep", "median-filter", "median-dp")}
            assert len(vals) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_convention_adds_constant_true(self, n):
        assert (count("G", n, "t0").value
                == count("G", n, "t1").value + 1)
        assert (count("H", n, "t0").value
                == count("H", n, "t1").value + 1)

    @pytest.mark.parametrize("n", sorted(H_T0))
    def test_h_values(self, n):
        assert count("H", n, "t0").value == H_T0[n]
        assert count("H", n, "t1").value == H_T1[n]

    def test_g_and_h_engines_build_one_closure_per_n(self):
        # only clause-sweep reads the clause closure; median-dp projects.
        # H's t1 record reuses its cached t0 count and reads nothing
        census._conjunctions.cache_clear()
        census._elementary_conjunction_count.cache_clear()
        for quantity in ("G", "H"):
            for conv in ("t0", "t1"):
                for method in ("clause-sweep", "median-dp"):
                    count(quantity, 4, conv, method)
        info = census._conjunctions.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_guards(self):
        with pytest.raises(ResourceGuardError):
            count("G", 5, "t0", "clause-sweep")
        with pytest.raises(ResourceGuardError):
            count("G", 5, "t0", "median-filter")
        with pytest.raises(ResourceGuardError):
            count("G", 8, "t0", "median-dp")

    def test_n5_via_dp(self):
        assert count("G", 5, "t0").value == G_T0_5
        assert count("H", 5, "t0").value == H_T0_5

    @pytest.mark.slow
    def test_n6_and_n7_via_orbit_sums(self):
        # n = 7 sums two projection levels over MC(5)'s 196 orbits: about 40 s
        assert (count("G", 6, "t0").value, count("H", 6, "t0").value) == (G_T0_6, H_T0_6)
        assert (count("G", 7, "t0").value, count("H", 7, "t0").value) == (G_T0_7, H_T0_7)

    def test_h_elementary_count_made_once_per_n(self):
        # the t1 record reuses the t0 count of the elementary tables
        census._elementary_projection_count.cache_clear()
        count("H", 5, "t0")
        count("H", 5, "t1")
        info = census._elementary_projection_count.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_h_clause_sweep_tests_each_table_once_per_n(self):
        # the t1 record reuses the t0 count, so it tests no table again
        census._elementary_conjunction_count.cache_clear()
        assert count("H", 4, "t0", "clause-sweep").value == H_T0[4]
        assert count("H", 4, "t1", "clause-sweep").value == H_T1[4]
        info = census._elementary_conjunction_count.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @staticmethod
    def decomposition(n):
        # independent structural route: a satisfiable function is a spine
        # assignment, a signed partition of the rest, and an elementary
        # core; plus the one unsatisfiable function
        def stirling2(r, m):
            tab = [[0] * (m + 1) for _ in range(r + 1)]
            tab[0][0] = 1
            for i in range(1, r + 1):
                for j in range(1, min(i, m) + 1):
                    tab[i][j] = j * tab[i - 1][j] + tab[i - 1][j - 1]
            return tab[r][m]

        h = {m: count("H", m, "t0").value for m in range(n + 1)}
        return 1 + sum(
            comb(n, k) * (1 << k)
            * sum((1 << (n - k - m)) * stirling2(n - k, m) * h[m]
                  for m in range(n - k + 1))
            for k in range(n + 1))

    def test_decomposition_identity(self):
        for n in (2, 3, 4, 5):
            assert self.decomposition(n) == count("G", n, "t0").value

    @pytest.mark.slow
    def test_decomposition_identity_at_6_and_7(self):
        for n in (6, 7):
            assert self.decomposition(n) == count("G", n, "t0").value


def median_closed_sweep(n):
    """The median-filter engine's oracle: every table on n variables tested
    for median closure, one at a time."""
    return {b for b in range(1 << (1 << n)) if is_median_closed(b)}


@lru_cache(maxsize=None)
def median_closed_by_all_pairs(n):
    """The half-table build with no shortcut: keeps[t] tests every point
    against every pair of points of t, and every pair of half-tables is
    tested."""
    if n == 0:
        return frozenset({0, 1})
    half = median_closed_by_all_pairs(n - 1)
    points = 1 << (n - 1)
    keeps = {t: sum(1 << c for c in range(points)
                    if all((t >> ((a & b) | (c & (a | b)))) & 1
                           for a, b in itertools.combinations(bits(t), 2)))
             for t in half}
    return frozenset(lo | hi << points for lo in half for hi in half
                     if not hi & ~keeps[lo] and not lo & ~keeps[hi])


class TestMedianFilter:
    @pytest.mark.parametrize("n", range(5))
    def test_half_tables_equal_flat_sweep(self, n):
        assert census._median_closed_tables(n) == median_closed_sweep(n)

    # n = 5: about 2 s for the pairs of the 4,170 half-tables
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_join_equals_the_join_of_all_pairs(self, n):
        assert census._median_closed_tables(n) == median_closed_by_all_pairs(n)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("convention", ["t1", "t0"])
    def test_count_is_the_definable_sum(self, n, convention):
        definable = sum(1 for b in range(1 << (1 << n))
                        if is_2sat_definable(n, b, convention == "t0"))
        assert count("G", n, convention, "median-filter").value == definable

    @settings(max_examples=300, deadline=None)
    @given(table=st.integers(0, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
    def test_member_iff_median_closed(self, table):
        n, b = table
        assert (b in census._median_closed_tables(n)) == is_median_closed(b)


class TestPosetCount:
    @pytest.mark.parametrize("n", sorted(PN))
    def test_values(self, n):
        assert count("Pn", n).value == PN[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bijection_with_elementary(self, n):
        assert count("Pn", n).value == count("H", n, "t0").value

    def test_n5(self):
        assert count("Pn", 5).value == PN_5

    def test_counts_without_making_posets(self, monkeypatch):
        # the engine counts the closure rows that the order search yields
        # and checks none of them
        checked = []
        monkeypatch.setattr(litposet, "is_pn_member", checked.append)
        assert count("Pn", 4).value == PN[4]
        assert checked == []

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_graph_route_sums_to_count(self, n):
        # the orientation search's closure rows over the OBTF graphs: the
        # graph route that verify's partition law also takes
        graphs = [g for g in cgraph.enumerate_colored_graphs(n) if cgraph.is_obtf(g)]
        assert sum(len(cgraph.posets_of_graph(g)) for g in graphs) == count("Pn", n).value


class TestObtfCount:
    @pytest.mark.parametrize("n", sorted(F_COUNTS))
    def test_engine_and_sweep(self, n):
        assert count("F", n, method="dfs-prune").value == F_COUNTS[n]
        assert count("F", n, method="flat-sweep").value == F_COUNTS[n]

    def test_f6(self):
        assert count("F", 6).value == F_6

    def test_guards(self):
        with pytest.raises(ResourceGuardError):
            count("F", 8)
        with pytest.raises(ResourceGuardError):
            count("F", 6, method="flat-sweep")


class TestBbCount:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_equals_sweep(self, n):
        assert count("B", n, method="component-closed-form").value == B_COUNTS[n]
        assert count("B", n, method="flat-sweep").value == B_COUNTS[n]

    def test_b6(self):
        assert count("B", 6).value == B_COUNTS[6]

    def test_f_dominates_b(self):
        for n in (1, 2, 3, 4, 5):
            assert F_COUNTS[n] >= B_COUNTS[n]
        assert F_6 >= B_COUNTS[6]

    def test_benchmark(self):
        assert b_benchmark(3) == 32
        assert b_benchmark(5) == 16384


class TestEngineTable:
    @pytest.mark.parametrize("quantity,n,method", [
        ("G", 0, "clause-sweep"), ("G", 4, "clause-sweep"), ("G", 5, "median-dp"),
        ("G", 7, "median-dp"), ("H", 4, "clause-sweep"), ("H", 5, "median-dp"),
        ("H", 7, "median-dp"),
        ("Pn", 0, "order-dfs"), ("Pn", 5, "order-dfs"),
        ("F", 0, "dfs-prune"), ("F", 7, "dfs-prune"),
        ("B", 0, "component-closed-form"), ("B", 7, "component-closed-form"),
    ])
    def test_default_method_is_first_admitting_method(self, quantity, n, method):
        assert default_method(quantity, n) == method

    def test_caps(self):
        assert {q: max_n(q) for q in ENGINES} == {"G": 7, "H": 7, "Pn": 5, "F": 7, "B": 7}
        assert {q: list(e) for q, e in ENGINES.items()} == {
            "G": ["clause-sweep", "median-filter", "median-dp"],
            "H": ["clause-sweep", "median-dp"],
            "Pn": ["order-dfs"],
            "F": ["dfs-prune", "flat-sweep"],
            "B": ["component-closed-form", "flat-sweep"],
        }

    def test_beyond_every_cap(self):
        with pytest.raises(ResourceGuardError, match="largest is 7"):
            default_method("G", 8)
        with pytest.raises(ResourceGuardError, match="largest is 7"):
            count("B", 8)

    def test_refusals(self):
        with pytest.raises(ValueError, match="unknown quantity"):
            count("X", 2)
        with pytest.raises(ValueError, match="unknown method 'magic' for F"):
            count("F", 2, method="magic")
        with pytest.raises(ValueError, match="convention None does not apply to G"):
            count("G", 2)
        with pytest.raises(ValueError, match="convention 't0' does not apply to F"):
            count("F", 2, "t0")

    @pytest.mark.parametrize("quantity,method", [
        (q, m) for q, engines in ENGINES.items() for m in [*engines, None]])
    def test_negative_n_refused(self, quantity, method):
        # one message for every engine and for the default, before any runs
        for conv in census.conventions(quantity):
            with pytest.raises(ValueError, match=rf"^{quantity} needs n >= 0, got -1$"):
                count(quantity, -1, conv, method)

    def test_methods_are_the_admitting_ones_in_order(self):
        assert census.methods("G", 4) == ["clause-sweep", "median-filter", "median-dp"]
        assert census.methods("G", 5) == ["median-dp"]
        assert census.methods("F", 6) == ["dfs-prune"]
        assert census.methods("B", 8) == []


class TestRecords:
    def test_rerun_reproduces_exactly(self):
        a = count("F", 3)
        b = count("F", 3)
        assert (a.value, a.checksum) == (b.value, b.checksum)
        assert a.key() == b.key()

    @pytest.mark.parametrize("fields", [
        ("G", 2, "t0", "clause-sweep", 16), ("F", 7, None, "dfs-prune", 266919023),
        ("B", -1, None, "component-closed-form", 1)])
    def test_checksum_is_sha256_of_the_payload(self, fields):
        # the builtin SHA-256 census takes is hashlib's hash
        quantity, n, convention, method, value = fields
        payload = "|".join([quantity, str(n), convention or "-", method, census.ORDER_SEED,
                            str(value)])
        want = hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
        assert record_checksum(*fields) == want

    def test_checksum_detects_value_change(self):
        rec = count("F", 3)
        forged = CensusRecord(rec.quantity, rec.n, rec.convention, rec.value + 1,
                              rec.method, rec.wall_time, rec.checksum)
        assert not forged.checksum_valid()

    def test_json_roundtrip(self):
        rec = count("B", 3)
        assert CensusRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_json_dict_keeps_field_order(self):
        assert list(count("G", 2, "t0").to_json_dict()) == [
            "quantity", "n", "convention", "value", "method", "wall_time", "checksum"]


class TestCache:
    def test_append_then_load(self, tmp_path):
        cache = CensusCache(tmp_path / "c.jsonl")
        rec = count("F", 3)
        cache.append(rec)
        loaded = cache.load()
        assert loaded[rec.key()] == rec

    def test_older_line_loads_and_reappends_byte_identically(self, tmp_path):
        # written by an earlier obtf (records were then dataclasses)
        line = (b'{"checksum": "a8df018c0ff6e287", "convention": "t0", '
                b'"method": "clause-sweep", "n": 2, "quantity": "G", "value": 16, '
                b'"wall_time": 2.9e-05}\n')
        old = tmp_path / "old.jsonl"
        old.write_bytes(line)
        [rec] = CensusCache(old).load().values()
        assert (rec.value, rec.wall_time) == (16, 2.9e-05)
        assert rec.checksum == count("G", 2, "t0", "clause-sweep").checksum
        CensusCache(tmp_path / "new.jsonl").append(rec)
        assert (tmp_path / "new.jsonl").read_bytes() == line

    def test_missing_file_is_empty(self, tmp_path):
        assert CensusCache(tmp_path / "absent.jsonl").load() == {}

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CacheError):
            CensusCache(path).load()

    def test_checksum_missing_refused(self, tmp_path):
        rec = count("F", 3).to_json_dict()
        rec["checksum"] = ""
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CacheError, match="checksum"):
            CensusCache(path).load()

    @pytest.mark.parametrize("field,bad", [("value", "23"), ("value", True),
                                           ("value", 23.0), ("n", "3"), ("n", True)])
    def test_mistyped_field_refused(self, tmp_path, field, bad):
        rec = count("F", 3).to_json_dict()
        rec[field] = bad    # "23" and "3" keep a valid checksum
        path = tmp_path / "c.jsonl"
        good = json.dumps(count("F", 2).to_json_dict())
        path.write_text(good + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CacheError, match=rf":2: bad record: {field} must be an integer"):
            CensusCache(path).load()

    @pytest.mark.parametrize("field,bad,what", [
        ("quantity", ["F"], "a string"), ("quantity", 7, "a string"),
        ("method", None, "a string"), ("checksum", 5, "a string"),
        ("convention", 0, "a string or null"), ("wall_time", "soon", "a number"),
        ("wall_time", True, "a number")])
    def test_mistyped_text_or_time_field_refused(self, tmp_path, field, bad, what):
        rec = count("F", 3).to_json_dict()
        rec[field] = bad    # wall_time is outside the checksum
        path = tmp_path / "c.jsonl"
        good = json.dumps(count("F", 2).to_json_dict())
        path.write_text(good + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CacheError, match=rf":2: bad record: {field} must be {what}, got"):
            CensusCache(path).load()

    def test_integer_wall_time_loads(self, tmp_path):
        rec = count("F", 3).to_json_dict()
        rec["wall_time"] = 0
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        assert [r.value for r in CensusCache(path).load().values()] == [23]

    def test_conflicting_duplicate_refused(self, tmp_path):
        rec = count("F", 4).to_json_dict()
        forged = dict(rec, value=418,
                      checksum=record_checksum("F", 4, None, "dfs-prune", 418))
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in (rec, rec, forged)) + "\n")
        with pytest.raises(CacheError, match=r":3: conflicts with line 1: "
                                             r"F\(n=4\) is 418 here and 417 there"):
            CensusCache(path).load()

    def test_identical_duplicates_load(self, tmp_path):
        first, second = count("F", 4), count("F", 4)
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(first.to_json_dict()) + "\n"
                        + json.dumps(second.to_json_dict()) + "\n")
        loaded = CensusCache(path).load()
        assert list(loaded) == [first.key()] and loaded[first.key()].value == 417

    def test_append_is_one_write_per_record(self, tmp_path, monkeypatch):
        writes = []
        real_write = os.write

        def counting_write(fd, data):
            writes.append(data)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counting_write)
        cache = CensusCache(tmp_path / "c.jsonl")
        records = [count("F", 3), count("B", 4)]
        for rec in records:
            cache.append(rec)
        monkeypatch.undo()
        assert writes == [(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n").encode()
                          for rec in records]
        assert list(cache.load().values()) == records

    def test_torn_last_line_is_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CensusCache(path)
        cache.append(count("F", 2))
        cache.append(count("F", 3))
        torn = json.dumps(count("F", 4).to_json_dict(), sort_keys=True)
        with path.open("a") as fh:
            fh.write(torn[:len(torn) // 2])    # a write cut off mid-record
        with pytest.raises(CacheError, match=r":3: bad record: .*delete line 3"):
            cache.load()

    def test_tampered_value_refused(self, tmp_path):
        rec = count("F", 3).to_json_dict()
        rec["value"] += 1
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CacheError, match="mismatch"):
            CensusCache(path).load()


class TestIdentities:
    def test_lower_bound_numbers(self):
        checks = [c for c in run_suites([2])
                  if c.name == "counting-lower-bound"]
        assert {c.scope for c in checks} == {"n=2 t0", "n=2 t1"}
        assert all("> 4" in c.detail for c in checks)


def pair_states(rows):
    """The colex pair-state vector of an order: per pair (i, j), i < j in
    colex order, 0 if incomparable, 1 if i < j, 2 if j < i."""
    return tuple(1 if (rows[i] >> j) & 1 else 2 if (rows[j] >> i) & 1 else 0
                 for j in range(1, len(rows)) for i in range(j))


def cover_grouping_oracle(m):
    """posets_per_cover_graph by grouping on frozensets of cover pairs."""
    from obtf.litposet import cover_pairs

    groups = {}
    best = (0, frozenset())
    for order in strict_orders(m):
        cg = cover_pairs(order)
        k = groups.get(cg, 0) + 1
        groups[cg] = k
        if k > best[0]:
            best = (k, cg)
    return best[0], frozenset((u + 1, v + 1) for u, v in best[1])


class TestCoverGraphQuestion:
    @pytest.mark.parametrize("m", [
        0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])    # 5: 3^10 candidates
    def test_order_enumeration_matches_flat_sweep(self, m):
        # independent oracle: assign each pair one of {none, <, >} and keep
        # the transitively closed assignments
        import itertools

        pairs = [(i, j) for j in range(1, m) for i in range(j)]
        oracle = set()
        for states in itertools.product((0, 1, 2), repeat=len(pairs)):
            rows = [0] * m
            for (a, b), s in zip(pairs, states):
                if s == 1:
                    rows[a] |= 1 << b
                elif s == 2:
                    rows[b] |= 1 << a
            ok = True
            for u in range(m):
                r = rows[u]
                while r and ok:
                    low = r & -r
                    v = low.bit_length() - 1
                    r ^= low
                    if rows[v] & ~rows[u]:
                        ok = False
                if not ok:
                    break
            if ok:
                oracle.add(tuple(rows))
        enumerated = set(strict_orders(m))
        assert enumerated == oracle

    @pytest.mark.parametrize("m,negation", [
        (0, False), (1, False), (2, False), (3, False), (4, False),
        pytest.param(5, False, marks=pytest.mark.slow),
        (0, True), (2, True), (4, True), (6, True),
        pytest.param(8, True, marks=pytest.mark.slow)])
    def test_stream_sorted_by_pair_states(self, m, negation):
        # the yield order the pinned cover-multiplicity witness rests on
        vectors = [pair_states(rows) for rows in strict_orders(m, negation)]
        assert vectors
        assert all(a < b for a, b in zip(vectors, vectors[1:]))

    @pytest.mark.parametrize("m,negation", [(-1, False), (-2, False), (-2, True),
                                            (1, True), (3, True)])
    def test_bad_sizes_refused(self, m, negation):
        with pytest.raises(ValueError):
            list(strict_orders(m, negation))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_orders_per_graph_are_the_oracles_groups(self, m):
        # every labelled graph, as a mask over the colex pairs, against the
        # orders strict_orders lists with that cover graph: none for a graph
        # with a triangle
        import itertools

        from obtf.litposet import cover_pairs

        index = {pair: k for k, pair in enumerate(colex_pairs(m))}
        groups = {}
        for rows in strict_orders(m):
            graph = sum(1 << index[pair] for pair in cover_pairs(rows))
            groups.setdefault(graph, set()).add(rows)
        free = set(census._triangle_free_graphs(m))
        for graph in range(1 << len(index)):
            triangle = any(graph >> index[a, b] & graph >> index[a, c] & graph >> index[b, c] & 1
                           for a, b, c in itertools.combinations(range(m), 3))
            found = list(census._cover_orders(m, graph))
            assert (graph in free) != triangle
            assert len(found) == len(set(found))
            assert set(found) == groups.get(graph, set())
            assert bool(found) != triangle    # up to 5 points, at least

    @pytest.mark.parametrize("m,orders,orbit_count", [
        (1, 1, 1), (2, 3, 2), (3, 19, 3), (4, 219, 7), (5, 4231, 14), (6, 130023, 38)])
    def test_orbits_of_triangle_free_graphs_count_every_order(self, m, orders, orbit_count):
        # the unlabelled triangle-free graphs (OEIS A006785), each weighted
        # by its orbit size, give the strict orders (OEIS A001035)
        found = list(orbits(census._triangle_free_graphs(m), vertex_generators(m)))
        assert len(found) == orbit_count
        # the same representatives and sizes as under the adjacent swaps
        assert [(orbit[0], len(orbit)) for orbit in found] == orbit_sizes(
            census._triangle_free_graphs(m), adjacent_swaps(m))
        assert sum(len(orbit) * sum(1 for _ in census._cover_orders(m, orbit[0]))
                   for orbit in found) == orders

    def test_six_points_match_the_grouping_oracle(self):
        # the oracle lists all 130,023 orders; the witness is a 6-cycle
        assert posets_per_cover_graph(6) == cover_grouping_oracle(6)

    def test_witness_pass_stops_early(self, monkeypatch):
        # counting the 38 representatives draws 715 orders; with b < a
        # tried first, each 6-cycle's large vectors come early and the
        # witness pass draws 834 more (2,016 with a < b first)
        drawn = []
        search = census._cover_orders

        def spy(m, graph):
            for rows in search(m, graph):
                drawn.append(graph)
                yield rows

        monkeypatch.setattr(census, "_cover_orders", spy)
        assert posets_per_cover_graph(6) == (50, frozenset(
            {(1, 2), (1, 3), (2, 4), (3, 6), (4, 5), (5, 6)}))
        assert len(drawn) < 1600

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_cover_keys_group_as_cover_pair_sets(self, m):
        assert posets_per_cover_graph(m) == cover_grouping_oracle(m)

    def test_single_point(self):
        assert posets_per_cover_graph(1) == (1, frozenset())

    def test_two_points(self):
        mult, wit = posets_per_cover_graph(2)
        assert mult == 2
        assert wit == frozenset({(1, 2)})

    def test_three_points_path_reaches_four(self):
        mult, wit = posets_per_cover_graph(3)
        assert mult == 4
        assert len(wit) == 2  # a two-edge path (as a labelled graph)

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            posets_per_cover_graph(7)
