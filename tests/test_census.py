import json
import os
from math import comb

import pytest

from obtf import census
from obtf.census import (
    CacheError,
    CensusCache,
    CensusRecord,
    ENGINES,
    b_benchmark,
    count,
    count_bb,
    count_elementary,
    count_functions,
    count_obtf,
    count_pn,
    default_method,
    max_n,
    posets_per_cover_graph,
    record_checksum,
    verify_identities,
)
from obtf.litposet import ResourceGuardError

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
PN_5 = 138057
F_6 = 1474419


class TestFunctionCounts:
    @pytest.mark.parametrize("n", sorted(G_T1))
    def test_g_values(self, n):
        assert count_functions(n, False).value == G_T1[n]
        assert count_functions(n, True).value == G_T0[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_engines_agree(self, n):
        for allow_empty in (False, True):
            vals = {count_functions(n, allow_empty, m).value
                    for m in ("clause-sweep", "median-filter", "median-dp")}
            assert len(vals) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_convention_adds_constant_true(self, n):
        assert (count_functions(n, True).value
                == count_functions(n, False).value + 1)
        assert (count_elementary(n, True).value
                == count_elementary(n, False).value + 1)

    @pytest.mark.parametrize("n", sorted(H_T0))
    def test_h_values(self, n):
        assert count_elementary(n, True).value == H_T0[n]
        assert count_elementary(n, False).value == H_T1[n]

    def test_guards(self):
        with pytest.raises(ResourceGuardError):
            count_functions(5, True, "clause-sweep")
        with pytest.raises(ResourceGuardError):
            count_functions(5, True, "median-filter")
        with pytest.raises(ResourceGuardError):
            count_functions(6, True, "median-dp")

    def test_n5_via_dp(self):
        assert count_functions(5, True).value == G_T0_5
        assert count_elementary(5, True).value == H_T0_5

    def test_decomposition_identity(self):
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

        for n in (2, 3, 4):
            h = {m: count_elementary(m, True).value for m in range(n + 1)}
            total = 1 + sum(
                comb(n, k) * (1 << k)
                * sum((1 << (n - k - m)) * stirling2(n - k, m) * h[m]
                      for m in range(n - k + 1))
                for k in range(n + 1))
            assert total == count_functions(n, True).value


class TestPosetCount:
    @pytest.mark.parametrize("n", sorted(PN))
    def test_values(self, n):
        assert count_pn(n).value == PN[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bijection_with_elementary(self, n):
        assert count_pn(n).value == count_elementary(n, True).value

    def test_n5(self):
        assert count_pn(5).value == PN_5


class TestObtfCount:
    @pytest.mark.parametrize("n", sorted(F_COUNTS))
    def test_engine_and_sweep(self, n):
        assert count_obtf(n, "dfs-prune").value == F_COUNTS[n]
        assert count_obtf(n, "flat-sweep").value == F_COUNTS[n]

    def test_f6(self):
        assert count_obtf(6).value == F_6

    def test_workers_do_not_change_anything(self):
        for workers in (1, 2, 3):
            rec = count_obtf(4, workers=workers)
            assert rec.value == F_COUNTS[4]
            assert rec.checksum == record_checksum("F", 4, None, "dfs-prune", F_COUNTS[4])

    def test_guards(self):
        with pytest.raises(ResourceGuardError):
            count_obtf(8)
        with pytest.raises(ResourceGuardError):
            count_obtf(6, "flat-sweep")

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        # an in-process stand-in for the pool: no process is started
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        cpus = max(2, os.cpu_count() or 1)   # two, so the pool path runs
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(census, "ProcessPoolExecutor", FakePool)
        rec = count_obtf(4, workers=os.cpu_count() + 1)
        assert seen and all(w <= cpus for w in seen)
        assert rec.value == F_COUNTS[4]
        assert rec.checksum == record_checksum("F", 4, None, "dfs-prune", F_COUNTS[4])


class TestBbCount:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_equals_sweep(self, n):
        assert count_bb(n, "component-closed-form").value == B_COUNTS[n]
        assert count_bb(n, "flat-sweep").value == B_COUNTS[n]

    def test_b6(self):
        assert count_bb(6).value == B_COUNTS[6]

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
        ("H", 4, "clause-sweep"), ("H", 5, "median-dp"),
        ("Pn", 0, "orientation-sweep"), ("Pn", 5, "orientation-sweep"),
        ("F", 0, "dfs-prune"), ("F", 7, "dfs-prune"),
        ("B", 0, "component-closed-form"), ("B", 7, "component-closed-form"),
    ])
    def test_default_method_is_first_admitting_method(self, quantity, n, method):
        assert default_method(quantity, n) == method

    def test_caps(self):
        assert {q: max_n(q) for q in ENGINES} == {"G": 5, "H": 5, "Pn": 5, "F": 7, "B": 7}
        assert {q: list(e) for q, e in ENGINES.items()} == {
            "G": ["clause-sweep", "median-filter", "median-dp"],
            "H": ["clause-sweep", "median-dp"],
            "Pn": ["orientation-sweep"],
            "F": ["dfs-prune", "flat-sweep"],
            "B": ["component-closed-form", "flat-sweep"],
        }

    def test_beyond_every_cap(self):
        with pytest.raises(ResourceGuardError, match="largest is 5"):
            default_method("G", 6)
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

    def test_count_names_are_entry_point_records(self):
        pairs = [(count_functions(3, False), count("G", 3, "t1")),
                 (count_elementary(3, True), count("H", 3, "t0")),
                 (count_pn(3), count("Pn", 3)),
                 (count_obtf(3, "flat-sweep"), count("F", 3, method="flat-sweep")),
                 (count_bb(3), count("B", 3))]
        for a, b in pairs:
            assert a.key() == b.key() and (a.value, a.checksum) == (b.value, b.checksum)


class TestRecords:
    def test_rerun_reproduces_exactly(self):
        a = count_obtf(3)
        b = count_obtf(3)
        assert (a.value, a.checksum) == (b.value, b.checksum)
        assert a.key() == b.key()

    def test_checksum_detects_value_change(self):
        rec = count_obtf(3)
        forged = CensusRecord(rec.quantity, rec.n, rec.convention, rec.value + 1,
                              rec.method, rec.wall_time, rec.checksum)
        assert not forged.checksum_valid()

    def test_json_roundtrip(self):
        rec = count_bb(3)
        assert CensusRecord.from_json_dict(rec.to_json_dict()) == rec


class TestCache:
    def test_append_then_load(self, tmp_path):
        cache = CensusCache(tmp_path / "c.jsonl")
        rec = count_obtf(3)
        cache.append(rec)
        loaded = cache.load()
        assert loaded[rec.key()] == rec

    def test_missing_file_is_empty(self, tmp_path):
        assert CensusCache(tmp_path / "absent.jsonl").load() == {}

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CacheError):
            CensusCache(path).load()

    def test_checksum_missing_refused(self, tmp_path):
        rec = count_obtf(3).to_json_dict()
        rec["checksum"] = ""
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CacheError, match="checksum"):
            CensusCache(path).load()

    @pytest.mark.parametrize("field,bad", [("value", "23"), ("value", True),
                                           ("value", 23.0), ("n", "3"), ("n", True)])
    def test_mistyped_field_refused(self, tmp_path, field, bad):
        rec = count_obtf(3).to_json_dict()
        rec[field] = bad    # "23" and "3" keep a valid checksum
        path = tmp_path / "c.jsonl"
        good = json.dumps(count_obtf(2).to_json_dict())
        path.write_text(good + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CacheError, match=rf":2: bad record: {field} must be an integer"):
            CensusCache(path).load()

    def test_conflicting_duplicate_refused(self, tmp_path):
        rec = count_obtf(4).to_json_dict()
        forged = dict(rec, value=418,
                      checksum=record_checksum("F", 4, None, "dfs-prune", 418))
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in (rec, rec, forged)) + "\n")
        with pytest.raises(CacheError, match=r":3: conflicts with line 1: "
                                             r"F\(n=4\) is 418 here and 417 there"):
            CensusCache(path).load()

    def test_identical_duplicates_load(self, tmp_path):
        first, second = count_obtf(4), count_obtf(4)
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
        records = [count_obtf(3), count_bb(4)]
        for rec in records:
            cache.append(rec)
        monkeypatch.undo()
        assert writes == [(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n").encode()
                          for rec in records]
        assert list(cache.load().values()) == records

    def test_torn_last_line_is_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CensusCache(path)
        cache.append(count_obtf(2))
        cache.append(count_obtf(3))
        torn = json.dumps(count_obtf(4).to_json_dict(), sort_keys=True)
        with path.open("a") as fh:
            fh.write(torn[:len(torn) // 2])    # a write cut off mid-record
        with pytest.raises(CacheError, match=r":3: bad record: .*delete line 3"):
            cache.load()

    def test_tampered_value_refused(self, tmp_path):
        rec = count_obtf(3).to_json_dict()
        rec["value"] += 1
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CacheError, match="mismatch"):
            CensusCache(path).load()


class TestIdentities:
    def test_default_range_all_pass(self):
        checks = verify_identities([1, 2, 3])
        assert checks
        assert not [c for c in checks if c.failed]

    def test_lower_bound_numbers(self):
        checks = [c for c in verify_identities([2])
                  if c.name == "counting-lower-bound"]
        assert {c.scope for c in checks} == {"n=2 t0", "n=2 t1"}
        assert all("> 4" in c.detail for c in checks)


class TestCoverGraphQuestion:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_order_enumeration_matches_flat_sweep(self, m):
        # independent oracle: assign each pair one of {none, <, >} and keep
        # the transitively closed assignments
        import itertools

        from obtf.census import strict_orders

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
