import json

import pytest

from obtf import census, litposet
from obtf.census import record_checksum
from obtf.cgraph import pairs_colex
from obtf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCensusCommand:
    def test_basic_table(self, capsys, tmp_path):
        code, out, _ = run(capsys, "census", "--quantity", "F", "--n", "2..4",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        assert "F" in out and "417" in out and "23" in out

    def test_cache_hit_is_byte_identical(self, capsys, tmp_path):
        args = ("census", "--quantity", "B", "--n", "3",
                "--cache", str(tmp_path / "c.jsonl"))
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        # exactly one record was appended
        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_both_conventions_by_default(self, capsys, tmp_path):
        code, out, _ = run(capsys, "census", "--quantity", "G", "--n", "2",
                           "--cache", str(tmp_path / "c.jsonl"), "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {(r["convention"], r["value"]) for r in rows} == {("t0", 16), ("t1", 15)}

    def test_single_convention_flag(self, capsys, tmp_path):
        code, out, _ = run(capsys, "census", "--quantity", "H", "--n", "2",
                           "--convention", "t1",
                           "--cache", str(tmp_path / "c.jsonl"), "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["value"] == 4

    def test_json_roundtrips_byte_identical(self, capsys, tmp_path):
        code, out, _ = run(capsys, "census", "--quantity", "F", "--n", "2..3",
                           "--cache", str(tmp_path / "c.jsonl"), "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_guard_violation_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "census", "--quantity", "F", "--n", "8",
                             "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        assert err == "error: F(n=8) exceeds the census cap 7\n"

    def test_huge_range_exits_2_on_its_ends(self, capsys, tmp_path):
        code, out, err = run(capsys, "census", "--quantity", "B", "--n", "0..1000000000000",
                             "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        assert err == "error: B(n=8) exceeds the census cap 7\n"

    def test_convention_of_another_quantity_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "census", "--quantity", "F", "--n", "3",
                             "--convention", "t1", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        assert err == "error: convention 't1' does not apply to F\n"
        assert not (tmp_path / "c.jsonl").exists()     # refused before counting

    def test_corrupt_cache_exits_3(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{broken\n")
        code, _, err = run(capsys, "census", "--quantity", "F", "--n", "2",
                           "--cache", str(path))
        assert code == 3
        assert "cache" in err

    def test_conflicting_cache_records_exit_3(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        code, _, _ = run(capsys, "census", "--quantity", "F", "--n", "4",
                         "--cache", str(path))
        assert code == 0
        rec = json.loads(path.read_text())
        rec.update(value=418, checksum=record_checksum("F", 4, None, "dfs-prune", 418))
        with path.open("a") as fh:
            fh.write(json.dumps(rec) + "\n")
        code, out, err = run(capsys, "census", "--quantity", "F", "--n", "4",
                             "--cache", str(path))
        assert code == 3 and out == ""
        assert ":2: conflicts with line 1" in err

    @pytest.mark.parametrize("field,bad", [("quantity", ["F"]), ("wall_time", "soon")])
    def test_mistyped_cache_field_exits_3(self, capsys, tmp_path, field, bad):
        path = tmp_path / "c.jsonl"
        code, _, _ = run(capsys, "census", "--quantity", "F", "--n", "4",
                         "--cache", str(path))
        assert code == 0
        rec = json.loads(path.read_text())
        rec[field] = bad    # wall_time "soon" keeps a valid checksum
        path.write_text(json.dumps(rec) + "\n")
        code, out, err = run(capsys, "census", "--quantity", "F", "--n", "4",
                             "--cache", str(path))
        assert code == 3 and out == ""
        assert f":1: bad record: {field} must be" in err

    def test_non_utf8_cache_exits_3(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xff\n")
        code, out, err = run(capsys, "census", "--quantity", "F", "--n", "2",
                             "--cache", str(path))
        assert code == 3 and out == ""
        assert err.startswith("cache error: cannot read cache") and "utf-8" in err

    def test_worker_counts_give_identical_records(self, capsys, tmp_path):
        outs = []
        for workers, name in ((1, "w1.jsonl"), (2, "w2.jsonl")):
            code, _, _ = run(capsys, "census", "--quantity", "F", "--n", "2..4",
                             "--workers", str(workers),
                             "--cache", str(tmp_path / name))
            assert code == 0
            rows = [json.loads(line)
                    for line in (tmp_path / name).read_text().splitlines()]
            for row in rows:
                row.pop("wall_time")  # the one nondeterministic field
            outs.append(json.dumps(rows, sort_keys=True))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", [("census", "--quantity", "F", "--n", "2"),
                                         ("verify", "--range", "1")])
    def test_workers_below_one_exit_2(self, capsys, tmp_path, command):
        # --workers has no effect, but old command lines must still be checked
        code, out, err = run(capsys, *command, "--workers", "0",
                             "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        assert err == "error: --workers must be >= 1\n"


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "[PASS]" in out and "0 failed" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--range", "2", "--format", "json")
        assert code == 0
        checks = json.loads(out)
        assert all(c["status"] in ("PASS", "FAIL", "INFO") for c in checks)

    def test_big_required_for_n5(self, capsys):
        code, _, err = run(capsys, "verify", "--range", "4..5")
        assert code == 2
        assert "--big" in err

    @pytest.mark.parametrize("sizes,big,message", [
        ("0..1000000000000", (), "verification at n >= 5 requires --big"),
        ("0..1000000000000", ("--big",), "verification checks are capped at n <= 5"),
        ("6", ("--big",), "verification checks are capped at n <= 5"),
    ])
    def test_sizes_past_the_run_limits_exit_2(self, capsys, sizes, big, message):
        code, out, err = run(capsys, "verify", "--range", sizes, *big)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_cache_cross_check(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        code, _, _ = run(capsys, "census", "--quantity", "F", "--n", "2..3",
                         "--cache", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--range", "2", "--cache", str(path))
        assert code == 0
        assert "cache-consistency" in out


    @staticmethod
    def _verify_one_record(capsys, tmp_path, quantity, n, method, value, convention=None):
        rec = {"quantity": quantity, "n": n, "convention": convention, "value": value,
               "method": method, "wall_time": 0.0,
               "checksum": record_checksum(quantity, n, convention, method, value)}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        code, out, err = run(capsys, "verify", "--range", "1", "--cache", str(path))
        assert code == 0 and "Traceback" not in err
        return out

    @pytest.mark.parametrize("quantity,n,method,detail", [
        ("F", 3, "magic", "not rechecked: unknown method 'magic' for F"),
    ])
    def test_cache_skips_are_reported(self, capsys, tmp_path, quantity, n, method, detail):
        out = self._verify_one_record(capsys, tmp_path, quantity, n, method, 23)
        assert f"[info] cache-consistency {quantity} n={n} - {method}: {detail}\n" in out

    @pytest.mark.parametrize("quantity,method,convention", [
        (q, m, c) for q, engines in census.ENGINES.items() for m in engines
        for c in census.conventions(q)])
    def test_cached_record_below_zero_is_not_rechecked(self, capsys, tmp_path,
                                                       quantity, method, convention):
        # a hand-made record with a valid checksum; F's DFS would return 1
        # at n = -1 and B's closed form raise IndexError, were they run
        out = self._verify_one_record(capsys, tmp_path, quantity, -1, method, 1, convention)
        lines = [line for line in out.splitlines() if "cache-consistency" in line]
        assert lines == [f"[info] cache-consistency {quantity} n=-1 {convention or '-'} "
                         f"{method}: not rechecked: {quantity} needs n >= 0, got -1"]

    def test_cache_from_the_retired_pn_engine(self, capsys, tmp_path):
        # caches written before order-dfs hold orientation-sweep records
        out = self._verify_one_record(capsys, tmp_path, "Pn", 3, "orientation-sweep", 69)
        assert ("[info] cache-consistency Pn n=3 - orientation-sweep: "
                "not rechecked: unknown method 'orientation-sweep' for Pn\n") in out
        path = tmp_path / "c.jsonl"
        old = path.read_text()
        code, out, err = run(capsys, "census", "--quantity", "Pn", "--n", "3",
                             "--cache", str(path), "--format", "json")
        assert code == 0 and err == ""
        [rec] = json.loads(out)
        assert (rec["method"], rec["value"]) == ("order-dfs", 69)
        assert rec["checksum"] == record_checksum("Pn", 3, None, "order-dfs", 69)
        lines = path.read_text().splitlines()
        assert lines[0] + "\n" == old and json.loads(lines[1]) == rec
        assert len(lines) == 2

    def test_cached_record_above_the_cap_gives_the_engine_refusal(self, capsys, tmp_path):
        out = self._verify_one_record(capsys, tmp_path, "F", 8, "dfs-prune", 97_703_043_489)
        lines = [line for line in out.splitlines() if "cache-consistency" in line]
        assert lines == ["[info] cache-consistency F n=8 - dfs-prune: "
                        "not rechecked: F dfs-prune capped at n <= 7, got 8"]
        assert "--big" not in out


class TestAnalyzeCommand:
    @pytest.fixture
    def four_cycle(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 4\n1 2 B\n2 3 R\n3 4 R\n1 4 R\n")
        return str(path)

    def test_four_cycle_table(self, capsys, four_cycle):
        code, out, _ = run(capsys, "analyze", four_cycle)
        assert code == 0
        assert "odd-blue-triangle-free: true" in out
        assert "blue-bipartition: none" in out
        assert "kappa: 1" in out
        assert "gamma: 1" in out
        assert "triangle-components: 4" in out
        assert "posets: 8" in out

    def test_single_blue_edge(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 2\n1 2 B\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "blue-bipartition: U={1} W={2}" in out
        assert "kappa: 0" in out and "gamma: 0" in out
        assert "triangle-components: 1" in out
        assert "posets: 2" in out

    def test_odd_triangle(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 3\n1 2 R\n1 3 R\n2 3 B\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "odd-blue-triangle-free: false" in out
        assert "posets: 0" in out

    def test_json(self, capsys, four_cycle):
        code, out, _ = run(capsys, "analyze", four_cycle, "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info["poset_count"] == 8
        assert info["blue_bipartition"] is None
        assert json.dumps(info, indent=2, sort_keys=True) + "\n" == out

    def test_searches_past_their_guards_are_skipped(self, capsys, tmp_path):
        # 13 vertices is past kappa's guard, 21 edges past gamma's and the
        # poset listing's; all red, the graph has no odd-blue triangle, so
        # its posets are searched for
        edges = [(v, v + 1) for v in range(1, 13)] + [(v, v + 2) for v in range(1, 10)]
        path = tmp_path / "g.txt"
        path.write_text("n 13\n" + "".join(f"{u} {v} R\n" for u, v in edges))
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info["edges"] == 21
        assert info["skipped"] == ["kappa", "gamma", "posets"]
        assert not {"kappa", "gamma", "poset_count", "posets"} & set(info)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert out.endswith("\nskipped (size guards): kappa, gamma, posets\n")

    def test_odd_blue_triangle_past_the_edge_guard_has_no_posets(self, capsys, tmp_path):
        # K7 all blue: 21 edges, past gamma's guard, but its odd-blue
        # triangles settle the poset count without a search
        path = tmp_path / "k7.txt"
        path.write_text("n 7\n" + "".join(f"{u} {v} B\n" for v in range(2, 8)
                                            for u in range(1, v)))
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert (info["edges"], info["obtf"]) == (21, False)
        assert (info["poset_count"], info["posets"]) == (0, [])
        assert info["skipped"] == ["gamma"]
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "\nposets: 0\n" in out
        assert out.endswith("\nskipped (size guards): gamma\n")

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 2\n1 5 R\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", str(tmp_path / "none.txt"))
        assert code == 2

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"n 2\n1 2 \xff\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    @pytest.mark.parametrize("n", [1001, 999999999999])
    def test_vertex_count_past_the_guard_exits_2(self, capsys, tmp_path, n):
        path = tmp_path / "g.txt"
        path.write_text(f"n {n}\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == f"error: colored graph capped at n <= 1000 vertices, got {n}\n"

    def test_edge_count_past_the_guard_exits_2(self, capsys, tmp_path):
        # 20,001 edges: K200 plus 101 edges to vertex 201
        path = tmp_path / "g.txt"
        path.write_text("n 201\n" + "".join(f"{u} {v} B\n" for u, v in pairs_colex(201)[:20_001]))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == "error: colored graph capped at |E| <= 20000 edges, got 20001\n"

    def test_vertex_count_at_the_guard_is_analyzed(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 1000\n1 1000 B\n")
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info["blue_bipartition"]["W"] == [1000]
        assert info["poset_count"] == 2


class TestPosetsCommand:
    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "posets", "--n", "2")
        assert code == 0
        assert "count: 5" in out

    def test_cover_multiplicity(self, capsys):
        code, out, _ = run(capsys, "posets", "--cover-multiplicity", "3")
        assert code == 0
        assert "max posets per cover graph: 4" in out

    def test_negative_n_exits_2(self, capsys):
        code, out, err = run(capsys, "posets", "--n", "-1")
        assert code == 2
        assert out == "" and err == "error: --n must be >= 0\n"

    def test_zero_cover_multiplicity_exits_2(self, capsys):
        code, out, err = run(capsys, "posets", "--cover-multiplicity", "0")
        assert code == 2
        assert out == "" and err == "error: --cover-multiplicity must be >= 1\n"

    def test_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "posets", "--n", "2",
                           "--cover-multiplicity", "3")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "posets", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 5

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_csv_lists_every_poset(self, capsys, n):
        _, out, _ = run(capsys, "posets", "--n", str(n), "--format", "json")
        posets = json.loads(out)["posets"]
        code, out, _ = run(capsys, "posets", "--n", str(n), "--format", "csv")
        assert code == 0
        header, *lines = out.splitlines()
        assert header == "poset,below,above"
        assert {int(line.split(",")[0]) for line in lines} == set(range(1, len(posets) + 1))
        # one row per relation, and one empty row for a poset without any
        want = []
        for i, relations in enumerate(posets, start=1):
            want += [f"{i},{r.replace(' ', ',')}" for r in relations] or [f"{i},,"]
        assert lines == want
        assert lines[0] == "1,,"    # poset 1 is the antichain

    def test_each_listed_poset_checked_once(self, capsys, monkeypatch):
        calls = []
        member = litposet.is_pn_member
        monkeypatch.setattr(litposet, "is_pn_member",
                            lambda rows: calls.append(rows) or member(rows))
        code, out, _ = run(capsys, "posets", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 69
        assert len(calls) == len(set(calls)) == 69

    def test_formula_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n 2\n1 2\n")
        code, out, _ = run(capsys, "posets", "--formula", str(path))
        assert code == 0
        assert out == "n 2\n-1 2\n-2 1\n"

    @pytest.mark.parametrize("text, rows", [
        ("n 2\n1 2\n", ["1,-1,2", "1,-2,1"]),
        ("n 2\n", ["1,,"]),     # the antichain still gets a row
    ])
    def test_formula_csv_is_the_poset_rows(self, capsys, tmp_path, text, rows):
        path = tmp_path / "f.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "posets", "--formula", str(path), "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["poset,below,above", *rows]

    @pytest.mark.parametrize("text, out", [
        ("n 0\n", '{\n  "n": 0,\n  "relations": []\n}\n'),
        # n comes from the header, not from the variables the clauses use
        ("n 3\n1 2\n", '{\n  "n": 3,\n  "relations": [\n    "-1 2",\n    "-2 1"\n  ]\n}\n'),
    ])
    def test_formula_json(self, capsys, tmp_path, text, out):
        path = tmp_path / "f.txt"
        path.write_text(text)
        assert run(capsys, "posets", "--formula", str(path), "--format", "json") == (0, out, "")

    def test_non_utf8_formula_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"\xffn 2\n1 2\n")
        code, out, err = run(capsys, "posets", "--formula", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    @pytest.mark.parametrize("n", [15, 40])
    def test_formula_past_the_guard_exits_2(self, capsys, tmp_path, n):
        path = tmp_path / "f.txt"
        path.write_text(f"n {n}\n1 2\n")
        code, out, err = run(capsys, "posets", "--formula", str(path))
        assert code == 2 and out == ""
        assert err == f"error: implication poset capped at n <= 14 variables, got {n}\n"

    def test_formula_at_the_guard_is_ordered(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n 14\n1 2\n")
        code, out, _ = run(capsys, "posets", "--formula", str(path))
        assert code == 0
        assert out == "n 14\n-1 2\n-2 1\n"

    def test_formula_file_non_elementary(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n 2\n1 2\n1 -2\n")
        code, _, err = run(capsys, "posets", "--formula", str(path))
        assert code == 2
        assert "elementary" in err
