import json

import pytest

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
        code, _, err = run(capsys, "census", "--quantity", "F", "--n", "7",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2
        assert "--big" in err

    def test_corrupt_cache_exits_3(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{broken\n")
        code, _, err = run(capsys, "census", "--quantity", "F", "--n", "2",
                           "--cache", str(path))
        assert code == 3
        assert "cache" in err

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

    def test_cache_cross_check(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        code, _, _ = run(capsys, "census", "--quantity", "F", "--n", "2..3",
                         "--cache", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--range", "2", "--cache", str(path))
        assert code == 0
        assert "cache-consistency" in out


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

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 2\n1 5 R\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", str(tmp_path / "none.txt"))
        assert code == 2


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

    def test_formula_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n 2\n1 2\n")
        code, out, _ = run(capsys, "posets", "--formula", str(path))
        assert code == 0
        assert out == "n 2\n-1 2\n-2 1\n"

    def test_formula_file_non_elementary(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n 2\n1 2\n1 -2\n")
        code, _, err = run(capsys, "posets", "--formula", str(path))
        assert code == 2
        assert "elementary" in err
