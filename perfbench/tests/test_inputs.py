"""Seeded inputs, pinned digests and BENCHMARK.json agree with the code."""

import json
from pathlib import Path

import checks
import graphs
import inproc
import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent


def edges(text):
    return text.splitlines()[1:]


def test_same_seed_gives_identical_files():
    assert graphs.make_graphs(graphs.DEFAULT_SEED) == graphs.make_graphs(graphs.DEFAULT_SEED)


def test_other_seed_gives_other_graphs_with_the_same_edge_counts():
    a = graphs.make_graphs(graphs.DEFAULT_SEED)
    b = graphs.make_graphs(graphs.HELD_OUT_SEED)
    assert [name for name, _ in a] == [name for name, _ in b]
    for (_, ta), (_, tb) in zip(a, b):
        assert ta != tb
        assert len(edges(ta)) == len(edges(tb))
    assert [len(edges(t)) for _, t in a] == list(graphs.EDGE_COUNTS)


def test_alternate_graphs_are_blue_bipartite():
    cgraph, _ = checks.obtf_modules()
    for i, (_, text) in enumerate(graphs.make_graphs(7)):
        bipartition = cgraph.find_blue_bipartition(cgraph.parse_colored_graph(text))
        if i % 2 == 0:
            assert bipartition is not None


def test_default_and_held_out_seeds_pin_every_command(tmp_path):
    for seed in (graphs.DEFAULT_SEED, graphs.HELD_OUT_SEED):
        for name in workloads.NAMES:
            for cmd in workloads.build(name, seed, tmp_path):
                assert cmd.digest is not None, (seed, cmd.label)
    assert all(cmd.digest is None for cmd in workloads.build("analyze", 3, tmp_path))


def test_digest_catches_an_answer_the_invariants_allow(tmp_path):
    # An orientation search that finds nothing passes every analyze
    # invariant; only the pinned digest rejects it.
    cmd = workloads.build("analyze", graphs.HELD_OUT_SEED, tmp_path)[0]
    result = inproc.run_pass([cmd.argv], trace=False)["results"][0]
    assert checks.judge(cmd.digest, result["returncode"], result["stdout"], cmd.check) is None
    answer = json.loads(result["stdout"])
    assert answer["poset_count"] > 0
    stdout = json.dumps({**answer, "poset_count": 0, "posets": []})
    assert cmd.check(stdout) is None
    assert checks.judge(cmd.digest, 0, stdout, cmd.check) is not None


def test_analyze_check_catches_a_wrong_answer(tmp_path):
    text = "n 3\n1 2 B\n2 3 B\n1 3 B\n"    # odd-blue triangle: no posets
    answer = {"n": 3, "edges": 3, "obtf": False, "blue_bipartition": None,
              "kappa": {"value": 1, "witness": [1]},
              "gamma": {"value": 1, "witness": [[1, 2]]},
              "eta": 1, "triangle_connected": True, "skipped": [],
              "poset_count": 0, "posets": []}
    check = checks.check_analyze(text)
    assert check(json.dumps(answer)) is None
    assert check(json.dumps({**answer, "poset_count": 1, "posets": ["n 3\n"]})) is not None
    assert check(json.dumps({**answer, "gamma": {"value": 0, "witness": []}})) is not None


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.METRICS]
