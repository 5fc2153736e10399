"""The tracer's arithmetic on toy code, and its effect on real obtf runs."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import inproc
from tracer import Tracer

HERE = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


TOY = '''
def leaf():
    clock.tick(2.0)
    return 1

def mid():
    clock.tick(1.0)
    leaf()
    clock.tick(3.0)

def top():
    mid()
    mid()

def numbers():
    for i in range(3):
        clock.tick(1.0)
        leaf()
        yield i

def consume():
    total = 0
    for i in numbers():
        clock.tick(10.0)   # consumer time: not the generator's
        total += i
    return total

def _private():
    clock.tick(5.0)
'''


def toy_module(name, clock):
    mod = types.ModuleType(name)
    mod.clock = clock
    exec(TOY, mod.__dict__)
    return mod


def test_nested_calls_total_and_self():
    clock = FakeClock()
    toy = toy_module("toy_nested", clock)
    tracer = Tracer(clock=clock)
    tracer.install([toy])
    toy.top()
    s = tracer.stats
    assert (s["toy_nested.leaf"].calls, s["toy_nested.leaf"].total_s,
            s["toy_nested.leaf"].self_s) == (2, 4.0, 4.0)
    assert (s["toy_nested.mid"].calls, s["toy_nested.mid"].total_s,
            s["toy_nested.mid"].self_s) == (2, 12.0, 8.0)
    assert (s["toy_nested.top"].calls, s["toy_nested.top"].total_s,
            s["toy_nested.top"].self_s) == (1, 12.0, 0.0)
    assert "toy_nested._private" not in s


def test_nested_generator_is_timed_per_next():
    clock = FakeClock()
    toy = toy_module("toy_gen", clock)
    tracer = Tracer(clock=clock)
    tracer.install([toy])
    assert toy.consume() == 3
    gen, leaf, cons = (tracer.stats[f"toy_gen.{n}"] for n in ("numbers", "leaf", "consume"))
    assert (gen.calls, gen.yielded) == (1, 3)
    # four next() calls: three items and the final StopIteration
    assert (gen.total_s, gen.self_s) == (9.0, 3.0)
    assert (leaf.calls, leaf.self_s) == (3, 6.0)
    assert (cons.total_s, cons.self_s) == (39.0, 30.0)


def test_aliases_share_one_stat_and_uninstall_restores():
    clock = FakeClock()
    toy = toy_module("toy_alias", clock)
    user = types.ModuleType("toy_user")
    user.leaf = toy.leaf          # as `from toy_alias import leaf` would
    original = toy.leaf
    tracer = Tracer(clock=clock)
    tracer.install([toy, user])
    user.leaf()
    toy.leaf()
    assert tracer.stats["toy_alias.leaf"].calls == 2
    tracer.uninstall()
    assert toy.leaf is original and user.leaf is original


def test_probe_sees_args_and_result():
    clock = FakeClock()
    toy = toy_module("toy_probe", clock)
    tracer = Tracer(clock=clock)
    tracer.install([toy], probes={"toy_probe.leaf": lambda st, a, r: st.add("ones", r)})
    toy.top()
    assert tracer.stats["toy_probe.leaf"].extra == {"ones": 2}


def test_exception_closes_the_span():
    clock = FakeClock()
    mod = types.ModuleType("toy_raise")
    mod.clock = clock
    exec("def boom():\n    clock.tick(1.0)\n    raise KeyError('x')\n"
         "def outer():\n    try:\n        boom()\n    except KeyError:\n        clock.tick(2.0)\n",
         mod.__dict__)
    tracer = Tracer(clock=clock)
    tracer.install([mod])
    mod.outer()
    assert tracer.stats["toy_raise.boom"].total_s == 1.0
    assert tracer.stats["toy_raise.outer"].self_s == 2.0


SMALL = [
    ("census", "--quantity", "F", "--n", "1..4", "--cache", "{work}/c.jsonl", "--format", "json"),
    ("census", "--quantity", "F", "--n", "1..4", "--cache", "{work}/c.jsonl", "--format", "json"),
    ("census", "--quantity", "H", "--n", "1..3", "--cache", "{work}/c.jsonl", "--format", "json"),
    ("posets", "--n", "2", "--format", "json"),
    ("posets", "--cover-multiplicity", "3", "--format", "json"),
    ("analyze", "{work}/g.txt", "--format", "json"),
    ("verify", "--format", "json"),
]
GRAPH = "n 4\n1 2 B\n1 3 R\n2 3 B\n3 4 B\n2 4 R\n"


def small_pass(work: Path, trace: bool) -> dict:
    """A cheap pass in a fresh interpreter, so no state carries over."""
    (work / "c.jsonl").unlink(missing_ok=True)
    (work / "g.txt").write_text(GRAPH)
    argvs = [[a.format(work=work) for a in argv] for argv in SMALL]
    script = ("import json, sys, inproc; "
              "print(json.dumps(inproc.run_pass(json.loads(sys.argv[1]), sys.argv[2] == '1')))")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs), str(int(trace))],
                          capture_output=True, text=True, cwd=HERE, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return small_pass(work, False), small_pass(work, True), small_pass(work, True)


def test_traced_stdout_is_byte_identical(passes):
    plain, traced, _ = passes
    assert [r["returncode"] for r in traced["results"]] == [0] * len(SMALL)
    for a, b in zip(plain["results"], traced["results"]):
        if a["stdout"].lstrip().startswith("[") and '"wall_time"' in a["stdout"]:
            # census records carry wall_time, the one field allowed to differ
            strip = lambda s: [{k: v for k, v in r.items() if k != "wall_time"}
                               for r in json.loads(s)]
            assert strip(a["stdout"]) == strip(b["stdout"])
        else:
            assert a["stdout"] == b["stdout"]


def test_count_metrics_repeat_exactly(passes):
    _, first, second = passes
    assert first["stats"].keys() == second["stats"].keys()
    for name, st in first["stats"].items():
        other = second["stats"][name]
        assert (st["calls"], st["yielded"], st["extra"]) == \
            (other["calls"], other["yielded"], other["extra"]), name
    assert first["stats"]["cli.main"]["calls"] == len(SMALL)
    assert first["stats"]["census.CensusCache.append"]["calls"] == 4 + 3 * 2
    assert first["stats"]["cgraph.posets_of_graph"]["extra"]["space"] > 0
