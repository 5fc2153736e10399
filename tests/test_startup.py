"""Each command loads only the modules it runs.

Every case starts a fresh interpreter, runs one command through
`obtf.cli.main` and reports which of the costly modules are then in
`sys.modules`: the census engines, the verify suites, the graph module,
`dataclasses` (which pulls in `inspect`, `ast`, `dis` and `tokenize`),
`csv`, which only a CSV writer needs, the process pool with the
`multiprocessing` package it pulls in, and OpenSSL's `_hashlib`, which
census's checksum avoids wherever the interpreter has a builtin SHA-256.
Each case is measured against a bare interpreter that imports no obtf module,
so a `site` hook that loads one of them cannot fail it.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import obtf

SRC = str(Path(obtf.__file__).resolve().parent.parent)
# without a builtin SHA-256, census falls back to hashlib and its OpenSSL
LEAN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
COSTLY = ("obtf.census", "obtf.verify", "obtf.cgraph", "dataclasses", "csv",
          "concurrent.futures.process", "multiprocessing",
          *(("_hashlib",) if LEAN_SHA256 else ()))

# argv null: the bare interpreter; a string: Python source, run as it is;
# a list: import obtf.cli, then run main on it unless it is empty
PROBE = f"""
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = 0
if isinstance(argv, str):
    exec(argv)
elif argv is not None:
    from obtf.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv) if argv else 0
print(json.dumps({{"code": code,
                  "loaded": [m for m in {COSTLY!r} if m in sys.modules]}}))
"""


def _costly_loaded(argv):
    env = dict(os.environ)
    env.pop("OBTF_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    return set(report["loaded"])


@functools.lru_cache(maxsize=None)
def bare():
    return _costly_loaded(None)


def run_fresh(argv):
    """The costly modules the command loads beyond a bare interpreter."""
    return _costly_loaded(argv) - bare()


def test_import_loads_none_of_them():
    assert run_fresh([]) == set()


def test_analyze_loads_only_the_graph_module(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 4\n1 2 B\n2 3 R\n3 4 R\n1 4 R\n1 3 B\n")
    assert run_fresh(["analyze", str(path)]) == {"obtf.cgraph"}


def test_census_loads_no_verify_and_no_pool(tmp_path):
    for quantity in ("B", "F"):
        loaded = run_fresh(["census", "--quantity", quantity, "--n", "1..4",
                            "--cache", str(tmp_path / "c.jsonl")])
        assert loaded == {"obtf.census"}, quantity


def test_flat_sweeps_load_no_graph_module():
    # F's and B's second routes count on plain masks, not on cgraph's graphs
    loaded = run_fresh("from obtf import census\n"
                       "assert census.count('F', 4, method='flat-sweep').value == 417\n"
                       "assert census.count('B', 4, method='flat-sweep').value == 393\n")
    assert loaded == {"obtf.census"}


def test_csv_loads_for_csv_output(tmp_path):
    # the other commands here write tables, and show it unloaded there
    assert run_fresh(["census", "--quantity", "B", "--n", "3",
                      "--cache", str(tmp_path / "c.jsonl"), "--format", "csv"]) == {
        "obtf.census", "csv"}


def test_cover_multiplicity_loads_only_the_engines():
    assert run_fresh(["posets", "--cover-multiplicity", "4"]) == {"obtf.census"}


def test_verify_loads_no_pool():
    loaded = run_fresh(["verify", "--range", "1..2"])
    assert loaded == {"obtf.census", "obtf.verify", "obtf.cgraph"}
