"""Each command loads only the modules it runs.

Every case starts a fresh interpreter, runs one command through
`obtf.cli.main` and reports which of the costly modules are then in
`sys.modules`: the census engines, the cover-multiplicity search, the
verify suites, the graph module, the literal posets, `dataclasses`
(which pulls in `inspect`, `ast`, `dis` and `tokenize`), `csv`, which
only a CSV writer needs, the process pool with the `multiprocessing`
package it pulls in, and OpenSSL's `_hashlib`, which census's checksum
avoids wherever the interpreter has a builtin SHA-256.
Each case is measured against a bare interpreter that imports no obtf module,
so a `site` hook that loads one of them cannot fail it.

The last tests start the command line as every benchmark command does,
`python -m obtf.cli`, where `obtf.cli` runs as `__main__`: a user error
raised on a lazily imported path must still exit 2 with one `error:`
line, and no module the commands load may import `obtf.cli`, which would
compile it a second time with a second `UserError` that `main` does not
catch.
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
COSTLY = ("obtf.census", "obtf.covers", "obtf.verify", "obtf.cgraph", "obtf.litposet",
          "dataclasses", "csv",
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


def _run(args, cwd=None):
    env = dict(os.environ)
    env.pop("OBTF_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def _costly_loaded(argv):
    proc = _run(["-c", PROBE, json.dumps(argv)])
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
    assert run_fresh(["analyze", str(path)]) == {"obtf.cgraph", "obtf.litposet"}


def test_census_loads_no_verify_and_no_pool(tmp_path):
    for quantity in ("B", "F", "G", "H", "Pn"):
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
    # the question's search, and none of the census engines
    assert run_fresh(["posets", "--cover-multiplicity", "4"]) == {
        "obtf.covers", "obtf.litposet"}


def test_formula_loads_only_the_literal_posets(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("n 2\n-1 2\n")
    assert run_fresh(["posets", "--formula", str(path)]) == {"obtf.litposet"}


def test_verify_loads_no_pool():
    loaded = run_fresh(["verify", "--range", "1..2"])
    assert loaded == {"obtf.census", "obtf.verify", "obtf.cgraph", "obtf.litposet"}


def test_module_entry_reports_user_errors(tmp_path):
    missing = str(tmp_path / "missing.txt")
    for argv in (["posets", "--formula", missing], ["posets", "--cover-multiplicity", "7"],
                 ["census", "--quantity", "Pn", "--n", "6"], ["analyze", missing]):
        proc = _run(["-m", "obtf.cli", *argv], cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, ""), (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, argv
        assert "Traceback" not in proc.stderr


def test_module_entry_imports_no_second_cli(tmp_path):
    # obtf.cli run as __main__, through each command's lazily loaded modules
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n1 2 B\n2 3 R\n")
    probe = f"""
import json, runpy, sys
codes = []
for argv in {[["census", "--quantity", "G", "--n", "2", "--cache", str(tmp_path / "c.jsonl")],
              ["verify", "--range", "1", "--format", "csv"], ["analyze", str(graph)],
              ["posets", "--n", "2"], ["posets", "--cover-multiplicity", "3"],
              ["posets", "--formula", str(tmp_path / "missing.txt")]]!r}:
    sys.argv = ["obtf", *argv]
    try:
        runpy.run_module("obtf.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("obtf"))]))
"""
    proc = _run(["-c", probe], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0, 2]
    assert "obtf.cli" not in loaded
    assert {"obtf.census", "obtf.covers", "obtf.verify", "obtf.cgraph"} <= set(loaded)
