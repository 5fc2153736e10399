"""Each command loads only the modules it runs.

Every case starts a fresh interpreter, runs one command through
`obtf.cli.main` and reports which of the costly modules are then in
`sys.modules`: the census engines, the verify suites and the process
pool with the `multiprocessing` package it pulls in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import obtf

SRC = str(Path(obtf.__file__).resolve().parent.parent)
COSTLY = ("obtf.census", "obtf.verify", "concurrent.futures.process", "multiprocessing")

PROBE = f"""
import contextlib, io, json, sys
from obtf.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
print(json.dumps({{"code": code,
                  "loaded": [m for m in {COSTLY!r} if m in sys.modules]}}))
"""


def run_fresh(argv):
    env = dict(os.environ)
    env.pop("OBTF_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    return set(report["loaded"])


def test_import_loads_none_of_them():
    assert run_fresh([]) == set()


def test_analyze_loads_none_of_them(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 4\n1 2 B\n2 3 R\n3 4 R\n1 4 R\n1 3 B\n")
    assert run_fresh(["analyze", str(path)]) == set()


def test_census_loads_no_verify_and_no_pool(tmp_path):
    loaded = run_fresh(["census", "--quantity", "B", "--n", "1..3",
                        "--cache", str(tmp_path / "c.jsonl")])
    assert "obtf.census" in loaded
    assert not loaded & {"obtf.verify", "concurrent.futures.process"}


def test_verify_loads_no_pool():
    loaded = run_fresh(["verify", "--range", "1..2"])
    assert {"obtf.census", "obtf.verify"} <= loaded
    assert "concurrent.futures.process" not in loaded
