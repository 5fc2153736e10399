"""One pass of a workload inside this process, through `obtf.cli.main`.

    python3 perfbench/inproc.py --workload NAME --seed N --work DIR --trace 0|1

With `--trace 1` every public obtf function is wrapped by `tracer.py`
first.  Prints one JSON object: the pass's wall time, each command's exit
code and stdout, and the tracer's stats.  `run.py --trace 1` starts this
twice, untraced then traced, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import layers
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def run_pass(argvs, trace: bool) -> dict:
    """Run each argv through `obtf.cli.main` in this process; with `trace`,
    under the tracer.  Returns the pass's wall time, each command's exit
    code and stdout, and the tracer's stats."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from obtf import boolfn, census, cgraph, cli, litposet, verify

    tracer = Tracer()
    if trace:
        tracer.install([boolfn, litposet, cgraph, census, verify, cli],
                       only=layers.ONLY,
                       methods={census.CensusCache: ("load", "append")},
                       probes=layers.PROBES)
    results = []
    try:
        started = time.perf_counter()
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects its input this way
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # noqa: BLE001 - a crash fails this command only
                    traceback.print_exc()
                    code = 1   # what an uncaught exception exits with
            results.append({"returncode": code, "stdout": buf.getvalue()})
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    return {"wall_s": wall, "results": results,
            "stats": {k: asdict(v) for k, v in tracer.stats.items()}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    commands = workloads.build(args.workload, args.seed, args.work)
    workloads.reset(args.work)
    print(json.dumps(run_pass([c.argv for c in commands], bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
