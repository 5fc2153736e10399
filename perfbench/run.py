"""obtf benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload census|analyze|verify \
        --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; obtf is imported from `src/`.

`--trace 0` spawns each of the workload's `obtf` commands as a fresh
`python -m obtf.cli` process, one at a time at `--workers 1`, repeating
whole passes while another pass should still end within S seconds (at
least one pass runs).  Every spawned interpreter is bracketed by runs of
the host probe (`probe.py`), and its time is normalised by them (see
`ProbedTimer`).  It reports the sum over commands of each command's
median normalised time (`wall_norm_s`), the median normalised time of bare
`import obtf.cli` start-ups taken before the first pass and after each
pass (`setup_s`) and the largest child `ru_maxrss` (`peak_rss_mb`).  The
same times without normalisation are printed too, not in the result.

`--trace 1` runs one pass in-process without and then with the tracer,
each in a fresh interpreter (`inproc.py`), and reports the per-layer
metrics of `layers.py`.  Both outputs must match once `wall_time` is
masked.

Every command's output is checked (`checks.py`).  The last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`;
`--out` also appends a fuller record with the environment.  Exits 3
without a result when obtf cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import graphs
import layers
import workloads
from tracer import Stat

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES_FIRST = 3   # setup_s samples before the first pass
SETUP_SAMPLES_PER_PASS = 3   # and after each pass, to span the run

# Times in a run are normalised to the host probe taking this long (its
# lower quartile on a 2-core Xeon at 2.0 GHz with Python 3.11).
REFERENCE_PROBE_S = 0.15

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OBTF_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], work: Path) -> tuple[int, str, float, int]:
    """Run one interpreter; (exit code, stdout, seconds from spawn to
    reap, ru_maxrss in KiB)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                cwd=work, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), elapsed, usage.ru_maxrss


def check_importable(work: Path) -> None:
    """One unmeasured start: proves obtf is importable and leaves its
    bytecode compiled."""
    code, _, _, _ = spawn(["-c", "import obtf.cli"], work)
    if code != 0:
        tail = (work / "stderr").read_text().strip().splitlines()[-1:]
        raise SetupError(f"obtf is not importable from {ROOT / 'src'}: {tail}")


def probe(work: Path) -> float:
    """Seconds the host probe (`probe.py`) takes in a fresh interpreter."""
    code, _, elapsed, _ = spawn([str(HERE / "probe.py")], work)
    if code != 0:
        raise SetupError("the host probe failed")
    return elapsed


class ProbedTimer:
    """Times fresh interpreters, each between two runs of the host probe.

    A time is normalised to REFERENCE_PROBE_S: multiplied by
    REFERENCE_PROBE_S over the mean of the probe times just before and
    just after it."""

    def __init__(self, work: Path):
        self.work = work
        self.probes = [probe(work)]

    def run(self, args: list[str]) -> tuple[int, str, float, float, int]:
        """(exit code, stdout, seconds, normalised seconds, ru_maxrss KiB)."""
        code, stdout, elapsed, rss = spawn(args, self.work)
        self.probes.append(probe(self.work))
        local = (self.probes[-2] + self.probes[-1]) / 2
        return code, stdout, elapsed, elapsed * REFERENCE_PROBE_S / local, rss


def run_untraced(name: str, seed: int, seconds: float, work: Path) -> dict:
    commands = workloads.build(name, seed, work)
    check_importable(work)
    timer = ProbedTimer(work)
    setup, setup_raw = [], []

    def sample_setup(samples: int) -> None:
        for _ in range(samples):
            code, _, elapsed, norm, _ = timer.run(["-c", "import obtf.cli"])
            if code != 0:
                raise SetupError("import obtf.cli failed")
            setup_raw.append(elapsed)
            setup.append(norm)

    sample_setup(SETUP_SAMPLES_FIRST)
    per_command = {c.label: [] for c in commands}
    per_command_raw = {c.label: [] for c in commands}
    passes, problems = [], []
    peak_kib = attempted = 0
    started = time.perf_counter()
    # a pass starts only if it should end within `seconds`; the first always runs
    while not passes or time.perf_counter() - started + statistics.median(passes) <= seconds:
        pass_started = time.perf_counter()
        workloads.reset(work)
        for cmd in commands:
            code, stdout, elapsed, norm, rss = timer.run(["-m", "obtf.cli", *cmd.argv])
            per_command_raw[cmd.label].append(elapsed)
            per_command[cmd.label].append(norm)
            peak_kib = max(peak_kib, rss)
            attempted += 1
            problem = checks.judge(cmd.digest, code, stdout, cmd.check)
            if problem:
                problems.append(f"{cmd.label}: {problem}")
        sample_setup(SETUP_SAMPLES_PER_PASS)
        passes.append(time.perf_counter() - pass_started)

    def pass_time(times: dict) -> float:
        return sum(statistics.median(t) for t in times.values())

    return {
        "metrics": {"wall_norm_s": pass_time(per_command),
                    "setup_s": statistics.median(setup),
                    "peak_rss_mb": peak_kib / 1024},
        "raw": {"wall_s": pass_time(per_command_raw), "setup_s": statistics.median(setup_raw)},
        "attempted": attempted, "problems": problems, "passes": len(passes),
        "commands_s": per_command_raw, "commands_norm_s": per_command,
        "setup_samples_s": setup_raw, "probes_s": timer.probes,
    }


def run_traced(name: str, seed: int, work: Path) -> dict:
    commands = workloads.build(name, seed, work)
    check_importable(work)
    reports = {}
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "inproc.py"), "--workload", name,
             "--seed", str(seed), "--work", str(work), "--trace", str(trace)],
            capture_output=True, text=True, cwd=work, env=child_env())
        if proc.returncode != 0:
            raise SetupError(f"in-process pass failed: {proc.stderr.strip()[-500:]}")
        reports[trace] = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    for cmd, plain, traced in zip(commands, reports[0]["results"], reports[1]["results"]):
        for mode, res in (("untraced", plain), ("traced", traced)):
            problem = checks.judge(cmd.digest, res["returncode"], res["stdout"],
                                   cmd.check)
            if (problem is None and mode == "traced"
                    and checks.masked(res["stdout"]) != checks.masked(plain["stdout"])):
                problem = "stdout differs from the untraced pass (wall_time masked)"
            if problem:
                problems.append(f"{cmd.label} ({mode}): {problem}")
    stats = {k: Stat(**v) for k, v in reports[1]["stats"].items()}
    stdout_bytes = sum(len(r["stdout"].encode()) for r in reports[1]["results"])
    return {
        "metrics": layers.values(stats, reports[1]["wall_s"], reports[0]["wall_s"],
                                 stdout_bytes),
        "attempted": 2 * len(commands), "problems": problems,
        "untraced_inprocess_s": reports[0]["wall_s"],
        "traced_inprocess_s": reports[1]["wall_s"],
    }


def environment(args) -> dict:
    git = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True)
        git = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git": git, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=graphs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record here")
    args = parser.parse_args()
    # a terminated run still stops the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "obtf" / "cli.py").is_file():
        print(f"error: no obtf sources under {ROOT / 'src'}", file=sys.stderr)
        return 3
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-work"))
    try:
        if args.trace:
            record = run_traced(args.workload, args.seed, work)
            units = {name: unit for name, unit, _, _ in layers.METRICS}
        else:
            record = run_untraced(args.workload, args.seed, args.seconds, work)
            units = END_TO_END
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only when no other run is using it

    failed = len(record["problems"])
    for problem in record["problems"]:
        print(f"FAIL {problem}")
    for name, value in record["metrics"].items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    for name, value in record.get("raw", {}).items():
        print(f"{args.workload} {name} (not normalised) = {value} s")
    print(f"{args.workload} fail_ratio = {failed / record['attempted']} fraction")
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"env": env, **record}, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": record["attempted"], "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
