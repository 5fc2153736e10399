"""Output checks for every benchmarked command.

A command passes when it exits 0, its own check finds nothing wrong, and,
where a digest is pinned in `expected.json`, the SHA-256 of its output
with every `wall_time` removed matches.  The digests are those of the
seed commit's outputs; `analyze` digests are pinned for the default and
the held-out seed, and other seeds are judged only by the invariants in
`check_analyze`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Optional

# A check returns None when the output is right, else what is wrong.
Check = Callable[[str], Optional[str]]

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# The README census table, plus F(6).
README_VALUES = {
    ("G", "t0"): (1, 16, 166, 4170, 224716),
    ("H", "t0"): (1, 5, 69, 2153, 138057),
    ("F", None): (1, 3, 23, 417, 16921, 1474419),
    ("B", None): (1, 3, 23, 393, 13729, 943227),
}


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


def masked(stdout: str) -> str:
    """The output with every wall_time removed (all outputs are JSON)."""
    return json.dumps(_strip_wall_time(json.loads(stdout)), sort_keys=True)


def digest(stdout: str) -> str:
    return hashlib.sha256(masked(stdout).encode()).hexdigest()


def judge(want: Optional[str], returncode: int, stdout: str,
          check: Check) -> Optional[str]:
    """Why a command's result is wrong, or None if it is right; `want` is
    the pinned output digest, if there is one."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        problem = check(stdout)
        if problem is None and want is not None and digest(stdout) != want:
            problem = "output digest differs from the pinned one"
    except (ValueError, KeyError, TypeError, AssertionError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return problem


def check_json(stdout: str) -> Optional[str]:
    json.loads(stdout)   # raises on anything but JSON
    return None


def check_census(stdout: str) -> Optional[str]:
    for rec in json.loads(stdout):
        values = README_VALUES.get((rec["quantity"], rec["convention"]))
        if values and rec["n"] <= len(values) and rec["value"] != values[rec["n"] - 1]:
            return (f"{rec['quantity']}({rec['n']}) = {rec['value']}, "
                    f"expected {values[rec['n'] - 1]}")
    return None


def check_verify(stdout: str) -> Optional[str]:
    checks = json.loads(stdout)
    failed = [f"{c['name']} {c['scope']}" for c in checks if c["status"] == "FAIL"]
    if failed:
        return "failed checks: " + ", ".join(failed)
    if not any(c["status"] == "PASS" for c in checks):
        return "no check passed"
    return None


def obtf_modules():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from obtf import cgraph, litposet
    return cgraph, litposet


def check_analyze(graph_text: str) -> Check:
    """Invariants that hold for any input graph."""
    def check(stdout: str) -> Optional[str]:
        cgraph, litposet = obtf_modules()
        info = json.loads(stdout)
        g = cgraph.parse_colored_graph(graph_text)
        if info["edges"] != g.edge_count() or info["obtf"] != cgraph.is_obtf(g):
            return "edge count or OBTF flag differs from the input graph"
        if not info["obtf"] and info["poset_count"] != 0:
            return "a graph with an odd-blue triangle carries posets"
        bb = info["blue_bipartition"] is not None
        if bb != (info["gamma"]["value"] == 0) or bb != (info["kappa"]["value"] == 0):
            return "blue-bipartition, gamma == 0 and kappa == 0 disagree"
        if info["poset_count"] != len(info["posets"]):
            return "poset_count differs from the listed posets"
        for block in info["posets"]:
            if cgraph.graph_of_poset(litposet.parse_poset(block)) != g:
                return "a listed poset does not map back to the input graph"
        return None
    return check
