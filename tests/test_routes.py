"""The routes that verify's engine-agreement lines and identity rows
compare share no kernel.

A fresh interpreter runs every engine of every quantity at n = 4, each
under sys.setprofile after every lru_cache in obtf is cleared (a cache
hit calls no Python function, so it would leave no trace), and reports
the obtf functions, by module and name, that each engine called.  Two
engines of one quantity may share only HELPERS, the set-bit and pair
helpers and the truth-table encoding, and what EXCEPTIONS names for
their quantity; so may the two routes of each row in IDENTITY_ROWS.
"""

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import obtf

SRC = str(Path(obtf.__file__).resolve().parent.parent)
N = 4

# the set bits of a mask, the colex pair order, and the encoding of a
# truth table: what a table or a graph is, not how a count is made
HELPERS = {"boolfn.bits", "boolfn.colex_pairs",
           "boolfn.all_ones", "boolfn.variable_masks", "boolfn.literal_masks"}
# functions that two engines of one quantity may share beyond HELPERS,
# each with the reason; none today
EXCEPTIONS: dict[str, set[str]] = {}
# verify's identity rows whose two sides are single engines, each side
# as (quantity, method): |Pn| = H(n, t0) counts the posets by the order
# search and the elementary functions by the median-closure DP
IDENTITY_ROWS = {"poset-function-bijection": (("Pn", "order-dfs"), ("H", "median-dp"))}

# Functions are known by their code objects, so the nested code of a
# comprehension or a lambda counts as part of the function around it,
# and a name imported from another module counts as its own module's.
PROBE = """
import json, sys
from obtf import boolfn, census, cgraph, litposet

modules = (boolfn, census, cgraph, litposet)
names = {}
for module in modules:
    short = module.__name__.rpartition(".")[2]
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        members = vars(value).items() if isinstance(value, type) else [("", value)]
        for attr, member in members:
            code = getattr(getattr(member, "__wrapped__", member), "__code__", None)
            if code is not None:
                names[code] = f"{short}.{name}" + (f".{attr}" if attr else "")

def clear_caches():
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

n = int(sys.argv[1])
called = {}
for quantity, engines in census.ENGINES.items():
    for method in census.methods(quantity, n):
        seen = set()
        def record(frame, event, arg):
            if event == "call" and frame.f_code in names:
                seen.add(names[frame.f_code])
        clear_caches()
        sys.setprofile(record)
        try:
            engines[method][0](n)
        finally:
            sys.setprofile(None)
        called.setdefault(quantity, {})[method] = sorted(seen)
print(json.dumps(called))
"""


@pytest.fixture(scope="module")
def called():
    """quantity -> method -> the obtf functions its engine called at N,
    for every engine whose cap admits N."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(N)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {q: {m: set(names) for m, names in routes.items()}
            for q, routes in json.loads(proc.stdout).items()}


def shared(routes):
    """Each pair of methods with the functions both called."""
    return {(a, b): routes[a] & routes[b] for a, b in combinations(routes, 2)}


def test_every_agreeing_quantity_is_traced(called):
    assert {q: sorted(routes) for q, routes in called.items()} == {
        "G": ["clause-sweep", "median-dp", "median-filter"],
        "H": ["clause-sweep", "median-dp"],
        "F": ["dfs-prune", "flat-sweep"],
        "B": ["component-closed-form", "flat-sweep"],
        "Pn": ["order-dfs"],
    }
    # each engine is seen doing its own work, beyond the helpers
    for routes in called.values():
        assert all(names - HELPERS for names in routes.values())
    assert "census._star_states" in called["F"]["dfs-prune"]
    assert "census._obtf_sweep" in called["F"]["flat-sweep"]
    assert "census._bb_sweep" in called["B"]["flat-sweep"]
    # the flat sweeps count on masks, with nothing of the graph module
    assert not any(name.startswith("cgraph.")
                   for q in "FB" for name in called[q]["flat-sweep"])


@pytest.mark.parametrize("quantity", ["G", "H", "F", "B"])
def test_engines_share_only_helpers_and_named_exceptions(called, quantity):
    allowed = HELPERS | EXCEPTIONS.get(quantity, set())
    assert {pair: common - allowed
            for pair, common in shared(called[quantity]).items()
            if common - allowed} == {}


def test_named_exceptions_are_still_shared(called):
    # an exception no pair needs any more is dropped, so the list stays true
    for quantity, names in EXCEPTIONS.items():
        assert any(names <= common for common in shared(called[quantity]).values())


@pytest.mark.parametrize("row", sorted(IDENTITY_ROWS))
def test_identity_rows_share_only_helpers(called, row):
    (q1, m1), (q2, m2) = IDENTITY_ROWS[row]
    first, second = called[q1][m1], called[q2][m2]
    # each side is seen doing its own work, beyond the helpers
    assert first - HELPERS and second - HELPERS
    assert (first & second) - HELPERS == set()
