"""Seeded colored-graph inputs for the `analyze` workload.

One graph on 7 vertices for each edge count 12..16.  Even positions are
colored from a random vertex bipartition (blue edges cross it, red edges
stay inside), so they are blue-bipartite and carry posets; odd positions
are colored at random and are mostly frustrated.  The generator knows
nothing of obtf: it only writes the documented text format.
"""

from __future__ import annotations

import random

VERTICES = 7
EDGE_COUNTS = (12, 13, 14, 15, 16)
DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # reserved for confirming a claimed gain on unseen inputs


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


def graph_text(seed: int, edges: int, bipartite: bool) -> str:
    rng = random.Random(f"analyze:{seed}:{edges}")
    chosen = sorted(rng.sample(_pairs(VERTICES), edges), key=lambda p: (p[1], p[0]))
    if bipartite:
        side = [rng.randrange(2) for _ in range(VERTICES + 1)]
        colors = ["B" if side[u] != side[v] else "R" for u, v in chosen]
    else:
        colors = [rng.choice("RB") for _ in chosen]
    lines = [f"n {VERTICES}"] + [f"{u} {v} {c}" for (u, v), c in zip(chosen, colors)]
    return "\n".join(lines) + "\n"


def make_graphs(seed: int) -> list[tuple[str, str]]:
    """(file name, file text) per graph, in edge-count order."""
    return [(f"g{m}.txt", graph_text(seed, m, bipartite=(i % 2 == 0)))
            for i, m in enumerate(EDGE_COUNTS)]
