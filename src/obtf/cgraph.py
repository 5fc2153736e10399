"""Red/blue edge-colored graphs on labelled vertices.

Covers the graph side of the toolkit: odd-blue-triangle freeness,
blue-bipartitions (balance of the associated signed graph), the minimum
vertex/edge deletions to reach blue-bipartiteness, triangle components,
the literal-level double cover, and the exact set of literal posets whose
cover structure matches a given graph.

Vertices are labelled 1..n.  Edges are unordered (u, v) pairs stored with
u < v; the fixed global edge order is colex: (1,2), (1,3), (2,3), (1,4), ...
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import litposet
from .boolfn import ParseError
from .litposet import CoverGraph, LiteralPoset, ResourceGuardError

__all__ = [
    "Bipartition",
    "ColoredGraph",
    "TriangleComponents",
    "KAPPA_GUARD",
    "EDGE_SWEEP_GUARD",
    "bipartition_sweep",
    "check_closed_walks",
    "double_cover",
    "enumerate_colored_graphs",
    "eta",
    "find_blue_bipartition",
    "find_odd_nonsimple_walk",
    "format_colored_graph",
    "gamma",
    "graph_of_poset",
    "is_obtf",
    "is_triangle_connected",
    "kappa",
    "pairs_colex",
    "parse_colored_graph",
    "posets_of_graph",
    "triangle_components",
    "triangles",
]

KAPPA_GUARD = 12
EDGE_SWEEP_GUARD = 20
_BIPARTITION_SWEEP_GUARD = 6


def pairs_colex(n: int) -> list[tuple[int, int]]:
    """All vertex pairs in colex order; fixes DFS branch order and checksums."""
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


@dataclass(frozen=True)
class ColoredGraph:
    """Edge-colored graph; each present edge is red or blue, never both."""

    n: int
    red: frozenset[tuple[int, int]]
    blue: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        for es in (self.red, self.blue):
            for u, v in es:
                if not 1 <= u < v <= self.n:
                    raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
        if self.red & self.blue:
            raise ValueError("an edge cannot be both red and blue")

    @classmethod
    def of(cls, n: int, red=(), blue=()) -> "ColoredGraph":
        norm = lambda es: frozenset((min(u, v), max(u, v)) for u, v in es)
        return cls(n, norm(red), norm(blue))

    def edges(self) -> list[tuple[int, int, str]]:
        """(u, v, color) triples in colex order."""
        out = [(u, v, "R") for u, v in self.red]
        out += [(u, v, "B") for u, v in self.blue]
        out.sort(key=lambda e: (e[1], e[0]))
        return out

    def edge_count(self) -> int:
        return len(self.red) + len(self.blue)

    def color_of(self, u: int, v: int) -> Optional[str]:
        e = (min(u, v), max(u, v))
        if e in self.red:
            return "R"
        if e in self.blue:
            return "B"
        return None

    def without_vertices(self, drop) -> "ColoredGraph":
        """Drop all edges meeting the given vertices; labels are kept, so
        the dropped vertices remain as isolated points (irrelevant for
        every property computed here)."""
        ds = set(drop)
        keep = lambda es: frozenset(e for e in es if e[0] not in ds and e[1] not in ds)
        return ColoredGraph(self.n, keep(self.red), keep(self.blue))

    def without_edges(self, drop) -> "ColoredGraph":
        ds = {(min(u, v), max(u, v)) for u, v in drop}
        return ColoredGraph(self.n, self.red - ds, self.blue - ds)


@dataclass(frozen=True)
class Bipartition:
    """Witness of blue-bipartiteness: every blue edge crosses the two
    sides, every red edge stays inside one."""

    n: int
    w_side: frozenset[int]

    def side(self, v: int) -> str:
        return "W" if v in self.w_side else "U"

    def as_dict(self) -> dict[int, str]:
        return {v: self.side(v) for v in range(1, self.n + 1)}


@dataclass(frozen=True)
class TriangleComponents:
    """Partition of the edge set under chaining through shared triangles."""

    classes: tuple[frozenset[tuple[int, int]], ...]


def enumerate_colored_graphs(n: int) -> Iterator[ColoredGraph]:
    """All 3^C(n,2) colored graphs, in the fixed colex/state order
    (absent, red, blue per pair)."""
    pairs = pairs_colex(n)
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        red = frozenset(p for p, s in zip(pairs, states) if s == 1)
        blue = frozenset(p for p, s in zip(pairs, states) if s == 2)
        yield ColoredGraph(n, red, blue)


def triangles(g: ColoredGraph) -> list[tuple[int, int, int]]:
    """Vertex triples a < b < c whose three edges are all present."""
    present = g.red | g.blue
    out = []
    for a, b, c in itertools.combinations(range(1, g.n + 1), 3):
        if (a, b) in present and (a, c) in present and (b, c) in present:
            out.append((a, b, c))
    return out


def is_obtf(g: ColoredGraph) -> bool:
    """No triangle with an odd number of blue edges."""
    blue = g.blue
    for a, b, c in triangles(g):
        parity = ((a, b) in blue) + ((a, c) in blue) + ((b, c) in blue)
        if parity % 2:
            return False
    return True


def _adjacency(g: ColoredGraph) -> list[list[tuple[int, bool]]]:
    """adj[v] = sorted (neighbor, is_blue) pairs; index 0 unused."""
    adj: list[list[tuple[int, bool]]] = [[] for _ in range(g.n + 1)]
    for u, v in g.red:
        adj[u].append((v, False))
        adj[v].append((u, False))
    for u, v in g.blue:
        adj[u].append((v, True))
        adj[v].append((u, True))
    for row in adj:
        row.sort()
    return adj


def find_blue_bipartition(g: ColoredGraph) -> Optional[Bipartition]:
    """Linear-time propagation: blue forces opposite sides, red the same.

    Component roots (taken in ascending vertex order) go to side U, so the
    witness is canonical.  Returns None when some constraint cycle is
    frustrated.
    """
    adj = _adjacency(g)
    side = [None] * (g.n + 1)
    for root in range(1, g.n + 1):
        if side[root] is not None:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w, is_blue in adj[v]:
                want = side[v] ^ 1 if is_blue else side[v]
                if side[w] is None:
                    side[w] = want
                    queue.append(w)
                elif side[w] != want:
                    return None
    return Bipartition(g.n, frozenset(v for v in range(1, g.n + 1) if side[v] == 1))


def bipartition_sweep(g: ColoredGraph) -> Optional[Bipartition]:
    """Brute-force witness search over all 2^n side assignments; retained
    as the independent oracle for the propagation routine."""
    if g.n > _BIPARTITION_SWEEP_GUARD:
        raise ResourceGuardError(
            f"bipartition sweep capped at n <= {_BIPARTITION_SWEEP_GUARD}, got {g.n}")
    for mask in range(1 << g.n):
        ok = True
        for u, v in g.blue:
            if ((mask >> (u - 1)) & 1) == ((mask >> (v - 1)) & 1):
                ok = False
                break
        if ok:
            for u, v in g.red:
                if ((mask >> (u - 1)) & 1) != ((mask >> (v - 1)) & 1):
                    ok = False
                    break
        if ok:
            return Bipartition(g.n, frozenset(v for v in range(1, g.n + 1)
                                              if (mask >> (v - 1)) & 1))
    return None


def is_valid_bipartition(g: ColoredGraph, bp: Bipartition) -> bool:
    ws = bp.w_side
    return all(((u in ws) != (v in ws)) for u, v in g.blue) and \
        all(((u in ws) == (v in ws)) for u, v in g.red)


def kappa(g: ColoredGraph) -> tuple[int, tuple[int, ...]]:
    """Minimum number of vertices whose removal leaves the graph
    blue-bipartite, with one minimizing set (first in subset order)."""
    if g.n > KAPPA_GUARD:
        raise ResourceGuardError(f"vertex-deletion search capped at n <= {KAPPA_GUARD}, got {g.n}")
    for k in range(g.n + 1):
        for drop in itertools.combinations(range(1, g.n + 1), k):
            if find_blue_bipartition(g.without_vertices(drop)) is not None:
                return k, drop
    raise AssertionError("unreachable: deleting every vertex always succeeds")


def gamma(g: ColoredGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Minimum number of edges whose removal leaves the graph
    blue-bipartite (the frustration index of the signed graph), with one
    minimizing edge set."""
    m = g.edge_count()
    if m > EDGE_SWEEP_GUARD:
        raise ResourceGuardError(f"edge-deletion search capped at |E| <= {EDGE_SWEEP_GUARD}, got {m}")
    all_edges = [(u, v) for u, v, _ in g.edges()]
    for k in range(m + 1):
        for drop in itertools.combinations(all_edges, k):
            if find_blue_bipartition(g.without_edges(drop)) is not None:
                return k, drop
    raise AssertionError("unreachable: deleting every edge always succeeds")


def triangle_components(g: ColoredGraph) -> TriangleComponents:
    """Equivalence classes of edges under membership in a chain of
    triangles consecutively sharing an edge; triangle-free edges form
    singleton classes."""
    edge_list = [(u, v) for u, v, _ in g.edges()]
    index = {e: i for i, e in enumerate(edge_list)}
    parent = list(range(len(edge_list)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for a, b, c in triangles(g):
        e1, e2, e3 = index[(a, b)], index[(a, c)], index[(b, c)]
        union(e1, e2)
        union(e1, e3)
    groups: dict[int, set] = {}
    for e, i in index.items():
        groups.setdefault(find(i), set()).add(e)
    classes = sorted((frozenset(s) for s in groups.values()), key=lambda s: sorted(s))
    return TriangleComponents(tuple(classes))


def eta(g: ColoredGraph) -> int:
    return len(triangle_components(g).classes)


def is_triangle_connected(g: ColoredGraph) -> bool:
    """At most one triangle component.  The edgeless graph (zero classes)
    counts as triangle-connected."""
    return eta(g) <= 1


def graph_of_poset(p: LiteralPoset) -> ColoredGraph:
    """The colored graph of a family poset: covers between same-polarity
    literals become blue edges, mixed-polarity covers red ones.

    Raises if a vertex pair would need both colors or if the result has an
    odd-blue triangle; both are impossible for family members, so either
    signals a bug.
    """
    covers = litposet.cover_relations(p)
    color: dict[tuple[int, int], str] = {}
    for u, v in covers.edges:
        i, j = u // 2 + 1, v // 2 + 1
        want = "B" if (u % 2) == (v % 2) else "R"
        key = (min(i, j), max(i, j))
        if color.get(key, want) != want:
            raise AssertionError(f"vertex pair {key} demands both red and blue")
        color[key] = want
    g = ColoredGraph(
        p.n,
        frozenset(e for e, c in color.items() if c == "R"),
        frozenset(e for e, c in color.items() if c == "B"),
    )
    if not is_obtf(g):
        raise AssertionError("graph of a family poset must be odd-blue-triangle-free")
    return g


def double_cover(g: ColoredGraph) -> CoverGraph:
    """Lift to the 2n literals: a blue edge joins same-polarity pairs, a
    red edge mixed-polarity pairs; edge count doubles."""
    edges = set()
    for u, v in g.blue:
        pu, pv = 2 * (u - 1), 2 * (v - 1)
        edges.add((pu, pv))
        edges.add((pu + 1, pv + 1))
    for u, v in g.red:
        pu, pv = 2 * (u - 1), 2 * (v - 1)
        edges.add((min(pu, pv + 1), max(pu, pv + 1)))
        edges.add((min(pu + 1, pv), max(pu + 1, pv)))
    return CoverGraph(g.n, frozenset(edges))


def _orientation_seeds(g: ColoredGraph) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """Per edge, the two directed seed-pair options.

    Orienting one lifted edge forces its negation-symmetric partner, so
    each option carries both directed relations.
    """
    seeds = []
    for u, v, color in g.edges():
        pu, pv = 2 * (u - 1), 2 * (v - 1)
        if color == "B":
            a, b = pu, pv            # x_u -- x_v  and  !x_u -- !x_v
            a2, b2 = pu + 1, pv + 1
        else:
            a, b = pu, pv + 1        # x_u -- !x_v  and  !x_u -- x_v
            a2, b2 = pu + 1, pv
        forward = ((a, b), (b2, a2))   # a < b forces not-b < not-a
        backward = ((b, a), (a2, b2))
        seeds.append((forward, backward))
    return seeds


def posets_of_graph(g: ColoredGraph) -> list[LiteralPoset]:
    """Exactly the family posets whose colored graph is g.

    Depth-first search over the lifted edges in `_orientation_seeds`
    order: each level orients one edge (forward first, then backward),
    adding its two negation-dual relations to a transitively closed
    relation kept up to date together with its predecessor rows.  A
    branch is pruned as soon as
      - the new relation a < b, or its reverse, is already in the
        closure: either a cycle forms, or a < b is implied and cannot be
        a cover;
      - some literal becomes comparable to its own negation;
      - a relation seeded earlier stops being a cover (something now
        lies strictly between its ends).
    Adding relations only ever makes these events true, never false, so
    every pruned branch holds no member, and a branch that orients every
    edge is a member whose cover pairs are exactly the lifted edge set.
    """
    m = g.edge_count()
    if m > EDGE_SWEEP_GUARD:
        raise ResourceGuardError(f"orientation sweep capped at |E| <= {EDGE_SWEEP_GUARD}, got {m}")
    size = 2 * g.n
    pos = sum(1 << u for u in range(0, size, 2))   # the positive literals
    seeds = _orientation_seeds(g)
    rows = [0] * size      # rows[u]: literals above u
    preds = [0] * size     # preds[v]: literals below v
    chosen: list[tuple[int, int]] = []
    found = []

    def add(a: int, b: int) -> bool:
        """Close under a < b; False if the branch must be pruned."""
        if (rows[a] >> b) & 1 or (rows[b] >> a) & 1:
            return False
        below = preds[a] | (1 << a)
        above = rows[b] | (1 << b)
        negated = ((below & pos) << 1) | ((below >> 1) & pos)
        if negated & above:
            return False        # some u <= a has not-u >= b
        bits = below
        while bits:
            low = bits & -bits
            rows[low.bit_length() - 1] |= above
            bits ^= low
        bits = above
        while bits:
            low = bits & -bits
            preds[low.bit_length() - 1] |= below
            bits ^= low
        chosen.append((a, b))
        return True

    def extend(k: int) -> None:
        if k == m:
            found.append(LiteralPoset(g.n, tuple(rows)))
            return
        saved_rows, saved_preds, depth = rows[:], preds[:], len(chosen)
        for (a, b), (a2, b2) in seeds[k]:
            if add(a, b) and add(a2, b2):
                for x, y in chosen:
                    if rows[x] & preds[y]:
                        break
                else:
                    extend(k + 1)
            rows[:] = saved_rows
            preds[:] = saved_preds
            del chosen[depth:]

    extend(0)
    found.sort(key=lambda p: p.rows)
    for p in found:
        if not litposet.is_pn_member(p):
            raise AssertionError("orientation sweep produced a non-member")
    return found


def find_odd_nonsimple_walk(g: ColoredGraph, max_len: int = 5):
    """A non-simple closed walk of length <= max_len with an odd number of
    blue traversals, or None.

    Walks are enumerated up to rotation by starting each at its minimum
    vertex; blue parity and non-simplicity are rotation-invariant.
    """
    adj = _adjacency(g)
    for start in range(1, g.n + 1):
        path = [start]

        def extend(v: int, parity: int):
            depth = len(path) - 1
            if depth >= 2 and v == start and parity & 1:
                period = path[:-1]
                es = [frozenset((path[i], path[i + 1])) for i in range(depth)]
                if len(set(period)) < len(period) or len(set(es)) < len(es):
                    return list(path)
            if depth == max_len:
                return None
            for w, is_blue in adj[v]:
                if w < start:
                    continue
                path.append(w)
                hit = extend(w, parity + is_blue)
                path.pop()
                if hit is not None:
                    return hit
            return None

        hit = extend(start, 0)
        if hit is not None:
            return hit
    return None


def check_closed_walks(g: ColoredGraph, max_len: int = 5) -> bool:
    """Every non-simple closed walk of length <= max_len has even blue
    count.  Only defined for OBTF input; a False result would contradict
    the structural claim this checks and should be reported, not hidden."""
    if not is_obtf(g):
        raise ValueError("closed-walk check requires an odd-blue-triangle-free graph")
    return find_odd_nonsimple_walk(g, max_len) is None


def parse_colored_graph(text: str) -> ColoredGraph:
    """Colored-graph text format: `n <int>`, then `u v R|B` per edge with
    1-based vertex ids; `#` starts a comment."""
    n = None
    red, blue = set(), set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise ParseError(line_no, "expected header 'n <int>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {fields[1]!r}") from None
            if n < 0:
                raise ParseError(line_no, "vertex count must be >= 0")
            continue
        if len(fields) != 3:
            raise ParseError(line_no, "expected 'u v R|B'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(line_no, "expected integer vertex ids") from None
        color = fields[2].upper()
        if color not in ("R", "B"):
            raise ParseError(line_no, f"color must be R or B, got {fields[2]!r}")
        if u == v:
            raise ParseError(line_no, "self-loops are not allowed")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(line_no, f"vertex out of range for n={n}")
        e = (min(u, v), max(u, v))
        other = blue if color == "R" else red
        if e in other:
            raise ParseError(line_no, f"edge {e} already has the other color")
        (red if color == "R" else blue).add(e)
    if n is None:
        raise ParseError(1, "missing header 'n <int>'")
    return ColoredGraph(n, frozenset(red), frozenset(blue))


def format_colored_graph(g: ColoredGraph) -> str:
    lines = [f"n {g.n}"]
    for u, v, color in g.edges():
        lines.append(f"{u} {v} {color}")
    return "\n".join(lines) + "\n"
