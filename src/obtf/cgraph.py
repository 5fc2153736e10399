"""Red/blue edge-colored graphs on labelled vertices.

Covers the graph side of the toolkit: odd-blue-triangle freeness,
blue-bipartitions (balance of the associated signed graph), the minimum
vertex/edge deletions to reach blue-bipartiteness, triangle components,
the literal-level double cover, and the exact set of literal posets whose
cover structure matches a given graph, graph by graph the poset family.
A poset is its closure rows, as in litposet; posets_of_graph finds them
with litposet.cover_orders, shared with census, and checks each one.

Vertices are labelled 1..n.  Edges are unordered (u, v) pairs stored with
u < v; the fixed global edge order is colex: (1,2), (1,3), (2,3), (1,4), ...
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterator, Optional

from . import litposet
from .boolfn import ParseError, bits, colex_pairs, orbits, parse_lines, vertex_generators
from .litposet import P_N_GUARD, ResourceGuardError

__all__ = [
    "ColoredGraph",
    "KAPPA_GUARD",
    "EDGE_GUARD",
    "EDGE_SWEEP_GUARD",
    "VERTEX_GUARD",
    "bipartition_sweep",
    "double_cover",
    "enumerate_colored_graphs",
    "enumerate_pn",
    "eta",
    "find_blue_bipartition",
    "find_odd_nonsimple_walk",
    "format_colored_graph",
    "gamma",
    "graph_of_covers",
    "graph_of_poset",
    "is_obtf",
    "kappa",
    "pairs_colex",
    "parse_colored_graph",
    "posets_of_graph",
    "triangles",
    "weighted_colored_graphs",
]

KAPPA_GUARD = 12
EDGE_SWEEP_GUARD = 20
VERTEX_GUARD = 1000
EDGE_GUARD = 20_000
_BIPARTITION_SWEEP_GUARD = 6


def pairs_colex(n: int) -> list[tuple[int, int]]:
    """All vertex pairs in colex order, boolfn.colex_pairs on vertices
    1..n; fixes DFS branch order and checksums."""
    return [(a + 1, b + 1) for a, b in colex_pairs(n)]


class ColoredGraph(namedtuple("ColoredGraph", "n red blue")):
    """Edge-colored graph; each present edge is red or blue, never both.
    n is the vertex count, red and blue frozensets of (u, v) pairs with
    u < v.  Immutable, compared and hashed by value, so graphs can key a
    memo."""

    __slots__ = ()

    def __new__(cls, n: int, red: frozenset[tuple[int, int]],
                blue: frozenset[tuple[int, int]]) -> "ColoredGraph":
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        for es in (red, blue):
            for u, v in es:
                if not 1 <= u < v <= n:
                    raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        if red & blue:
            raise ValueError("an edge cannot be both red and blue")
        return super().__new__(cls, n, red, blue)

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


def enumerate_colored_graphs(n: int) -> Iterator[ColoredGraph]:
    """All 3^C(n,2) colored graphs, in the fixed colex/state order
    (absent, red, blue per pair)."""
    pairs = pairs_colex(n)
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        red = frozenset(p for p, s in zip(pairs, states) if s == 1)
        blue = frozenset(p for p, s in zip(pairs, states) if s == 2)
        yield ColoredGraph(n, red, blue)


def weighted_colored_graphs(n: int) -> Iterator[tuple[ColoredGraph, int]]:
    """(graph, weight) pairs: one colouring per switching class of one
    graph per orbit of the uncoloured graphs on n vertices under
    relabelling, 24 at n = 4 and 220 at n = 5.  Each orbit is met at its
    smallest edge mask over pairs_colex(n); a spanning forest, taken
    greedily in that order, stays red, and the other edges take every
    colouring in enumerate_colored_graphs' state order.  The weight is
    the orbit's size times 2^(n - c), c the components, isolated vertices
    too: a switching class holds 2^(n - c) colourings, one with the
    forest red, so a sum over all 3^C(n,2) coloured graphs of anything
    relabelling and switching keep is the sum of weight times value."""
    pairs = pairs_colex(n)
    for orbit in orbits(range(1 << len(pairs)), vertex_generators(n)):
        edges = [pairs[k] for k in bits(orbit[0])]
        reach = [1 << v for v in range(n + 1)]    # each vertex's component
        free = []
        for u, v in edges:
            if reach[u] >> v & 1:
                free.append((u, v))
            else:
                joined = reach[u] | reach[v]
                for w in bits(joined):
                    reach[w] = joined
        weight = len(orbit) << (len(edges) - len(free))    # a forest has n - c edges
        for colours in itertools.product((False, True), repeat=len(free)):
            blue = frozenset(e for e, is_blue in zip(free, colours) if is_blue)
            yield ColoredGraph(n, frozenset(edges) - blue, blue), weight


def triangles(g: ColoredGraph) -> list[tuple[int, int, int]]:
    """Vertex triples a < b < c whose three edges are all present, in
    lexicographic order: each edge (a, b), in sorted order, with the
    common neighbours c > b of a and b from their neighbour bitmasks, so
    the walk follows the edges, not the vertex triples."""
    present = sorted(g.red | g.blue)
    nbr = [0] * (g.n + 1)
    for u, v in present:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    out = []
    for a, b in present:
        common = nbr[a] & nbr[b] >> (b + 1) << (b + 1)
        while common:
            c = common & -common
            out.append((a, b, c.bit_length() - 1))
            common ^= c
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


def find_blue_bipartition(g: ColoredGraph) -> Optional[frozenset[int]]:
    """Linear-time propagation: blue forces opposite sides, red the same.

    The witness is the side W, as a vertex set: every blue edge crosses
    between W and the other side U, every red edge stays inside one.
    Component roots (taken in ascending vertex order) stay out of W, so
    the witness is canonical.  Returns None when some constraint cycle is
    frustrated; an empty W is still a witness.
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
    return frozenset(v for v in range(1, g.n + 1) if side[v] == 1)


def bipartition_sweep(g: ColoredGraph) -> Optional[frozenset[int]]:
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
            return frozenset(v for v in range(1, g.n + 1) if (mask >> (v - 1)) & 1)
    return None


def is_valid_bipartition(g: ColoredGraph, w: frozenset[int]) -> bool:
    """Every blue edge has one end in w, every red edge both or none."""
    return all(((u in w) != (v in w)) for u, v in g.blue) and \
        all(((u in w) == (v in w)) for u, v in g.red)


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
    minimizing edge set: of all minimum sets, the first in subset order
    of the colex edge indices (the first an edge-subset sweep reaches).

    By Harary's balance theorem, deleting D leaves the graph
    blue-bipartite iff some 2-colouring of the vertices violates only
    edges of D (a violated edge is a blue one inside a side or a red one
    across), so the minimum sets are the violated sets of the optimal
    colourings.  Edges at a degree-1 vertex are stripped first, again
    and again: flipping that vertex's side satisfies its edge, so no
    minimum set holds one, and the remaining core has at most |E|
    vertices.  The first core vertex keeps its side (flipping every side
    changes nothing) and a Gray-code sweep flips one other vertex per
    colouring.
    """
    m = g.edge_count()
    if m > EDGE_SWEEP_GUARD:
        raise ResourceGuardError(f"edge-deletion search capped at |E| <= {EDGE_SWEEP_GUARD}, got {m}")
    edges = g.edges()
    # colex edge i is bit m-1-i, so among equal-size sets the largest
    # mask is the first in subset order
    incident = [0] * (g.n + 1)
    blue = 0
    for i, (u, v, color) in enumerate(edges):
        bit = 1 << (m - 1 - i)
        incident[u] |= bit
        incident[v] |= bit
        if color == "B":
            blue |= bit
    live = (1 << m) - 1
    stripped = True
    while stripped:
        stripped = False
        for v in range(1, g.n + 1):
            if (incident[v] & live).bit_count() == 1:
                live &= ~incident[v]
                stripped = True
    flips = [incident[v] & live for v in range(1, g.n + 1) if incident[v] & live][1:]
    violated = best = blue & live       # every core vertex on one side
    size = best.bit_count()
    for step in range(1, 1 << len(flips)):
        violated ^= flips[(step & -step).bit_length() - 1]
        k = violated.bit_count()
        if k < size or (k == size and violated > best):
            best, size = violated, k
    drop = tuple((u, v) for i, (u, v, _) in enumerate(edges) if (best >> (m - 1 - i)) & 1)
    return len(drop), drop


def eta(g: ColoredGraph) -> int:
    """The number of triangle components: classes of edges under
    membership in a chain of triangles consecutively sharing an edge,
    counted by union-find over the edges of each triangle.  A
    triangle-free edge is a class of its own, and the edgeless graph has
    0 classes."""
    parent = {e: e for e in g.red | g.blue}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    classes = len(parent)
    for a, b, c in triangles(g):
        root = find((a, b))
        for e in ((a, c), (b, c)):
            other = find(e)
            if other != root:
                parent[other] = root
                classes -= 1
    return classes


def graph_of_poset(rows: tuple[int, ...]) -> ColoredGraph:
    """The colored graph of a family poset: graph_of_covers of its covers."""
    return graph_of_covers(len(rows) // 2, litposet.cover_pairs(rows))


def graph_of_covers(n: int, covers: frozenset[tuple[int, int]]) -> ColoredGraph:
    """The colored graph of a family poset's covering pairs of literal
    indices on n variables: same-polarity covers become blue edges,
    mixed-polarity ones red edges.  A cover within one variable makes a
    loop, which ColoredGraph refuses with ValueError.

    Raises if a vertex pair would need both colors or if the result has an
    odd-blue triangle; both are impossible for family members, so either
    signals a bug.
    """
    color: dict[tuple[int, int], str] = {}
    for u, v in covers:
        i, j = u // 2 + 1, v // 2 + 1
        want = "B" if (u % 2) == (v % 2) else "R"
        key = (min(i, j), max(i, j))
        if color.get(key, want) != want:
            raise AssertionError(f"vertex pair {key} demands both red and blue")
        color[key] = want
    g = ColoredGraph(
        n,
        frozenset(e for e, c in color.items() if c == "R"),
        frozenset(e for e, c in color.items() if c == "B"),
    )
    if not is_obtf(g):
        raise AssertionError("graph of a family poset must be odd-blue-triangle-free")
    return g


def _lifted_edges(g: ColoredGraph) -> list[tuple[int, int]]:
    """Each edge's literal pair (a, b), in g.edges() order: a blue edge
    {u, v} lifts to x_u -- x_v, a red one to x_u -- not-x_v.  Its
    negation-symmetric partner is (a ^ 1, b ^ 1), and a < b in both."""
    return [(2 * (u - 1), 2 * (v - 1) + (color == "R")) for u, v, color in g.edges()]


def double_cover(g: ColoredGraph) -> frozenset[tuple[int, int]]:
    """Lift to the 2n literals: a blue edge joins same-polarity pairs, a
    red edge mixed-polarity pairs; edge count doubles.  The pairs are
    literal indices (a, b) with a < b, as cover_pairs writes them."""
    return frozenset(e for a, b in _lifted_edges(g) for e in ((a, b), (a ^ 1, b ^ 1)))


def posets_of_graph(g: ColoredGraph) -> list[tuple[int, ...]]:
    """Exactly the family posets whose colored graph is g, in row order:
    litposet.cover_orders on the 2n literals with the positive ones as
    pos, each edge's literal pair (a, b), in `_lifted_edges` order, taken
    as a < b or as b < a together with its negation dual.  The search's
    stream is sorted, then each poset is checked; a non-member raises
    AssertionError, since it signals a bug."""
    m = g.edge_count()
    if m > EDGE_SWEEP_GUARD:
        raise ResourceGuardError(f"orientation search capped at |E| <= {EDGE_SWEEP_GUARD}, got {m}")
    size = 2 * g.n
    pos = sum(1 << u for u in range(0, size, 2))   # the positive literals
    seeds = [(((a, b), (b ^ 1, a ^ 1)), ((b, a), (a ^ 1, b ^ 1))) for a, b in _lifted_edges(g)]
    found = sorted(litposet.cover_orders(size, seeds, pos))
    for poset in found:
        if not litposet.is_pn_member(poset):
            raise AssertionError("orientation search found a non-member")
    return found


def enumerate_pn(n: int) -> Iterator[tuple[int, ...]]:
    """All members of the poset family on n variables, each exactly once.

    Walks colored graphs in their fixed enumeration order and emits each
    graph's posets; the graph map partitions the family, so no
    deduplication is needed.  Graphs with an odd-blue triangle are skipped
    outright (they admit no poset; the all-graphs verification sweep
    re-checks that claim at small n on every run).
    """
    if n > P_N_GUARD:
        raise ResourceGuardError(f"poset enumeration capped at n <= {P_N_GUARD}, got {n}")
    for g in enumerate_colored_graphs(n):
        if is_obtf(g):
            yield from posets_of_graph(g)


def find_odd_nonsimple_walk(g: ColoredGraph):
    """A non-simple closed walk of length <= 5 with an odd number of blue
    traversals, or None.

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
            if depth == 5:
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


def parse_colored_graph(text: str) -> ColoredGraph:
    """Colored-graph text format: `n <int>`, then `u v R|B` per edge with
    1-based vertex ids; `#` starts a comment.  n is capped at
    VERTEX_GUARD, since analyze spends O(n) on even an edgeless graph, and
    the edge count m at EDGE_GUARD, since is_obtf and eta visit every
    triangle, of which there are at most (sqrt 2 / 3) m^(3/2)."""
    n, lines = parse_lines(text, "vertex")
    if n > VERTEX_GUARD:
        raise ResourceGuardError(f"colored graph capped at n <= {VERTEX_GUARD} vertices, got {n}")
    red, blue = set(), set()
    for line_no, fields in lines:
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
    m = len(red) + len(blue)
    if m > EDGE_GUARD:
        raise ResourceGuardError(f"colored graph capped at |E| <= {EDGE_GUARD} edges, got {m}")
    return ColoredGraph(n, frozenset(red), frozenset(blue))


def format_colored_graph(g: ColoredGraph) -> str:
    lines = [f"n {g.n}"]
    for u, v, color in g.edges():
        lines.append(f"{u} {v} {color}")
    return "\n".join(lines) + "\n"
