"""Hypergraphs with multiset edge lists.

Vertices are 0..n-1; an edge is a strictly increasing tuple of distinct
vertices and the edge list keeps insertion order (parallel edges allowed).
Provides degree queries, first-fit edge coloring into matchings, greedy
completion of a matching to a maximal one (the default matching, with the
default goodness threshold of maps against it), padding to a uniform edge
size without raising the maximum degree, and the closed-form width bound of
a polynomial map with hypergraph coordinates.
"""

import math
from collections import namedtuple

__all__ = [
    "Hypergraph",
    "EdgeColoring",
    "greedy_edge_coloring",
    "color_classes",
    "complete_to_maximal_matching",
    "default_matching",
    "default_goodness_bound",
    "width_bound",
    "homogenize",
    "save_hypergraph",
    "load_hypergraph",
]


class Hypergraph(namedtuple("Hypergraph", "n edges")):
    __slots__ = ()

    def __new__(cls, n, edges):
        if n < 1:
            raise ValueError("vertex count must be positive")
        canon = []
        for e in edges:
            e = tuple(sorted(e))
            if not e:
                raise ValueError("edges must be nonempty")
            if any(e[i] == e[i + 1] for i in range(len(e) - 1)):
                raise ValueError(f"edge {e} repeats a vertex")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"edge {e} has a vertex outside [0, {n})")
            canon.append(e)
        return super().__new__(cls, int(n), tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0) if self.edges else 0

    @property
    def max_edge_size(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    def edge_masks(self) -> list:
        """One int per edge (stored order), with bit v set for each vertex v."""
        return [sum(1 << v for v in e) for e in self.edges]

    def is_uniform(self, d=None) -> bool:
        if not self.edges:
            return True
        sizes = {len(e) for e in self.edges}
        if len(sizes) != 1:
            return False
        return d is None or sizes == {d}


class EdgeColoring(namedtuple("EdgeColoring", "colors num_colors")):
    """Color index per edge (parallel to Hypergraph.edges); proper, first-fit."""

    __slots__ = ()


def greedy_edge_coloring(h: Hypergraph) -> EdgeColoring:
    """First-fit proper edge coloring.

    Edges are processed in stored order and get the smallest color unused by
    any earlier intersecting edge, so at most d*(max_degree-1)+1 colors are
    spent for edges of size <= d.
    """
    colors = []
    used_by_vertex = [set() for _ in range(h.n)]
    for e in h.edges:
        taken = set()
        for v in e:
            taken |= used_by_vertex[v]
        c = 0
        while c in taken:
            c += 1
        colors.append(c)
        for v in e:
            used_by_vertex[v].add(c)
    num = 1 + max(colors) if colors else 0
    return EdgeColoring(tuple(colors), num)


def color_classes(h: Hypergraph, coloring: EdgeColoring) -> list:
    """Edges grouped by color, each group a matching (stored order kept)."""
    groups = [[] for _ in range(coloring.num_colors)]
    for e, c in zip(h.edges, coloring.colors):
        groups[c].append(e)
    return [tuple(g) for g in groups]


def complete_to_maximal_matching(m: Hypergraph, r: int) -> Hypergraph:
    """Extend a matching of 2r-sets to a maximal one.

    Vertices not covered by ``m`` are grouped in ascending order into blocks
    of 2r until fewer than 2r remain.  Original edges come first in the
    result, in their stored order.
    """
    if r < 1:
        raise ValueError("r must be positive")
    size = 2 * r
    if m.max_degree > 1:
        raise ValueError("input must be a matching")
    if any(len(e) != size for e in m.edges):
        raise ValueError(f"all edges must have size {size}")
    covered = {v for e in m.edges for v in e}
    free = [v for v in range(m.n) if v not in covered]
    edges = list(m.edges)
    for i in range(0, len(free) - size + 1, size):
        edges.append(tuple(free[i : i + size]))
    return Hypergraph(m.n, edges)


def default_matching(n: int, r: int) -> Hypergraph:
    """Greedy maximal matching of 2r-blocks on [n]."""
    return complete_to_maximal_matching(Hypergraph(n, ()), r)


def default_goodness_bound(r: int) -> int:
    """Default goodness threshold 200 * 4^r for maps against a 2r-matching."""
    return 200 * 4**r


def _check_goodness_args(r: int, n: int, s: int):
    """Raise ValueError unless r >= 1, n >= 2r and s >= 1; callers check m."""
    if r < 1:
        raise ValueError("r must be positive")
    if n < 2 * r:
        raise ValueError("n must be at least 2r")
    if s < 1:
        raise ValueError("s must be positive")


def width_bound(n: int, k: int, d: int, t: int) -> float:
    """The width bound n * t * sqrt(k * n^(1 - 1/ceil(d/2)) * log n).

    Constant factor one: consumers compare shapes and ratios, not levels.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 1 or d < 1 or t < 0:
        raise ValueError("need k >= 1, d >= 1, t >= 0")
    exponent = 1.0 - 1.0 / math.ceil(d / 2)
    return n * t * math.sqrt(k * n**exponent * math.log(n))


def homogenize(h: Hypergraph, d: int):
    """Pad every edge to size d with fresh vertices, preserving max degree.

    Returns ``(h2, pads)`` where h2 is d-uniform on d*n vertices (new
    vertices are n..d*n-1) and ``pads[i]`` is the tuple of padding vertices
    added to edge i.  The edge list is split into n consecutive groups of at
    most max_degree edges; group i pads from its own block of d-1 fresh
    vertices, so no vertex degree exceeds the original maximum.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if any(len(e) > d for e in h.edges):
        raise ValueError(f"an edge exceeds size {d}")
    n = h.n
    t = h.max_degree
    new_edges = []
    pads = []
    for idx, e in enumerate(h.edges):
        group = idx // t  # first-fit into n buckets of capacity t
        block_start = n + group * (d - 1)
        pad = tuple(range(block_start, block_start + d - len(e)))
        pads.append(pad)
        new_edges.append(e + pad)
    return Hypergraph(d * n, new_edges), tuple(pads)


def save_hypergraph(h: Hypergraph, path) -> None:
    """Text format: header "n m", then one space-separated edge per line."""
    with open(path, "w") as fh:
        fh.write(f"{h.n} {h.num_edges}\n")
        for e in h.edges:
            fh.write(" ".join(map(str, e)) + "\n")


def load_hypergraph(path) -> Hypergraph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("header must be 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            e = tuple(int(tok) for tok in line.split())
            if list(e) != sorted(set(e)):
                raise ValueError(f"edge {e} is not in canonical sorted form")
            edges.append(e)
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return Hypergraph(n, edges)
