"""Arithmetic-progression hypergraphs over Z/NZ.

For prime N and 3 <= k <= N, the full k-AP hypergraph has one edge per
unordered proper k-term progression: ordered starts (a, b) with b != 0 pair
up with their reversals (a + (k-1)b, -b), giving N(N-1)/2 edges as a
multiset (edges whose vertex sets coincide stay as parallel edges, so twice
the polynomial of the hypergraph equals the ordered progression count).
"""

import math

import numpy as np

from . import _kernels, mc
from .hypergraph import Hypergraph

__all__ = [
    "progressions",
    "ap_hypergraph",
    "fixed_difference_hypergraph",
    "ordered_ap_count",
    "pair_incidence_profile",
    "two_transitivity_check",
    "gradient_hypergraphs",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def progressions(N: int, k: int, diffs) -> np.ndarray:
    """The k-term progressions of Z/NZ with difference in ``diffs``: rows
    (x + t*d) mod N for t = 0..k-1, ordered by d (as given), then by x."""
    d = np.asarray(diffs, dtype=np.int64).reshape(-1, 1, 1)
    return ((np.arange(N)[:, None] + d * np.arange(k)) % N).reshape(-1, k)


def ap_hypergraph(N: int, k: int) -> Hypergraph:
    """Unordered proper k-AP hypergraph on Z/NZ; exact for prime N, k <= N.

    N is an odd prime, so of a progression (a, b) and its reversal
    (a + (k-1)b, -b) exactly one has its difference in 1..(N-1)/2.
    """
    if not _is_prime(N):
        raise ValueError("N must be prime")
    if not 3 <= k <= N:
        raise ValueError("need 3 <= k <= N")
    return Hypergraph(N, progressions(N, k, range(1, (N - 1) // 2 + 1)).tolist())


def fixed_difference_hypergraph(N: int, k: int, y: int) -> Hypergraph:
    """The N progressions {x, x+y, ..., x+(k-1)y}, one per starting point."""
    y %= N
    if y == 0:
        raise ValueError("difference y must be nonzero")
    if not _is_prime(N):
        raise ValueError("N must be prime")
    if not 2 <= k <= N:
        raise ValueError("need 2 <= k <= N")
    return Hypergraph(N, progressions(N, k, [y]).tolist())


def ordered_ap_count(bits, k: int):
    """Ordered count: pairs (a, b), b != 0, with the whole progression
    a, a+b, ..., a+(k-1)b inside the support of ``bits``.

    A 1-D ``bits`` gives an int; a 2-D ``(rows, N)`` array gives one count
    per row.  The N(N-1) ordered progressions are built once as edges.
    """
    bits = np.asarray(bits)
    rows = bits.reshape(-1, bits.shape[-1])
    N = rows.shape[1]
    counts = _kernels.contained_edges_batch(rows, progressions(N, k, range(1, N)))
    return int(counts[0]) if bits.ndim == 1 else counts


def pair_incidence_profile(h: Hypergraph):
    """Edge counts per unordered vertex pair: (max count, dict of counts)."""
    table = {}
    for e in h.edges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                key = (e[i], e[j])
                table[key] = table.get(key, 0) + 1
    return (max(table.values()) if table else 0), table


def two_transitivity_check(h: Hypergraph, trials: int, seed: int) -> bool:
    """Random affine maps of Z/NZ (N = h.n, prime) sending one vertex pair
    to another must map the edges of the uniform hypergraph h to edges.
    Returns True iff all trials pass.

    Each trial maps the whole edge array, sorts the mapped rows and looks
    them up among the sorted edge rows, compared as whole-row byte strings.
    """
    N = h.n
    if not _is_prime(N):
        raise ValueError("N must be prime")
    edges = np.array(h.edges, dtype=np.int64)  # rows already sorted
    row = np.dtype((np.void, edges.itemsize * edges.shape[1]))
    edge_rows = np.sort(edges.view(row).ravel())
    gen = mc.stream(seed, 0)
    for _ in range(trials):
        a, b = (int(v) for v in gen.choice(N, size=2, replace=False))
        c, d = (int(v) for v in gen.choice(N, size=2, replace=False))
        scale = ((d - c) * pow(b - a, -1, N)) % N  # so a -> c and b -> d
        mapped = np.sort((c + scale * (edges - a)) % N, axis=1).view(row).ravel()
        at = np.minimum(np.searchsorted(edge_rows, mapped), len(edge_rows) - 1)
        if not (edge_rows[at] == mapped).all():
            return False
    return True


def gradient_hypergraphs(h: Hypergraph):
    """The n derived hypergraphs: H_i drops vertex i from each edge containing it.

    The polynomial of H_i is the i-th partial derivative of the polynomial
    of H (H uniform), and the degree of H_i is at most the maximum pair
    incidence of H.
    """
    if not h.is_uniform():
        raise ValueError("hypergraph must be uniform")
    if h.max_edge_size == 1:
        raise ValueError("the partials of a 1-uniform polynomial are constants, "
                         "which no hypergraph polynomial represents")
    edge_lists = [[] for _ in range(h.n)]
    for e in h.edges:
        for i in e:
            edge_lists[i].append(tuple(v for v in e if v != i))
    return [Hypergraph(h.n, edges) for edges in edge_lists]
