"""Arithmetic-progression hypergraphs over Z/NZ.

For prime N and 3 <= k <= N, the full k-AP hypergraph has one edge per
unordered proper k-term progression: ordered starts (a, b) with b != 0 pair
up with their reversals (a + (k-1)b, -b), giving N(N-1)/2 edges as a
multiset (edges whose vertex sets coincide stay as parallel edges, so twice
the polynomial of the hypergraph equals the ordered progression count).

The module runs on Python ints and loads no numpy: a subset of Z/NZ is an
int mask with bit x set for each member x, and both structural checks
compare multisets of such masks exactly, with no sampling.
"""

import math
from collections import Counter

from .hypergraph import Hypergraph

__all__ = [
    "progressions",
    "ap_hypergraph",
    "fixed_difference_hypergraph",
    "pair_incidence_profile",
    "two_transitivity_check",
    "doubled_polynomial_check",
    "gradient_hypergraphs",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def progressions(N: int, k: int, diffs) -> list[list[int]]:
    """The k-term progressions of Z/NZ with difference in ``diffs``: rows
    (x + t*d) mod N for t = 0..k-1, ordered by d (as given), then by x."""
    return [[(x + t * d) % N for t in range(k)] for d in diffs for x in range(N)]


def ap_hypergraph(N: int, k: int) -> Hypergraph:
    """Unordered proper k-AP hypergraph on Z/NZ; exact for prime N, k <= N.

    N is an odd prime, so of a progression (a, b) and its reversal
    (a + (k-1)b, -b) exactly one has its difference in 1..(N-1)/2.
    """
    if not _is_prime(N):
        raise ValueError("N must be prime")
    if not 3 <= k <= N:
        raise ValueError("need 3 <= k <= N")
    return Hypergraph(N, progressions(N, k, range(1, (N - 1) // 2 + 1)))


def fixed_difference_hypergraph(N: int, k: int, y: int) -> Hypergraph:
    """The N progressions {x, x+y, ..., x+(k-1)y}, one per starting point."""
    y %= N
    if y == 0:
        raise ValueError("difference y must be nonzero")
    if not _is_prime(N):
        raise ValueError("N must be prime")
    if not 2 <= k <= N:
        raise ValueError("need 2 <= k <= N")
    return Hypergraph(N, progressions(N, k, [y]))


def pair_incidence_profile(h: Hypergraph):
    """Edge counts per unordered vertex pair: (max count, dict of counts)."""
    table = {}
    for e in h.edges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                key = (e[i], e[j])
                table[key] = table.get(key, 0) + 1
    return (max(table.values()) if table else 0), table


def two_transitivity_check(h: Hypergraph) -> bool:
    """Whether every affine map x -> s*x + t of Z/NZ (N = h.n prime, s != 0)
    maps the edge multiset of h onto itself, parallel edges counted.

    The maps that keep h form a subgroup of the affine group, which
    x -> x + 1 and x -> g*x for a primitive root g generate, so those two
    decide.  (The affine maps act sharply 2-transitively, hence the name.)
    """
    N = h.n
    if not _is_prime(N):
        raise ValueError("N must be prime")
    factors = [p for p in range(2, N) if (N - 1) % p == 0 and _is_prime(p)]
    g = next(g for g in range(1, N) if all(pow(g, (N - 1) // p, N) != 1 for p in factors))
    masks = h.edge_masks()
    counts = Counter(masks)
    # a bijection keeps the multiset iff each edge has as many copies as its image
    return all(
        counts[sum(1 << (s * x + t) % N for x in e)] == counts[m]
        for s, t in ((1, 1), (g, 0))
        for m, e in zip(masks, h.edges)
    )


def doubled_polynomial_check(h: Hypergraph, k: int) -> bool:
    """Whether twice the polynomial of h equals the ordered k-progression
    count of Z/NZ (N = h.n) on every subset.

    Both are multilinear, so they agree iff their coefficients do: the masks
    of the N(N-1) ordered progressions (a, b), b != 0, built here from (a, b)
    rather than by ``progressions``, must be twice the edge-mask multiset.
    """
    N = h.n
    counts = Counter(h.edge_masks())
    excess = counts + counts  # less each ordered mask, it must end all zero
    full = (1 << N) - 1
    for b in range(1, N):
        start = sum({1 << t * b % N for t in range(k)})  # a repeated term once
        excess.subtract(((start << a) | (start >> (N - a))) & full for a in range(N))
    return not any(excess.values())


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
