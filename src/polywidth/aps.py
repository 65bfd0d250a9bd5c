"""Arithmetic-progression hypergraphs over Z/NZ.

For prime N and 3 <= k <= N, the full k-AP hypergraph has one edge per
unordered proper k-term progression: ordered starts (a, b) with b != 0 pair
up with their reversals (a + (k-1)b, -b), giving N(N-1)/2 edges as a
multiset (edges whose vertex sets coincide stay as parallel edges, so twice
the polynomial of the hypergraph equals the ordered progression count).

The module runs on Python ints and loads no numpy: a subset of Z/NZ is an
int mask with bit x set for each member x, progressions are counted by
shifting and AND-ing that mask, and the affine maps of the 2-transitivity
check are drawn from ``mc.PhiloxStream``.
"""

import math

from . import mc
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


def ordered_ap_count(bits, k: int) -> int:
    """Ordered count: pairs (a, b), b != 0, with the whole progression
    a, a+b, ..., a+(k-1)b inside the subset whose 0/1 (or truthy) entries
    are ``bits``.

    On the int mask S of the subset, with R_j the rotation of S that has
    bit x set iff x + j (mod N) lies in S, the count is the sum over
    d = 1..N-1 of popcount(S & R_d & R_2d & ... & R_(k-1)d).
    """
    if k < 1:
        raise ValueError("k must be positive")
    N = len(bits)
    S = sum(1 << x for x, b in enumerate(bits) if b)
    full = (1 << N) - 1
    rotated = [((S >> j) | (S << (N - j))) & full for j in range(N)]  # R_j
    total = 0
    for d in range(1, N):
        # a term repeated at composite N only repeats an AND
        inside = S
        for t in range(1, k):
            inside &= rotated[t * d % N]
        total += inside.bit_count()
    return total


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
    """Random affine maps x -> scale*x + shift of Z/NZ (N = h.n, prime)
    must map the edges of the uniform hypergraph h to edges.  Returns True
    iff all trials pass (an edgeless h passes vacuously).

    Each trial draws scale = 1 + integers(N - 1), then shift = integers(N),
    from ``mc.PhiloxStream(seed, 0)``: a uniform one of the N(N-1) affine
    bijections.  They act sharply 2-transitively, so this is also the map
    that sends a fixed vertex pair onto a uniform pair of distinct
    vertices.  The trial maps vertex x to the bit of its image and an edge
    to the OR of its vertices' bits, and looks that mask up among the edge
    masks.  A map drawn again is not checked again.
    """
    N = h.n
    if not _is_prime(N):
        raise ValueError("N must be prime")
    if not h.is_uniform():
        raise ValueError("hypergraph must be uniform")
    edge_masks = set(h.edge_masks())
    columns = list(zip(*h.edges))  # column t holds vertex t of every edge
    draws = mc.PhiloxStream(seed, 0)
    kept = set()  # (scale, shift) of the maps x -> scale*x + shift that passed
    for _ in range(trials):
        scale = 1 + draws.integers(N - 1, 1)[0]
        shift = draws.integers(N, 1)[0]
        if (scale, shift) in kept:
            continue
        bit = [1 << ((scale * x + shift) % N) for x in range(N)]
        # the map is a bijection, so the bits of an edge are distinct and
        # their sum is their OR
        images = map(sum, zip(*(map(bit.__getitem__, col) for col in columns)))
        if not edge_masks.issuperset(images):
            return False
        kept.add((scale, shift))
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
