"""Tensor-power lift of hypergraph polynomials to sparse quadratic forms.

A 2r-uniform hypergraph H on [n] is decomposed into matchings by first-fit
edge coloring, each matching is completed to a maximal family of disjoint
2r-sets, and for each family the ordered pairs (f, g) of maps [m] -> [n]
that agree outside a single r-set of positions whose two image halves unite
to a family edge are collected into a 0/1 incidence matrix on [n]^m ("g
complements f"; the pair "covers" that edge).  Rows are restricted to maps f
whose goodness score lies in [1, s].  After zeroing pairs that cover
completion padding rather than an original edge, the sum B of the per-color
matrices symmetrizes to A = B + B^T, which satisfies, exactly, for every
sign vector x in {-1,+1}^n:

    <A x_tensor, x_tensor> = 2 * cover_count * (polynomial of H at x),

where x_tensor is the m-fold tensor power of x indexed by map ranks and
cover_count is the common per-edge cover count |P| / |M|.  Every row and
column of A carries at most 2 * max_degree(H) * s^2 * r! entries, which
bounds its spectral norm.

Maps f are encoded as ranks in [0, n^m), little-endian base n: digit i of
the rank is f(i).  The lift works on arrays of ranks only: each block of
ranks is decoded to digit rows once, scored by counting its candidate
rows, and the complements of its good rows are generated as ranks.

Complements are generated, never tested.  g complements f when exactly one
r-set I of positions (the witness) has f(I) | g(I) equal to a family edge
and g agrees with f outside I.  For each r-set P on which f is injective
and each family edge S containing f(P), the candidates write the r
vertices of S - f(P), in every order, onto the positions P.  Such a g is a
complement with witness P and no other:

* f(P) | g(P) = S by construction, and g = f outside P.
* Let P' be another r-set, so |P' & P| < r.  Outside P, g agrees with
  f, so f(P') | g(P') lies in f(P') | g(P' & P), and
  |f(P') | g(P')| <= r + |P' & P| < 2r.  Then f(P') | g(P') is not a
  family edge, and P is the only witness.
* Every complement arises this way.  If I is its witness, then
  f(I) | g(I) has 2r vertices from two images of size at most r.  So
  f(I) is an r-subset of that edge and g(I) is the other half.
* No g arises twice.  Each g(i) with i in P lies in S - f(P), so
  g(i) != f(i).  The positions where g differs from f are therefore
  exactly P, and they fix the edge S = f(P) | g(P).

So complements come from rank arithmetic alone.  For each r-set P, the
rows whose f(P) is r distinct vertices of one family edge S are found with
a vertex -> edge lookup.  f has phi(f) such rows, as e_r of its counts on
S counts the P with f injective on P and f(P) inside S, and the rows of
maps with phi > s are dropped.  For each order pi of S - f(P) in a kept row

    rank(g) = rank(f) - sum_{i in P} f(i) * n^i + sum_{i in P} pi_i * n^i.

``tests/test_tensorlift.py::test_enumerate_pairs_match_oracle`` checks
the pairs against ``tests/oracles.complements_direct``, which tests the
definition directly against every map.

The report is streamed from the kept pairs (f, g) of B; neither A nor the
pair list is ever held.  A = B + B^T is symmetric by construction, its
diagonal is empty (g != f on the witness positions P, as shown above), and
its entries are positive counts, so nothing cancels.  ``build_matrix_lift``
makes one pass over colour x block of ``_BLOCK`` ranks, in rank order, and
keeps, besides the row sums, one goodness table per colour (a bool per
map).  Row f of A sums to the number of kept pairs with first map f plus
the number with second map f.  Three facts stream the rest.

* Goodness comes from the pairs.  A good map f has exactly r! * phi(f) >= 1
  complements (r! per row), and a map that is not good has none.  So a
  block's good maps are the first maps of its pairs before the padding
  filter.  Complementarity with witness P and edge S depends only on
  (f, g) and on S lying in the family, so within a colour (f, g) is a pair
  exactly when (g, f) is, and the mirror (g, f) of a kept (f, g) is kept
  exactly when g is good.

* nnz needs no sort.  A_fg != 0 exactly when (f, g) or (g, f) is kept in
  some colour, so nnz(A) is twice the number of such unordered pairs
  {f, g}.  The pair fixes its edge S = f(P) | g(P), so it is kept in a
  colour only if S is an original edge there, and in two colours only for
  parallel copies of S.  Each {f, g} is counted in the first colour that
  keeps it, once: at the kept (f, g) with g > f, or with g not good.  Ranks
  run in order, so good[g] is known whenever g < f.  A kept (f, g) is
  skipped when an earlier colour holds S as an original edge and f or g is
  good there, since that colour counted it.  A colour's goodness table is
  kept only while a later colour holds a copy of one of its edges.

* The identity check needs no per-map table.
  <A x_tensor, x_tensor> = 2 * sum over kept pairs of
  x_tensor[f] * x_tensor[g], and x_tensor[f] is the product of x over the
  vertices that f hits an odd number of times.  With mask(f) that vertex
  set as a bit mask, each pair adds 2 to the coefficient of
  mask(f) ^ mask(g).  f and g differ exactly on P, where their 2r values
  are the distinct vertices of S, so mask(f) ^ mask(g) = mask(S).  The
  identity holds exactly when each edge mask counts cover_count kept pairs
  per edge copy: setting x_j to +1 and to -1 gives the sum and the
  difference of a multilinear polynomial's two cofactors in x_j, so by
  induction it is zero on every sign vector only when all its
  coefficients are.
"""

import itertools
import math
from collections import Counter, namedtuple

import numpy as np

from . import _kernels  # imported for its side effect: the page policy of the block loop
from .errors import DEFAULT_BUDGET, check_budget
from .hypergraph import (
    Hypergraph,
    _check_goodness_args,
    color_classes,
    complete_to_maximal_matching,
    default_goodness_bound,
    greedy_edge_coloring,
)

__all__ = [
    "LiftResult",
    "enumerate_pairs",
    "build_matrix_lift",
    "check_lift_identity",
]

_BLOCK = 1 << 10  # maps per enumerate_pairs call of build_matrix_lift


def _digits(ranks, m: int, n: int) -> np.ndarray:
    """The (len(ranks), m) array of map digits: column i holds f(i)."""
    rem = np.asarray(ranks, dtype=np.int64)
    digits = np.empty((m, len(rem)), dtype=np.int64)  # each divmod fills a contiguous row
    for i in range(m):
        rem, digits[i] = np.divmod(rem, n)
    return digits.T


def enumerate_pairs(matching: Hypergraph, m: int, s: int, ranks):
    """Aligned (f_ranks, g_ranks, covered_edge_index) arrays of the pairs
    (f, g) with f in ``ranks`` s-good against ``matching`` and g
    complementing f, for maps [m] -> [matching.n]; r is half the matching's
    edge size.

    The maps of ``ranks`` are decoded once into candidate rows (r-set P,
    edge S), phi(f) of them for a map f, which score its goodness, and the
    complements in the good maps' rows are generated by the rank formula
    of the module docstring, so the cost is linear in len(ranks) plus the
    output size.  Raises ValueError for a rank outside [0, n^m).
    """
    n = matching.n
    if not matching.edges:
        raise ValueError("matching has no edges")
    try:
        edges = np.array(matching.edges, dtype=np.int64)
    except ValueError:  # edges of mixed sizes
        edges = None
    if edges is None or edges.shape[1] % 2 or np.bincount(edges.ravel()).max() > 1:
        raise ValueError("expected a matching of even-size edges")
    r = edges.shape[1] // 2
    _check_goodness_args(r, n, s)
    if m < r:
        raise ValueError("m must be at least r")
    ranks = np.asarray(ranks, dtype=np.int64)
    if n**m > 1 << 63:
        raise ValueError("n^m must fit in int64 ranks")
    if ranks.size and (ranks.min() < 0 or int(ranks.max()) >= n**m):
        raise ValueError("ranks must lie in [0, n^m)")
    digits = _digits(ranks, m, n)

    edge_of = np.full(n, -1, dtype=np.int64)  # vertex -> matching edge
    edge_of[edges] = np.arange(len(edges), dtype=np.int64)[:, None]
    # every r-set P of positions at once: row q * len(ranks) + i holds f(P)
    # for the q-th r-set and the i-th map
    sets = np.array(list(itertools.combinations(range(m), r)), dtype=np.int64)
    image = digits[:, sets].transpose(1, 0, 2).reshape(-1, r)
    covered = edge_of[image[:, 0]]
    keep = covered >= 0
    for a in range(1, r):  # f(P) in one edge, on r distinct vertices
        keep &= edge_of[image[:, a]] == covered
        for b in range(a):
            keep &= image[:, a] != image[:, b]
    keep = keep.reshape(len(sets), len(ranks))
    keep &= np.count_nonzero(keep, axis=0) <= s  # f's phi(f) rows kept if phi(f) <= s
    rows = np.flatnonzero(keep)
    image, covered = image[rows], covered[rows]
    set_index, map_index = np.divmod(rows, max(len(ranks), 1))
    weights = (n ** sets)[set_index]  # n^i at the positions P
    members = edges[covered]
    outside = members != image[:, :1]
    for a in range(1, r):
        outside &= members != image[:, a : a + 1]
    rest = members[outside].reshape(-1, r)  # S - f(P), in increasing order
    f = ranks[map_index]
    base = f - np.einsum("ij,ij->i", image, weights)
    out = [(f, base + np.einsum("ij,ij->i", rest[:, order], weights), covered)
           for order in itertools.permutations(range(r))]
    return tuple(np.concatenate(column) for column in zip(*out))


class LiftResult(
    namedtuple(
        "LiftResult",
        "mask_counts n m r s dim num_colors cover_count nnz max_row_sum row_sum_bound",
    )
):
    """The report of A = B + B^T over all colours, streamed from the kept
    pairs (f, g) of B without holding them: ``mask_counts`` is a Counter
    mapping each edge mask x to the number of kept pairs covering it,
    mask(f) ^ mask(g) = x."""

    __slots__ = ()


def _earlier_copies(classes) -> list:
    """For each colour c, the (c', held) with c' < c whose class shares an
    edge with c's: held[k] is True when c's k-th edge is one of colour c'."""
    holders = {}
    for c, edges in enumerate(classes):
        for e in edges:
            holders.setdefault(e, []).append(c)
    out = []
    for c, edges in enumerate(classes):
        earlier = sorted({c2 for e in edges for c2 in holders[e] if c2 < c})
        out.append([(c2, np.array([c2 in holders[e] for e in edges])) for c2 in earlier])
    return out


def build_matrix_lift(
    h: Hypergraph, m: int, r: int, s: int = 0, budget: int = DEFAULT_BUDGET
) -> LiftResult:
    """The lift of a 2r-uniform hypergraph on [h.n] over maps [m] -> [h.n]
    with goodness threshold s (0 means the default 200*4^r) and its report,
    in one pass over colour x rank block.  Raises BudgetExceededError when
    h.n^m exceeds ``budget``.  The construction is exact for any r >= 1,
    n >= 2r, m >= r and s >= 1; the asymptotic choices m ~ C_r n^(1-1/r) and
    s = 200*4^r only matter for the probability bounds of ``birthday``."""
    n = h.n
    s = s or default_goodness_bound(r)
    _check_goodness_args(r, n, s)
    if m < r:
        raise ValueError("m must be at least r")
    if h.edges and not h.is_uniform(2 * r):
        raise ValueError(f"hypergraph must be {2 * r}-uniform")
    dim = check_budget(n, m, budget)

    coloring = greedy_edge_coloring(h)
    # edgeless input keeps no pair, but reports the default family's counts
    classes = color_classes(h, coloring) or [()]
    copies = _earlier_copies(classes)
    last_use = {c2: c for c, held in enumerate(copies) for c2, _ in held}
    goods = {}  # goodness tables of earlier colours that a later one reads
    row_sums = np.zeros(dim, dtype=np.int64)
    mask_counts = Counter()
    nnz = 0
    cover_counts = []
    for c, class_edges in enumerate(classes):
        family = complete_to_maximal_matching(Hypergraph(n, class_edges), r)
        good = np.zeros(dim, dtype=bool)
        covered = np.zeros(len(class_edges), dtype=np.int64)
        pairs = 0
        for start in range(0, dim, _BLOCK):
            stop = min(start + _BLOCK, dim)
            f, g, covers = enumerate_pairs(family, m, s, np.arange(start, stop))
            pairs += len(f)
            good[start:stop] = np.bincount(f - start, minlength=stop - start) > 0
            keep = covers < len(class_edges)  # drop pairs covering completion padding
            f, g, covers = f[keep], g[keep], covers[keep]
            row_sums[start:stop] += np.bincount(f - start, minlength=stop - start)
            np.add.at(row_sums, g, 1)
            covered += np.bincount(covers, minlength=len(class_edges))
            counted = (g > f) | ~good[g]  # g < f: good[g] is already known
            for c2, held in copies[c]:  # counted in c2 if f or g is good there
                counted &= ~(held[covers] & (goods[c2][f] | goods[c2][g]))
            nnz += 2 * int(np.count_nonzero(counted))
            del f, g, covers, keep, counted  # two blocks' arrays are never live at once
        if pairs % family.num_edges:
            raise RuntimeError("pair set size is not a multiple of the family size")
        cover_counts.append(pairs // family.num_edges)
        for mask, count in zip(family.edge_masks()[: len(class_edges)], covered.tolist()):
            mask_counts[mask] += count
        goods[c] = good
        goods = {c2: table for c2, table in goods.items() if last_use.get(c2, -1) > c}

    if len(set(cover_counts)) != 1:
        raise RuntimeError("per-family cover counts differ across colors")

    return LiftResult(
        mask_counts,
        n=n,
        m=m,
        r=r,
        s=s,
        dim=dim,
        num_colors=coloring.num_colors,
        cover_count=cover_counts[0],
        nnz=nnz,
        max_row_sum=int(row_sums.max()),
        row_sum_bound=2 * h.max_degree * s**2 * math.factorial(r),
    )


def check_lift_identity(mask_counts, cover_count: int, h: Hypergraph):
    """(ok, witness): the lift identity on all 2^n sign vectors, from the
    per-edge-mask pair counts of h's lift (``LiftResult.mask_counts``).
    The halved difference of the two sides has these counts less cover_count
    per edge copy as coefficients.  If one is nonzero, the first failing sign
    vector (bit j of its index means x_j = -1) sets x_j = +1, from the highest
    j down, while the difference so restricted stays a nonzero polynomial."""
    coeffs = Counter(mask_counts)
    for mask in h.edge_masks():
        coeffs[mask] -= cover_count
    if not any(coeffs.values()):
        return True, None
    witness = [1] * h.n
    while max(coeffs):  # the highest variable x_j left
        j = max(coeffs).bit_length() - 1
        for sign in (1, -1):  # -1 only where +1 leaves the zero polynomial
            restricted = Counter()
            for mask, c in coeffs.items():
                restricted[mask & ~(1 << j)] += sign * c if mask >> j & 1 else c
            if any(restricted.values()):
                break
        witness[j], coeffs = sign, restricted
    return False, tuple(witness)
