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
ranks is decoded to digit rows once, scored for goodness by the phi
kernel, and the complements of its good rows are generated as ranks.

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
a vertex -> edge lookup, and for each order pi of S - f(P)

    rank(g) = rank(f) - sum_{i in P} f(i) * n^i + sum_{i in P} pi_i * n^i.

``tests/test_tensorlift.py::test_enumerate_pairs_match_oracle`` checks
the pairs against ``tests/oracles.complements_direct``, which tests the
definition directly against every map.

The report is streamed from the kept pairs (f, g) of B, one key per pair;
neither A nor the pair list is ever held.  A = B + B^T is symmetric by
construction, its diagonal is empty (g != f on the witness positions P, as
shown above), and its entries are positive counts, so nothing cancels.
``build_matrix_lift`` makes one pass over colour x block of ``_BLOCK``
ranks, and adds each block's kept pairs into three accumulators:

* the row sums: row f of A sums to the number of kept pairs with first map
  f plus the number with second map f;
* the identity check's histogram: <A x_tensor, x_tensor> = 2 * sum over
  kept pairs of x_tensor[f] * x_tensor[g], and x_tensor[f] is the product
  of x over the vertices that f hits an odd number of times.  With mask(f)
  that vertex set as a bit mask, each pair adds 2 to the coefficient of
  mask(f) ^ mask(g).  The identity holds on every sign vector exactly when
  these coefficients equal 2 * cover_count at each edge mask and 0
  elsewhere, since the Walsh-Hadamard transform mapping coefficients to
  values is a bijection;
* one unordered key min(f, g) * dim + max(f, g) per pair: A_fg != 0
  exactly when (f, g) or (g, f) is kept, so nnz(A) is twice the number of
  distinct keys, parallel edges included.  The mirror (g, f) of a pair
  may come from another block or colour, so the keys are sorted once,
  in place, after the pass.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BudgetExceededError
from .hypergraph import (
    Hypergraph,
    color_classes,
    complete_to_maximal_matching,
    default_goodness_bound,
    greedy_edge_coloring,
)

__all__ = [
    "LiftResult",
    "default_goodness_bound",
    "enumerate_pairs",
    "build_matrix_lift",
    "check_sign_cap",
    "check_lift_identity",
]

DEFAULT_BUDGET = 10**6

SIGN_ENUM_LIMIT = 16  # exhaustive sign-vector checks enumerate 2^n points

_BLOCK = 1 << 12  # maps per enumerate_pairs call of build_matrix_lift


def _check_lift_args(n: int, m: int, r: int, s: int):
    """Raise ValueError unless r >= 1, n >= 2r, m >= r and s >= 1.

    The construction is exact for any such arguments; the asymptotic
    choices m ~ C_r n^(1-1/r) and s = 200*4^r only matter for the
    probability bounds exercised in :mod:`polywidth.birthday`.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if n < 2 * r:
        raise ValueError("n must be at least 2r")
    if m < r:
        raise ValueError("m must be at least r")
    if s < 1:
        raise ValueError("s must be positive")


def _matching_r(matching: Hypergraph) -> int:
    if not matching.edges:
        raise ValueError("matching has no edges")
    size = len(matching.edges[0])
    if size % 2 or not matching.is_uniform(size) or not matching.is_matching():
        raise ValueError("expected a matching of even-size edges")
    return size // 2


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

    The maps of ``ranks`` are decoded once and scored by the phi kernel,
    and the complements of the good ones are generated by the rank formula
    of the module docstring, so the cost is linear in len(ranks) plus the
    output size.  Raises ValueError for a rank outside [0, n^m).
    """
    n = matching.n
    r = _matching_r(matching)
    _check_lift_args(n, m, r, s)
    ranks = np.asarray(ranks, dtype=np.int64)
    if n**m > 1 << 63:
        raise ValueError("n^m must fit in int64 ranks")
    if ranks.size and (ranks.min() < 0 or int(ranks.max()) >= n**m):
        raise ValueError("ranks must lie in [0, n^m)")
    edges = np.array(matching.edges, dtype=np.int64)
    digits = _digits(ranks, m, n)
    scores = _kernels.phi_batch(digits, edges, n, r)
    good = (scores >= 1) & (scores <= s)
    ranks, digits = ranks[good], digits[good]

    edge_of = np.full(n, -1, dtype=np.int64)  # vertex -> matching edge
    edge_of[edges] = np.arange(len(edges), dtype=np.int64)[:, None]
    powers = n ** np.arange(m, dtype=np.int64)
    out = [(np.zeros(0, dtype=np.int64),) * 3]
    for positions in itertools.combinations(range(m), r):
        positions = list(positions)
        image = digits[:, positions]  # f(P)
        covered = edge_of[image[:, 0]]
        keep = (covered >= 0) & (edge_of[image] == covered[:, None]).all(axis=1)
        for a, b in itertools.combinations(range(r), 2):
            keep &= image[:, a] != image[:, b]
        rows = np.flatnonzero(keep)
        image, covered = image[rows], covered[rows]
        members = edges[covered]
        rest = members[(members[:, :, None] != image[:, None, :]).all(axis=2)].reshape(-1, r)
        f = ranks[rows]
        base = f - image @ powers[positions]
        for order in itertools.permutations(range(r)):
            out.append((f, base + rest[:, order] @ powers[positions], covered))
    return tuple(np.concatenate(column) for column in zip(*out))


@dataclass(frozen=True)
class LiftResult:
    """The report of A = B + B^T over all colours, streamed from the kept
    pairs (f, g) of B without holding them: ``mask_counts[x]`` is the number
    of kept pairs with mask(f) ^ mask(g) = x (module docstring), None when
    n exceeds ``SIGN_ENUM_LIMIT``."""

    mask_counts: np.ndarray | None
    n: int
    m: int
    r: int
    s: int
    dim: int
    num_colors: int
    cover_count: int
    nnz: int
    max_row_sum: int
    row_sum_bound: int


def _count_distinct(keys: np.ndarray) -> int:
    """Number of distinct values of ``keys``, which it sorts in place."""
    if not len(keys):
        return 0
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def build_matrix_lift(
    h: Hypergraph, m: int, r: int, s: int = 0, budget: int = DEFAULT_BUDGET
) -> LiftResult:
    """The lift of a 2r-uniform hypergraph on [h.n] over maps [m] -> [h.n]
    with goodness threshold s (0 means the default 200*4^r) and its report,
    in one pass over colour x rank block.  Raises BudgetExceededError when
    h.n^m exceeds ``budget``."""
    n = h.n
    s = s or default_goodness_bound(r)
    _check_lift_args(n, m, r, s)
    if h.edges and not h.is_uniform(2 * r):
        raise ValueError(f"hypergraph must be {2 * r}-uniform")
    dim = n**m
    if dim > budget:
        raise BudgetExceededError(f"n^m = {dim} exceeds the enumeration budget {budget}")

    coloring = greedy_edge_coloring(h)
    row_sums = np.zeros(dim, dtype=np.int64)
    masks = _parity_masks(m, n) if n <= SIGN_ENUM_LIMIT else None
    mask_counts = None if masks is None else np.zeros(1 << n, dtype=np.int64)
    keys = [np.zeros(0, dtype=np.int64)]
    cover_counts = []
    # edgeless input keeps no pair, but reports the default family's counts
    for class_edges in color_classes(h, coloring) or [()]:
        family = complete_to_maximal_matching(Hypergraph(n, class_edges), r)
        pairs = 0
        for start in range(0, dim, _BLOCK):
            stop = min(start + _BLOCK, dim)
            f, g, covers = enumerate_pairs(family, m, s, np.arange(start, stop))
            pairs += len(f)
            keep = covers < len(class_edges)  # drop pairs covering completion padding
            f, g = f[keep], g[keep]
            row_sums[start:stop] += np.bincount(f - start, minlength=stop - start)
            np.add.at(row_sums, g, 1)
            if masks is not None:
                mask_counts += np.bincount(masks[f] ^ masks[g], minlength=1 << n)
            key = np.minimum(f, g)  # min * dim + max = min * (dim - 1) + f + g
            key *= dim - 1
            key += f
            key += g
            keys.append(key)
        if pairs % family.num_edges:
            raise RuntimeError("pair set size is not a multiple of the family size")
        cover_counts.append(pairs // family.num_edges)

    if len(set(cover_counts)) != 1:
        raise RuntimeError("per-family cover counts differ across colors")

    keys = np.concatenate(keys)
    return LiftResult(
        mask_counts,
        n=n,
        m=m,
        r=r,
        s=s,
        dim=dim,
        num_colors=coloring.num_colors,
        cover_count=cover_counts[0],
        nnz=2 * _count_distinct(keys),
        max_row_sum=int(row_sums.max()),
        row_sum_bound=2 * h.max_degree * s**2 * math.factorial(r),
    )


def _parity_masks(m: int, n: int) -> np.ndarray:
    """Occurrence-parity vertex mask of every rank 0..n^m-1: the XOR of
    1 << f(i) over the digits of the map, one digit position at a time
    (rank q*n + d has the mask of rank q with bit d flipped)."""
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    masks = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        masks = (masks[:, None] ^ bits).ravel()
    return masks


def check_sign_cap(n: int):
    """Raise BudgetExceededError when 2^n sign vectors are too many to check."""
    if n > SIGN_ENUM_LIMIT:
        raise BudgetExceededError(f"sign enumeration capped at n = {SIGN_ENUM_LIMIT}")


def check_lift_identity(mask_counts, cover_count: int, h: Hypergraph):
    """Exhaustive exact check of the lift identity over all sign vectors,
    from the parity-mask histogram ``mask_counts`` of the kept pairs of the
    lift of h (``LiftResult.mask_counts``).

    Both sides are multilinear in the signs, so they agree on all 2^n sign
    vectors exactly when their Walsh coefficients agree: the histogram
    against cover_count at each edge mask and 0 elsewhere.  Only a nonzero
    difference is transformed (int64 Walsh-Hadamard), to find the first
    failing sign vector.  Returns (ok, witness).
    """
    n = h.n
    check_sign_cap(n)
    coeffs = np.array(mask_counts, dtype=np.int64)
    for mask in h.edge_masks():
        coeffs[mask] -= cover_count
    if not coeffs.any():
        return True, None
    x = int(np.argmax(_kernels.wht_inplace(coeffs) != 0))
    witness = tuple(-1 if (x >> j) & 1 else 1 for j in range(n))
    return False, witness
