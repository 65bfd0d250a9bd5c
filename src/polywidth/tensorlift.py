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
the rank is f(i).

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

``tests/oracles.complements_direct`` checks the definition directly,
against every map.
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
    greedy_edge_coloring,
)
from .sparse import SparseMatrix

__all__ = [
    "LiftParams",
    "LiftResult",
    "LiftVerification",
    "default_goodness_bound",
    "map_rank",
    "map_digits",
    "half_cover_count",
    "goodness_score",
    "is_good",
    "complements",
    "enumerate_pairs",
    "build_pair_set",
    "build_matrix_lift",
    "check_lift_identity",
    "verify_lift_identity",
]

DEFAULT_BUDGET = 10**6

SIGN_ENUM_LIMIT = 16  # exhaustive sign-vector checks enumerate 2^n points


def default_goodness_bound(r: int) -> int:
    """Default goodness threshold 200 * 4^r."""
    return 200 * 4**r


@dataclass(frozen=True)
class LiftParams:
    """Parameters of the lift: maps [m] -> [n], r-subset size, threshold s.

    The construction is exact for any m >= r and s >= 1; the asymptotic
    choices m ~ C_r n^(1-1/r) and s = 200*4^r only matter for the
    probability bounds exercised in :mod:`polywidth.birthday`.
    """

    n: int
    m: int
    r: int
    s: int = 0  # 0 means the default 200*4^r
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be positive")
        if self.n < 2 * self.r:
            raise ValueError("n must be at least 2r")
        if self.m < self.r:
            raise ValueError("m must be at least r")
        if self.s == 0:
            object.__setattr__(self, "s", default_goodness_bound(self.r))
        if self.s < 1:
            raise ValueError("s must be positive")

    @property
    def num_maps(self) -> int:
        return self.n**self.m

    def check_budget(self):
        if self.num_maps > self.budget:
            raise BudgetExceededError(
                f"n^m = {self.num_maps} exceeds the enumeration budget {self.budget}"
            )


def map_rank(digits, n: int) -> int:
    """Rank of a map given its digit sequence (digit i = f(i)), base n."""
    rank = 0
    for d in reversed(digits):
        if not 0 <= d < n:
            raise ValueError(f"digit {d} outside [0, {n})")
        rank = rank * n + d
    return rank


def map_digits(rank: int, m: int, n: int):
    """Inverse of map_rank."""
    if not 0 <= rank < n**m:
        raise ValueError(f"rank {rank} outside [0, {n}^{m})")
    out = []
    for _ in range(m):
        rank, d = divmod(rank, n)
        out.append(d)
    return tuple(out)


def half_cover_count(f, edge, r: int) -> int:
    """Number of r-subsets I of positions with f(I) an r-subset of ``edge``.

    Equals the elementary symmetric polynomial of degree r in the per-vertex
    occurrence counts of f on the edge.
    """
    if len(edge) != 2 * r:
        raise ValueError(f"edge must have exactly {2 * r} vertices")
    counts = [sum(1 for v in f if v == u) for u in edge]
    e = [1] + [0] * r
    for c in counts:
        for j in range(r, 0, -1):
            e[j] += e[j - 1] * c
    return e[r]


def goodness_score(f, matching: Hypergraph) -> int:
    """Sum of half-cover counts of f over the matching edges."""
    r = _matching_r(matching)
    return sum(half_cover_count(f, edge, r) for edge in matching.edges)


def is_good(f, matching: Hypergraph, bound: int) -> bool:
    """1 <= goodness_score <= bound."""
    score = goodness_score(f, matching)
    return 1 <= score <= bound


def _matching_r(matching: Hypergraph) -> int:
    if not matching.edges:
        raise ValueError("matching has no edges")
    size = len(matching.edges[0])
    if size % 2 or not matching.is_uniform(size) or not matching.is_matching():
        raise ValueError("expected a matching of even-size edges")
    return size // 2


def _complement_candidates(f, matching: Hypergraph, r: int):
    """Complements of f, each mapped to the index of the edge it covers."""
    m = len(f)
    out = {}
    for positions in itertools.combinations(range(m), r):
        image = {f[i] for i in positions}
        if len(image) != r:
            continue
        for s_idx, edge in enumerate(matching.edges):
            edge_set = set(edge)
            if not image <= edge_set:
                continue
            rest = sorted(edge_set - image)
            for perm in itertools.permutations(rest):
                g = list(f)
                for pos, val in zip(positions, perm):
                    g[pos] = val
                out[tuple(g)] = s_idx
    return out


def complements(f, matching: Hypergraph):
    """All maps complementing f with respect to the matching, sorted."""
    r = _matching_r(matching)
    return sorted(_complement_candidates(tuple(f), matching, r))


def _good_ranks(params: LiftParams, matching: Hypergraph, block: int = 1 << 15):
    """Ranks of maps with goodness score in [1, s], by kernel-filtered blocks."""
    n, m = params.n, params.m
    edges = np.array(matching.edges, dtype=np.int64)
    total = params.num_maps
    good = []
    for start in range(0, total, block):
        ranks = np.arange(start, min(start + block, total), dtype=np.int64)
        digits = np.empty((len(ranks), m), dtype=np.int64)
        rem = ranks.copy()
        for j in range(m):
            rem, digits[:, j] = np.divmod(rem, n)
        scores = _kernels.phi_batch(digits, edges, n, params.r)
        mask = (scores >= 1) & (scores <= params.s)
        good.append(ranks[mask])
    return np.concatenate(good) if good else np.zeros(0, dtype=np.int64)


def enumerate_pairs(params: LiftParams, matching: Hypergraph):
    """All ordered pairs (f, g) with f good and g complementing f.

    Returns aligned arrays (f_ranks, g_ranks, covered_edge_index).  The
    enumeration iterates f over [n]^m (kernel-filtered for goodness) and
    generates complements directly, so its cost is linear in n^m plus the
    output size rather than quadratic pair testing.
    """
    params.check_budget()
    if matching.n != params.n:
        raise ValueError("matching vertex count differs from params.n")
    r = _matching_r(matching)
    if r != params.r:
        raise ValueError("matching edge size differs from 2r")
    f_ranks, g_ranks, covers = [], [], []
    for f_rank in _good_ranks(params, matching):
        f = map_digits(int(f_rank), params.m, params.n)
        for g, s_idx in sorted(_complement_candidates(f, matching, r).items()):
            f_ranks.append(int(f_rank))
            g_ranks.append(map_rank(g, params.n))
            covers.append(s_idx)
    return (
        np.array(f_ranks, dtype=np.int64),
        np.array(g_ranks, dtype=np.int64),
        np.array(covers, dtype=np.int64),
    )


def build_pair_set(params: LiftParams, matching: Hypergraph) -> SparseMatrix:
    """Incidence matrix of the ordered pair set on [n]^m (unit entries)."""
    f_ranks, g_ranks, _ = enumerate_pairs(params, matching)
    return SparseMatrix.from_entries(params.num_maps, f_ranks, g_ranks)


@dataclass(frozen=True)
class LiftReport:
    n: int
    m: int
    r: int
    s: int
    dim: int
    num_colors: int
    matching_size: int
    pair_set_size: int
    cover_count: int
    nnz: int
    max_row_sum: int
    row_sum_bound: int


@dataclass(frozen=True)
class LiftResult:
    a: SparseMatrix
    cover_count: int
    report: LiftReport


def build_matrix_lift(h: Hypergraph, params: LiftParams) -> LiftResult:
    """Assemble the symmetric lift matrix A for a 2r-uniform hypergraph."""
    if h.n != params.n:
        raise ValueError("hypergraph vertex count differs from params.n")
    if h.edges and not h.is_uniform(2 * params.r):
        raise ValueError(f"hypergraph must be {2 * params.r}-uniform")
    params.check_budget()
    dim = params.num_maps

    coloring = greedy_edge_coloring(h)
    classes = color_classes(h, coloring)
    empty = np.zeros(0, dtype=np.int64)
    rows, cols = [empty], [empty]
    cover_counts, pair_sizes, matching_sizes = [], [], []
    for class_edges in classes:
        family = complete_to_maximal_matching(Hypergraph(h.n, class_edges), params.r)
        f_ranks, g_ranks, covers = enumerate_pairs(params, family)
        if len(f_ranks) % family.num_edges:
            raise RuntimeError("pair set size is not a multiple of the family size")
        cover_counts.append(len(f_ranks) // family.num_edges)
        pair_sizes.append(len(f_ranks))
        matching_sizes.append(family.num_edges)
        keep = covers < len(class_edges)  # drop pairs covering completion padding
        rows.append(f_ranks[keep])
        cols.append(g_ranks[keep])

    if classes:
        if len(set(cover_counts)) != 1:
            raise RuntimeError("per-family cover counts differ across colors")
        cover_count = cover_counts[0]
    else:
        # Degenerate edgeless input: report the cover count of the default family.
        family = complete_to_maximal_matching(Hypergraph(h.n, ()), params.r)
        f_ranks, _, _ = enumerate_pairs(params, family)
        cover_count = len(f_ranks) // family.num_edges
        pair_sizes, matching_sizes = [len(f_ranks)], [family.num_edges]

    # A = B + B^T in one pass: every pair (f, g) enters as (f, g) and (g, f).
    a = SparseMatrix.from_entries(dim, np.concatenate(rows + cols), np.concatenate(cols + rows))
    max_row_sum = int(a.row_value_sums().max()) if a.nnz else 0
    report = LiftReport(
        n=params.n,
        m=params.m,
        r=params.r,
        s=params.s,
        dim=dim,
        num_colors=coloring.num_colors,
        matching_size=matching_sizes[0],
        pair_set_size=pair_sizes[0],
        cover_count=cover_count,
        nnz=a.nnz,
        max_row_sum=max_row_sum,
        row_sum_bound=2 * h.max_degree * params.s**2 * math.factorial(params.r),
    )
    return LiftResult(a, cover_count, report)


def _parity_masks(ranks: np.ndarray, m: int, n: int) -> np.ndarray:
    """Per-rank XOR of vertex bits over the map's digits (occurrence parity)."""
    masks = np.zeros(len(ranks), dtype=np.int64)
    rem = ranks.astype(np.int64, copy=True)
    one = np.int64(1)
    for _ in range(m):
        rem, digit = np.divmod(rem, n)
        masks ^= one << digit
    return masks


def check_lift_identity(a: SparseMatrix, cover_count: int, h: Hypergraph, params: LiftParams):
    """Exhaustive exact check of the lift identity over all sign vectors.

    Both sides are computed for all 2^n sign vectors at once in int64 via
    Walsh-Hadamard transforms of the entries' occurrence-parity masks.
    Returns (ok, witness) with witness the first failing sign vector.
    """
    n = h.n
    if n > SIGN_ENUM_LIMIT:
        raise BudgetExceededError(f"sign enumeration capped at n = {SIGN_ENUM_LIMIT}")
    size = 1 << n

    coeffs = np.zeros(size, dtype=np.int64)
    if a.nnz:
        masks = _parity_masks(a.rows, params.m, params.n) ^ _parity_masks(
            a.cols, params.m, params.n
        )
        np.add.at(coeffs, masks, a.vals)
    lhs = _kernels.wht_inplace(coeffs)

    pcoeffs = np.zeros(size, dtype=np.int64)
    for e in h.edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        pcoeffs[mask] += 1
    rhs = _kernels.wht_inplace(pcoeffs)
    rhs *= 2 * cover_count

    diff = lhs != rhs
    if not diff.any():
        return True, None
    x = int(np.argmax(diff))
    witness = tuple(-1 if (x >> j) & 1 else 1 for j in range(n))
    return False, witness


@dataclass(frozen=True)
class LiftVerification:
    ok: bool
    witness: tuple | None
    cover_count: int
    report: LiftReport


def verify_lift_identity(h: Hypergraph, params: LiftParams) -> LiftVerification:
    """Build the lift for h and check the identity on all 2^n sign vectors."""
    result = build_matrix_lift(h, params)
    ok, witness = check_lift_identity(result.a, result.cover_count, h, params)
    return LiftVerification(ok, witness, result.cover_count, result.report)
