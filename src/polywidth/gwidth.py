"""Gaussian width estimation and spectral-norm machinery.

The Gaussian width of a point set is the expected supremum, over the set, of
the inner product with a standard Gaussian vector.  Here the sets are images
of the Boolean hypercube under a polynomial map whose coordinates are
hypergraph polynomials.  The supremum depends only on the set of points, so
the image is built once by exhaustive enumeration (hypercube dimension
capped at 24) and reduced to its distinct points in lexicographic order:
hypercube point i, with x_v = (i >> v) & 1 as in ``Hypergraph.edge_masks``,
is enumerated as one integer key whose digits are its coordinates, the keys
are sorted and deduplicated, and only the distinct keys are decoded into
rows.  Each Monte-Carlo direction then takes the exact maximum over those
rows, never a heuristic, and the outer expectation is seeded Monte Carlo.  The closed-form width bound lives in
``hypergraph``, so that evaluating it loads no numpy.
"""

import math
from collections import namedtuple

import numpy as np

from . import _kernels, mc
from .errors import BudgetExceededError
from .hypergraph import Hypergraph

__all__ = [
    "PolyMap",
    "SpectralNormEstimate",
    "TjResult",
    "gw_estimate",
    "spectral_norm",
    "gaussian_series_norm",
    "tj_ratio_experiment",
    "random_matchings",
    "random_matching_matrices",
    "identity_map",
]

ENUM_BITS_LIMIT = 24
POWER_TOL = 1e-9  # relative change of the Rayleigh quotient that stops spectral_norm
POWER_MAX_ITERS = 10000


class PolyMap(namedtuple("PolyMap", "components")):
    """Polynomial map R^n -> R^k with hypergraph-polynomial coordinates."""

    __slots__ = ()

    def __new__(cls, components):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        n = components[0].n
        if any(h.n != n for h in components):
            raise ValueError("components must share the vertex count")
        return super().__new__(cls, components)

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        return max(h.max_edge_size for h in self.components)

    @property
    def multiplicity(self) -> int:
        return max(h.max_degree for h in self.components)


def _points(pm: PolyMap) -> np.ndarray:
    """The distinct points of the image of {0,1}^n as rows, in lexicographic
    order, by exhaustive enumeration.

    Point i is psi of x_v = (i >> v) & 1, the bit order of
    ``Hypergraph.edge_masks``, and is enumerated as one integer key, its
    coordinates as big-endian digits of radix (num_edges + 1), so that key
    order is lexicographic order.  Keys take the narrowest unsigned dtype
    that holds them; before a digit would overflow uint64, the keys so far
    are re-ranked into dense order-preserving ranks (fewer than 2^n), and
    the next digits extend the ranks.  The keys are sorted in place, the
    first of each run is kept, and the rows are decoded from the kept keys
    block by block, a rank going back through the distinct keys it was
    taken from.
    """
    if pm.n > ENUM_BITS_LIMIT:
        raise BudgetExceededError(f"hypercube enumeration capped at n = {ENUM_BITS_LIMIT}")
    masks = [h.edge_masks() for h in pm.components]
    radices = [len(component) + 1 for component in masks]
    total = 1 << pm.n
    step = _kernels._block_rows(1)
    # (first, stop, sorted distinct keys that the keys of components
    # first..stop-1 extend as ranks, or None) per group of components
    groups, ranked, keys, first = [], None, None, 0
    while first < pm.k:
        bound = 1 if ranked is None else len(ranked)
        stop = first
        # ranks stay below 2^24 and radices below 2^40 (no edge tuple is that
        # long), so every group takes at least one component
        while stop < pm.k and bound * radices[stop] < 1 << 64:
            bound *= radices[stop]
            stop += 1
        dtype = np.min_scalar_type(bound)  # holds every key and every radix
        keys = np.zeros(total, dtype=dtype) if ranked is None else keys.astype(dtype)
        for start in range(0, total, step):
            idx = np.arange(start, min(start + step, total), dtype=np.int64)
            block = keys[start : start + len(idx)]
            for component, radix in zip(masks[first:stop], radices[first:stop]):
                block *= radix
                for mask in component:
                    block += (idx & mask) == mask
        groups.append((first, stop, ranked))
        if stop < pm.k:
            ranked, keys = np.unique(keys, return_inverse=True)
        first = stop
    keys.sort()  # in place: key order is lexicographic order
    keep = np.empty(total, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    out = np.empty((len(keys), pm.k), dtype=np.min_scalar_type(max(radices) - 1))
    for start in range(0, len(keys), step):
        block = keys[start : start + step]  # decoded in place
        rows = out[start : start + len(block)]
        for first, stop, ranked in reversed(groups):
            for c in range(stop - 1, first - 1, -1):
                np.divmod(block, radices[c], out=(block, rows[:, c]))
            if ranked is not None:
                block = ranked[block]
    return out


def gw_estimate(pm: PolyMap, samples: int, seed: int, threads: int = 1) -> mc.McEstimate:
    """Monte-Carlo Gaussian width of the image of ``pm``: average of the exact
    maximum over the image of <p, g> for independent standard Gaussian g."""
    points = _points(pm)

    def value_fn(gen, count):
        g_mat = mc.normals(gen, (pm.k, count))
        best = np.full(count, -np.inf)
        # points per block, sized by the wider of its (step, count) product and (step, k) copy
        step = _kernels._block_rows(max(count, pm.k))
        for start in range(0, len(points), step):
            # one expression, so a block's floats are freed before the next one's
            scores = points[start : start + step].astype(np.float64) @ g_mat
            np.maximum(best, scores.max(axis=0), out=best)
        return best

    return mc.run_chunked(value_fn, samples, seed, threads=threads, chunk=1024)[0]


# --------------------------------------------------------------------------
# Spectral norms.


class SpectralNormEstimate(
    namedtuple("SpectralNormEstimate", "value upper_bound converged iterations")
):
    """value: lower-biased power-iteration estimate; upper_bound:
    sqrt(max abs row sum * max abs col sum)."""

    __slots__ = ()


def spectral_norm(a) -> SpectralNormEstimate:
    """Largest singular value of a SparseMatrix, by power iteration on the Gram operator.

    Deterministic all-ones start; convergence when successive Rayleigh
    quotients differ by less than ``POWER_TOL`` relatively, within
    ``POWER_MAX_ITERS`` iterations.  The estimate is lower-biased; the
    returned upper bound brackets the true norm even when the iteration
    stops early.
    """
    if a.nnz == 0:
        return SpectralNormEstimate(0.0, 0.0, True, 0)
    row_sums = np.bincount(a.rows, weights=np.abs(a.vals), minlength=a.dim)
    col_sums = np.bincount(a.cols, weights=np.abs(a.vals), minlength=a.dim)
    upper = math.sqrt(float(row_sums.max()) * float(col_sums.max()))
    v = np.full(a.dim, 1.0 / math.sqrt(a.dim))
    lam = -1.0
    for it in range(1, POWER_MAX_ITERS + 1):
        w = a.rmatvec(a.matvec(v))
        lam_new = float(v @ w)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return SpectralNormEstimate(0.0, upper, True, it)
        v = w / norm
        if lam >= 0.0 and abs(lam_new - lam) <= POWER_TOL * max(abs(lam_new), 1e-300):
            return SpectralNormEstimate(min(math.sqrt(max(lam_new, 0.0)), upper), upper, True, it)
        lam = lam_new
    value = min(math.sqrt(max(lam, 0.0)), upper)
    return SpectralNormEstimate(value, upper, False, POWER_MAX_ITERS)


def gaussian_series_norm(dense: np.ndarray) -> float:
    """Spectral norm of a signed dense combination, by exact symmetric
    eigensolve.  The input must be exactly symmetric: ``eigvalsh`` reads
    only its lower triangle.

    Power iteration from the all-ones vector is reserved for nonnegative
    matrices (where the start overlaps the dominant eigenvector); a signed
    series of matching matrices has the all-ones vector as an exact,
    usually non-dominant eigenvector, so it gets LAPACK instead.
    """
    return float(np.abs(np.linalg.eigvalsh(np.asarray(dense, dtype=np.float64))).max())


class TjResult(namedtuple("TjResult", "lhs rhs ratio")):
    """lhs = E || sum_i g_i A_i ||, rhs = sqrt(log N) * sqrt(sum ||A_i||^2)."""

    __slots__ = ()


def tj_ratio_experiment(matrices, samples: int, seed: int, threads: int = 1) -> TjResult:
    """Ratio of the expected norm of a Gaussian series of symmetric
    matrices to the sqrt(log N)-scaled root-sum-of-squares of the
    individual norms.  Each sampled combination is exactly symmetric: its
    (u, v) and (v, u) bins add the same floats in the same order."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    dim = matrices[0].dim
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if any(m.dim != dim for m in matrices):
        raise ValueError("matrices must share their dimension")
    k = len(matrices)

    norms = tuple(spectral_norm(m).value for m in matrices)
    rhs = math.sqrt(math.log(dim)) * math.sqrt(sum(v * v for v in norms))

    flat = np.concatenate([m.rows * dim + m.cols for m in matrices])
    vals = np.concatenate([m.vals.astype(np.float64) for m in matrices])
    which = np.concatenate([np.full(m.nnz, i, dtype=np.int64) for i, m in enumerate(matrices)])

    def value_fn(gen, count):
        out = np.empty(count)
        for i in range(count):
            g = mc.normals(gen, k)
            dense = np.bincount(flat, weights=g[which] * vals, minlength=dim * dim)
            dense = dense.reshape(dim, dim)
            out[i] = gaussian_series_norm(dense)
        return out

    lhs = mc.run_chunked(value_fn, samples, seed, threads=threads, chunk=256)[0]
    ratio = lhs.mean / rhs if rhs > 0 else 0.0
    return TjResult(lhs, rhs, ratio)


def random_matchings(dim: int, k: int, seed: int):
    """k random perfect matchings on [dim], each a (dim/2, 2) array of pairs."""
    if dim < 2 or dim % 2:
        raise ValueError("dim must be even and at least 2")
    gen = mc.stream(seed, 0)
    return [gen.permutation(dim).reshape(-1, 2) for _ in range(k)]


def random_matching_matrices(dim: int, k: int, seed: int):
    """Adjacency matrices of ``random_matchings(dim, k, seed)`` (unit norm):
    each pair (u, v) is an entry at (u, v) and at (v, u)."""
    from .sparse import SparseMatrix

    return [
        SparseMatrix.from_entries(dim, pairs.ravel(), pairs[:, ::-1].ravel())
        for pairs in random_matchings(dim, k, seed)
    ]


def identity_map(n: int) -> PolyMap:
    """The identity map on {0,1}^n as n singleton-edge components."""
    return PolyMap([Hypergraph(n, ((i,),)) for i in range(n)])
