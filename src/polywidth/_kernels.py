"""Hot numeric kernels, vectorised with numpy.

All kernels are exact integer computations apart from ``coo_matvec``.
"""

import numpy as np

# --------------------------------------------------------------------------
# phi over batches of maps / histograms.
#
# phi(h) = sum over matching edges S of e_r(histogram of h restricted to S),
# where e_r is the elementary symmetric polynomial of degree r in the 2r
# per-vertex occurrence counts.


def _phi_of_hists(hists, edges, r):
    counts = hists[:, edges]  # (batch, |M|, 2r)
    e = np.zeros((r + 1,) + counts.shape[:2], dtype=np.int64)
    e[0] = 1
    for v in range(edges.shape[1]):
        c = counts[:, :, v]
        for j in range(min(r, v + 1), 0, -1):
            e[j] += e[j - 1] * c
    return e[r].sum(axis=1)


def phi_batch(maps, edges, n, r):
    """phi of each row of ``maps`` (values in [0, n)) against matching ``edges``."""
    maps = np.ascontiguousarray(maps, dtype=np.int64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    nb = maps.shape[0]
    if nb == 0 or edges.shape[0] == 0:
        return np.zeros(nb, dtype=np.int64)
    flat = (maps + np.arange(nb, dtype=np.int64)[:, None] * n).ravel()
    hists = np.bincount(flat, minlength=nb * n).reshape(nb, n)
    return _phi_of_hists(hists, edges, r)


def phi_hist_batch(hists, edges, r):
    """phi of each occupancy histogram row (nonnegative integer counts)."""
    hists = np.ascontiguousarray(hists, dtype=np.int64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    if hists.shape[0] == 0 or edges.shape[0] == 0:
        return np.zeros(hists.shape[0], dtype=np.int64)
    return _phi_of_hists(hists, edges, r)


# --------------------------------------------------------------------------
# Counting edges fully contained in 0/1 subsets.


def contained_edges_batch(bits, edges):
    """Per row of ``bits``: number of ``edges`` whose vertices are all 1."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    if bits.shape[0] == 0 or edges.shape[0] == 0:
        return np.zeros(bits.shape[0], dtype=np.int64)
    return bits[:, edges].all(axis=2).sum(axis=1).astype(np.int64)


# --------------------------------------------------------------------------
# COO sparse matrix-vector product.


def coo_matvec(rows, cols, vals, x, nrows):
    """y = A @ x for A given by aligned (rows, cols, vals) entry arrays."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if len(rows) == 0:
        return np.zeros(nrows, dtype=np.float64)
    return np.bincount(rows, weights=vals.astype(np.float64) * x[cols], minlength=nrows)


# --------------------------------------------------------------------------
# In-place Walsh-Hadamard transform on int64 (exact).
#
# Computes out[x] = sum_m a[m] * (-1)^popcount(m & x) for all x.


def wht_inplace(a):
    """In-place Walsh-Hadamard transform; ``a`` must be int64 of power-of-two length."""
    if a.dtype != np.int64:
        raise ValueError("wht_inplace requires an int64 array")
    n = a.shape[0]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        b = a.reshape(-1, 2 * h)
        lo = b[:, :h].copy()
        hi = b[:, h:].copy()
        b[:, :h] = lo + hi
        b[:, h:] = lo - hi
        h *= 2
    return a
