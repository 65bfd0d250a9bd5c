"""Hot numeric kernels, vectorised with numpy.

All kernels are exact integer computations apart from ``coo_matvec``.

The Monte-Carlo kernels receive a whole chunk of samples (4096 rows) but
work through it in row blocks of about ``_BLOCK_CELLS`` int64 cells
(512 KiB), so the temporaries of a block stay in cache.  A whole chunk at
once would cost 20 MiB per temporary at n = 600, and every pass over such
an array would run at memory speed; blocks also keep the working set small
when chunks run on several threads.  Blocking changes no arithmetic, so
results are the same for any block size.
"""

import numpy as np

_BLOCK_CELLS = 1 << 16  # int64 cells per row block


def _block_rows(cells):
    """Rows per block when each row takes ``cells`` int64 cells."""
    return max(1, _BLOCK_CELLS // cells)


# --------------------------------------------------------------------------
# phi over batches of maps / histograms.
#
# phi(h) = sum over matching edges S of e_r(histogram of h restricted to S),
# where e_r is the elementary symmetric polynomial of degree r in the 2r
# per-vertex occurrence counts.
#
# Cell layout: the count of vertex edges[e, i] sits in cell i*|M| + e.  A
# block of rows is transposed to (2r, cells per position), so the e_r
# recurrence below runs over 2r contiguous rows, one per edge position.


def _phi_of_counts(counts, r):
    """e_r of each column of ``counts`` (one row per edge position)."""
    e = np.zeros((r + 1, counts.shape[1]), dtype=np.int64)
    e[0] = 1
    for v in range(counts.shape[0]):
        c = counts[v]
        for j in range(min(r, v + 1), 0, -1):
            e[j] += e[j - 1] * c
    return e[r]


def phi_batch(maps, edges, n, r):
    """phi of each row of ``maps`` (values in [0, n)) against matching ``edges``.

    Raises ``ValueError`` for a map value outside [0, n) and for edges
    that are not disjoint vertex sets of [0, n).
    """
    maps = np.ascontiguousarray(maps, dtype=np.int64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    if maps.size and (maps.min() < 0 or maps.max() >= n):
        raise ValueError("map values must lie in [0, n)")
    nb = maps.shape[0]
    if nb == 0 or edges.shape[0] == 0:
        return np.zeros(nb, dtype=np.int64)
    ne, width = edges.shape
    cells = edges.size
    by_position = edges.T.ravel()
    if by_position.min() < 0 or by_position.max() >= n:
        raise ValueError("edge vertices must lie in [0, n)")
    # vertex -> cell; all unmatched vertices share the extra cell `cells`
    lookup = np.full(n, cells, dtype=np.int64)
    lookup[by_position] = np.arange(cells)
    if np.count_nonzero(lookup < cells) != cells:
        raise ValueError("edges must be disjoint")
    step = _block_rows(cells + 1)
    offsets = np.arange(step, dtype=np.int64)[:, None] * (cells + 1)
    out = np.empty(nb, dtype=np.int64)
    for start in range(0, nb, step):
        block = lookup[maps[start : start + step]]
        rows = block.shape[0]
        block += offsets[:rows]
        hist = np.bincount(block.ravel(), minlength=rows * (cells + 1))
        counts = hist.reshape(rows, cells + 1)[:, :cells].reshape(rows, width, ne)
        counts = counts.transpose(1, 0, 2).reshape(width, rows * ne)
        out[start : start + rows] = _phi_of_counts(counts, r).reshape(rows, ne).sum(axis=1)
    return out


def phi_hist_batch(hists, edges, r):
    """phi of each occupancy histogram row (nonnegative integer counts)."""
    hists = np.ascontiguousarray(hists, dtype=np.int64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    nb = hists.shape[0]
    if nb == 0 or edges.shape[0] == 0:
        return np.zeros(nb, dtype=np.int64)
    ne, width = edges.shape
    by_position = edges.T.ravel()
    step = _block_rows(hists.shape[1])
    out = np.empty(nb, dtype=np.int64)
    for start in range(0, nb, step):
        counts = hists[start : start + step].T[by_position]
        rows = counts.shape[1]
        phis = _phi_of_counts(counts.reshape(width, ne * rows), r)
        out[start : start + rows] = phis.reshape(ne, rows).sum(axis=0)
    return out


# --------------------------------------------------------------------------
# Counting edges fully contained in 0/1 subsets.


def contained_edges_batch(bits, edges):
    """Per row of ``bits``: number of ``edges`` whose vertices are all nonzero."""
    bits = np.asarray(bits)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    if bits.shape[0] == 0 or edges.shape[0] == 0:
        return np.zeros(bits.shape[0], dtype=np.int64)
    by_vertex = np.ascontiguousarray(bits.T, dtype=bool)  # one row per vertex
    inside = by_vertex[edges[:, 0]]
    for i in range(1, edges.shape[1]):
        inside &= by_vertex[edges[:, i]]
    return np.count_nonzero(inside, axis=0).astype(np.int64)


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
