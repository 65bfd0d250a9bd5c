"""Hot numeric kernels, vectorised with numpy.

All kernels are exact integer computations apart from ``coo_matvec``.

A kernel scores all the rows it is given in one pass, in as few numpy calls
as it can: fewer calls per block also means fewer handoffs of the
interpreter lock when chunks run on several threads (``phi_batch`` checks
its edges and builds its vertex table once per run, in ``_first_bins``).
The phi kernels read r from their matching of 2r-sets and work in
edge-slot order (the phi section below); ``contained_edges_batch`` sums
its bool cells as bytes into the narrowest unsigned dtype that holds the
edge count, where ``count_nonzero`` would widen every cell to intp first.

Callers hand a kernel one block at a time, sized by ``_block_rows`` from
the bytes of the caller's widest row (8 max(n, m) for phi: its blocks draw
(rows, m) int64 maps over n bins) so that the block takes about 512 KiB,
``_BLOCK_BYTES``, and stays in cache and small when chunks run on several
threads.  Blocking changes no arithmetic, so results are the same for any
block size.

``_in_blocks`` is the one block loop of per-sample Monte Carlo (``birthday``
for phi and its Poisson domination, ``randsets`` for the upper tail), so no
chunk-sized input array is built; ``gwidth`` takes its blocks from
``_block_rows`` too.  The tensor-power lift keeps blocks of 2^10 ranks of
its own: blocks of ``_block_rows(C(m, r) r)`` ranks pass the 1 MiB mmap
threshold of the page policy below, and ``matrix-verify --n 10 --m 6 --r 1``
took 0.56-0.65 s at 46 MiB with them against 0.38-0.40 s at 37 MiB (2-core
VM, wait4 of the child).  Every block loop allocates its temporaries afresh
with ``np.empty``, and the page policy keeps the pages a block frees in the
heap for the next block instead of mapping them anew.  It is set at import
for 1 MiB and widened by ``_block_rows`` for any wider row:
``poisson-check --r 2 --n 200000 --samples 1500 --threads 1``, whose
one-row blocks take 1.6 MB, ran in 5.4-6.4 s with 15,000 minor faults
against 9.6-10.9 s and 2.85 million without (wait4, 2-core Xeon).
"""

import functools

import numpy as np

_BLOCK_BYTES = 1 << 19  # bytes of a row block

# The page policy of every block loop.  glibc maps each request of 128 KiB
# or more on its own and returns free memory at the top of its heap to the
# system past a 128 KiB trim threshold, until freeing such a mapped chunk
# raises the mmap threshold to the chunk's size and the trim threshold to
# twice that.  Block temporaries take about 0.5 MiB, so every block would
# map its pages afresh: phi_statistics(2, 20000, ...) over 1024 samples
# took 89,000 minor faults against 650, and a lift at n^m = 10^6 took
# 110,000 against 1,000 (glibc 2.36).  Freeing one untouched 1 MiB array,
# mapped and never resident, raises the two thresholds to 1 and 2 MiB for
# the whole process, its threads included; other allocators lose nothing.
_policy_bytes = 1 << 20  # the mmap threshold the policy has set
np.empty(_policy_bytes, dtype=np.uint8)


def _block_rows(row_bytes):
    """Rows per block when each row takes ``row_bytes`` bytes, a block
    holding about ``_BLOCK_BYTES``.  A row wider than the page policy's
    threshold first frees an untouched array of twice its bytes."""
    global _policy_bytes
    if row_bytes > _policy_bytes:
        _policy_bytes = 2 * row_bytes
        np.empty(_policy_bytes, dtype=np.uint8)
    return max(1, _BLOCK_BYTES // row_bytes)


def _in_blocks(count, row_bytes, score):
    """The int64 values of ``count`` samples, drawn and scored by
    ``score(rows)`` in blocks of ``_block_rows(row_bytes)`` rows.

    A block's draws continue the chunk's stream where the last block left
    it (numpy keeps the spare half of a 64-bit output for the next 32-bit
    draw in the bit generator), so they are the draws of one whole-chunk
    call.
    """
    step = _block_rows(row_bytes)
    out = np.empty(count, dtype=np.int64)
    for start in range(0, count, step):
        rows = min(step, count - start)
        out[start : start + rows] = score(rows)
    return out


# --------------------------------------------------------------------------
# phi over batches of maps / histograms.
#
# phi(h) = sum over matching edges S of e_r(histogram of h restricted to S),
# where e_r is the elementary symmetric polynomial of degree r in the 2r
# per-vertex occurrence counts.
#
# Both kernels bring their rows to the counts of the edge vertices in slot
# order, a row per edge slot and a column per input row, slot p*|M| + i
# holding vertex edges[i, p] (the order of edges.T.ravel()).  phi_batch
# counts its maps straight into the slots with one bincount of
# slot[v]*rows + row, every unmatched vertex sharing one extra slot that is
# dropped; phi_hist_batch gathers the slot vertices of its histograms.  The
# (2r, |M|*rows) counts let the e_r recurrence run over 2r contiguous rows.


def _phi_by_slot(counts, ne, out):
    """Write phi of each column of the slot-order ``counts`` (width*ne, rows)
    of ``ne`` edges of even width 2r to ``out``."""
    width = counts.shape[0] // ne
    r = width // 2
    if r == 1:  # e_1 is the sum of the counts
        counts.sum(axis=0, out=out)
        return
    rows = counts.shape[1]
    cells = ne * rows
    counts = counts.reshape(width, cells)
    # e[j - 1] is e_j of the counts so far (e_0 = 1 implicit), updated while e_r is in reach
    e = np.empty((r, cells), dtype=np.int64)
    product = np.empty(cells, dtype=np.int64)
    np.copyto(e[0], counts[0])
    for v in range(1, width):
        for j in range(min(r, v + 1), max(1, v + 1 - r) - 1, -1):
            if j == 1:
                e[0] += counts[v]
            elif j == v + 1:
                np.multiply(e[j - 2], counts[v], out=e[j - 1])
            else:
                np.multiply(e[j - 2], counts[v], out=product)
                e[j - 1] += product
    e[r - 1].reshape(ne, rows).sum(axis=0, out=out)


@functools.lru_cache(maxsize=8)
def _first_bins(edge_bytes, shape, n, rows):
    """First bin, slot * rows, of each vertex of [0, n) in phi_batch's
    bincount over ``rows`` maps, the int64 edges being given by their bytes
    and ``shape``; every unmatched vertex gets the dropped slot, edges.size.

    Every block of a run has the same edges and all but its last the same
    rows, so the table is built and the edges checked once per run.  The
    table is read-only, as it is shared.  Raises ``ValueError`` for edges
    that are not disjoint vertex sets of [0, n) of one even size.
    """
    edges = np.frombuffer(edge_bytes, dtype=np.int64).reshape(shape)
    if shape[1] == 0 or shape[1] % 2:
        raise ValueError("expected a matching of even-size edges")
    if edges.min() < 0 or edges.max() >= n:
        raise ValueError("edge vertices must lie in [0, n)")
    if np.bincount(edges.ravel(), minlength=n).max() > 1:
        raise ValueError("edges must be disjoint")
    first_bin = np.full(n, edges.size * rows, dtype=np.int64)
    first_bin[edges.T.ravel()] = np.arange(0, edges.size * rows, rows)
    first_bin.flags.writeable = False
    return first_bin


def phi_batch(maps, edges, n):
    """phi of each row of ``maps`` (values in [0, n)) against 2r-set ``edges``.

    Raises ``ValueError`` for a map value outside [0, n) and for edges
    that are not disjoint vertex sets of [0, n) of one even size.
    """
    maps = np.ascontiguousarray(maps, dtype=np.int64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    # one pass: a negative value reads as 2^64 + value unsigned
    if maps.size and maps.view(np.uint64).max() >= n:
        raise ValueError("map values must lie in [0, n)")
    nb = maps.shape[0]
    if nb == 0 or edges.shape[0] == 0:
        return np.zeros(nb, dtype=np.int64)
    slots = edges.size
    cells = _first_bins(edges.tobytes(), edges.shape, n, nb)[maps]
    cells += np.arange(nb)[:, None]
    counts = np.bincount(cells.ravel(), minlength=(slots + 1) * nb)
    out = np.empty(nb, dtype=np.int64)
    _phi_by_slot(counts[: slots * nb].reshape(slots, nb), edges.shape[0], out)
    return out


def phi_hist_batch(hists, edges):
    """phi of each occupancy histogram row (nonnegative counts) against 2r-set ``edges``.

    Raises ``ValueError`` for edges of odd or zero size and for an edge
    vertex outside [0, n), n being the number of histogram columns.
    """
    hists = np.ascontiguousarray(hists, dtype=np.int64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    nb, n = hists.shape
    if nb == 0 or edges.shape[0] == 0:
        return np.zeros(nb, dtype=np.int64)
    if edges.shape[1] == 0 or edges.shape[1] % 2:
        raise ValueError("expected a matching of even-size edges")
    if edges.min() < 0 or edges.max() >= n:
        raise ValueError("edge vertices must lie in [0, n)")
    hist = np.ascontiguousarray(hists.T)  # vertex-major; take would copy a strided source
    counts = np.empty((edges.size, nb), dtype=np.int64)
    # mode="clip" writes to out directly, mode="raise" via a copy
    np.take(hist, edges.T.ravel(), axis=0, out=counts, mode="clip")
    out = np.empty(nb, dtype=np.int64)
    _phi_by_slot(counts, edges.shape[0], out)
    return out


# --------------------------------------------------------------------------
# Counting edges fully contained in 0/1 subsets.


def contained_edges_batch(bits, edges):
    """Per row of ``bits``: number of ``edges`` whose vertices are all nonzero.

    The counts come in the narrowest unsigned dtype that holds len(edges).
    """
    bits = np.asarray(bits)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    nb = bits.shape[0]
    if nb == 0 or edges.shape[0] == 0:
        return np.zeros(nb, dtype=np.int64)
    by_vertex = np.ascontiguousarray(bits.T, dtype=bool)
    inside = by_vertex[edges[:, 0]]  # one row per edge, one column per input row
    for i in range(1, edges.shape[1]):
        inside &= by_vertex[edges[:, i]]
    # count_nonzero would widen every cell to intp before summing
    return np.add.reduce(inside.view(np.uint8), axis=0, dtype=np.min_scalar_type(len(edges)))


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
