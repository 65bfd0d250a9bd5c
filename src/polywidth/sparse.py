"""Sparse square integer matrices for the matching-matrix experiments.

Stored as aggregated COO triples sorted by (row, col); duplicate coordinates
merge by summing values and zero sums are dropped.  Only construction and
the two matrix-vector products that power iteration needs are provided.
"""

from collections import namedtuple

import numpy as np

from . import _kernels

__all__ = ["SparseMatrix"]


class SparseMatrix(namedtuple("SparseMatrix", "dim rows cols vals")):
    """A ``dim`` x ``dim`` matrix as int64 COO arrays ``rows``, ``cols`` and
    ``vals``.  Equal and hashed by identity, as comparing the arrays would
    compare them element by element."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @classmethod
    def from_entries(cls, dim, rows, cols, vals=None):
        """Build from entry arrays, merging duplicates and dropping zeros."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if vals is None:
            vals = np.ones(len(rows), dtype=np.int64)
        else:
            vals = np.asarray(vals, dtype=np.int64)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("entry arrays must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim):
            raise ValueError("entry index outside the matrix")
        flat = rows * dim + cols
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        vals = vals[order]
        if len(flat):
            # the keys are sorted: merge each run of equal keys at its start
            starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
            uniq = flat[starts]
            merged = np.add.reduceat(vals, starts)
            keep = merged != 0
            uniq, merged = uniq[keep], merged[keep]
        else:
            uniq = flat
            merged = vals
        return cls(int(dim), uniq // dim, uniq % dim, merged)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,):
            raise ValueError("vector length mismatch")
        return _kernels.coo_matvec(self.rows, self.cols, self.vals, x, self.dim)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,):
            raise ValueError("vector length mismatch")
        return _kernels.coo_matvec(self.cols, self.rows, self.vals, x, self.dim)
