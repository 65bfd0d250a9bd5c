"""Sparse square matrices with nonnegative integer entries.

Stored as aggregated COO triples sorted by (row, col); duplicate coordinates
merge by summing values.  Dimensions up to the enumeration budget (about
10^6) are expected; only entry-linear operations are provided.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = ["SparseMatrix"]


@dataclass(frozen=True)
class SparseMatrix:
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

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

    @classmethod
    def zeros(cls, dim):
        z = np.zeros(0, dtype=np.int64)
        return cls(int(dim), z, z.copy(), z.copy())

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def transposed(self) -> "SparseMatrix":
        return SparseMatrix.from_entries(self.dim, self.cols, self.rows, self.vals)

    def is_symmetric(self) -> bool:
        t = self.transposed()
        return (
            np.array_equal(self.rows, t.rows)
            and np.array_equal(self.cols, t.cols)
            and np.array_equal(self.vals, t.vals)
        )

    def row_value_sums(self) -> np.ndarray:
        return self._value_sums(self.rows)

    def col_value_sums(self) -> np.ndarray:
        return self._value_sums(self.cols)

    def _value_sums(self, index) -> np.ndarray:
        # int64 accumulation: float bincount weights round sums above 2^53
        out = np.zeros(self.dim, dtype=np.int64)
        np.add.at(out, index, self.vals)
        return out

    def row_entry_counts(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.dim).astype(np.int64)

    def col_entry_counts(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.dim).astype(np.int64)

    def total(self) -> int:
        return int(self.vals.sum())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,):
            raise ValueError("vector length mismatch")
        return _kernels.coo_matvec(self.rows, self.cols, self.vals, x, self.dim)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,):
            raise ValueError("vector length mismatch")
        return _kernels.coo_matvec(self.cols, self.rows, self.vals, x, self.dim)

    def to_dense(self, limit=4096) -> np.ndarray:
        if self.dim > limit:
            raise ValueError(f"dense conversion capped at dim {limit}")
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        out[self.rows, self.cols] = self.vals
        return out

    def save_text(self, path) -> None:
        """Header "N nnz", then one "row col value" line per entry."""
        with open(path, "w") as fh:
            fh.write(f"{self.dim} {self.nnz}\n")
            for r, c, v in zip(self.rows, self.cols, self.vals):
                fh.write(f"{r} {c} {v}\n")

    @classmethod
    def load_text(cls, path) -> "SparseMatrix":
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError("header must be 'N nnz'")
            dim, nnz = int(header[0]), int(header[1])
            rows, cols, vals = [], [], []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                r, c, v = (int(tok) for tok in line.split())
                rows.append(r)
                cols.append(c)
                vals.append(v)
        if len(rows) != nnz:
            raise ValueError(f"expected {nnz} entries, found {len(rows)}")
        return cls.from_entries(dim, rows, cols, vals)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )
