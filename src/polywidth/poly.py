"""Multilinear 0-1 polynomials attached to hypergraphs.

The polynomial of a hypergraph sums, over its edges, the product of the
variables indexed by the edge.  Integer inputs are evaluated in exact
(arbitrary-precision) integer arithmetic; anything else falls back to float.
"""

import numpy as np

__all__ = ["evaluate", "gradient"]


def _coerce(x, n):
    """Return (values list, is_integral)."""
    if isinstance(x, np.ndarray):
        if x.ndim != 1 or x.shape[0] != n:
            raise ValueError(f"expected a vector of length {n}")
        if np.issubdtype(x.dtype, np.integer) or x.dtype == np.bool_:
            return [int(v) for v in x], True
        return [float(v) for v in x], False
    vals = list(x)
    if len(vals) != n:
        raise ValueError(f"expected a vector of length {n}")
    if all(isinstance(v, (bool, int, np.integer)) for v in vals):
        return [int(v) for v in vals], True
    return [float(v) for v in vals], False


def evaluate(h, x):
    """Sum over edges of the product of the coordinates on the edge."""
    vals, integral = _coerce(x, h.n)
    total = 0 if integral else 0.0
    for e in h.edges:
        term = vals[e[0]]
        for v in e[1:]:
            term *= vals[v]
        total += term
    return total


def gradient(h, x):
    """Partial derivatives: coordinate i sums, over edges containing i, the
    product of the other coordinates of the edge."""
    vals, integral = _coerce(x, h.n)
    grad = [0 if integral else 0.0] * h.n
    for e in h.edges:
        for i in e:
            term = 1 if integral else 1.0
            for v in e:
                if v != i:
                    term *= vals[v]
            grad[i] += term
    return grad

