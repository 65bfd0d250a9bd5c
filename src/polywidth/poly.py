"""Multilinear 0-1 polynomials attached to hypergraphs.

The polynomial of a hypergraph sums, over its edges, the product of the
variables indexed by the edge.  Coordinates become Python numbers, so
integer inputs are evaluated in exact (arbitrary-precision) integer
arithmetic and float inputs in float arithmetic.
"""

import math

import numpy as np

__all__ = ["evaluate", "gradient"]


def _values(x, n):
    """The coordinates of the length-n vector x as Python numbers."""
    arr = np.asarray(x)
    if arr.shape != (n,):
        raise ValueError(f"expected a vector of length {n}")
    # an object array (a list mixing numpy ints with ints beyond int64)
    # keeps its numpy scalars, whose products would overflow
    return [v.item() if isinstance(v, np.generic) else v for v in arr.tolist()]


def evaluate(h, x):
    """Sum over edges of the product of the coordinates on the edge."""
    vals = _values(x, h.n)
    return sum(math.prod(vals[v] for v in e) for e in h.edges)


def gradient(h, x):
    """Partial derivatives: coordinate i sums, over edges containing i, the
    product of the other coordinates of the edge."""
    vals = _values(x, h.n)
    grad = [0] * h.n
    for e in h.edges:
        for i in e:
            grad[i] += math.prod(vals[v] for v in e if v != i)
    return grad
