"""Multilinear 0-1 polynomials attached to hypergraphs.

The polynomial of a hypergraph sums, over its edges, the product of the
variables indexed by the edge.  Coordinates become Python numbers, so
integer inputs are evaluated in exact (arbitrary-precision) integer
arithmetic and float inputs in float arithmetic.
"""

import math

__all__ = ["evaluate", "gradient"]


def _values(x, n):
    """The coordinates of the length-n vector x as Python numbers.

    A list or tuple is read as it is; anything else goes through numpy."""
    if isinstance(x, (list, tuple)):
        if len(x) != n or any(isinstance(v, (list, tuple)) or getattr(v, "ndim", 0) for v in x):
            raise ValueError(f"expected a vector of length {n}")
    else:
        import numpy as np

        x = np.asarray(x)
        if x.shape != (n,):
            raise ValueError(f"expected a vector of length {n}")
        x = x.tolist()
    # numpy scalars (in a list, or in an object array) become Python
    # numbers, whose products cannot overflow
    return [v.item() if hasattr(v, "item") else v for v in x]


def evaluate(h, x):
    """Sum over edges of the product of the coordinates on the edge."""
    value = _values(x, h.n).__getitem__
    return sum(math.prod(map(value, e)) for e in h.edges)


def gradient(h, x):
    """Partial derivatives: coordinate i sums, over edges containing i, the
    product of the other coordinates of the edge."""
    vals = _values(x, h.n)
    grad = [0] * h.n
    for e in h.edges:
        for i in e:
            grad[i] += math.prod(vals[v] for v in e if v != i)
    return grad
