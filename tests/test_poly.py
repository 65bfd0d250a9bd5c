import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polywidth import poly
from polywidth.hypergraph import Hypergraph


def test_single_edge():
    h = Hypergraph(2, [(0, 1)])
    assert poly.evaluate(h, (1, 1)) == 1
    assert poly.evaluate(h, (1, 0)) == 0


def test_all_ones_counts_edges():
    h = Hypergraph(4, [(0, 1), (2, 3), (0, 1, 2), (3,)])
    assert poly.evaluate(h, [1] * 4) == h.num_edges


def test_sign_cancellation():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    assert poly.evaluate(h, (1, 1, 1, -1)) == 0


def test_integer_inputs_stay_exact():
    h = Hypergraph(2, [(0, 1)])
    big = 10**12
    assert poly.evaluate(h, (big, big)) == big * big  # would overflow float


def test_mixed_numpy_and_huge_integers_stay_exact():
    # a list holding an int beyond int64 becomes an object array of its
    # own entries; the numpy ones must not overflow in the products
    h = Hypergraph(3, [(0, 1), (0, 1, 2), (2,)])
    x = [np.int64(10**12), np.int64(10**12), 10**30]
    assert poly.evaluate(h, x) == 10**24 + 10**54 + 10**30
    assert poly.gradient(h, x) == [10**12 + 10**42, 10**12 + 10**42, 10**24 + 1]
    assert all(type(v) is int for v in poly.gradient(h, x))


def test_edgeless_and_singleton_terms_are_int():
    # an empty sum or an empty product is the int 0 or 1, whatever the input
    assert type(poly.evaluate(Hypergraph(2, []), np.array([0.5, 2.0]))) is int
    assert poly.gradient(Hypergraph(2, [(0,)]), [0.5, 2.0]) == [1, 0]


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        poly.evaluate(Hypergraph(3, [(0, 1)]), (1, 1))
    with pytest.raises(ValueError):
        poly.evaluate(Hypergraph(2, [(0, 1)]), np.ones((2, 2)))


def test_nested_lists_are_not_vectors():
    # a list or tuple is read without numpy, with the shape check an array gets
    h = Hypergraph(2, [(0, 1)])
    for x in ([[1, 1], [1, 1]], ([1], [1]), [np.ones(2), np.ones(2)], [1, np.ones(1)]):
        with pytest.raises(ValueError, match="vector of length 2"):
            poly.evaluate(h, x)
    assert poly.evaluate(h, [np.int64(3), np.float64(0.5)]) == 1.5


def test_gradient_all_ones_is_degree_sequence():
    h = Hypergraph(4, [(0, 1), (2, 3), (0, 1, 2), (3,)])
    assert poly.gradient(h, [1] * 4) == h.degrees()


def test_gradient_product_rule():
    h = Hypergraph(2, [(0, 1)])
    assert poly.gradient(h, (5, 7)) == [7, 5]


@given(st.integers(0, 5000))
@settings(max_examples=50, deadline=None)
def test_gradient_matches_central_difference(seed):
    rng = np.random.default_rng(seed)
    h = oracles.random_hypergraph(rng, n_max=12, d_max=4, max_edges=14)
    x = rng.uniform(-1.0, 1.0, size=h.n)
    grad = poly.gradient(h, x)
    eps = 1e-4
    for i in range(h.n):
        hi, lo = x.copy(), x.copy()
        hi[i] += eps
        lo[i] -= eps
        fd = (poly.evaluate(h, hi) - poly.evaluate(h, lo)) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-6


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_affine_in_each_coordinate(seed):
    # three collinear evaluations: f(mid) = (f(lo) + f(hi)) / 2 in x_i
    rng = np.random.default_rng(seed)
    h = oracles.random_hypergraph(rng, n_max=8)
    x = rng.uniform(-2.0, 2.0, size=h.n)
    i = int(rng.integers(h.n))
    lo, mid, hi = x.copy(), x.copy(), x.copy()
    lo[i], mid[i], hi[i] = 0.0, 0.5, 1.0
    f_lo, f_mid, f_hi = (poly.evaluate(h, v) for v in (lo, mid, hi))
    assert math.isclose(f_mid, (f_lo + f_hi) / 2, rel_tol=1e-12, abs_tol=1e-9)


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_binary_range(seed):
    rng = np.random.default_rng(seed)
    h = oracles.random_hypergraph(rng, n_max=8)
    x = rng.integers(0, 2, size=h.n)
    value = poly.evaluate(h, x)
    assert 0 <= value <= h.n * h.max_degree


def test_gradient_matches_derived_hypergraphs():
    # exhaustive on a small uniform hypergraph
    h = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for mask in range(16):
        x = [(mask >> j) & 1 for j in range(4)]
        grad = poly.gradient(h, x)
        for i in range(4):
            derived = Hypergraph(4, [tuple(v for v in e if v != i) for e in h.edges if i in e])
            assert grad[i] == poly.evaluate(derived, x)
