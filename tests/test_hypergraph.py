import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polywidth import birthday, poly, tensorlift
from polywidth.hypergraph import (
    EdgeColoring,
    Hypergraph,
    color_classes,
    complete_to_maximal_matching,
    default_matching,
    greedy_edge_coloring,
    homogenize,
    load_hypergraph,
    save_hypergraph,
)


def test_construction_canonicalizes_and_validates():
    h = Hypergraph(4, [(1, 0), (2, 3)])
    assert h.edges == ((0, 1), (2, 3))
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Hypergraph(3, [()])


def test_records_are_immutable_and_compare_by_fields():
    h = Hypergraph(4, [(1, 0), (2, 3)])
    assert (h.n, h.edges) == (4, ((0, 1), (2, 3)))
    assert repr(h) == "Hypergraph(n=4, edges=((0, 1), (2, 3)))"
    assert h == Hypergraph(4, [(0, 1), (3, 2)]) and h != Hypergraph(5, h.edges)
    assert hash(h) == hash(Hypergraph(4, h.edges)) == hash((4, ((0, 1), (2, 3))))
    coloring = greedy_edge_coloring(h)
    assert (coloring.colors, coloring.num_colors) == ((0, 0), 1)
    assert repr(coloring) == "EdgeColoring(colors=(0, 0), num_colors=1)"
    assert coloring == EdgeColoring((0, 0), 1) and coloring != EdgeColoring((0, 1), 2)
    assert hash(coloring) == hash(((0, 0), 1))
    for record, field in ((h, "n"), (h, "edges"), (coloring, "num_colors")):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            record.other = 1


def test_edge_masks_set_one_bit_per_vertex():
    # parallel edges keep one mask each, in stored order; a singleton edge
    # is one bit
    h = Hypergraph(70, [(3, 0), (0, 3), (5,), (69, 1, 64)])
    assert h.edge_masks() == [0b1001, 0b1001, 0b100000, (1 << 69) | (1 << 64) | 0b10]
    assert Hypergraph(4, []).edge_masks() == []


def test_degree_profile_matching():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    assert h.degrees() == [1, 1, 1, 1]
    assert h.max_degree == 1


def test_degree_profile_triangle():
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert h.max_degree == 2


def test_degree_profile_fixed_difference_aps():
    # the 7 edges {x, x+1, x+2} over Z/7Z; count incidences directly
    edges = [tuple(sorted((x + t) % 7 for t in range(3))) for x in range(7)]
    expected = [sum(1 for e in edges if v in e) for v in range(7)]
    h = Hypergraph(7, edges)
    assert h.degrees() == expected
    assert h.max_degree == 3


def test_greedy_coloring_matching_single_color():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    c = greedy_edge_coloring(h)
    assert c.num_colors == 1


def test_greedy_coloring_triangle_needs_three():
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    c = greedy_edge_coloring(h)
    assert c.num_colors == 3
    # exhaustive oracle: no proper 2-coloring exists
    assert not oracles.proper_coloring_exists(h.edges, 2)
    assert oracles.proper_coloring_exists(h.edges, 3)


def _assert_proper(h, coloring):
    for i in range(h.num_edges):
        for j in range(i + 1, h.num_edges):
            if set(h.edges[i]) & set(h.edges[j]):
                assert coloring.colors[i] != coloring.colors[j]


@given(st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_greedy_coloring_valid_and_bounded(seed):
    rng = np.random.default_rng(seed)
    h = oracles.random_hypergraph(rng)
    c = greedy_edge_coloring(h)
    _assert_proper(h, c)
    if h.edges:
        d = h.max_edge_size
        assert h.max_degree <= c.num_colors <= d * (h.max_degree - 1) + 1
        classes = color_classes(h, c)
        assert all(Hypergraph(h.n, g).max_degree <= 1 for g in classes if g)
        assert sorted(e for g in classes for e in g) == sorted(h.edges)


def test_complete_matching_from_empty():
    m = complete_to_maximal_matching(Hypergraph(8, ()), 2)
    assert m.edges == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_complete_matching_aligned():
    m = complete_to_maximal_matching(Hypergraph(8, [(0, 1, 2, 3)]), 2)
    assert m.edges == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_complete_matching_staggered():
    m = complete_to_maximal_matching(Hypergraph(8, [(1, 2, 4, 5)]), 2)
    assert m.edges == ((1, 2, 4, 5), (0, 3, 6, 7))


def test_complete_matching_rejects_bad_input():
    with pytest.raises(ValueError):
        complete_to_maximal_matching(Hypergraph(8, [(0, 1)]), 2)
    with pytest.raises(ValueError):
        complete_to_maximal_matching(Hypergraph(8, [(0, 1, 2, 3), (3, 4, 5, 6)]), 2)


@given(st.integers(0, 3000), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_complete_matching_is_maximal(seed, r):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 * r, 16))
    # random partial matching
    verts = list(rng.permutation(n))
    edges = []
    while len(verts) >= 2 * r and rng.random() < 0.5:
        edges.append(tuple(sorted(verts[: 2 * r])))
        verts = verts[2 * r :]
    m = complete_to_maximal_matching(Hypergraph(n, edges), r)
    assert m.max_degree <= 1
    used = {v for e in m.edges for v in e}
    assert n - len(used) < 2 * r  # no further 2r-set fits
    assert m.num_edges >= (n - 2 * r * len(edges)) // (2 * r) + len(edges)


def test_homogenize_one_uniform():
    h = Hypergraph(2, [(0,), (1,)])
    h2, pads = homogenize(h, 2)
    assert h2.is_uniform(2)
    assert h2.max_degree == 1
    assert h2.n == 4
    # distinct pad vertices for edges in distinct groups
    assert pads[0] != pads[1]


def test_homogenize_mixed_sizes():
    h = Hypergraph(2, [(0,), (0, 1)])
    h2, pads = homogenize(h, 2)
    assert h2.is_uniform(2)
    assert h2.max_degree == h.max_degree == 2
    assert len(pads[0]) == 1 and len(pads[1]) == 0


def test_homogenize_rejects_oversized_edges():
    with pytest.raises(ValueError):
        homogenize(Hypergraph(3, [(0, 1, 2)]), 2)


@given(st.integers(0, 5000), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_homogenize_preserves_evaluations(seed, extra):
    rng = np.random.default_rng(seed)
    h = oracles.random_hypergraph(rng, n_max=8, d_max=4, max_edges=10)
    d = h.max_edge_size + (extra - 1) if h.edges else extra
    d = max(d, 1)
    h2, pads = homogenize(h, d)
    assert h2.is_uniform(d) or not h2.edges
    assert h2.max_degree == h.max_degree
    assert h2.num_edges == h.num_edges
    for i, e in enumerate(h.edges):
        assert set(h2.edges[i]) == set(e) | set(pads[i])
    # exhaustive identity: padding with ones leaves the evaluation unchanged
    for mask in range(1 << h.n):
        x = [(mask >> j) & 1 for j in range(h.n)]
        padded = x + [1] * (h2.n - h.n)
        assert poly.evaluate(h, x) == poly.evaluate(h2, padded)


def test_text_roundtrip(tmp_path):
    h = Hypergraph(5, [(0, 1, 2), (2, 3), (4,), (0, 1, 2)])
    path = tmp_path / "h.txt"
    save_hypergraph(h, path)
    assert load_hypergraph(path) == h


def test_load_rejects_unsorted(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n2 1\n")
    with pytest.raises(ValueError):
        load_hypergraph(path)


GOODNESS_CALLS = {  # every caller of the one check of (r, n, s), each with a valid m
    "phi_statistics": lambda r, n, s: birthday.phi_statistics(r, n, 3, s, samples=10),
    "poisson_domination_check": lambda r, n, s: birthday.poisson_domination_check(r, n, 3, 10),
    "build_matrix_lift": lambda r, n, s: tensorlift.build_matrix_lift(Hypergraph(n, ()), 3, r, s),
    "enumerate_pairs": lambda r, n, s: tensorlift.enumerate_pairs(
        default_matching(n, r), 3, s, [0]
    ),
}


# enumerate_pairs reads r from a matching, which has n >= 2r, and the
# domination check takes the default s
@pytest.mark.parametrize(
    "call, r, n, s, message",
    [
        ("phi_statistics", 0, 10, 1, "r must be positive"),
        ("poisson_domination_check", 0, 10, 1, "r must be positive"),
        ("build_matrix_lift", 0, 10, 1, "r must be positive"),
        ("phi_statistics", 2, 3, 1, "n must be at least 2r"),
        ("poisson_domination_check", 2, 3, 1, "n must be at least 2r"),
        ("build_matrix_lift", 2, 3, 1, "n must be at least 2r"),
        ("phi_statistics", 1, 4, -1, "s must be positive"),
        ("build_matrix_lift", 1, 4, -1, "s must be positive"),
        ("enumerate_pairs", 1, 4, -1, "s must be positive"),
    ],
)
def test_goodness_arguments_are_checked_alike(call, r, n, s, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GOODNESS_CALLS[call](r, n, s)
