import itertools

import numpy as np
import pytest

import oracles
from oracles import ordered_ap_count
from polywidth import mc, poly
from polywidth.aps import (
    ap_hypergraph,
    doubled_polynomial_check,
    fixed_difference_hypergraph,
    gradient_hypergraphs,
    pair_incidence_profile,
    progressions,
    two_transitivity_check,
)
from polywidth.hypergraph import Hypergraph


def test_z5_edge_list():
    h = ap_hypergraph(5, 3)
    expected = [
        (0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4),
        (0, 2, 4), (0, 1, 3), (1, 2, 4), (0, 2, 3), (1, 3, 4),
    ]
    assert sorted(h.edges) == sorted(expected)
    assert h.num_edges == 10


@pytest.mark.parametrize("N", [5, 7, 11, 13])
@pytest.mark.parametrize("k", [3, 4])
def test_edge_count_and_oracle(N, k):
    if k > N:
        pytest.skip("k exceeds N")
    h = ap_hypergraph(N, k)
    assert h.num_edges == N * (N - 1) // 2
    assert sorted(h.edges) == sorted(oracles.ap_edges_direct(N, k))


def test_edges_have_k_distinct_vertices():
    for N, k in [(5, 3), (7, 5), (11, 4), (13, 13)]:
        h = ap_hypergraph(N, k)
        assert h.is_uniform(k)


def test_rejects_composite_or_oversized():
    with pytest.raises(ValueError):
        ap_hypergraph(9, 3)
    with pytest.raises(ValueError):
        ap_hypergraph(5, 7)
    # a zero difference, a composite modulus, k outside [2, N]
    for N, k, y in ((7, 3, 7), (9, 3, 1), (7, 1, 1), (7, 8, 1)):
        with pytest.raises(ValueError):
            fixed_difference_hypergraph(N, k, y)


def test_fixed_difference_degree():
    h = fixed_difference_hypergraph(7, 3, 1)
    assert h.num_edges == 7
    incident = [e for e in h.edges if 0 in e]
    assert sorted(incident) == [(0, 1, 2), (0, 1, 6), (0, 5, 6)]
    assert h.max_degree == 3
    assert h.degrees() == [3] * 7


def test_fixed_difference_lambda_consistency():
    # summing the per-difference polynomials recovers the ordered count
    rng = np.random.default_rng(5)
    for _ in range(20):
        bits = rng.integers(0, 2, size=7)
        total = sum(
            poly.evaluate(fixed_difference_hypergraph(7, 3, y), bits)
            for y in range(1, 7)
        )
        assert total == ordered_ap_count(bits, 3)


def test_fixed_difference_reversal_symmetry():
    for y in range(1, 6):
        a = fixed_difference_hypergraph(11, 4, y)
        b = fixed_difference_hypergraph(11, 4, 11 - y)
        assert sorted(a.edges) == sorted(b.edges)


PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize(
    "N,k", [(N, k) for N in PRIMES_TO_31 for k in range(3, min(N, 7) + 1)]
)
def test_fixed_difference_partition(N, k):
    # differences 1..(N-1)/2 partition the unordered progression multiset,
    # and list it in the order of ap_hypergraph
    combined = []
    for y in range(1, (N - 1) // 2 + 1):
        combined.extend(fixed_difference_hypergraph(N, k, y).edges)
    assert combined == list(ap_hypergraph(N, k).edges)


@pytest.mark.parametrize("N", range(3, 41))
def test_ap_hypergraphs_match_the_orbit_scan(N):
    # prime N: the edges in the order of the orbit scan; composite N: rejected
    for k in range(3, min(N, 8) + 1):
        if N in PRIMES_TO_31 + [37]:
            want = oracles.ap_edges_orbit_direct(N, k)
            assert list(ap_hypergraph(N, k).edges) == want, k
        else:
            with pytest.raises(ValueError, match="prime"):
                ap_hypergraph(N, k)


def test_pair_incidence_z5_and_z7():
    for N in (5, 7):
        h = ap_hypergraph(N, 3)
        max_pair, table = pair_incidence_profile(h)
        assert max_pair == 3
        assert set(table.values()) == {3}
        assert len(table) == N * (N - 1) // 2


def test_pair_incidence_matching():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    max_pair, table = pair_incidence_profile(h)
    assert max_pair == 1
    assert table == {(0, 1): 1, (2, 3): 1}


@pytest.mark.parametrize("N,k", [(5, 3), (7, 4), (11, 3), (13, 4), (17, 5), (31, 3)])
def test_structural_counts_double_counting(N, k):
    h = ap_hypergraph(N, k)
    assert h.num_edges == N * (N - 1) // 2
    assert all(2 * d == k * (N - 1) for d in h.degrees())
    max_pair, table = pair_incidence_profile(h)
    assert all(2 * c == k * (k - 1) for c in table.values())
    assert max_pair * 2 == k * (k - 1)


@pytest.mark.parametrize("N,k", [(5, 3), (7, 3), (11, 3), (13, 3), (13, 4), (17, 5)])
def test_doubled_polynomial_equals_ordered_count(N, k):
    h = ap_hypergraph(N, k)
    rng = np.random.default_rng(N * 100 + k)
    for _ in range(25):
        bits = rng.integers(0, 2, size=N)
        assert 2 * poly.evaluate(h, bits) == ordered_ap_count(bits, k)


def test_expected_ordered_count_mc_cross_check():
    # E[ordered count] = p^3 N(N-1) = 19.5 at N = 13, p = 1/2
    def value_fn(gen, count):
        rows = gen.random((count, 13)) < 0.5
        return np.array([ordered_ap_count(bits, 3) for bits in rows], dtype=np.float64)

    (est,) = mc.run_chunked(value_fn, 4000, seed=8)
    assert abs(est.mean - 19.5) <= 3 * est.std_error


def test_two_transitivity():
    assert two_transitivity_check(ap_hypergraph(7, 3))
    assert two_transitivity_check(ap_hypergraph(11, 4))
    with pytest.raises(ValueError, match="prime"):
        two_transitivity_check(Hypergraph(9, [(0, 1, 2)]))


@pytest.mark.parametrize("N", PRIMES_TO_31)
def test_two_transitivity_maps_each_drawn_pair_onto_the_other(N):
    # the map x -> scale*x + shift sends the pair (0, 1) onto
    # (shift, scale + shift).  These image pairs are the N(N-1) ordered
    # pairs of distinct vertices, each once: the affine maps act sharply
    # 2-transitively, and oracles.affine_maps_keep_direct visits each once
    images = [(shift, (scale + shift) % N) for scale in range(1, N) for shift in range(N)]
    assert len(set(images)) == len(images) == N * (N - 1)
    assert all(c != d for c, d in images)


def _random_rows(rng, rows, N):
    """0/1 rows of mixed densities, plus the empty and the full set."""
    density = rng.uniform(0.2, 0.95, size=(rows, 1))
    bits = (rng.random((rows, N)) < density).astype(np.uint8)
    return np.vstack([bits, np.zeros(N, np.uint8), np.ones(N, np.uint8)])


@pytest.mark.parametrize("N", PRIMES_TO_31 + [4, 6, 9, 12, 15])
def test_ordered_ap_count_matches_direct(N):
    # k = N (prime N <= 7) makes every edge the whole group; composite N
    # repeats terms of progressions whose difference shares a factor with N
    rng = np.random.default_rng(N)
    for k in range(3, min(N, 7) + 1):
        rows = _random_rows(rng, 12, N)
        want = [oracles.ordered_ap_count_direct(list(row), k) for row in rows]
        got = [ordered_ap_count(row, k) for row in rows]
        assert all(type(c) is int for c in got)
        assert got == want, k
        assert want[-1] == N * (N - 1)  # the full set holds every progression


def test_ordered_ap_count_takes_lists_and_arrays():
    assert ordered_ap_count([1, 1, 1, 0, 0], 3) == 2  # 0,1,2 and 2,1,0
    assert ordered_ap_count([True, False, True, True, False], 3) == 2  # 3,0,2 and 2,0,3
    # a numpy row, its list and its bool list count alike
    row = (np.random.default_rng(2).random(31) < 0.6).astype(np.uint8)
    want = oracles.ordered_ap_count_direct(list(row), 5)
    assert ordered_ap_count(row, 5) == ordered_ap_count(row.tolist(), 5) == want
    assert ordered_ap_count(row.astype(bool).tolist(), 5) == want
    assert ordered_ap_count([], 5) == 0
    with pytest.raises(ValueError, match="k must be positive"):
        ordered_ap_count([1, 1, 1], 0)


@pytest.mark.parametrize("N", [3, 5, 7, 11, 13, 17, 19, 23])
def test_every_affine_map_keeps_the_progression_edges(N):
    # x -> a x + b (a != 0) sends a progression to one of the same length,
    # so transitive_ok holds on every valid input.  Checked on all N(N-1)
    # maps: scale the edge masks by a, then rotate them by b
    full = (1 << N) - 1
    for k in range(3, min(N, 7) + 1):
        h = ap_hypergraph(N, k)
        masks = set(h.edge_masks())
        for a in range(1, N):
            scaled = [sum(1 << (a * x % N) for x in e) for e in h.edges]
            for b in range(N):
                assert masks.issuperset(((m << b) | (m >> (N - b))) & full for m in scaled)


@pytest.mark.parametrize(
    "N,k", [(N, k) for N in (3, 5, 7, 11, 13) for k in range(3, min(N, 7) + 1)]
)
def test_doubled_polynomial_equals_ordered_count_on_every_subset(N, k):
    # each edge is a progression and its reversal, so lambda_ok holds on
    # every valid input.  Checked on all 2^N subsets
    h = ap_hypergraph(N, k)
    for S in range(1 << N):
        bits = [S >> x & 1 for x in range(N)]
        assert 2 * poly.evaluate(h, bits) == ordered_ap_count(bits, k), S


@pytest.mark.parametrize("N", PRIMES_TO_31)
def test_two_transitivity_matches_direct(N):
    assert oracles.affine_maps_keep_direct(ap_hypergraph(N, 3).edges, N) is True
    for k in range(3, min(N, 7) + 1):
        assert two_transitivity_check(ap_hypergraph(N, k)) is True


@pytest.mark.parametrize("N", [3, 5, 7, 11, 13])
def test_both_checks_hold_on_every_small_ap_hypergraph(N):
    for k in range(3, N + 1):
        h = ap_hypergraph(N, k)
        assert two_transitivity_check(h) is True, k
        assert doubled_polynomial_check(h, k) is True, k


def _perturbed(N, k):
    """The progression hypergraph with its first edge moved off a progression."""
    h = ap_hypergraph(N, k)
    edges = set(h.edges)
    for v in range(N):
        e = tuple(sorted({*h.edges[0][:-1], v}))
        if len(e) == k and e not in edges:
            return Hypergraph(N, (e,) + h.edges[1:])
    raise AssertionError("no perturbation found")


@pytest.mark.parametrize("N,k", [(7, 3), (11, 4), (13, 6), (31, 5)])
def test_two_transitivity_rejects_a_perturbed_edge(N, k):
    h = _perturbed(N, k)
    assert two_transitivity_check(h) is False
    assert oracles.affine_maps_keep_direct(h.edges, N) is False


def _power_differences(N, k, e):
    """Progressions whose differences are the e-th powers: a map x -> s x + t
    keeps them when s is an e-th power, whatever t."""
    ys = sorted({pow(x, e, N) for x in range(1, N)})
    return Hypergraph(N, [edge for y in ys for edge in fixed_difference_hypergraph(N, k, y).edges])


@pytest.mark.parametrize(
    "h,kept",
    [
        # every difference an e-th power, or (N = 3 mod 4) one of y, -y a
        # square: each progression is there, so every map keeps them
        (_power_differences(5, 3, 3), True), (_power_differences(7, 3, 2), True),
        (_power_differences(11, 3, 2), True), (_power_differences(11, 4, 3), True),
        # a proper subgroup of differences closed under y -> -y: the maps
        # whose scale s lies outside it break them
        (_power_differences(5, 3, 2), False), (_power_differences(7, 3, 3), False),
        (_power_differences(11, 3, 5), False), (_power_differences(13, 3, 2), False),
        (_power_differences(13, 4, 2), False), (_power_differences(13, 3, 3), False),
        (_power_differences(31, 5, 3), False),
        # the edges {0, v}: kept by the maps that fix 0, broken by a shift
        (Hypergraph(5, [(0, v) for v in range(1, 5)]), False),
        (Hypergraph(7, [(0, v) for v in range(1, 7)]), False),
    ],
    ids=["5-3-cubes", "7-3-squares", "11-3-squares", "11-4-cubes", "5-3-squares",
         "7-3-cubes", "11-3-fifths", "13-3-squares", "13-4-squares", "13-3-cubes",
         "31-5-cubes", "5-star", "7-star"],
)
def test_two_transitivity_matches_every_affine_map(h, kept):
    # the two generating maps decide what all N(N-1) maps do
    assert oracles.affine_maps_keep_direct(h.edges, h.n) is kept
    assert two_transitivity_check(h) is kept


def test_two_transitivity_counts_parallel_edges():
    # {A, A, B} with x -> x + 1 swapping A = {0} and B = {1}: the image
    # {B, B, A} holds the same edges but not as often
    h = Hypergraph(2, [(0,), (0,), (1,)])
    assert oracles.affine_maps_keep_direct(h.edges, 2) is False
    assert two_transitivity_check(h) is False
    # every pair of Z/5Z is one orbit: kept once or twice each, not with one
    # pair doubled
    pairs = list(itertools.combinations(range(5), 2))
    assert two_transitivity_check(Hypergraph(5, pairs)) is True
    assert two_transitivity_check(Hypergraph(5, pairs * 2)) is True
    assert two_transitivity_check(Hypergraph(5, pairs + pairs[:1])) is False


def test_two_transitivity_on_edgeless_and_non_uniform_hypergraphs():
    # every edge of an edgeless hypergraph maps onto an edge, vacuously
    assert two_transitivity_check(Hypergraph(7, [])) is True
    # edges of several sizes: each size class must be kept on its own
    complete = list(itertools.combinations(range(7), 2)) + [tuple(range(7))]
    for edges, kept in (([(0, 1), (0, 1, 2)], False), (complete, True)):
        assert oracles.affine_maps_keep_direct(edges, 7) is kept
        assert two_transitivity_check(Hypergraph(7, edges)) is kept


def _lambda_edges(N, k):
    """ap_hypergraph's edges for prime N; for odd composite N the same
    progressions, each with its repeated terms kept once."""
    if N in PRIMES_TO_31:
        return list(ap_hypergraph(N, k).edges)
    return [set(row) for row in progressions(N, k, range(1, (N - 1) // 2 + 1))]


@pytest.mark.parametrize("N,k", [(5, 3), (7, 4), (9, 3), (9, 4), (11, 5)])
def test_doubled_polynomial_check_rejects_a_dropped_or_duplicated_edge(N, k):
    # against 2 * polynomial = ordered count on all 2^N subsets
    edges = _lambda_edges(N, k)
    for variant, want in ((edges, True), (edges[1:], False), (edges + edges[:1], False)):
        h = Hypergraph(N, variant)
        assert doubled_polynomial_check(h, k) is want
        assert all(
            2 * poly.evaluate(h, bits) == ordered_ap_count(bits, k)
            for bits in itertools.product((0, 1), repeat=N)
        ) is want


def test_squaring_map_is_not_edge_preserving():
    h = ap_hypergraph(7, 3)
    edge_sets = set(h.edges)
    violations = 0
    for e in h.edges:
        image = tuple(sorted((v * v) % 7 for v in e))
        if len(set(image)) < 3 or image not in edge_sets:
            violations += 1
    assert violations > 0


def test_gradient_hypergraphs_of_ap_graph():
    h = ap_hypergraph(5, 3)
    derived = gradient_hypergraphs(h)
    assert len(derived) == 5
    max_pair, _ = pair_incidence_profile(h)
    for hi in derived:
        assert hi.is_uniform(2)
        assert hi.max_degree == 3
        assert hi.max_degree <= max_pair
    assert sum(hi.num_edges for hi in derived) == 3 * h.num_edges


def test_gradient_hypergraphs_evaluate_to_partials():
    h = ap_hypergraph(5, 3)
    derived = gradient_hypergraphs(h)
    for mask in range(32):
        x = [(mask >> j) & 1 for j in range(5)]
        grad = poly.gradient(h, x)
        for i in range(5):
            assert grad[i] == poly.evaluate(derived[i], x)


def test_gradient_hypergraphs_reject_one_uniform_input():
    with pytest.raises(ValueError, match="1-uniform polynomial are constants"):
        gradient_hypergraphs(Hypergraph(3, [(0,), (2,)]))
