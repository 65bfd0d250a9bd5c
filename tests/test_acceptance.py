"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest

import oracles
from polywidth import birthday as bd
from polywidth import gwidth as gw
from polywidth import mc, poly
from polywidth import randsets as rs
from polywidth import tensorlift as tl
from polywidth.aps import (
    ap_hypergraph,
    doubled_polynomial_check,
    pair_incidence_profile,
    two_transitivity_check,
)
from polywidth.cli import main as cli_main
from polywidth.hypergraph import (
    Hypergraph,
    color_classes,
    complete_to_maximal_matching,
    default_goodness_bound,
    greedy_edge_coloring,
    homogenize,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE C{number:02d} {label}: PASS")


# --------------------------------------------------------------------------
# Shared lift instance set for criteria 1-3 (>= 20 instances, r in {1, 2},
# n <= 10, m <= 3).


def _random_graph(n, num_edges, seed):
    gen = mc.stream(seed, 0)
    edges = []
    while len(edges) < num_edges:
        e = tuple(sorted(gen.choice(n, size=2, replace=False).tolist()))
        edges.append(e)
    return Hypergraph(n, edges)


def _lift_instances():
    cases = [
        (1, 2, 1, Hypergraph(2, [(0, 1)])),
        (1, 4, 2, Hypergraph(4, [(0, 1), (2, 3)])),
        (1, 4, 2, Hypergraph(4, [(0, 1), (1, 2), (2, 3)])),
        (1, 4, 2, Hypergraph(4, [(0, 1), (1, 2), (0, 2)])),
        (1, 5, 2, Hypergraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
        (1, 5, 3, Hypergraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])),
        (1, 6, 2, Hypergraph(6, list(itertools.combinations(range(4), 2)))),
        (1, 6, 3, Hypergraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        (1, 7, 2, _random_graph(7, 8, 71)),
        (1, 8, 2, Hypergraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])),
        (1, 8, 2, Hypergraph(8, [(0, 1), (0, 1), (2, 3)])),
        (1, 9, 2, _random_graph(9, 10, 91)),
        (1, 10, 2, _random_graph(10, 12, 101)),
        (1, 10, 3, Hypergraph(10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])),
        (2, 4, 2, Hypergraph(4, [(0, 1, 2, 3)])),
        (2, 5, 2, Hypergraph(5, [(0, 1, 2, 4)])),
        (2, 6, 3, Hypergraph(6, [(0, 1, 2, 3), (2, 3, 4, 5)])),
        (2, 8, 2, Hypergraph(8, [(0, 1, 2, 3), (4, 5, 6, 7)])),
        (2, 8, 3, Hypergraph(8, [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5)])),
        (2, 9, 2, Hypergraph(9, [(0, 1, 2, 3), (4, 5, 6, 7), (1, 2, 7, 8)])),
        (2, 10, 2, Hypergraph(10, [(0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9)])),
        (2, 10, 3, Hypergraph(10, [(0, 1, 2, 3), (4, 5, 6, 7)])),
    ]
    return [(h, m, r) for r, n, m, h in cases]


@pytest.fixture(scope="session")
def lift_results():
    instances = _lift_instances()
    assert len(instances) >= 20
    start = time.time()
    built = [(h, tl.build_matrix_lift(h, m, r)) for h, m, r in instances]
    checks = [tl.check_lift_identity(res.mask_counts, res.cover_count, h) for h, res in built]
    elapsed = time.time() - start
    return built, checks, elapsed


def test_c01_lift_identity(lift_results):
    built, checks, elapsed = lift_results
    with criterion(1, "lift identity exact on all sign vectors"):
        for (h, res), (ok, witness) in zip(built, checks):
            assert res.dim <= 10**6
            assert ok, (res, witness)
        assert elapsed < 60.0, f"instance set took {elapsed:.1f}s"


def test_c02_equal_cover(lift_results):
    built, _, _ = lift_results
    with criterion(2, "equal per-edge cover counts"):
        for h, res in built:
            coloring = greedy_edge_coloring(h)
            for class_edges in color_classes(h, coloring):
                family = complete_to_maximal_matching(Hypergraph(h.n, class_edges), res.r)
                _, _, covers = tl.enumerate_pairs(family, res.m, res.s, range(res.dim))
                counts = np.bincount(covers, minlength=family.num_edges)
                assert len(set(counts.tolist())) == 1
                assert counts[0] == res.cover_count


def test_c03_sparsity_and_norm_bounds(lift_results):
    built, _, _ = lift_results
    with criterion(3, "pair-set sparsity and lift norm bounds"):
        for h, res in built:
            r_fact = math.factorial(res.r)
            coloring = greedy_edge_coloring(h)
            for class_edges in color_classes(h, coloring):
                family = complete_to_maximal_matching(Hypergraph(h.n, class_edges), res.r)
                f_ranks, g_ranks, _ = tl.enumerate_pairs(family, res.m, res.s, range(res.dim))
                assert np.bincount(f_ranks).max() <= res.s * r_fact
                assert np.bincount(g_ranks).max() <= res.s**2 * r_fact
            f_ranks, g_ranks = oracles.lift_pairs(h, res.m, res.r, res.s)
            if len(f_ranks):
                a = oracles.lift_matrix_dense(f_ranks, g_ranks, res.dim)
                max_row_sum = int(a.sum(axis=1).max())
                bound = 2 * h.max_degree * res.s**2 * r_fact
                assert max_row_sum <= bound
                # a is symmetric, so its eigenvalues give its norm exactly
                assert np.abs(np.linalg.eigvalsh(a)).max() <= max_row_sum + 1e-9


def test_lift_report_matches_dense_oracle(lift_results):
    built, _, _ = lift_results
    parallel = 0
    for h, res in built:
        parallel += len(set(h.edges)) < h.num_edges
        a = oracles.lift_matrix_dense(*oracles.lift_pairs(h, res.m, res.r, res.s), res.dim)
        assert res.nnz == np.count_nonzero(a), h
        assert res.max_row_sum == a.sum(axis=1).max(), h
    assert parallel == 2  # both parallel-edge instances are covered


@pytest.fixture(scope="session")
def birthday_runs():
    start = time.time()
    runs = {
        2: bd.phi_statistics(2, 600, 139, 3200, samples=10000, seed=20),
        1: bd.phi_statistics(1, 100, 16, 800, samples=10000, seed=21),
    }
    return runs, time.time() - start


def test_c04_birthday_good_probability(birthday_runs):
    runs, elapsed = birthday_runs
    with criterion(4, "s-good probability at least one half"):
        # the runs use the default m and s
        assert (bd.default_map_length(2, 600), default_goodness_bound(2)) == (139, 3200)
        assert (bd.default_map_length(1, 100), default_goodness_bound(1)) == (16, 800)
        for r, st in runs.items():
            est = st.good_probability
            assert est.mean >= 0.5 - 3 * est.std_error, (r, est)
        assert elapsed < 30.0, f"birthday runs took {elapsed:.1f}s"


def test_c05_markov_step(birthday_runs):
    runs, _ = birthday_runs
    with criterion(5, "Markov tail and mean bounds"):
        for r, st in runs.items():
            tail = st.tail_probability
            assert tail.mean <= 0.25 + 3 * tail.std_error, (r, tail)
            mean = st.mean_phi
            assert mean.mean <= 50 * 4**r + 3 * mean.std_error, (r, mean)


def test_c06_poisson_checks():
    with criterion(6, "Poisson sum chi-square and domination"):
        chi = bd.poisson_sum_chisquare(1.3, 0.7, samples=100000, seed=6)
        assert chi.passed, chi
        rows = bd.poisson_domination_check(1, 50, 10, samples=100000, seed=7)
        assert [row.functional for row in rows] == ["psi", "chi"]
        for row in rows:
            assert row.holds, row


def test_c07_gaussian_width_oracle():
    with criterion(7, "Gaussian width of the identity map and a singleton"):
        est = gw.gw_estimate(gw.identity_map(10), 10000, seed=70)
        exact = 10 / math.sqrt(2 * math.pi)
        assert abs(est.mean - exact) <= 0.03 * exact, est
        # an edgeless component's image is the single point 0, of width 0
        single = gw.gw_estimate(gw.PolyMap([Hypergraph(3, ())]), 10000, seed=71)
        assert abs(single.mean) <= 3 * single.std_error, single


def test_c08_tj_ratio_ladder():
    with criterion(8, "Gaussian matrix series ratio ladder"):
        ratios = []
        for dim in (64, 128, 256, 512):
            k = dim // 4
            mats = gw.random_matching_matrices(dim, k, seed=80 + dim)
            res = gw.tj_ratio_experiment(mats, samples=16, seed=81)
            ratios.append(res.ratio)
        assert all(r <= 4.0 for r in ratios), ratios
        increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
        assert not increasing, ratios


def test_c09_ap_structure():
    with criterion(9, "progression hypergraph structure over prime moduli"):
        gen = mc.stream(90, 0)
        for N in (5, 7, 11, 13, 17):
            for k in (3, 4, 5):
                h = ap_hypergraph(N, k)
                assert h.num_edges == N * (N - 1) // 2
                assert all(2 * d == k * (N - 1) for d in h.degrees())
                max_pair, table = pair_incidence_profile(h)
                assert all(2 * c == k * (k - 1) for c in table.values())
                assert len(table) == N * (N - 1) // 2
                for _ in range(100):
                    bits = (gen.random(N) < 0.5).astype(np.uint8)
                    assert 2 * poly.evaluate(h, bits) == oracles.ordered_ap_count(bits, k)
                assert doubled_polynomial_check(h, k)
                assert two_transitivity_check(h)


def test_c10_upper_tail_desk_scale():
    with criterion(10, "upper-tail Monte Carlo against exact enumeration"):
        exact = oracles.exact_upper_tail_probability(13, 3, 0.5, 1.0)
        res = rs.upper_tail_mc(13, 3, 0.5, 1.0, 100000, seed=100)
        assert abs(res.estimate.mean - exact) <= 3 * res.estimate.std_error, (
            exact,
            res.estimate,
        )
        assert res.reference_rate > 0  # emitted for qualitative comparison only


def test_c11_intersectivity():
    with criterion(11, "intersectivity worked examples and random model"):
        res = rs.intersectivity_check(5, 2, 0.6, [1])
        assert not res.intersective and res.exact
        assert res.witness == (1, 1, 0, 1, 0)
        support = {i for i, b in enumerate(res.witness) if b}
        for x in range(5):
            assert not {x % 5, (x + 1) % 5, (x + 2) % 5} <= support
        assert rs.intersectivity_check(5, 1, 0.6, list(range(1, 5))).intersective
        p = 0.3
        exact = oracles.exact_intersective_probability(
            11, 1, 0.5, p,
            lambda N, e, a, d: rs.intersectivity_check(N, e, a, d).intersective,
        )
        est = rs.random_intersectivity_experiment(11, 1, 0.5, 2000, seed=110, p=p)
        assert abs(est.mean - exact) <= 3 * est.std_error, (exact, est)


def test_c12_homogenization():
    with criterion(12, "homogenization preserves evaluations and degree"):
        gen = np.random.default_rng(120)
        for _ in range(100):
            h = oracles.random_hypergraph(gen, n_max=10, d_max=4, max_edges=10)
            d = max(h.max_edge_size, 1)
            h2, pads = homogenize(h, d)
            assert h2.max_degree == h.max_degree
            assert not h2.edges or h2.is_uniform(d)
            for mask in range(1 << h.n):
                x = [(mask >> j) & 1 for j in range(h.n)]
                assert poly.evaluate(h, x) == poly.evaluate(h2, x + [1] * (h2.n - h.n))


def test_c13_gradient_checks():
    with criterion(13, "gradient finite-difference and derived hypergraphs"):
        gen = np.random.default_rng(130)
        for _ in range(100):
            h = oracles.random_hypergraph(gen, n_max=12, d_max=4, max_edges=14)
            x = gen.uniform(-1.0, 1.0, size=h.n)
            grad = poly.gradient(h, x)
            eps = 1e-4
            for i in range(h.n):
                hi, lo = x.copy(), x.copy()
                hi[i] += eps
                lo[i] -= eps
                fd = (poly.evaluate(h, hi) - poly.evaluate(h, lo)) / (2 * eps)
                assert abs(fd - grad[i]) <= 1e-6
            if h.edges and h.is_uniform():
                for i in range(h.n):
                    derived = Hypergraph(
                        h.n, [tuple(v for v in e if v != i) for e in h.edges if i in e and len(e) > 1]
                    )
                    xs = x.tolist()
                    got = poly.evaluate(derived, xs) if derived.edges else 0.0
                    singles = sum(1 for e in h.edges if e == (i,))
                    assert got + singles == pytest.approx(grad[i], abs=1e-9)


def test_c14_cli_determinism(capsys, tmp_path):
    with criterion(14, "CLI byte-identical reruns and thread invariance"):
        cases = [
            ["birthday", "--r", "2", "--n", "120", "--m", "40", "--samples", "4000",
             "--seed", "140"],
            ["gw-estimate", "--map", "identity", "--n", "8", "--samples", "3000",
             "--seed", "141"],
            ["upper-tail", "--N", "13", "--k", "3", "--p", "0.5", "--delta", "1",
             "--samples", "20000", "--seed", "142"],
            ["ap-count", "--N", "7", "--k", "3"],
            ["intersective", "--N", "11", "--ell", "1", "--alpha", "0.5", "--p", "0.3",
             "--trials", "200", "--seed", "143"],
        ]
        for args in cases:
            assert cli_main(list(args)) == 0
            first = capsys.readouterr().out
            assert cli_main(list(args)) == 0
            assert capsys.readouterr().out == first
            assert cli_main(list(args) + ["--threads", "8"]) == 0
            threaded = capsys.readouterr().out
            assert threaded == first
