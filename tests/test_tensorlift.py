import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polywidth import poly
from polywidth import tensorlift as tl
from polywidth.errors import BudgetExceededError
from polywidth.hypergraph import Hypergraph, complete_to_maximal_matching
from polywidth.sparse import SparseMatrix

M4 = Hypergraph(4, [(0, 1), (2, 3)])
P4 = tl.LiftParams(n=4, m=2, r=1)


@given(st.integers(2, 5), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_map_rank_roundtrip(n, m, data):
    rank = data.draw(st.integers(0, n**m - 1))
    digits = tl.map_digits(rank, m, n)
    assert len(digits) == m
    assert all(0 <= d < n for d in digits)
    assert tl.map_rank(digits, n) == rank


def test_half_cover_count_single_coordinate():
    # r=1, f=(1,3): exactly one coordinate lands in {1,2}
    assert tl.half_cover_count((1, 3), (1, 2), 1) == 1


def test_half_cover_count_r2():
    # r=2, f=(1,2,5): only the position pair mapping to {1,2} half-covers
    assert tl.half_cover_count((1, 2, 5), (1, 2, 3, 4), 2) == 1


def test_half_cover_count_disjoint_is_zero():
    assert tl.half_cover_count((4, 4, 4), (0, 1), 1) == 0


def test_half_cover_count_edge_size_checked():
    with pytest.raises(ValueError):
        tl.half_cover_count((0,), (0, 1, 2), 1)


def test_goodness_score_counts_all_coordinates():
    # both coordinates always land in the union of M4's edges
    for f in itertools.product(range(4), repeat=2):
        assert tl.goodness_score(f, M4) == 2


def test_goodness_score_outside_union_is_zero():
    m = Hypergraph(4, [(0, 1)])
    assert tl.goodness_score((2, 3), m) == 0
    assert not tl.is_good((2, 3), m, 800)


def test_goodness_invariant_under_matching_permutation():
    # swapping the two blocks of M4 preserves the score
    perm = {0: 2, 1: 3, 2: 0, 3: 1}
    for f in itertools.product(range(4), repeat=2):
        g = tuple(perm[v] for v in f)
        assert tl.goodness_score(f, M4) == tl.goodness_score(g, M4)


def test_complements_worked_example():
    assert tl.complements((0, 2), M4) == [(0, 3), (1, 2)]


def test_complements_minimal_case():
    m = Hypergraph(2, [(0, 1)])
    assert tl.complements((0,), m) == [(1,)]


def test_complements_match_brute_force():
    for f in itertools.product(range(4), repeat=2):
        assert tl.complements(f, M4) == oracles.complements_direct(f, M4.edges, 4)


def test_complements_match_brute_force_r2():
    m = Hypergraph(5, [(0, 1, 2, 3)])
    for f in itertools.product(range(5), repeat=2):
        assert tl.complements(f, m) == oracles.complements_direct(f, m.edges, 5)


def test_complementarity_is_symmetric():
    for f in itertools.product(range(4), repeat=2):
        for g in tl.complements(f, M4):
            assert f in tl.complements(g, M4)


def test_pair_set_worked_example():
    mat = tl.build_pair_set(P4, M4)
    assert mat.nnz == 32  # 16 maps, 2 complements each
    assert np.all(mat.vals == 1)


def test_equal_cover_exact():
    _, _, covers = tl.enumerate_pairs(P4, M4)
    counts = np.bincount(covers, minlength=M4.num_edges)
    assert counts.tolist() == [16, 16]
    assert counts[0] == len(covers) // M4.num_edges


def test_every_complement_is_s_squared_good():
    _, g_ranks, _ = tl.enumerate_pairs(P4, M4)
    for rank in g_ranks:
        g = tl.map_digits(int(rank), 2, 4)
        score = tl.goodness_score(g, M4)
        assert 1 <= score <= P4.s**2


def test_pair_set_sparsity_bounds():
    mat = tl.build_pair_set(P4, M4)
    r_fact = math.factorial(P4.r)
    assert mat.row_entry_counts().max() <= P4.s * r_fact
    assert mat.col_entry_counts().max() <= P4.s**2 * r_fact


def test_pair_cover_product_identity():
    # (x^m)_f (x^m)_g = prod over the covered edge, for every pair and sign vector
    f_ranks, g_ranks, covers = tl.enumerate_pairs(P4, M4)
    for bits in itertools.product((1, -1), repeat=4):
        y = oracles.tensor_power_vector(bits, 2)
        for fr, gr, ci in zip(f_ranks, g_ranks, covers):
            lhs = y[fr] * y[gr]
            rhs = 1
            for v in M4.edges[ci]:
                rhs *= bits[v]
            assert lhs == rhs


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        tl.enumerate_pairs(tl.LiftParams(n=10, m=3, r=1, budget=999), M4_big())


def M4_big():
    return complete_to_maximal_matching(Hypergraph(10, ()), 1)


def test_lift_worked_example():
    res = tl.build_matrix_lift(M4, P4)
    assert res.cover_count == 16
    assert res.a.is_symmetric()
    assert np.all(res.a.vals > 0)
    # identity over all 16 sign vectors, against the direct quadratic form
    for bits in itertools.product((1, -1), repeat=4):
        y = oracles.tensor_power_vector(bits, 2)
        lhs = oracles.quadratic_form_direct(res.a, y)
        assert lhs == 2 * 16 * poly.evaluate(M4, bits)
    # the specific cancellation point
    bits = (1, 1, 1, -1)
    y = oracles.tensor_power_vector(bits, 2)
    assert oracles.quadratic_form_direct(res.a, y) == 0


def test_lift_all_ones_total():
    res = tl.build_matrix_lift(M4, P4)
    assert res.a.total() == 2 * res.cover_count * M4.num_edges


def test_wht_check_agrees_with_direct_oracle():
    res = tl.build_matrix_lift(M4, P4)
    ok, witness = tl.check_lift_identity(res.a, res.cover_count, M4, P4)
    assert ok and witness is None
    # sanity: the WHT path detects a wrong constant
    ok_bad, witness_bad = tl.check_lift_identity(res.a, res.cover_count + 1, M4, P4)
    assert not ok_bad and witness_bad is not None


def test_perturbed_matrix_fails_with_witness():
    res = tl.build_matrix_lift(M4, P4)
    rows = res.a.rows.copy()
    cols = res.a.cols.copy()
    vals = res.a.vals.copy()
    vals[0] += 1  # flip one entry
    bad = SparseMatrix(res.a.dim, rows, cols, vals)
    ok, witness = tl.check_lift_identity(bad, res.cover_count, M4, P4)
    assert not ok
    assert witness is not None and set(witness) <= {-1, 1}
    # the witness really separates the two sides
    y = oracles.tensor_power_vector(witness, 2)
    assert oracles.quadratic_form_direct(bad, y) != 2 * res.cover_count * poly.evaluate(
        M4, witness
    )


def test_identity_check_is_exact_above_float_precision():
    # A = V * (E_01 + E_10) on maps [1] -> [2] equals the lift of one edge with
    # cover count V; 2V = 2^54 + 2 has no float64 representation.
    h = Hypergraph(2, [(0, 1)])
    big = 2**53 + 1
    a = SparseMatrix.from_entries(2, [0, 1], [1, 0], [big, big])
    params = tl.LiftParams(n=2, m=1, r=1)
    assert tl.check_lift_identity(a, big, h, params) == (True, None)
    ok, _ = tl.check_lift_identity(a, big - 1, h, params)
    assert not ok


def test_sparse_value_sums_are_exact_above_float_precision():
    big = 2**53 + 1
    a = SparseMatrix.from_entries(2, [0], [1], [big])
    assert a.row_value_sums().tolist() == [big, 0]
    assert a.col_value_sums().tolist() == [0, big]


def test_verify_single_edge_instances():
    # single 2r-edge hypergraphs across several parameterizations
    for r, n, m in [(1, 2, 1), (1, 3, 2), (1, 4, 3), (2, 4, 2), (2, 5, 3), (2, 6, 2)]:
        h = Hypergraph(n, [tuple(range(2 * r))])
        params = tl.LiftParams(n=n, m=m, r=r)
        verdict = tl.verify_lift_identity(h, params)
        assert verdict.ok, (r, n, m)


def test_verify_needs_multiple_colors():
    # overlapping edges force at least two matchings and exercise pruning
    h = Hypergraph(5, [(0, 1), (1, 2), (3, 4), (0, 2)])
    verdict = tl.verify_lift_identity(h, tl.LiftParams(n=5, m=2, r=1))
    assert verdict.ok
    assert verdict.report.num_colors >= 2


def test_verify_parallel_edges():
    h = Hypergraph(4, [(0, 1), (0, 1)])
    verdict = tl.verify_lift_identity(h, tl.LiftParams(n=4, m=2, r=1))
    assert verdict.ok
    assert verdict.report.num_colors == 2


def test_row_sums_within_degree_bound():
    h = Hypergraph(5, [(0, 1), (1, 2), (3, 4), (0, 2), (2, 3)])
    params = tl.LiftParams(n=5, m=2, r=1)
    res = tl.build_matrix_lift(h, params)
    assert res.report.max_row_sum <= res.report.row_sum_bound


def test_empty_hypergraph_lift():
    res = tl.build_matrix_lift(Hypergraph(4, ()), P4)
    assert res.a.nnz == 0
    ok, _ = tl.check_lift_identity(res.a, res.cover_count, Hypergraph(4, ()), P4)
    assert ok


def test_sparse_matrix_roundtrip(tmp_path):
    res = tl.build_matrix_lift(M4, P4)
    path = tmp_path / "a.txt"
    res.a.save_text(path)
    assert SparseMatrix.load_text(path) == res.a


def test_lift_params_validation():
    with pytest.raises(ValueError):
        tl.LiftParams(n=1, m=1, r=1)  # n < 2r
    with pytest.raises(ValueError):
        tl.LiftParams(n=4, m=1, r=2)  # m < r
    with pytest.raises(ValueError):
        tl.build_matrix_lift(Hypergraph(4, [(0, 1, 2)]), P4)  # not 2r-uniform
