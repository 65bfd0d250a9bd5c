import itertools
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polywidth import _kernels as kernels
from polywidth import poly
from polywidth import tensorlift as tl
from polywidth.errors import DEFAULT_BUDGET, BudgetExceededError, check_budget
from polywidth.hypergraph import (
    Hypergraph,
    color_classes,
    complete_to_maximal_matching,
    default_goodness_bound,
    default_matching,
    greedy_edge_coloring,
    load_hypergraph,
)
from polywidth.sparse import SparseMatrix

M4 = Hypergraph(4, [(0, 1), (2, 3)])
S1 = default_goodness_bound(1)  # the default threshold at r = 1


def phi(maps, matching):
    """Goodness scores of map tuples against a matching, by the phi kernel."""
    maps = np.array(maps, dtype=np.int64).reshape(len(maps), -1)
    return kernels.phi_batch(maps, np.array(matching.edges), matching.n).tolist()


def verify(h, m, r):
    """Build the lift of h and check its identity: (ok, the LiftResult)."""
    res = tl.build_matrix_lift(h, m, r)
    ok, _ = tl.check_lift_identity(res.mask_counts, res.cover_count, h)
    return ok, res


@given(st.integers(2, 5), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_map_rank_roundtrip(n, m, data):
    ranks = data.draw(st.lists(st.integers(0, n**m - 1), min_size=1, max_size=5))
    digits = tl._digits(ranks, m, n)
    assert digits.shape == (len(ranks), m)
    # the rank definition: little-endian base n, digit i = f(i)
    assert [sum(d * n**i for i, d in enumerate(row)) for row in digits.tolist()] == ranks
    assert ((digits >= 0) & (digits < n)).all()


def test_half_cover_count_single_coordinate():
    # r=1, f=(1,3): exactly one coordinate lands in {1,2}
    assert phi([(1, 3)], Hypergraph(4, [(1, 2)])) == [1]


def test_half_cover_count_r2():
    # r=2, f=(1,2,5): only the position pair mapping to {1,2} half-covers
    assert phi([(1, 2, 5)], Hypergraph(6, [(1, 2, 3, 4)])) == [1]


def test_half_cover_count_disjoint_is_zero():
    assert phi([(4, 4, 4)], Hypergraph(5, [(0, 1)])) == [0]


def test_goodness_score_counts_all_coordinates():
    # both coordinates always land in the union of M4's edges
    assert phi(list(itertools.product(range(4), repeat=2)), M4) == [2] * 16


def test_goodness_score_outside_union_is_zero():
    m = Hypergraph(4, [(0, 1)])
    assert phi([(2, 3)], m) == [0]
    f_ranks, _, _ = tl.enumerate_pairs(m, 2, S1, range(4**2))
    assert 2 + 3 * 4 not in f_ranks  # (2, 3) is not good


def test_goodness_invariant_under_matching_permutation():
    # swapping the two blocks of M4 preserves the score
    perm = {0: 2, 1: 3, 2: 0, 3: 1}
    maps = list(itertools.product(range(4), repeat=2))
    assert phi(maps, M4) == phi([tuple(perm[v] for v in f) for f in maps], M4)


def complements(f, matching):
    """The maps g that enumerate_pairs pairs with f, sorted.  A map with a
    complement has phi >= 1, and phi <= C(m, r), so at s = C(m, r) every map
    with a complement is good."""
    n, m, r = matching.n, len(f), len(matching.edges[0]) // 2
    f_ranks, g_ranks, _ = tl.enumerate_pairs(matching, m, math.comb(m, r), range(n**m))
    rank = sum(d * n**i for i, d in enumerate(f))
    return sorted(map(tuple, tl._digits(g_ranks[f_ranks == rank], m, n).tolist()))


def test_complements_worked_example():
    assert complements((0, 2), M4) == [(0, 3), (1, 2)]


def test_complements_minimal_case():
    m = Hypergraph(2, [(0, 1)])
    assert complements((0,), m) == [(1,)]


def test_complements_match_brute_force():
    for f in itertools.product(range(4), repeat=2):
        assert complements(f, M4) == oracles.complements_direct(f, M4.edges, 4)


def test_complements_match_brute_force_r2():
    m = Hypergraph(5, [(0, 1, 2, 3)])
    for f in itertools.product(range(5), repeat=2):
        assert complements(f, m) == oracles.complements_direct(f, m.edges, 5)


@pytest.mark.parametrize(
    "n, m, s, edges",
    [
        (5, 3, 2, [(0, 1), (2, 3)]),  # rejects phi = 3 and phi = 0
        (5, 3, 1, [(0, 1, 2, 3)]),  # rejects phi >= 2 and phi = 0
        (6, 3, 1, [(0, 1, 2, 3, 4, 5)]),  # six orders; rejects phi = 0
    ],
)
def test_enumerate_pairs_match_oracle(n, m, s, edges):
    r = len(edges[0]) // 2

    def rank(h):
        return sum(d * n**i for i, d in enumerate(h))

    expected, rejected = [], 0
    for f in itertools.product(range(n), repeat=m):
        if not 1 <= oracles.phi_direct(f, edges, r) <= s:
            rejected += 1
            continue
        for g in oracles.complements_direct(f, edges, n):
            moved = {v for i in range(m) if f[i] != g[i] for v in (f[i], g[i])}
            cover = next(j for j, e in enumerate(edges) if moved <= set(e))
            expected.append((rank(f), rank(g), cover))
    assert rejected
    pairs = tl.enumerate_pairs(Hypergraph(n, edges), m, s, range(n**m))
    assert sorted(zip(*(a.tolist() for a in pairs))) == sorted(expected)


def _rank_digits(rank, n, m):
    return [(rank // n**i) % n for i in range(m)]


@pytest.mark.parametrize(
    "matching, m, s",
    [
        (Hypergraph(5, [(0, 1), (2, 3)]), 3, 2),  # phi up to 3
        (Hypergraph(5, [(0, 1), (2, 3)]), 4, 3),  # rejects phi = 4
        (Hypergraph(8, [(0, 1, 2, 3), (4, 5, 6, 7)]), 3, 2),
        (Hypergraph(6, [(0, 1, 2, 3)]), 4, 5),
        (Hypergraph(7, [(0, 1, 2, 3, 4, 5)]), 3, 1),
        (Hypergraph(6, [(0, 1, 2, 3, 4, 5)]), 4, 2),  # phi up to 4
    ],
)
def test_pairs_per_map_are_r_factorial_phi(matching, m, s):
    # the lift reads goodness off the pairs: a map has r! * phi(f) >= 1 pairs
    # when it is good, and none otherwise
    n, r = matching.n, len(matching.edges[0]) // 2
    f_ranks, _, _ = tl.enumerate_pairs(matching, m, s, range(n**m))
    counts = np.bincount(f_ranks, minlength=n**m).tolist()
    scores = [oracles.phi_direct(_rank_digits(rank, n, m), matching.edges, r)
              for rank in range(n**m)]
    want = [math.factorial(r) * p if 1 <= p <= s else 0 for p in scores]
    assert counts == want
    assert any(want) and not all(want)  # good maps and rejected ones


@pytest.mark.parametrize("r, n, m", [(1, 7, 5), (2, 9, 5), (3, 13, 6)])
@pytest.mark.parametrize("s", [1, 2, 3, 0])
def test_first_maps_are_the_maps_the_phi_kernel_scores_good(r, n, m, s):
    # enumerate_pairs scores goodness from its candidate rows; the phi kernel
    # is the oracle.  A random matching leaves vertex free[-1] uncovered, so
    # the constant map there has phi = 0, and a map running through one
    # edge's vertices has phi >= 5.  No map has phi above the default
    # threshold (s = 0) while n^m fits in int64 ranks.
    rng = np.random.default_rng(1000 * r + s)
    free = rng.permutation(n).tolist()
    matching = Hypergraph(n, [free[i : i + 2 * r] for i in range(0, n - 2 * r, 2 * r)])
    s = s or default_goodness_bound(r)
    through_edge = [matching.edges[0][i % (2 * r)] for i in range(m)]
    constant = free[-1] * (n**m - 1) // (n - 1)
    ranks = np.union1d(rng.choice(n**m, 500, replace=False),
                       [constant, sum(v * n**i for i, v in enumerate(through_edge))])
    scores = np.array(phi(tl._digits(ranks, m, n), matching))
    f_ranks, _, _ = tl.enumerate_pairs(matching, m, s, ranks)
    firsts, counts = np.unique(f_ranks, return_counts=True)
    good = (scores >= 1) & (scores <= s)
    assert firsts.tolist() == ranks[good].tolist()
    assert counts.tolist() == (math.factorial(r) * scores[good]).tolist()
    assert (scores == 0).any() and good.any()
    assert (scores > s).any() == (s <= 3)


@pytest.mark.parametrize(
    "matching, m",
    [
        (Hypergraph(5, [(0, 1), (2, 3)]), 3),
        (Hypergraph(8, [(0, 1, 2, 3), (4, 5, 6, 7)]), 3),
        (Hypergraph(6, [(0, 1, 2, 3, 4, 5)]), 4),
    ],
)
def test_pair_masks_are_the_covered_edge_masks(matching, m):
    # the identity histogram adds the kept pairs at their edge masks:
    # mask(f) ^ mask(g) = mask(S), bit v of mask(f) set when f hits v an odd
    # number of times
    n, r = matching.n, len(matching.edges[0]) // 2

    def mask(rank):
        digits = _rank_digits(rank, n, m)
        return sum(1 << v for v in range(n) if digits.count(v) % 2)

    pairs = tl.enumerate_pairs(matching, m, math.comb(m, r), range(n**m))
    triples = list(zip(*(a.tolist() for a in pairs)))
    assert triples
    edge_masks = matching.edge_masks()
    assert all(mask(f) ^ mask(g) == edge_masks[cover] for f, g, cover in triples)


@pytest.mark.parametrize(
    "matching, m, cuts",
    [
        (Hypergraph(5, [(0, 1), (2, 3)]), 3, [0, 1, 7, 8, 60, 125]),
        (Hypergraph(6, [(0, 1, 2, 3)]), 3, [0, 50, 51, 199, 216]),
    ],
    ids=["r=1", "r=2"],
)
def test_enumerate_pairs_over_pieces_equals_one_call(matching, m, cuts):
    # uneven pieces of the ranks, empty ones included; within a call the
    # pairs come in order of the witness positions, so compare as multisets
    r = len(matching.edges[0]) // 2
    s = math.comb(m, r)

    def triples(ranks):
        return sorted(zip(*(a.tolist() for a in tl.enumerate_pairs(matching, m, s, ranks))))

    pieces = [triples(np.arange(a, b)) for a, b in zip([0] + cuts, cuts)]
    whole = triples(range(matching.n**m))
    assert whole and sorted(sum(pieces, [])) == whole


def test_enumerate_pairs_of_no_ranks_is_empty():
    for ranks in ([], np.zeros(0, dtype=np.int64)):
        pairs = tl.enumerate_pairs(M4, 2, S1, ranks)
        assert [(a.dtype, a.shape) for a in pairs] == [(np.dtype(np.int64), (0,))] * 3


@pytest.mark.parametrize("ranks", [[-1], [16], [0, 3, 16], [15, -2]])
def test_enumerate_pairs_rejects_ranks_outside_the_maps(ranks):
    with pytest.raises(ValueError, match="ranks must lie in"):
        tl.enumerate_pairs(M4, 2, S1, ranks)


def test_complementarity_is_symmetric():
    for f in itertools.product(range(4), repeat=2):
        for g in complements(f, M4):
            assert f in complements(g, M4)


def test_pair_set_worked_example():
    f_ranks, g_ranks, _ = tl.enumerate_pairs(M4, 2, S1, range(4**2))
    assert len(f_ranks) == 32  # 16 maps, 2 complements each
    assert len(set(zip(f_ranks.tolist(), g_ranks.tolist()))) == 32  # no pair repeats


def test_equal_cover_exact():
    _, _, covers = tl.enumerate_pairs(M4, 2, S1, range(4**2))
    counts = np.bincount(covers, minlength=M4.num_edges)
    assert counts.tolist() == [16, 16]
    assert counts[0] == len(covers) // M4.num_edges


def test_every_complement_is_s_squared_good():
    _, g_ranks, _ = tl.enumerate_pairs(M4, 2, S1, range(4**2))
    scores = np.array(phi(tl._digits(g_ranks, 2, 4), M4))
    assert ((scores >= 1) & (scores <= S1**2)).all()


def test_pair_set_sparsity_bounds():
    f_ranks, g_ranks, _ = tl.enumerate_pairs(M4, 2, S1, range(4**2))
    assert np.bincount(f_ranks).max() <= S1  # r! = 1
    assert np.bincount(g_ranks).max() <= S1**2


def test_pair_cover_product_identity():
    # (x^m)_f (x^m)_g = prod over the covered edge, for every pair and sign vector
    f_ranks, g_ranks, covers = tl.enumerate_pairs(M4, 2, S1, range(4**2))
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
        tl.build_matrix_lift(M4_big(), 3, 1, budget=999)


def test_budget_check_computes_no_huge_power():
    assert check_budget(10, 6, DEFAULT_BUDGET) == 10**6
    assert check_budget(1, 10**12, 1) == 1
    assert check_budget(3, 40, 3**40) == 3**40
    for n, m, budget in [(10, 6, 10**6 - 1), (3, 40, 3**40 - 1), (2, 10**12, 10**6),
                         (2000000, 1, 10**6), (16, 10**15, 2**64)]:
        with pytest.raises(BudgetExceededError, match=rf"n\^m = {n}\^{m} exceeds"):
            check_budget(n, m, budget)


def M4_big():
    return complete_to_maximal_matching(Hypergraph(10, ()), 1)


def test_lift_worked_example():
    res = tl.build_matrix_lift(M4, 2, 1)
    assert res.cover_count == 16
    f_ranks, g_ranks = oracles.lift_pairs(M4, 2, 1, res.s)
    a = oracles.lift_matrix_dense(f_ranks, g_ranks, 16)
    assert (a == a.T).all() and (a >= 0).all()
    assert not a.diagonal().any()
    # identity over all 16 sign vectors, against the direct quadratic form
    for bits in itertools.product((1, -1), repeat=4):
        y = oracles.tensor_power_vector(bits, 2)
        lhs = oracles.quadratic_form_direct(f_ranks, g_ranks, y)
        assert lhs == 2 * 16 * poly.evaluate(M4, bits) == int(y @ a @ y)
    # the specific cancellation point
    bits = (1, 1, 1, -1)
    y = oracles.tensor_power_vector(bits, 2)
    assert oracles.quadratic_form_direct(f_ranks, g_ranks, y) == 0


def test_lift_all_ones_total():
    res = tl.build_matrix_lift(M4, 2, 1)
    f_ranks, g_ranks = oracles.lift_pairs(M4, 2, 1, res.s)
    a = oracles.lift_matrix_dense(f_ranks, g_ranks, 16)
    assert a.sum() == 2 * len(f_ranks) == 2 * res.cover_count * M4.num_edges
    assert sum(res.mask_counts.values()) == len(f_ranks)


def _first_copy_nnz(h, m, r, s):
    """A simpler sort-free nnz that ignores goodness in earlier colours: a
    kept pair counts once if g is good against its colour's family and
    twice if not, and only at the first copy of its covered edge."""
    total, seen = 0, set()
    for class_edges in color_classes(h, greedy_edge_coloring(h)):
        family = complete_to_maximal_matching(Hypergraph(h.n, class_edges), r)
        f_ranks, g_ranks, covers = tl.enumerate_pairs(family, m, s, range(h.n**m))
        g_digits = tl._digits(g_ranks, m, h.n)
        scores = phi(g_digits, family)
        for cover, score in zip(covers.tolist(), scores):
            edge = family.edges[cover]
            if cover < len(class_edges) and edge not in seen:
                total += 1 if 1 <= score <= s else 2
        seen.update(class_edges)
    return total


def test_parallel_edge_nnz_counts_the_pairs_of_every_copy():
    # The copies of the parallel edge (0, 1) sit in colour classes whose
    # completed families differ, so goodness differs per colour, and a count
    # made only at the first copy undercounts: 12 against the dense oracle's
    # 16.  The lift skips a later copy's pair only where f or g is good in
    # the earlier colour.
    h = Hypergraph(9, [(0, 1), (2, 3), (0, 1), (3, 8)])
    res = tl.build_matrix_lift(h, 2, 1, 1)
    a = oracles.lift_matrix_dense(*oracles.lift_pairs(h, 2, 1, 1), 81)
    assert res.nnz == np.count_nonzero(a) == 16
    assert tl.check_lift_identity(res.mask_counts, res.cover_count, h)[0]
    assert _first_copy_nnz(h, 2, 1, 1) == 12


K8 = load_hypergraph(Path(__file__).parents[1] / "perfbench" / "data" / "k8.hg")

# (h, m, r, s): a matching, a path, parallel edges in colour classes whose
# families differ, r = 2, and the 7-colour K_8
STREAMED_CASES = [
    (M4, 2, 1, S1),
    (Hypergraph(5, [(0, 1), (1, 2), (3, 4)]), 3, 1, S1),
    (Hypergraph(9, [(0, 1), (2, 3), (0, 1), (3, 8)]), 2, 1, 1),
    (Hypergraph(6, [(0, 1, 2, 3), (2, 3, 4, 5)]), 3, 2, default_goodness_bound(2)),
    (K8, 3, 1, S1),
]


def test_lift_result_is_an_immutable_record():
    fields = (Counter({0b11: 2}), 2, 1, 1, S1, 2, 1, 1, 2, 1, 2)
    res = tl.LiftResult(*fields)
    assert (res.mask_counts, res.n, res.s, res.num_colors, res.row_sum_bound) == (
        Counter({3: 2}), 2, S1, 1, 2)
    assert repr(res) == (
        "LiftResult(mask_counts=Counter({3: 2}), n=2, m=1, r=1, s=800, dim=2, num_colors=1, "
        "cover_count=1, nnz=2, max_row_sum=1, row_sum_bound=2)"
    )
    assert res == tl.LiftResult(*fields) and res != tl.LiftResult(Counter(), *fields[1:])
    with pytest.raises(TypeError):  # mask_counts, a Counter, is unhashable
        hash(res)
    with pytest.raises(AttributeError):
        res.nnz = 0
    with pytest.raises(AttributeError):
        res.other = 1


def _report(res):
    """The fields of a LiftResult."""
    return (res.mask_counts, res.dim, res.num_colors, res.cover_count, res.nnz,
            res.max_row_sum, res.row_sum_bound)


@pytest.mark.parametrize("h, m, r, s", STREAMED_CASES)
def test_mask_counts_match_the_pair_oracle(h, m, r, s):
    res = tl.build_matrix_lift(h, m, r, s)
    f_ranks, g_ranks = oracles.lift_pairs(h, m, r, s)
    assert len(f_ranks) == res.cover_count * h.num_edges
    assert res.mask_counts == oracles.pair_mask_counts(f_ranks, g_ranks, h.n, m)


@pytest.mark.parametrize("h, m, r, s", STREAMED_CASES)
def test_many_blocks_report_equals_one_block(monkeypatch, h, m, r, s):
    # Blocks of 7 ranks, which divide no n^m here: (f, g) and (g, f) are
    # generated in different blocks, and the pair is counted once.
    whole = tl.build_matrix_lift(h, m, r, s)
    assert whole.dim <= tl._BLOCK  # one block
    monkeypatch.setattr(tl, "_BLOCK", 7)
    blocks = tl.build_matrix_lift(h, m, r, s)
    assert _report(blocks) == _report(whole)
    f_ranks, g_ranks = oracles.lift_pairs(h, m, r, s)
    pairs = set(zip(f_ranks.tolist(), g_ranks.tolist()))
    assert any((g, f) in pairs and f // 7 != g // 7 for f, g in pairs)
    a = oracles.lift_matrix_dense(f_ranks, g_ranks, whole.dim)
    assert blocks.nnz == np.count_nonzero(a)
    assert blocks.max_row_sum == a.sum(axis=1).max()


def _random_multi_hypergraph(gen, r):
    """A small 2r-uniform hypergraph whose edges repeat: 1-3 random edges,
    each 1-3 times, in random order."""
    n = int(gen.integers(2 * r, (6, 7, 8)[r - 1]))
    drawn = [tuple(gen.choice(n, 2 * r, replace=False).tolist())
             for _ in range(int(gen.integers(1, 4)))]
    edges = [e for e in drawn for _ in range(int(gen.integers(1, 4)))]
    gen.shuffle(edges)
    return Hypergraph(n, edges)


def _earlier_goodness_splits(h, m, r, s):
    """Kept pairs (f, g) whose covered edge is an original edge of an earlier
    colour in which exactly one of f and g is good (by the phi kernel)."""
    classes = color_classes(h, greedy_edge_coloring(h))
    maps = tl._digits(range(h.n**m), m, h.n)
    goods, splits = [], 0
    for class_edges in classes:
        family = complete_to_maximal_matching(Hypergraph(h.n, class_edges), r)
        f_ranks, g_ranks, covers = tl.enumerate_pairs(family, m, s, range(h.n**m))
        for f, g, cover in zip(f_ranks.tolist(), g_ranks.tolist(), covers.tolist()):
            if cover < len(class_edges):
                splits += any(family.edges[cover] in earlier and good[f] != good[g]
                              for earlier, good in goods)
        scores = np.array(phi(maps, family))
        goods.append((set(class_edges), (scores >= 1) & (scores <= s)))
    return splits


def test_nnz_and_mask_counts_on_random_multi_hypergraphs(monkeypatch):
    # Parallel copies of an edge sit in colours whose families differ, so a
    # pair may be good at f and not at g in an earlier colour; blocks of 7
    # ranks split pairs from their mirrors.  nnz(A) is twice the number of
    # distinct unordered kept pairs.
    monkeypatch.setattr(tl, "_BLOCK", 7)
    gen = np.random.default_rng(2029)
    splits = 0
    for case in range(100):
        r = (1, 1, 2, 2, 3)[case % 5]
        h = _random_multi_hypergraph(gen, r)
        m = int(gen.integers(r, 4))  # n^m <= 343
        s = (1, 2, 3, 5, 0)[int(gen.integers(5))] or default_goodness_bound(r)
        res = tl.build_matrix_lift(h, m, r, s)
        f_ranks, g_ranks = oracles.lift_pairs(h, m, r, s)
        unordered = set(zip(np.minimum(f_ranks, g_ranks).tolist(),
                            np.maximum(f_ranks, g_ranks).tolist()))
        assert res.nnz == 2 * len(unordered), (h, m, r, s)
        assert res.mask_counts == oracles.pair_mask_counts(f_ranks, g_ranks, h.n, m)
        splits += _earlier_goodness_splits(h, m, r, s)
    assert splits


def test_nnz_skips_a_copy_whose_pair_was_counted_at_its_mirror(monkeypatch):
    # The copies of (0, 1, 2, 3) sit in families that differ in their other
    # edge, (4, 5, 6, 8) against the padding (4, 5, 6, 7).  At m = 5 a map can
    # send two positions into that edge and one more into (0, 1, 2, 3), so
    # some kept (f, g) of the second colour has f not good and g good in the
    # first: the first colour counted the pair at its mirror (g, f), and a
    # skip that read only good[f] there would give 234,240.
    monkeypatch.setattr(tl, "_BLOCK", 1000)  # 9^5 ranks: the last block is short
    h = Hypergraph(9, [(0, 1, 2, 3), (4, 5, 6, 8), (0, 1, 2, 3)])
    res = tl.build_matrix_lift(h, 5, 2, 3)
    f_ranks, g_ranks = oracles.lift_pairs(h, 5, 2, 3)
    unordered = set(zip(np.minimum(f_ranks, g_ranks).tolist(),
                        np.maximum(f_ranks, g_ranks).tolist()))
    assert res.nnz == 2 * len(unordered) == 225600
    assert tl.check_lift_identity(res.mask_counts, res.cover_count, h)[0]


def test_lift_at_n_18_answers():
    # 2^18 sign vectors: the verdict comes from the 9 edge-mask counts
    h = default_matching(18, 1)
    res = tl.build_matrix_lift(h, 3, 1)
    assert (res.n, res.dim, res.num_colors, res.cover_count, res.nnz, res.max_row_sum) == (
        18, 5832, 1, 1944, 17496, 6)
    assert tl.check_lift_identity(res.mask_counts, res.cover_count, h) == (True, None)
    assert res.mask_counts == dict.fromkeys(h.edge_masks(), res.cover_count)


def test_mask_counts_at_n_18_match_the_pair_oracle():
    h = Hypergraph(18, [(0, 17), (3, 9), (9, 12), (0, 17)])
    res = tl.build_matrix_lift(h, 3, 1)
    f_ranks, g_ranks = oracles.lift_pairs(h, 3, 1, res.s)
    assert res.mask_counts == oracles.pair_mask_counts(f_ranks, g_ranks, h.n, 3)
    assert tl.check_lift_identity(res.mask_counts, res.cover_count, h)[0]


def _wht_witness(mask_counts, cover_count, h):
    """The first failing sign vector by transforming the dense 2^n
    difference of coefficients to values, or None."""
    diff = np.zeros(1 << h.n, dtype=np.int64)
    for mask, count in mask_counts.items():
        diff[mask] += count
    for mask in h.edge_masks():
        diff[mask] -= cover_count
    values = kernels.wht_inplace(diff)
    if not values.any():
        return None
    x = int(np.argmax(values != 0))
    return tuple(-1 if (x >> j) & 1 else 1 for j in range(h.n))


@pytest.mark.parametrize("n", [17, 18])
def test_witness_past_n_16_is_the_first_nonzero_of_the_transform(n):
    h = Hypergraph(n, [(0, n - 1), (2, 5), (5, n - 2), (0, n - 1)])
    res = tl.build_matrix_lift(h, 2, 1)
    cover = res.cover_count
    gen = np.random.default_rng(n)
    cases = [(res.mask_counts, cover), (res.mask_counts, cover + 1)]
    for _ in range(12):
        counts = res.mask_counts.copy()
        # a product of (1 + x_j) or (1 - x_j) over a few variables vanishes
        # off one sign pattern of them, so the witness must set each one
        bits = gen.choice(n, int(gen.integers(1, 5)), replace=False).tolist()
        signs = gen.choice((-1, 1), len(bits)).tolist()
        for subset in itertools.product((0, 1), repeat=len(bits)):
            mask = sum(b << j for b, j in zip(subset, bits))
            counts[mask] += math.prod(s for b, s in zip(subset, signs) if b)
        if gen.integers(2):  # and a second, independent change
            counts[int(gen.integers(1 << n))] += int(gen.choice((-1, 1)))
        cases.append((counts, cover))
    for counts, cover_count in cases:
        want = _wht_witness(counts, cover_count, h)
        assert tl.check_lift_identity(counts, cover_count, h) == (want is None, want)


def test_lift_build_keeps_no_pair_arrays():
    # n = 8, m = 5: 40,960 kept pairs over 32,768 ranks in 32 blocks.
    # Holding the pair arrays, their block copies and a sort key, the build
    # peaked at 11.1 MiB; streamed with one sort key per pair and a parity
    # mask per map, at about 3.5 MiB; with neither, at about 0.95 MiB of
    # row sums, goodness table and block temporaries.
    h = default_matching(8, 1)
    tracemalloc.start()
    try:
        res = tl.build_matrix_lift(h, 5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.nnz == 163840
    assert peak < 1.5 * 2**20


def test_wht_check_agrees_with_direct_oracle():
    res = tl.build_matrix_lift(M4, 2, 1)
    ok, witness = tl.check_lift_identity(res.mask_counts, res.cover_count, M4)
    assert ok and witness is None
    # sanity: the WHT path detects a wrong constant
    ok_bad, witness_bad = tl.check_lift_identity(res.mask_counts, res.cover_count + 1, M4)
    assert not ok_bad and witness_bad is not None


def test_perturbed_matrix_fails_with_witness():
    res = tl.build_matrix_lift(M4, 2, 1)
    f_ranks, g_ranks = oracles.lift_pairs(M4, 2, 1, res.s)
    # duplicate one pair: A gains 1 at (f, g) and at (g, f)
    f_ranks = np.append(f_ranks, f_ranks[0])
    g_ranks = np.append(g_ranks, g_ranks[0])
    mask_counts = oracles.pair_mask_counts(f_ranks, g_ranks, 4, 2)
    ok, witness = tl.check_lift_identity(mask_counts, res.cover_count, M4)
    assert not ok
    assert witness is not None and set(witness) <= {-1, 1}
    # the witness really separates the two sides
    y = oracles.tensor_power_vector(witness, 2)
    rhs = 2 * res.cover_count * poly.evaluate(M4, witness)
    assert oracles.quadratic_form_direct(f_ranks, g_ranks, y) != rhs


def _first_failing_sign_vector(h, m, f_ranks, g_ranks, cover_count):
    """First x in enumeration order (bit j of the index set means x_j = -1)
    where the dense oracle's two sides differ, or None."""
    for index in range(1 << h.n):
        x = tuple(-1 if (index >> j) & 1 else 1 for j in range(h.n))
        lhs = oracles.quadratic_form_direct(f_ranks, g_ranks, oracles.tensor_power_vector(x, m))
        if lhs != 2 * cover_count * poly.evaluate(h, x):
            return x
    return None


@pytest.mark.parametrize(
    "h",
    [M4, Hypergraph(4, [(0, 1), (0, 1), (2, 3)]), Hypergraph(5, [(0, 1), (1, 2), (3, 4)])],
    ids=["matching", "parallel-edge", "path"],
)
def test_check_witness_is_the_first_failing_sign_vector(h):
    res = tl.build_matrix_lift(h, 2, 1)
    f, g = oracles.lift_pairs(h, 2, 1, res.s)
    cover = res.cover_count
    assert oracles.pair_mask_counts(f, g, h.n, 2) == res.mask_counts
    gen = np.random.default_rng(7)
    cases = [(f, g, cover), (f, g, cover + 1), (f[1:], g[1:], cover),
             (np.append(f, f[0]), np.append(g, g[0]), cover)]
    for _ in range(6):  # re-aim one pair at a random map
        g_bad = g.copy()
        g_bad[gen.integers(len(g))] = gen.integers(res.dim)
        cases.append((f, g_bad, cover))
    verdicts = []
    for f_ranks, g_ranks, cover_count in cases:
        want = _first_failing_sign_vector(h, 2, f_ranks, g_ranks, cover_count)
        mask_counts = oracles.pair_mask_counts(f_ranks, g_ranks, h.n, 2)
        ok, witness = tl.check_lift_identity(mask_counts, cover_count, h)
        assert (ok, witness) == (want is None, want)
        verdicts.append(ok)
    assert verdicts[0] and not any(verdicts[1:4])  # intact lift, then 3 sure failures


def test_verify_assembles_no_matrix(monkeypatch):
    def assemble(*args, **kwargs):
        raise AssertionError("a sparse matrix was assembled")

    monkeypatch.setattr(SparseMatrix, "from_entries", assemble)
    for h, m in [(M4, 2), (K8, 4), (Hypergraph(4, [(0, 1), (0, 1), (2, 3)]), 2)]:
        ok, _ = verify(h, m, 1)
        assert ok, h


def test_sparse_from_entries_merges_duplicates_and_drops_zeros():
    gen = np.random.default_rng(7)
    dim = 6
    rows = gen.integers(0, dim, size=200)
    cols = gen.integers(0, dim, size=200)
    vals = gen.integers(-2, 3, size=200)
    dense = np.zeros((dim, dim), dtype=np.int64)
    np.add.at(dense, (rows, cols), vals)
    a = SparseMatrix.from_entries(dim, rows, cols, vals)
    nz_rows, nz_cols = np.nonzero(dense)  # row-major order
    assert a.rows.tolist() == nz_rows.tolist()
    assert a.cols.tolist() == nz_cols.tolist()
    assert a.vals.tolist() == dense[nz_rows, nz_cols].tolist()
    assert a.nnz < np.count_nonzero(np.bincount(rows * dim + cols))  # some sums cancel


def test_verify_single_edge_instances():
    # single 2r-edge hypergraphs across several parameterizations
    for r, n, m in [(1, 2, 1), (1, 3, 2), (1, 4, 3), (2, 4, 2), (2, 5, 3), (2, 6, 2)]:
        h = Hypergraph(n, [tuple(range(2 * r))])
        ok, _ = verify(h, m, r)
        assert ok, (r, n, m)


def test_verify_needs_multiple_colors():
    # overlapping edges force at least two matchings and exercise pruning
    h = Hypergraph(5, [(0, 1), (1, 2), (3, 4), (0, 2)])
    ok, report = verify(h, 2, 1)
    assert ok
    assert report.num_colors >= 2


def test_verify_parallel_edges():
    h = Hypergraph(4, [(0, 1), (0, 1)])
    ok, report = verify(h, 2, 1)
    assert ok
    assert report.num_colors == 2


def test_row_sums_within_degree_bound():
    h = Hypergraph(5, [(0, 1), (1, 2), (3, 4), (0, 2), (2, 3)])
    res = tl.build_matrix_lift(h, 2, 1)
    assert res.max_row_sum <= res.row_sum_bound


def test_empty_hypergraph_lift():
    res = tl.build_matrix_lift(Hypergraph(4, ()), 2, 1)
    assert not res.mask_counts
    assert res.nnz == res.max_row_sum == 0
    ok, _ = tl.check_lift_identity(res.mask_counts, res.cover_count, Hypergraph(4, ()))
    assert ok


@pytest.mark.parametrize(
    "n,m,r,cover_count,pair_set_size,matching_size",
    [(4, 2, 1, 16, 32, 2), (6, 3, 1, 216, 648, 3), (9, 3, 1, 486, 1944, 4),
     (5, 4, 2, 3600, 3600, 1), (8, 4, 2, 9216, 18432, 2)],
)
def test_edgeless_lift_reports_the_default_family(n, m, r, cover_count, pair_set_size,
                                                  matching_size):
    # no pair is kept, and the counts are those of the default matching's lift
    rep = tl.build_matrix_lift(Hypergraph(n, ()), m, r)
    assert (rep.num_colors, rep.nnz, rep.max_row_sum, rep.cover_count) == (0, 0, 0, cover_count)
    family = complete_to_maximal_matching(Hypergraph(n, ()), r)
    assert family.num_edges == matching_size
    assert tl.build_matrix_lift(family, m, r).cover_count == cover_count
    assert len(tl.enumerate_pairs(family, m, rep.s, range(n**m))[0]) == pair_set_size


def test_lift_params_validation():
    edgeless = Hypergraph(4, ())
    for m, r, s, message in [
        (2, 0, 0, "r must be positive"),
        (3, 3, 0, "n must be at least 2r"),
        (1, 2, 0, "m must be at least r"),
        (2, 1, -1, "s must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            tl.build_matrix_lift(edgeless, m, r, s)
    with pytest.raises(ValueError, match="-uniform"):
        tl.build_matrix_lift(Hypergraph(4, [(0, 1, 2)]), 2, 1)
    with pytest.raises(ValueError, match="m must be at least r"):
        tl.enumerate_pairs(Hypergraph(4, [(0, 1, 2, 3)]), 1, S1, range(4))
    with pytest.raises(ValueError, match="s must be positive"):
        tl.enumerate_pairs(M4, 2, 0, range(4**2))
    with pytest.raises(ValueError, match="matching has no edges"):
        tl.enumerate_pairs(Hypergraph(4, ()), 2, S1, range(4**2))
    # overlapping edges, an odd edge size, mixed edge sizes, overlapping 4-sets
    for edges in [[(0, 1), (1, 2)], [(0, 1, 2)], [(0, 1), (2, 3, 4, 5)],
                  [(0, 1, 2, 3), (2, 3, 4, 5)]]:
        with pytest.raises(ValueError, match="expected a matching of even-size edges"):
            tl.enumerate_pairs(Hypergraph(6, edges), 2, S1, range(6**2))
    # 2^64 maps: a complement's rank could wrap, whichever ranks are asked for
    with pytest.raises(ValueError, match=r"n\^m must fit in int64"):
        tl.enumerate_pairs(Hypergraph(2, [(0, 1)]), 64, S1, [0])
