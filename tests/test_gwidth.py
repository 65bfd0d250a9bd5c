import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from polywidth import gwidth as gw
from polywidth import mc
from polywidth.errors import BudgetExceededError
from polywidth.hypergraph import Hypergraph, width_bound
from polywidth.sparse import SparseMatrix


def matching_map(n, k, seed):
    return gw.PolyMap(Hypergraph(n, pairs.tolist()) for pairs in gw.random_matchings(n, k, seed))


def subsets_map(n, sizes):
    """One component whose edges are all subsets of [n] with the given sizes,
    next to the identity's first coordinate."""
    edges = [e for size in sizes for e in itertools.combinations(range(n), size)]
    return [Hypergraph(n, edges), Hypergraph(n, [(0,)])]


def overflowing_map(n, k, num_edges, seed):
    """k components of ``num_edges`` random edges of sizes 1 to 3 on [n]; at
    k = 18 and 12 edges their radix product 13^18 passes 2^64."""
    subsets = [e for size in (1, 2, 3) for e in itertools.combinations(range(n), size)]
    gen = mc.stream(seed, 0)
    return [
        Hypergraph(n, [subsets[i] for i in gen.choice(len(subsets), num_edges, replace=False)])
        for _ in range(k)
    ]


@pytest.mark.parametrize(
    "components",
    [
        gw.identity_map(5).components,
        matching_map(8, 3, 4).components,
        [Hypergraph(6, [(0, 1), (2, 3, 4)]), Hypergraph(6, ()), Hypergraph(6, [(5,)])],
        subsets_map(12, (2, 3)),
        overflowing_map(6, 18, 12, 5),
    ],
    ids=["identity", "matchings", "edgeless-component", "uint16", "re-ranked"],
)
def test_points_are_the_sorted_distinct_image(components):
    points = gw._points(gw.PolyMap(components))
    assert points.dtype.itemsize == (2 if len(components[0].edges) > 255 else 1)
    assert [tuple(p) for p in points.tolist()] == oracles.hypercube_image_direct(components)


def test_re_ranked_map_passes_the_uint64_keys():
    assert math.prod(h.num_edges + 1 for h in overflowing_map(6, 18, 12, 5)) > 2**64


@pytest.mark.parametrize(
    "components",
    [
        gw.identity_map(13).components,
        matching_map(12, 5, 3).components,
        [Hypergraph(11, [(0, 1), (2, 3, 4)]), Hypergraph(11, ()), Hypergraph(11, [(5,), (10,)])],
        overflowing_map(11, 18, 12, 6),
    ],
    ids=["identity", "matchings", "edgeless-component", "re-ranked"],
)
def test_points_in_small_ragged_blocks(monkeypatch, components):
    # key and decode blocks of 5000 rows, the last one ragged
    pm = gw.PolyMap(components)
    want = gw._points(pm)
    monkeypatch.setattr(gw._kernels, "_BLOCK_CELLS", 5000)
    assert gw._kernels._block_rows(1) == 5000 and 2**pm.n % 5000
    points = gw._points(pm)
    assert points.dtype == want.dtype and np.array_equal(points, want)
    assert [tuple(p) for p in points.tolist()] == oracles.hypercube_image_direct(components)


def reference_estimate(seed, samples, k, statistic):
    """Mean and standard error of ``statistic(g)`` over the k-dimensional
    Gaussian columns of the same chunked streams gw_estimate draws from."""
    values = []
    for i, count in enumerate(mc.chunk_counts(samples, 1024)):
        g_mat = mc.normals(mc.stream(seed, i), (k, count))
        values.extend(statistic(g) for g in g_mat.T)
    values = np.array(values)
    return values.mean(), values.std(ddof=1) / math.sqrt(samples)


def test_gw_estimate_identity_matches_closed_form():
    n, samples, seed = 6, 2500, 8
    mean, se = reference_estimate(seed, samples, n, lambda g: np.maximum(g, 0.0).sum())
    est = gw.gw_estimate(gw.identity_map(n), samples, seed)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-12)


def check_full_image_maximum(pm, samples, seed):
    """gw_estimate against the per-sample maximum over the undeduplicated image."""
    image = np.array(oracles.hypercube_image_direct(pm.components, distinct=False), float)
    assert len(image) == 2**pm.n
    mean, se = reference_estimate(seed, samples, pm.k, lambda g: (image @ g).max())
    est = gw.gw_estimate(pm, samples, seed)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-12)


def test_gw_estimate_matches_full_image_maximum():
    check_full_image_maximum(matching_map(8, 3, 4), 2500, 12)


def test_gw_estimate_max_spans_score_blocks():
    pm = matching_map(12, 5, 3)
    # more distinct points than one scoring block of 1024 directions holds
    assert len(gw._points(pm)) > gw._kernels._block_rows(1024)
    check_full_image_maximum(pm, 2500, 13)


@pytest.mark.parametrize(
    "pm", [matching_map(12, 5, 3), gw.identity_map(13)], ids=["matchings", "identity"]
)
def test_small_ragged_blocks_give_the_same_estimate(monkeypatch, pm):
    # score blocks of 4 points for the two chunks of 1024 directions and 11
    # for the last 452 (test_points_in_small_ragged_blocks checks the image)
    want = gw.gw_estimate(pm, 2500, 14)
    monkeypatch.setattr(gw._kernels, "_BLOCK_CELLS", 5000)
    assert [gw._kernels._block_rows(c) for c in (1, 1024, 452)] == [5000, 4, 11]
    assert gw.gw_estimate(pm, 2500, 14) == want


def test_score_blocks_are_sized_by_their_widest_temporary():
    # one direction over the 2^16 points of the identity at n = 16 (a 1 MiB
    # image): a block's (step, k) float64 copy of its points, not its
    # (step, 1) product, sets the block size.  Sized by the product alone,
    # one block copied the whole image to 8 MiB of floats and the run
    # peaked at 9.5 MiB; sized by the copy, at 2.3 MiB.
    pm = gw.identity_map(16)
    tracemalloc.start()
    try:
        est = gw.gw_estimate(pm, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.mean == pytest.approx(np.maximum(mc.normals(mc.stream(0, 0), (16, 1)), 0).sum())
    assert peak < 3 * 2**20


def test_records_are_immutable_and_compare_by_fields():
    comps = (Hypergraph(2, [(0,)]), Hypergraph(2, [(0, 1)]))
    pm = gw.PolyMap(iter(comps))
    assert (pm.components, pm.n, pm.k, pm.degree, pm.multiplicity) == (comps, 2, 2, 2, 1)
    assert repr(pm) == (
        "PolyMap(components=(Hypergraph(n=2, edges=((0,),)), Hypergraph(n=2, edges=((0, 1),))))"
    )
    assert pm == gw.PolyMap(list(comps)) and pm != gw.PolyMap(comps[:1])
    assert hash(pm) == hash(gw.PolyMap(comps)) == hash((comps,))
    norm = gw.SpectralNormEstimate(1.0, 2.0, True, 3)
    assert (norm.value, norm.upper_bound, norm.converged, norm.iterations) == (1.0, 2.0, True, 3)
    assert repr(norm) == (
        "SpectralNormEstimate(value=1.0, upper_bound=2.0, converged=True, iterations=3)"
    )
    assert norm == gw.SpectralNormEstimate(1.0, 2.0, True, 3)
    assert norm != gw.SpectralNormEstimate(1.0, 2.0, False, 3)
    assert hash(norm) == hash((1.0, 2.0, True, 3))
    tj = gw.TjResult(mc.McEstimate(0.5, 0.25), 2.0, 0.25)
    assert (tj.lhs.mean, tj.rhs, tj.ratio) == (0.5, 2.0, 0.25)
    assert repr(tj) == "TjResult(lhs=McEstimate(mean=0.5, std_error=0.25), rhs=2.0, ratio=0.25)"
    assert tj == gw.TjResult(mc.McEstimate(0.5, 0.25), 2.0, 0.25)
    assert tj != gw.TjResult(mc.McEstimate(0.5, 0.25), 4.0, 0.125)
    assert hash(tj) == hash(((0.5, 0.25), 2.0, 0.25))
    for record, field in ((pm, "components"), (norm, "iterations"), (tj, "ratio")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.other = 1


def test_polymap_needs_components_with_one_vertex_count():
    with pytest.raises(ValueError, match="at least one component"):
        gw.PolyMap([])
    with pytest.raises(ValueError, match="share the vertex count"):
        gw.PolyMap([Hypergraph(2, [(0,)]), Hypergraph(3, [(0,)])])


def test_sparse_matrix_is_an_immutable_record_equal_only_to_itself():
    a = SparseMatrix.from_entries(2, [1, 0, 0], [0, 1, 1])
    assert (a.dim, a.rows.tolist(), a.cols.tolist(), a.vals.tolist(), a.nnz) == (
        2, [0, 1], [1, 0], [2, 1], 2)
    assert repr(a) == (
        "SparseMatrix(dim=2, rows=array([0, 1]), cols=array([1, 0]), vals=array([2, 1]))"
    )
    # identity equality: comparing the arrays field by field would raise
    b = SparseMatrix(*a)
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) == object.__hash__(a) and len({a, b}) == 2
    for field in ("dim", "vals"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.other = 1
    # the methods that perfbench/traced.py wraps in vars(SparseMatrix)
    assert isinstance(vars(SparseMatrix)["from_entries"], classmethod)
    assert {"matvec", "rmatvec"} <= vars(SparseMatrix).keys()


def test_exact_inner_zero_map():
    # the image of an edgeless component is the single point 0
    est = gw.gw_estimate(gw.PolyMap([Hypergraph(3, ())]), 3000, seed=2)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_exact_inner_budget():
    with pytest.raises(BudgetExceededError):
        gw.gw_estimate(gw.identity_map(25), 10, seed=0)


def test_gw_estimate_identity_map():
    est = gw.gw_estimate(gw.identity_map(6), 4000, seed=21)
    exact = 6 / math.sqrt(2 * math.pi)
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_gw_estimate_deterministic_across_threads():
    pm = matching_map(8, 3, 4)
    a = gw.gw_estimate(pm, 3000, seed=13, threads=1)
    b = gw.gw_estimate(pm, 3000, seed=13, threads=8)
    assert a == b


def test_spectral_norm_identity():
    eye = SparseMatrix.from_entries(5, range(5), range(5))
    assert gw.spectral_norm(eye).value == pytest.approx(1.0)


@pytest.mark.parametrize("dim,k,seed", [(2, 1, 0), (10, 3, 2), (64, 5, 7)])
def test_random_matchings_are_the_permutation_pairs(dim, k, seed):
    matchings = gw.random_matchings(dim, k, seed)
    mats = gw.random_matching_matrices(dim, k, seed)
    direct = oracles.matching_entries_direct(dim, k, seed)
    for pairs, mat, (rows, cols) in zip(matchings, mats, direct, strict=True):
        want = SparseMatrix.from_entries(dim, rows, cols)
        for field in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(mat, field), getattr(want, field))
        assert pairs.shape == (dim // 2, 2)
        assert sorted(Hypergraph(dim, pairs.tolist()).edges) == sorted(
            {tuple(sorted((int(r), int(c)))) for r, c in zip(rows, cols)}
        )


def test_spectral_norm_matching():
    mat = gw.random_matching_matrices(10, 1, 2)[0]
    est = gw.spectral_norm(mat)
    assert est.value == pytest.approx(1.0)
    assert est.upper_bound == pytest.approx(1.0)


def test_spectral_norm_all_ones():
    rows, cols = np.divmod(np.arange(16), 4)
    assert gw.spectral_norm(SparseMatrix.from_entries(4, rows, cols)).value == pytest.approx(4.0)


def test_spectral_norm_zero_and_validation():
    assert gw.spectral_norm(SparseMatrix.from_entries(3, [], [])).value == 0.0


def test_spectral_norm_within_row_sum_bound():
    gen = mc.stream(31, 0)
    for _ in range(20):
        dim = int(gen.integers(2, 8))
        dense = gen.integers(0, 3, size=(dim, dim))
        dense = dense + dense.T  # nonnegative symmetric
        rows, cols = np.nonzero(dense)
        mat = SparseMatrix.from_entries(dim, rows, cols, dense[rows, cols])
        est = gw.spectral_norm(mat)
        max_row_sum = dense.sum(axis=1).max()
        assert est.value <= max_row_sum + 1e-9
        assert est.upper_bound <= max_row_sum + 1e-9
        # dual route: LAPACK agrees within the declared tolerance
        exact = np.abs(np.linalg.eigvalsh(dense.astype(float))).max()
        assert est.value <= exact + 1e-6
        if est.converged:
            assert est.value == pytest.approx(exact, rel=1e-3, abs=1e-9)


def test_gaussian_series_norm_matches_lapack():
    gen = mc.stream(77, 0)
    m = mc.normals(gen, (6, 6))
    sym = m + m.T
    assert gw.gaussian_series_norm(sym) == pytest.approx(
        np.abs(np.linalg.eigvalsh(sym)).max()
    )


def test_tj_series_samples_are_exactly_symmetric(monkeypatch):
    # gaussian_series_norm takes symmetric input only: every combination
    # the experiment forms must equal its transpose bit for bit
    real, seen = gw.gaussian_series_norm, []

    def norm(dense):
        seen.append(np.array_equal(dense, dense.T))
        return real(dense)

    monkeypatch.setattr(gw, "gaussian_series_norm", norm)
    for dim, k, seed in [(8, 3, 1), (16, 5, 2), (30, 7, 3)]:
        gw.tj_ratio_experiment(gw.random_matching_matrices(dim, k, seed), 12, seed=seed)
    assert len(seen) == 36 and all(seen)


def test_tj_single_matrix_analytic():
    eye = SparseMatrix.from_entries(8, range(8), range(8))
    res = gw.tj_ratio_experiment([eye], 4000, seed=17)
    expect_lhs = math.sqrt(2 / math.pi)  # E|g| times unit norm
    assert abs(res.lhs.mean - expect_lhs) <= 3 * res.lhs.std_error
    assert res.rhs == pytest.approx(math.sqrt(math.log(8)))
    assert res.ratio == pytest.approx(res.lhs.mean / res.rhs)


def test_tj_zero_matrices():
    zero = SparseMatrix.from_entries(4, [], [])
    res = gw.tj_ratio_experiment([zero, zero], 16, seed=1)
    assert res.lhs.mean == 0.0
    assert res.ratio == 0.0


def test_tj_dimension_mismatch():
    with pytest.raises(ValueError):
        gw.tj_ratio_experiment(
            [SparseMatrix.from_entries(4, [], []), SparseMatrix.from_entries(6, [], [])],
            8,
            seed=1,
        )


def test_width_bound_ceiling_and_value():
    assert width_bound(16, 4, 1, 1) == width_bound(16, 4, 2, 1)
    assert width_bound(16, 4, 2, 1) == pytest.approx(53.28349511409265)


def test_width_bound_monotone():
    base = width_bound(16, 4, 3, 2)
    assert width_bound(32, 4, 3, 2) >= base
    assert width_bound(16, 8, 3, 2) >= base
    assert width_bound(16, 4, 3, 3) >= base


def test_fitted_constant_does_not_grow_over_ladder():
    ratios = []
    for n in (4, 8, 16):
        pm = matching_map(n, 4, 2)
        est = gw.gw_estimate(pm, 3000, seed=11)
        ratios.append(est.mean / width_bound(n, 4, 2, 1))
    assert ratios[1] <= ratios[0] * 1.05
    assert ratios[2] <= ratios[1] * 1.05


def test_quadratic_case_norm_upper_bound():
    # d=2 map from matrices with row/col sums <= 1: width <= n * E||sum g_i A_i||
    n, k, samples = 8, 3, 4000
    mats = gw.random_matching_matrices(n, k, 4)
    # components evaluate as upper-triangular incidence quadratic forms
    pm = matching_map(n, k, 4)
    lhs = gw.gw_estimate(pm, samples, seed=19)
    # E||sum g_i A_i|| over the symmetric adjacency matrices, halved: the
    # polynomial uses each edge once while the adjacency counts it twice
    res = gw.tj_ratio_experiment(mats, samples, seed=19)
    rhs_mean = n * res.lhs.mean / 2.0
    rhs_se = n * res.lhs.std_error / 2.0
    assert lhs.mean <= rhs_mean + 3 * math.hypot(lhs.std_error, rhs_se)
