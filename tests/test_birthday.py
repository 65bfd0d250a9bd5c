import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from polywidth import birthday as bd
from polywidth import mc
from polywidth.hypergraph import default_goodness_bound, default_matching


def test_default_constants_r1():
    assert bd.growth_constant(1) == pytest.approx(6 * math.e)
    assert default_goodness_bound(1) == 800


def test_default_constants_r2():
    assert bd.growth_constant(2) == pytest.approx(math.sqrt(12 * math.e))
    assert default_goodness_bound(2) == 3200


def test_threshold_ratio_is_four():
    for r in range(2, 7):
        assert default_goodness_bound(r) == 4 * default_goodness_bound(r - 1)


def test_default_m_values():
    assert bd.default_map_length(1, 100) == 16
    assert bd.default_map_length(2, 600) == 139


def test_param_validation():
    for args, message in [
        ((0, 10, 2, 1), "r must be positive"),
        ((2, 3, 2, 1), "n must be at least 2r"),
        ((1, 4, 0, 1), "m must be positive"),
        ((1, 4, 2, 0), "s must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            bd.phi_statistics(*args)
        if args[3]:  # the domination check takes no s
            with pytest.raises(ValueError, match=message):
                bd.poisson_domination_check(*args[:3])
    with pytest.raises(ValueError):
        bd.phi_statistics(1, 4, 2, 1, samples=0)


def test_records_are_immutable_and_compare_by_fields():
    est, zero = mc.McEstimate(0.5, 0.25), mc.McEstimate(0.0, 0.0)
    stats = bd.PhiStatistics(est, mc.McEstimate(2.0, 0.5), zero, est)
    assert (stats.good_probability, stats.mean_phi.mean, stats.tail_probability,
            stats.zero_probability) == (est, 2.0, zero, est)
    assert repr(stats) == (
        "PhiStatistics(good_probability=McEstimate(mean=0.5, std_error=0.25), "
        "mean_phi=McEstimate(mean=2.0, std_error=0.5), "
        "tail_probability=McEstimate(mean=0.0, std_error=0.0), "
        "zero_probability=McEstimate(mean=0.5, std_error=0.25))"
    )
    assert stats == bd.PhiStatistics(est, mc.McEstimate(2.0, 0.5), zero, est)
    assert stats != bd.PhiStatistics(est, est, zero, est)
    assert hash(stats) == hash(((0.5, 0.25), (2.0, 0.5), (0.0, 0.0), (0.5, 0.25)))
    row = bd.DominationRow("psi", est, zero, 0.5, 0.75, True)
    assert (row.functional, row.lhs, row.rhs, row.margin, row.tolerance, row.holds) == (
        "psi", est, zero, 0.5, 0.75, True)
    assert repr(row) == (
        "DominationRow(functional='psi', lhs=McEstimate(mean=0.5, std_error=0.25), "
        "rhs=McEstimate(mean=0.0, std_error=0.0), margin=0.5, tolerance=0.75, holds=True)"
    )
    assert row == bd.DominationRow("psi", est, zero, 0.5, 0.75, True)
    assert row != bd.DominationRow("chi", est, zero, 0.5, 0.75, True)
    assert hash(row) == hash(("psi", (0.5, 0.25), (0.0, 0.0), 0.5, 0.75, True))
    report = bd.ChiSquareReport(3.5, 4, 0.5, True)
    assert (report.statistic, report.dof, report.p_value, report.passed) == (3.5, 4, 0.5, True)
    assert repr(report) == "ChiSquareReport(statistic=3.5, dof=4, p_value=0.5, passed=True)"
    assert report == bd.ChiSquareReport(3.5, 4, 0.5, True)
    assert report != bd.ChiSquareReport(3.5, 4, 1e-4, False)
    assert hash(report) == hash((3.5, 4, 0.5, True))
    for record, field in ((stats, "mean_phi"), (row, "holds"), (report, "p_value")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.other = 1


def test_phi_constant_case_is_exact():
    # r=1, n=4, m=2, full matching: both coordinates land in the union, phi == 2
    st = bd.phi_statistics(1, 4, 2, 800, samples=500, seed=3)
    assert st.mean_phi.mean == 2.0
    assert st.mean_phi.std_error == 0.0
    assert st.good_probability.mean == 1.0


def test_single_coordinate_good_probability():
    # m=1, r=1 on n=5: good iff the single value lands in the matched 4 vertices
    st = bd.phi_statistics(1, 5, 1, 800, samples=20000, seed=3)
    assert abs(st.good_probability.mean - 0.8) <= 3 * st.good_probability.std_error + 1e-12


def test_mean_phi_linear_in_matching_size():
    # r=1, m fixed: E[phi] = m * |union of matching| / n, over sub-matchings
    # of the default matching scored on the same uniform maps
    maps = mc.stream(9, 0).integers(0, 8, size=(20000, 3))
    for size in (1, 2, 3, 4):
        edges = np.array(default_matching(8, 1).edges[:size], dtype=np.int64)
        phis = bd._kernels.phi_batch(maps, edges, 8)
        se = phis.std(ddof=1) / math.sqrt(len(phis))
        assert abs(phis.mean() - 3 * 2 * size / 8) <= 3 * se + 1e-12, size


def test_phi_events_partition_the_samples():
    # phi = 0, 1 <= phi <= s and phi > s split every sample: the three
    # counts add up to the sample count exactly
    samples = 5000
    st = bd.phi_statistics(2, 8, 3, 1, samples=samples, seed=4)
    parts = (st.zero_probability, st.good_probability, st.tail_probability)
    assert all(0.0 < p.mean < 1.0 for p in parts)
    assert sum(round(p.mean * samples) for p in parts) == samples


def test_estimate_in_unit_interval_and_deterministic():
    args = (1, 20, bd.default_map_length(1, 20), 800)
    a = bd.phi_statistics(*args, samples=5000, seed=11).good_probability
    b = bd.phi_statistics(*args, samples=5000, seed=11).good_probability
    assert a == b
    assert 0.0 <= a.mean <= 1.0


def test_threads_do_not_change_estimates():
    a = bd.phi_statistics(2, 64, 40, 3200, samples=10000, seed=5, threads=1)
    b = bd.phi_statistics(2, 64, 40, 3200, samples=10000, seed=5, threads=8)
    assert a == b


def test_monotone_in_threshold():
    # with the same seed, raising s can only enlarge the good event
    small = bd.phi_statistics(1, 30, 5, 1, samples=4000, seed=2).good_probability
    large = bd.phi_statistics(1, 30, 5, 10**9, samples=4000, seed=2).good_probability
    assert small.mean <= large.mean


def test_pmf_table_matches_scipy():
    for mu in (0.2, 1.0, 7.5):
        table = bd.poisson_pmf_table(mu)
        ref = scipy_stats.poisson.pmf(np.arange(len(table)), mu)
        assert np.allclose(table, ref, atol=1e-12)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_poisson_moments():
    gen = mc.stream(17, 0)
    draws = bd.sample_poisson(gen, 2.5, 200000)
    assert draws.mean() == pytest.approx(2.5, abs=0.02)
    assert draws.var() == pytest.approx(2.5, abs=0.05)


def test_sample_poisson_blocks_match_one_draw():
    # one call equals searchsorted over one gen.random(size) draw and
    # leaves the stream where that draw would
    size = (3, 1001)
    cdf = np.cumsum(bd.poisson_pmf_table(1.7))
    one, inverted = mc.stream(9, 0), mc.stream(9, 0)
    want = np.searchsorted(cdf, one.random(size))
    got = bd.sample_poisson(inverted, 1.7, size)
    assert got.dtype == np.int64 and got.shape == size
    assert np.array_equal(got, want)
    assert one.random() == inverted.random()


class FixedUniforms:
    """Stands in for a generator whose ``random(out=)`` yields ``u`` in order."""

    def __init__(self, u):
        self.u, self.pos = u, 0

    def random(self, out):
        out[:] = self.u[self.pos : self.pos + len(out)]
        self.pos += len(out)
        return out


@pytest.mark.parametrize("mu", [0.0, 1e-12, 0.08, 1.3, 30.0, 700.0])
def test_table_inversion_equals_searchsorted(mu):
    # the hard uniforms: every cdf value and its neighbours, both sides of
    # every bucket edge b / 2^16, and the ends of [0, 1)
    cdf = np.cumsum(bd.poisson_pmf_table(mu))
    edges = np.arange(1 << 16) / (1 << 16)
    u = np.concatenate(
        [
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 2.0),
            edges,
            np.nextafter(edges, -1.0),
            np.nextafter(edges, 2.0),
            [0.0, 1.0 - 2.0**-53],
            mc.stream(23, 0).random(5000),
        ]
    )
    u = u[(u >= 0.0) & (u < 1.0)]
    got = bd.sample_poisson(FixedUniforms(u), mu, len(u))
    assert np.array_equal(got, np.searchsorted(cdf, u))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("r, n, m", [(1, 12, 5), (2, 16, 6), (3, 18, 7)])
def test_chunks_drawn_in_many_blocks_equal_whole_chunk_draws(monkeypatch, r, n, m, threads):
    # small blocks: 37 rows, so both chunks (4096 and 904 samples) span many
    # blocks and end in a ragged one; the estimates equal those of drawing
    # and scoring each chunk at once
    monkeypatch.setattr(bd._kernels, "_BLOCK_CELLS", 37 * n)
    assert bd._kernels._block_rows(n) == 37
    samples, seed, s = 5000, 3, 2
    edges = np.array(default_matching(n, r).edges, dtype=np.int64)
    cdf = np.cumsum(bd.poisson_pmf_table(m / n))

    def exact_side(gen, count):
        phis = bd._kernels.phi_batch(gen.integers(0, n, size=(count, m)), edges, n)
        return np.stack([(phis >= 1) & (phis <= s), phis, phis > s, phis == 0], axis=1)

    def poisson_side(gen, count):
        hists = np.searchsorted(cdf, gen.random((count, n)))
        phis = bd._kernels.phi_hist_batch(hists, edges)
        return np.stack([phis == 0, phis], axis=1)

    want = mc.run_chunked(exact_side, samples, seed, threads=threads)
    assert bd.phi_statistics(r, n, m, s, samples, seed, threads) == bd.PhiStatistics(*want)
    want = [want[3], want[1]], mc.run_chunked(poisson_side, samples, seed + 1, threads=threads)
    rows = bd.poisson_domination_check(r, n, m, samples, seed, threads)
    assert ([row.lhs for row in rows], [row.rhs for row in rows]) == want


def test_phi_blocks_are_sized_by_the_map_length():
    # at m = 2000 > n = 20 a block's (rows, m) map draw and its gather of
    # first bins are the widest temporaries; blocks sized by n alone held
    # 100 MiB of them, sized by max(n, m) 1.1 MiB
    tracemalloc.start()
    try:
        st = bd.phi_statistics(1, 20, 2000, 800, 4096, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every vertex is matched at r = 1 and n even, so phi counts all m values
    assert (st.mean_phi.mean, st.mean_phi.std_error) == (2000.0, 0.0)
    assert peak < 4 * 2**20


def test_poisson_domination_small_case():
    rows = bd.poisson_domination_check(1, 50, 10, samples=20000, seed=1)
    names = [row.functional for row in rows]
    assert names == ["psi", "chi"]
    assert all(row.holds for row in rows)


@pytest.mark.parametrize("threads", [1, 2])
def test_poisson_domination_exact_side_is_the_phi_pass(threads):
    # psi's lhs is Pr[phi = 0] and chi's is E[phi], from the phi_statistics
    # pass of the same seed; both equal a separate pass over the same maps
    # that scores only those two columns (every column sums integers)
    st = bd.phi_statistics(2, 60, 20, 3200, samples=9000, seed=13, threads=threads)
    psi, chi = bd.poisson_domination_check(2, 60, 20, samples=9000, seed=13, threads=threads)
    assert psi.lhs == st.zero_probability
    assert chi.lhs == st.mean_phi
    assert 0.0 < psi.lhs.mean < 1.0 and chi.lhs.std_error > 0.0
    edges = np.array(default_matching(60, 2).edges, dtype=np.int64)

    def two_columns(gen, count):
        phis = bd._kernels.phi_batch(gen.integers(0, 60, size=(count, 20)), edges, 60)
        return np.stack([phis == 0, phis], axis=1)

    assert [psi.lhs, chi.lhs] == mc.run_chunked(two_columns, 9000, 13, threads=threads)


def test_poisson_sum_chisquare_passes():
    rep = bd.poisson_sum_chisquare(1.3, 0.7, samples=100000, seed=4)
    assert rep.passed
    assert rep.p_value >= 1e-3


@pytest.mark.parametrize("samples", [7, 50_003])
def test_binned_poisson_sums_equal_the_whole_draw(monkeypatch, samples):
    # the whole-array draw: all of Y_a, then all of Y_b, from one stream;
    # neither sample count is a multiple of the four doubles per Philox step
    gen = mc.stream(9, 0)
    draws = bd.sample_poisson(gen, 1.3, samples) + bd.sample_poisson(gen, 0.7, samples)
    want = np.bincount(np.clip(draws, 1, 5) - 1, minlength=5)
    monkeypatch.setattr(bd._kernels, "_BLOCK_CELLS", 1000)  # 51 lockstep blocks at 50,003
    assert bd._binned_poisson_sums(1.3, 0.7, samples, 9, 1, 5).tolist() == want.tolist()


@pytest.mark.parametrize("mu,samples", [(112.7, 1000), (40.0, 3000), (2.0, 50000), (2.0, 1000)])
def test_chi_square_bins_each_expect_five_draws(mu, samples):
    # at mean 112.7 and 1000 draws a bin for 0 alone expected 1.1e-46 draws
    expected = bd.poisson_pmf_table(mu) * samples
    rep = bd.poisson_sum_chisquare(mu - 0.7, 0.7, samples=samples, seed=1)
    # two lumps, and single values that each expect 5 draws or more
    assert rep.dof + 1 <= 2 + np.count_nonzero(expected >= 5.0)
    low, binned = bd._chi_square_bins(expected, samples)
    assert rep.dof == len(binned) - 1
    assert binned.min() >= 5.0
    assert binned.sum() == pytest.approx(samples, rel=1e-12)
    assert (binned[1:-1] == expected[low + 1 : low + len(binned) - 1]).all()


def test_chi_square_bins_unchanged_where_every_bin_already_held_five():
    # the bench default (mean 2, 50k draws) expects 6767 draws of 0: no low lump
    expected = bd.poisson_pmf_table(2.0) * 50000
    low, binned = bd._chi_square_bins(expected, 50000)
    assert low == 0 and binned[0] == expected[0]
    assert len(binned) == 10


def test_chi_square_survival_matches_scipy_stats():
    # dof 1-1000, x 0-4000: relative error <= 1e-11 wherever the reference is
    # >= 1e-300, and never 0 where it is positive (the naive sum underflows
    # once x/2 > ~708: at dof 600, x 1600 the tail is 6.1e-92)
    stat = np.concatenate([np.arange(0.0, 4000.0, 16.0), [1e-9, 0.5, 1416.5, 1490.0, 1600.0]])
    for dof in [*range(1, 1001, 37), 600, 999, 1000]:
        ref = scipy_stats.chi2.sf(stat, dof)
        got = np.array([bd._chi_square_tail(dof, float(x)) for x in stat])
        assert not (got == 0)[ref > 0].any(), dof
        big = ref >= 1e-300
        assert np.allclose(got[big], ref[big], rtol=1e-11, atol=0.0), dof


def test_pmf_table_converges_where_the_tail_test_stalls():
    # 1 - total can stall at 1 - 1.1e-15 > 1e-15: the first such mean on a
    # 0.01 grid is 22.46
    for mu in (22.46, 112.0, 112.7, 700.0):
        table = bd.poisson_pmf_table(mu)
        ref = scipy_stats.poisson.pmf(np.arange(len(table)), mu)
        assert np.allclose(table, ref, rtol=1e-10, atol=0.0), mu
        assert table.sum() == pytest.approx(1.0, abs=1e-12), mu


def test_pmf_table_rejects_subnormal_start():
    # e^-740 is subnormal: the recurrence from it summed to 1.0000783
    for mu in (708.5, 740.0):
        with pytest.raises(ValueError):
            bd.poisson_pmf_table(mu)


def test_pmf_table_rejects_nonfinite_mean():
    for mu in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError):
            bd.poisson_pmf_table(mu)


def test_poisson_sum_chisquare_detects_mismatch():
    # compare draws of Y_a + Y_b against a deliberately wrong reference mean
    gen = mc.stream(4, 0)
    draws = bd.sample_poisson(gen, 1.3, 100000) + bd.sample_poisson(gen, 0.7, 100000)
    pmf = bd.poisson_pmf_table(2.6)  # wrong: true mean is 2.0
    expected = pmf * len(draws)
    cut = len(expected)
    while cut > 1 and expected[cut - 1 :].sum() < 5.0:
        cut -= 1
    exp_binned = np.concatenate([expected[: cut - 1], [expected[cut - 1 :].sum()]])
    obs = np.bincount(np.minimum(draws, cut - 1), minlength=cut).astype(float)
    stat = float(((obs - exp_binned) ** 2 / exp_binned).sum())
    assert scipy_stats.chi2.sf(stat, cut - 1) < 1e-3
