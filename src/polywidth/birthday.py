"""Generalized birthday paradox for random maps against a maximal matching.

A uniform random map h: [m] -> [n] scores phi(h) = sum over matching edges S
of the number of r-subsets of positions whose images half-cover S; h is
"s-good" when 1 <= phi(h) <= s.  With the default constants

    C_r = (6 e r)^(1/r),   m = floor(C_r n^(1-1/r)),   s = 200 * 4^r,

and n >= n_0(r) = 4 (C_r r)^r, a uniform map is s-good with probability at
least 1/2: phi is zero with probability at most 1/4, and by Markov (using
E[phi] <= 50 * 4^r, via domination of the occupancy histogram by independent
Poisson(m/n) bins) phi exceeds s with probability at most 1/4.  The module
estimates these quantities by seeded Monte Carlo and checks the Poisson
domination numerically.

The chi-square test that independent Poisson draws add up needs the tail
Q(k, x) = Pr[chi^2_k >= x] only at an integer number k of degrees of
freedom, where it has a closed form (Abramowitz & Stegun 26.4.4-26.4.5).
With y = x/2,

    Q(k, x) = sum over a = 0, 1, ..., a < k/2 of  e^-y y^a / a!             (k even)
    Q(k, x) = erfc(sqrt y) + sum over a = 1/2, 3/2, ..., a < k/2 of
              e^-y y^a / Gamma(a + 1)                                       (k odd)

Every term is positive, so the sum loses no digits to cancellation.  The
terms follow the recurrence t(a + 1) = t(a) y / (a + 1).  A term below the
smallest normal float (e^-y itself once y > ~708) is built from logs with
``math.lgamma`` instead, so a tail of 1e-92 at y = 800 is not lost to
underflow.
"""

import functools
import math
import sys
from collections import namedtuple

import numpy as np

from . import _kernels, mc
from .hypergraph import _check_goodness_args, default_goodness_bound, default_matching

__all__ = [
    "default_map_length",
    "phi_statistics",
    "PhiStatistics",
    "poisson_pmf_table",
    "sample_poisson",
    "poisson_domination_check",
    "DominationRow",
    "poisson_sum_chisquare",
    "ChiSquareReport",
]

PMF_TAIL = 1e-15  # pmf tables stop once the mass left is below this
_GUIDE_BUCKETS = 1 << 16  # buckets of uniforms in a Poisson inversion table
CHI_SQUARE_SIGNIFICANCE = 1e-3
CHI_SQUARE_MEANS = (1.3, 0.7)  # the Poisson means of poisson-check's chi-square row
CHI_SQUARE_MIN_EXPECTED = 5.0  # least expected draws per chi-square bin


def growth_constant(r: int) -> float:
    """C_r = (6 e r)^(1/r)."""
    return (6.0 * math.e * r) ** (1.0 / r)


def default_map_length(r: int, n: int) -> int:
    """The default map length m = floor(C_r n^(1-1/r))."""
    return int(growth_constant(r) * n ** (1.0 - 1.0 / r))


class PhiStatistics(
    namedtuple("PhiStatistics", "good_probability mean_phi tail_probability zero_probability")
):
    """Estimates of Pr[s-good], E[phi], Pr[phi > s] and Pr[phi = 0]."""

    __slots__ = ()


def _phi_pass(score, cells, s, samples, seed, threads) -> PhiStatistics:
    """``PhiStatistics`` of ``samples`` values of phi, ``score(gen, rows)``
    drawing and scoring a block of rows of ``cells`` int64 cells."""

    def value_fn(gen, count):
        phis = _kernels._in_blocks(count, 8 * cells, lambda rows: score(gen, rows))
        good = (phis >= 1) & (phis <= s)
        return np.stack([good, phis, phis > s, phis == 0], axis=1, dtype=np.float64)

    return PhiStatistics(*mc.run_chunked(value_fn, samples, seed, threads=threads))


def phi_statistics(
    r: int, n: int, m: int, s: int, samples=10000, seed=0, threads=1
) -> PhiStatistics:
    """One sampling pass of uniform maps [m] -> [n], scored against the
    default matching of 2r-sets, returning Pr[s-good], E[phi], Pr[phi > s]
    and Pr[phi = 0].  Needs r >= 1, n >= 2r, m >= 1 and s >= 1."""
    _check_goodness_args(r, n, s)
    if m < 1:
        raise ValueError("m must be positive")
    edges = np.array(default_matching(n, r).edges, dtype=np.int64)

    def score(gen, rows):  # a block draws (rows, m) maps over n bins
        return _kernels.phi_batch(gen.integers(0, n, (rows, m)), edges, n)

    return _phi_pass(score, max(n, m), s, samples, seed, threads)


# --------------------------------------------------------------------------
# Poisson machinery.


def poisson_pmf_table(mu: float) -> np.ndarray:
    """pmf values e^-mu mu^l / l! for l = 0.. until the tail mass drops below
    ``PMF_TAIL``, or, past the mode, until a term no longer changes the sum.

    mu must be finite and nonnegative, with e^-mu a normal float
    (mu <= ~708.4): the table is built by recurrence from e^-mu.
    """
    if not (mu >= 0 and math.exp(-mu) >= sys.float_info.min):
        raise ValueError(f"Poisson mean {mu} is not in [0, ~708.4] (e^-mu a normal float)")
    pmf = [math.exp(-mu)]
    total = pmf[0]
    ell = 0
    while 1.0 - total > PMF_TAIL:
        ell += 1
        pmf.append(pmf[-1] * mu / ell)
        if ell > mu and total + pmf[-1] == total:
            break
        total += pmf[-1]
    return np.array(pmf)


@functools.lru_cache(maxsize=8)
def _inversion_table(mu: float):
    """``(cdf, guide, split)`` for inverting the Poisson(mu) cdf.

    Bucket b holds the uniforms u with floor(u * 2^16) = b.  ``guide[b]`` is
    the number of cdf values below b / 2^16, which is searchsorted(cdf, u)
    for every u in the bucket unless a cdf value lies inside it; ``split``
    marks those buckets.  The arrays are shared and read-only.
    """
    cdf = np.cumsum(poisson_pmf_table(mu))
    guide = np.searchsorted(cdf, np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS)
    split = np.zeros(_GUIDE_BUCKETS, dtype=bool)
    split[(cdf[cdf < 1.0] * _GUIDE_BUCKETS).astype(np.int64)] = True
    for table in (cdf, guide, split):
        table.flags.writeable = False
    return cdf, guide, split


def sample_poisson(gen: np.random.Generator, mu: float, size) -> np.ndarray:
    """Poisson draws by inversion of the cumulative density: a draw is
    ``np.searchsorted(cdf, u)`` for a uniform double u.

    The uniforms are drawn into a fresh array and inverted straight into
    the output, so the stream and the draws are those of one
    ``gen.random(size)`` call.  A draw is read from the bucket table of
    ``_inversion_table``, exactly, as u * 2^16 is exact; only the uniforms
    in a bucket that holds a cdf value fall back to ``searchsorted``.
    """
    cdf, guide, split = _inversion_table(float(mu))
    out = np.empty(size, dtype=np.int64)
    u = gen.random(out=np.empty(out.size))
    bucket = np.empty(out.size, dtype=np.int64)
    np.multiply(u, _GUIDE_BUCKETS, out=bucket, casting="unsafe")  # floor, as u >= 0
    # buckets lie in range; mode="clip" writes to out directly, "raise" via a copy
    draws = np.take(guide, bucket, out=out.reshape(-1), mode="clip")
    hits = np.flatnonzero(np.take(split, bucket, mode="clip"))
    draws[hits] = np.searchsorted(cdf, u[hits])
    return out


class DominationRow(namedtuple("DominationRow", "functional lhs rhs margin tolerance holds")):
    """lhs = E[Phi(exact histogram)], rhs = E[Phi(independent Poisson bins)],
    margin = lhs.mean - 2*rhs.mean, tolerance = 3 * combined SE."""

    __slots__ = ()


def poisson_domination_check(
    r: int, n: int, m: int, samples=100000, seed=0, threads=1
) -> tuple[DominationRow, ...]:
    """Check E[Phi(X)] <= 2 E[Phi(Y)] for the two goodness functionals.

    X is the exact occupancy histogram of a uniform random map [m] -> [n];
    Y has independent Poisson(m/n) bins.  Phi is either the indicator that
    phi vanishes ("psi") or phi itself ("chi").  The exact side is the
    ``phi_statistics`` pass of the same seed, the Poisson side the same pass
    over Poisson histograms; neither functional depends on its threshold s.
    The inequality is declared to hold when lhs <= 2*rhs + 3*(combined
    standard error).

    The arguments and the Poisson mean m/n (``poisson_pmf_table``) are
    checked before either side samples.
    """
    s = default_goodness_bound(r)
    _check_goodness_args(r, n, s)
    if m < 1:
        raise ValueError("m must be positive")
    mu = m / n
    _inversion_table(mu)
    exact = phi_statistics(r, n, m, s, samples, seed, threads=threads)
    edges = np.array(default_matching(n, r).edges, dtype=np.int64)

    def score(gen, rows):
        return _kernels.phi_hist_batch(sample_poisson(gen, mu, (rows, n)), edges)

    # Independent stream for the Poisson side.
    poisson = _phi_pass(score, n, s, samples, seed + 1, threads)

    rows = []
    for name, lhs, rhs in (
        ("psi", exact.zero_probability, poisson.zero_probability),
        ("chi", exact.mean_phi, poisson.mean_phi),
    ):
        margin = lhs.mean - 2.0 * rhs.mean
        tol = 3.0 * math.hypot(lhs.std_error, 2.0 * rhs.std_error)
        rows.append(DominationRow(name, lhs, rhs, margin, tol, margin <= tol))
    return tuple(rows)


def _chi_square_tail(dof: int, x: float) -> float:
    """Pr[chi^2_dof >= x] for an integer dof >= 1, in closed form (module
    docstring)."""
    y = 0.5 * x
    if y == 0:
        return 1.0
    odd = dof % 2
    tail = math.erfc(math.sqrt(y)) if odd else 0.0
    term = math.exp(-y) * (2.0 * math.sqrt(y / math.pi) if odd else 1.0)  # a = 1/2 or 0
    a = 0.5 * odd
    while a < 0.5 * dof:
        if term < sys.float_info.min:  # subnormal or lost to underflow
            term = math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        tail += term
        a += 1.0
        term *= y / a
    return tail


class ChiSquareReport(namedtuple("ChiSquareReport", "statistic dof p_value passed")):
    __slots__ = ()


def _chi_square_bins(expected, samples):
    """``(low, binned)``: the first bin holds the values <= low, the last
    the values >= low + len(binned) - 1, every other bin one value, and
    ``binned`` is their expected counts (truncated pmf mass in the last).

    Each end is lumped until the lump and the value next to it expect at
    least ``CHI_SQUARE_MIN_EXPECTED`` draws; as the pmf is unimodal, every
    bin between them does too.  A sample count too small for two such bins
    raises ValueError.
    """
    least = CHI_SQUARE_MIN_EXPECTED
    cut = len(expected)  # the last bin holds the values >= cut - 1
    while cut > 1 and expected[cut - 1 :].sum() < least:
        cut -= 1
    low = 0
    while low < cut - 2 and min(expected[: low + 1].sum(), expected[low + 1]) < least:
        low += 1
    while cut - low > 2 and expected[cut - 2] < least:
        cut -= 1
    binned = np.concatenate(
        [[expected[: low + 1].sum()], expected[low + 1 : cut - 1], [expected[cut - 1 :].sum()]]
    )
    binned[-1] += samples - expected.sum()
    if cut < 2 or binned.min() < least:
        raise ValueError(
            f"{samples} samples leave no two chi-square bins that each expect {least:g} draws"
        )
    return low, binned


def _binned_poisson_sums(mu_a, mu_b, samples, seed, low, bins):
    """Counts of Y_a + Y_b, clipped to [low, low + bins - 1], over ``samples``
    draws of Y_a ~ Poisson(mu_a) and then Y_b ~ Poisson(mu_b) from
    ``mc.stream(seed, 0)``.

    Y_b is drawn from a second copy of the stream advanced past the Y_a
    uniforms (a Philox counter step is four 64-bit outputs, one per double),
    so both sides are drawn, added and binned in lockstep blocks of
    ``_kernels._block_rows(8)`` draws with the values of two whole draws.
    """
    gen_a, gen_b = mc.stream(seed, 0), mc.stream(seed, 0)
    gen_b.bit_generator.advance(samples // 4)
    gen_b.random(samples % 4)
    obs = np.zeros(bins, dtype=np.int64)
    step = _kernels._block_rows(8)
    for start in range(0, samples, step):
        count = min(step, samples - start)
        draws = sample_poisson(gen_a, mu_a, count)
        draws += sample_poisson(gen_b, mu_b, count)
        np.clip(draws, low, low + bins - 1, out=draws)
        draws -= low
        obs += np.bincount(draws, minlength=bins)
    return obs


def poisson_sum_chisquare(mu_a: float, mu_b: float, samples=100000, seed=0) -> ChiSquareReport:
    """Goodness-of-fit of sampled Y_a + Y_b against a single Poisson(mu_a+mu_b)
    at significance ``CHI_SQUARE_SIGNIFICANCE``.

    Values whose expected count is below ``CHI_SQUARE_MIN_EXPECTED`` are
    lumped into the first or the last bin (``_chi_square_bins``).
    """
    expected = poisson_pmf_table(mu_a + mu_b) * samples
    low, exp_binned = _chi_square_bins(expected, samples)
    obs = _binned_poisson_sums(mu_a, mu_b, samples, seed, low, len(exp_binned))
    stat = float(((obs.astype(np.float64) - exp_binned) ** 2 / exp_binned).sum())
    dof = len(exp_binned) - 1
    p_value = _chi_square_tail(dof, stat)
    passed = p_value >= CHI_SQUARE_SIGNIFICANCE
    return ChiSquareReport(stat, dof, p_value, passed)
