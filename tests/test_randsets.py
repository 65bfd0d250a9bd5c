import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from polywidth import _kernels, mc, randsets as rs
from polywidth.aps import ap_hypergraph
from polywidth.errors import BudgetExceededError


def test_params_validation():
    with pytest.raises(ValueError, match="p must lie strictly inside"):
        rs.upper_tail_mc(13, 3, 0.0, 1.0, 10)
    with pytest.raises(ValueError, match="p must lie strictly inside"):
        rs.upper_tail_mc(13, 3, 1.0, 1.0, 10)
    with pytest.raises(ValueError, match="delta must be positive"):
        rs.upper_tail_mc(13, 3, 0.5, 0.0, 10)
    for N, k in ((2, 3), (9, 3), (13, 2), (13, 14)):
        with pytest.raises(ValueError, match="prime|3 <= k <= N"):
            rs.upper_tail_mc(N, k, 0.5, 1.0, 10)


def test_results_are_immutable_and_compare_by_fields():
    res = rs.intersectivity_check(5, 1, 0.4, [1])
    assert (res.intersective, res.witness, res.exact) == (False, (1, 0, 1, 0, 0), True)
    assert repr(res) == (
        "IntersectivityResult(intersective=False, witness=(1, 0, 1, 0, 0), exact=True)"
    )
    assert res == rs.IntersectivityResult(False, (1, 0, 1, 0, 0), True)
    assert res != rs.IntersectivityResult(True, None, True)
    assert hash(res) == hash((False, (1, 0, 1, 0, 0), True))
    tail = rs.UpperTailResult(mc.McEstimate(0.0, 0.0), 0.5, 0.25)
    assert (tail.estimate.mean, tail.reference_rate, tail.rule_of_three_bound) == (0.0, 0.5, 0.25)
    assert repr(tail) == (
        "UpperTailResult(estimate=McEstimate(mean=0.0, std_error=0.0), "
        "reference_rate=0.5, rule_of_three_bound=0.25)"
    )
    assert tail == rs.UpperTailResult(mc.McEstimate(0.0, 0.0), 0.5, 0.25)
    assert tail != rs.UpperTailResult(mc.McEstimate(0.0, 0.0), 0.5, None)
    assert hash(tail) == hash(((0.0, 0.0), 0.5, 0.25))
    for record, field in ((res, "intersective"), (tail, "rule_of_three_bound")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.other = 1


@pytest.mark.parametrize("N", [4, 9, 12, 15, 20, 22, 13, 31])
def test_ap_masks_match_direct(N):
    # composite N: progressions whose difference shares a factor with N
    # repeat terms and are dropped; diffs may repeat, be negative or exceed N
    diff_sets = [[1], [2, 3], list(range(1, N)), [N // 2, -1, N + 2, 2, 2]]
    for ell in (1, 2, 3, 5):
        for diffs in diff_sets:
            assert rs._ap_masks(N, ell, diffs) == oracles.ap_masks_direct(N, ell, diffs)
    assert rs._ap_masks(N, 2, []) == []
    with pytest.raises(ValueError):
        rs._ap_masks(N, 2, [1, N])


def test_upper_tail_small_delta_sanity():
    res = rs.upper_tail_mc(13, 3, 0.5, 1e-6, 20000, seed=1)
    assert res.estimate.mean >= 0.1


def test_upper_tail_monotone_in_delta():
    probs = [
        rs.upper_tail_mc(13, 3, 0.5, d, 20000, seed=5).estimate.mean
        for d in (0.25, 0.5, 1.0, 2.0)
    ]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_upper_tail_matches_exact_enumeration():
    exact = oracles.exact_upper_tail_probability(13, 3, 0.5, 1.0)
    assert exact == pytest.approx(0.1334228515625)  # frozen from the oracle
    res = rs.upper_tail_mc(13, 3, 0.5, 1.0, 50000, seed=42)
    assert abs(res.estimate.mean - exact) <= 3 * res.estimate.std_error


def test_upper_tail_zero_hits_rule_of_three():
    # threshold above the maximum possible count: hits are impossible
    res = rs.upper_tail_mc(13, 3, 0.1, 1e6, 1000, seed=2)
    assert res.estimate.mean == 0.0
    assert res.rule_of_three_bound == pytest.approx(3 / 1000)


@pytest.mark.parametrize("k,p", [(3, 1e-110), (5, 1e-66)])
def test_upper_tail_underflowing_expectation_needs_a_progression(k, p):
    # p^k underflows to 0.0 as a float; the exact threshold still needs one
    # progression, which a set this sparse essentially never holds
    res = rs.upper_tail_mc(31, k, p, 1.0, 1000)
    assert res.estimate.mean == 0.0
    assert res.rule_of_three_bound == pytest.approx(0.003)


def test_exact_upper_tail_underflowing_expectation_needs_a_progression():
    # the oracle takes the same exact-rational ceiling as upper_tail_mc: a
    # float threshold of 0.0 would count the empty set and return 1.0
    assert oracles.exact_upper_tail_probability(7, 3, 1e-110, 1.0) == 0.0
    res = rs.upper_tail_mc(7, 3, 1e-110, 1.0, 1000)
    assert res.estimate.mean == 0.0


@pytest.mark.parametrize("threads", [1, 2])
def test_upper_tail_chunks_drawn_in_many_blocks_equal_whole_chunk_draws(monkeypatch, threads):
    # small blocks: 37 rows of the 78 progressions of Z/13Z, so both chunks
    # (4096 and 904 samples) span many blocks and end in a ragged one; the
    # estimate equals that of drawing and counting each chunk at once
    edges = np.array(ap_hypergraph(13, 3).edges)
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 361)
    assert _kernels._block_rows(len(edges), itemsize=1) == 37
    need = 15  # ceil(1.5 * 78 / 8)

    def whole_chunk(gen, count):
        hits = (gen.random((count, 13)) < 0.5)[:, edges].all(axis=2).sum(axis=1)
        return (hits >= need).astype(np.float64)

    want = mc.run_chunked(whole_chunk, 5000, 3, threads=threads)[0]
    assert 0.0 < want.mean < 1.0
    assert rs.upper_tail_mc(13, 3, 0.5, 0.5, 5000, 3, threads).estimate == want


def test_reference_rate_value():
    rate = rs.reference_tail_rate(13, 3, 0.5, 1.0)
    assert rate == pytest.approx(13 * min(0.5**1.5 * math.log(2.0), 0.5))


def test_reference_rate_finite_at_extremes():
    # log(1/p) overflows at the smallest subnormal p, and delta**2 at 1e300
    assert rs.reference_tail_rate(31, 3, 5e-324, 1.0) == 0.0
    rate = rs.reference_tail_rate(31, 3, 0.3, 1e300)
    assert rate == pytest.approx(31 * 1e150 * 0.3**1.5 * -math.log(0.3))


def test_intersective_all_pairs():
    res = rs.intersectivity_check(5, 1, 0.6, list(range(1, 5)))
    assert res.intersective and res.exact and res.witness is None


def test_intersective_empty_differences():
    res = rs.intersectivity_check(5, 2, 0.6, [])
    assert not res.intersective
    assert res.witness is not None and sum(res.witness) == 3


def test_intersective_worked_example():
    res = rs.intersectivity_check(5, 2, 0.6, [1])
    assert not res.intersective
    assert res.witness == (1, 1, 0, 1, 0)  # {0, 1, 3}
    # witness verifies: no 3-term progression of difference 1 inside
    support = {i for i, b in enumerate(res.witness) if b}
    for x in range(5):
        assert not {x % 5, (x + 1) % 5, (x + 2) % 5} <= support


def test_intersective_tiny_alpha_needs_one_element():
    # alpha * N = 2.2e-11, but a set of density alpha > 0 is nonempty: the
    # witness is {0}, not the empty set
    res = rs.intersectivity_check(22, 2, 1e-12, [1, 2])
    assert not res.intersective
    assert res.witness == (1,) + (0,) * 21
    assert oracles.first_witness_direct(22, 2, 1e-12, [1, 2]) == (0,)


def test_intersective_threshold_is_the_ceiling_of_the_decimal_density():
    # alpha * N = 10.00000000098: a float nudge of 1e-9 searched 10-subsets
    # and answered false with a 10-member witness, but a set of this density
    # has 11 members and no 11-subset of Z/22Z avoids these progressions
    res = rs.intersectivity_check(22, 2, 0.45454545459, [1, 2, 3])
    assert res.intersective and res.exact and res.witness is None
    assert oracles.first_witness_direct(22, 2, 0.45454545459, [1, 2, 3]) is None
    # the decimal 0.4 is 4/10, not the binary value just above it
    cases = [(22, 0.5), (22, 0.4), (20, 0.5), (30, 0.1), (22, 1e-12), (10, 0.4), (22, 1.0)]
    assert [rs._required_size(N, alpha) for N, alpha in cases] == [11, 9, 10, 3, 1, 4, 22]


def test_required_size_is_the_exact_ceiling():
    gen = mc.stream(41, 0)
    alphas = [5e-324, 1e-12, 0.1 + 0.2, 1 / 3, 2 / 3, 0.45454545459]
    alphas += [float(a) for a in gen.random(200)] + [round(float(a), 3) for a in gen.random(200)]
    for alpha in alphas:
        for N in (1, 7, 22, 1000, 10**20):
            expected = min(N, max(1, math.ceil(Fraction(repr(alpha)) * N)))
            assert rs._required_size(N, alpha) == expected, (N, alpha)


def test_intersective_matches_naive_oracle():
    gen = mc.stream(99, 0)
    for _ in range(100):
        N = int(gen.integers(4, 13))
        ell = int(gen.integers(1, 4))
        alpha = float(gen.uniform(0.2, 0.9))
        n_diffs = int(gen.integers(0, N))
        diffs = sorted(set(gen.choice(np.arange(1, N), size=n_diffs, replace=True).tolist())) if n_diffs else []
        res = rs.intersectivity_check(N, ell, alpha, diffs)
        assert res.exact
        assert res.intersective == oracles.naive_intersective(N, ell, alpha, diffs)
        first = oracles.first_witness_direct(N, ell, alpha, diffs)
        if first is None:
            assert res.witness is None
        else:
            assert tuple(np.flatnonzero(res.witness)) == first
        if res.witness is not None:
            support = {i for i, b in enumerate(res.witness) if b}
            assert len(support) == min(N, max(1, math.ceil(alpha * N - 1e-9)))
            for ap in map(set, _ap_sets(N, ell, diffs)):
                assert not ap <= support


def _ap_sets(N, ell, diffs):
    out = []
    for d in diffs:
        for x in range(N):
            terms = {(x + t * d) % N for t in range(ell + 1)}
            if len(terms) == ell + 1:
                out.append(tuple(sorted(terms)))
    return out


# every N from 3 to 24, prime and composite, and N = 31 (ell 3 at N = 31
# takes seconds in the reference search)
FORWARD_GRID = [(N, ell) for N in range(3, 25) for ell in (1, 2, 3)] + [(31, 1), (31, 2)]


@pytest.mark.parametrize("N,ell", FORWARD_GRID)
def test_forward_checking_finds_the_unchecked_search_witness(N, ell):
    # same first witness (or None) as the search without forward checking
    gen = mc.stream(N, ell)
    diff_sets = [[1], [N // 2, -1, N + 2]] + [
        [d for d in range(1, N) if gen.random() < p] for p in (0.15, 0.3, 0.6)
    ]
    for alpha in (0.3, 0.4, 0.5, 0.6):
        q = rs._required_size(N, alpha)
        for diffs in diff_sets:
            masks = rs._ap_masks(N, ell, diffs)
            assert rs._first_witness(N, q, masks) == oracles.first_witness_dfs(N, q, masks)


def test_forward_checking_answers_within_a_budget_the_unchecked_search_overruns(
    monkeypatch,
):
    N, ell, alpha, diffs = 20, 2, 0.5, [1, 2, 3]
    q, masks = rs._required_size(N, alpha), rs._ap_masks(N, ell, diffs)
    with pytest.raises(BudgetExceededError):
        oracles.first_witness_dfs(N, q, masks, budget=500)
    expected = oracles.first_witness_dfs(N, q, masks)
    monkeypatch.setattr(rs, "SEARCH_NODE_BUDGET", 500)
    res = rs.intersectivity_check(N, ell, alpha, diffs)
    assert not res.intersective
    assert res.witness == tuple(expected >> v & 1 for v in range(N))


def test_intersective_past_old_scan_limit():
    # Closed forms on the cycle C_N (ell = 1, difference 1): the first
    # independent 15-set of C_30 is the even residues, and C_31 has no
    # independent 16-set.
    res = rs.intersectivity_check(30, 1, 0.5, [1])
    assert res.exact and not res.intersective
    assert np.flatnonzero(res.witness).tolist() == list(range(0, 30, 2))
    res = rs.intersectivity_check(31, 1, 0.5, [1])
    assert res.exact and res.intersective and res.witness is None


def test_intersective_answers_beyond_64_residues():
    # the witness is wider than an int64 mask: C_64's first independent
    # 32-set is the even residues
    res = rs.intersectivity_check(64, 1, 0.5, [1])
    assert not res.intersective
    assert res.witness == (1, 0) * 32
    res = rs.intersectivity_check(100, 2, 0.3, range(1, 9))
    assert not res.intersective
    support = sum(1 << v for v in np.flatnonzero(res.witness).tolist())
    assert support.bit_count() == 30
    assert all(support & m != m for m in oracles.ap_masks_direct(100, 2, range(1, 9)))
    assert np.flatnonzero(res.witness).tolist() == [x for x in range(65) if x % 9 in (0, 1, 3, 4)]
    with pytest.raises(ValueError, match="N must be positive"):
        rs.intersectivity_check(0, 1, 0.5, [1])


def test_random_experiment_p_one_like():
    est = rs.random_intersectivity_experiment(7, 1, 0.5, 50, 3, p=0.999999)
    assert est.mean == 1.0


def test_random_experiment_monotone_in_p():
    lo = rs.random_intersectivity_experiment(11, 2, 0.5, 400, 13, p=0.15)
    hi = rs.random_intersectivity_experiment(11, 2, 0.5, 400, 13, p=0.6)
    assert lo.mean <= hi.mean + 3 * math.hypot(lo.std_error, hi.std_error)


def test_random_experiment_matches_exact_enumeration():
    p = 0.3
    exact = oracles.exact_intersective_probability(
        11, 1, 0.5, p, lambda N, e, a, d: rs.intersectivity_check(N, e, a, d).intersective
    )
    assert exact == pytest.approx(0.9717524750999972)  # frozen from the oracle
    est = rs.random_intersectivity_experiment(11, 1, 0.5, 2000, 7, p=p)
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_random_experiment_draws_model():
    est = rs.random_intersectivity_experiment(11, 1, 0.5, 300, 5, k_draws=4)
    assert 0.0 <= est.mean <= 1.0
    with pytest.raises(ValueError):
        rs.random_intersectivity_experiment(11, 1, 0.5, 10, 5)
    with pytest.raises(ValueError):
        rs.random_intersectivity_experiment(11, 1, 0.5, 10, 5, p=0.2, k_draws=3)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 1.5, -0.2, 0.0, 1.0])
def test_random_experiment_rejects_p_outside_the_unit_interval(p):
    # the rule of upper_tail_mc: p strictly inside (0, 1)
    with pytest.raises(ValueError, match="p must lie strictly inside"):
        rs.random_intersectivity_experiment(11, 1, 0.5, 10, 5, p=p)


def test_random_experiment_rejects_negative_draws():
    with pytest.raises(ValueError, match="k_draws"):
        rs.random_intersectivity_experiment(11, 1, 0.5, 10, 5, k_draws=-1)
    # no draws is an empty difference set, which is never intersective
    assert rs.random_intersectivity_experiment(11, 1, 0.5, 10, 5, k_draws=0).mean == 0.0


def _refuse_to_draw(*args, **kwargs):
    raise AssertionError("a difference set was drawn")


@pytest.mark.parametrize(
    "N, ell, alpha, model, message",
    [
        (0, 1, 0.5, {"p": 0.3}, "N must be positive"),
        (-5, 1, 0.5, {"k_draws": 3}, "N must be positive"),
        (11, 0, 0.5, {"p": 0.3}, "ell must be positive"),
        (11, 1, 0.0, {"k_draws": 3}, "alpha must lie in"),
        (1, 1, 0.5, {"k_draws": 3}, "k_draws must be 0 when N = 1"),
    ],
)
def test_random_experiment_checks_arguments_before_drawing(
    monkeypatch, N, ell, alpha, model, message
):
    # an invalid N used to reach numpy first, which failed on its own terms
    monkeypatch.setattr(mc, "PhiloxStream", _refuse_to_draw)
    with pytest.raises(ValueError, match=message):
        rs.random_intersectivity_experiment(N, ell, alpha, 10, 5, **model)


def test_random_experiment_on_one_residue_draws_the_empty_set():
    # N = 1 has no nonzero residue: both models draw D = {}, never intersective
    for model in ({"p": 0.3}, {"k_draws": 0}):
        assert rs.random_intersectivity_experiment(1, 1, 0.5, 4, 5, **model).mean == 0.0


def test_random_experiment_rejects_zero_trials(monkeypatch):
    # without the check the estimate would divide by zero trials
    monkeypatch.setattr(mc, "PhiloxStream", _refuse_to_draw)
    for model in ({"p": 0.3}, {"k_draws": 3}):
        with pytest.raises(ValueError, match="trials must be positive"):
            rs.random_intersectivity_experiment(11, 1, 0.5, 0, 5, **model)


@pytest.mark.parametrize("trials", [5, 4100])
@pytest.mark.parametrize("N", [1, 2, 7, 13, 20])
def test_random_experiment_matches_numpy_draws(N, trials):
    # the numpy oracle draws through mc.stream; 4100 trials cross a chunk
    # boundary, so the second chunk's stream is checked too
    ell = 2 if N == 13 else 1
    for model in ({"p": 0.3}, {"k_draws": 3 if N > 1 else 0}):
        expected = oracles.random_intersectivity_direct(N, ell, 0.5, trials, 2**64 + 9, **model)
        assert rs.random_intersectivity_experiment(N, ell, 0.5, trials, 2**64 + 9, **model) == expected


def test_random_experiment_draws_uniforms_strictly_below_p():
    # D = {d : u_d < p}, as numpy's mask `uniforms < p` has it; at N = 2 with
    # alpha = 1, D is intersective exactly when it holds the residue 1
    u = mc.PhiloxStream(4, 0).random(1)[0]
    assert rs.random_intersectivity_experiment(2, 1, 1.0, 1, 4, p=u).mean == 0.0
    assert rs.random_intersectivity_experiment(2, 1, 1.0, 1, 4, p=math.nextafter(u, 1)).mean == 1.0
