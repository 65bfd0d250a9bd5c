"""Random subsets of Z/NZ: AP-count statistics, upper-tail Monte Carlo, and
intersectivity checking at desk scale.

Upper-tail estimation is plain (unweighted) Monte Carlo; runs with zero
observed hits report the rule-of-three 3/samples upper confidence bound
instead of a point estimate.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, mc
from .aps import ApParams, ap_hypergraph
from .errors import BudgetExceededError

__all__ = [
    "RandomSetParams",
    "TailQuery",
    "UpperTailResult",
    "IntersectivityResult",
    "sample_subset",
    "count_aps",
    "expected_ap_count",
    "upper_tail_mc",
    "intersectivity_check",
    "random_intersectivity_experiment",
]

EXACT_SUBSET_LIMIT = 24


@dataclass(frozen=True)
class RandomSetParams:
    """Each element of Z/NZ kept independently with probability p."""

    N: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("N must be at least 3")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class TailQuery:
    k: int
    delta: float

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("k must be at least 3")
        if self.delta <= 0:
            raise ValueError("delta must be positive")


@lru_cache(maxsize=32)
def _ap_edge_array(N: int, k: int) -> np.ndarray:
    return np.array(ap_hypergraph(ApParams(N, k)).edges, dtype=np.int64)


def sample_subset(params: RandomSetParams) -> np.ndarray:
    """One seeded draw of the random subset, as a 0/1 vector of length N."""
    gen = mc.stream(params.seed, 0)
    return (gen.random(params.N) < params.p).astype(np.uint8)


def count_aps(bits, k: int) -> int:
    """Number of unordered proper k-term APs inside the support of ``bits``
    (parallel progressions with equal vertex sets counted separately)."""
    bits = np.asarray(bits, dtype=np.uint8)
    edges = _ap_edge_array(len(bits), k)
    return int(_kernels.contained_edges_batch(bits[None, :], edges)[0])


def expected_ap_count(params: RandomSetParams, k: int) -> float:
    """p^k times the number of progressions, N(N-1)/2."""
    n_edges = params.N * (params.N - 1) // 2
    return params.p**k * n_edges


@dataclass(frozen=True)
class UpperTailResult:
    estimate: mc.McEstimate
    threshold: float
    expected: float
    reference_rate: float
    rule_of_three_bound: float | None  # set when no hits were observed
    log_prob: float | None


def reference_tail_rate(N: int, k: int, p: float, delta: float) -> float:
    """Qualitative reference rate N * min(sqrt(delta) p^{k/2} log(1/p), delta^2 p)."""
    return N * min(math.sqrt(delta) * p ** (k / 2) * math.log(1.0 / p), delta**2 * p)


def upper_tail_mc(
    params: RandomSetParams, query: TailQuery, samples: int, seed=None, threads=1
) -> UpperTailResult:
    """Monte-Carlo estimate of Pr[AP count >= (1+delta) * expectation]."""
    if seed is None:
        seed = params.seed
    edges = _ap_edge_array(params.N, query.k)
    expected = expected_ap_count(params, query.k)
    threshold = (1.0 + query.delta) * expected

    def value_fn(gen, count):
        bits = (gen.random((count, params.N)) < params.p).astype(np.uint8)
        hits = _kernels.contained_edges_batch(bits, edges)
        return (hits >= threshold).astype(np.float64)

    est = mc.mc_estimate(value_fn, samples, seed, threads=threads)
    zero = est.mean == 0.0
    return UpperTailResult(
        estimate=est,
        threshold=threshold,
        expected=expected,
        reference_rate=reference_tail_rate(params.N, query.k, params.p, query.delta),
        rule_of_three_bound=(3.0 / samples) if zero else None,
        log_prob=math.log(est.mean) if not zero else None,
    )


# --------------------------------------------------------------------------
# Intersectivity.


@dataclass(frozen=True)
class IntersectivityResult:
    intersective: bool
    witness: np.ndarray | None
    exact: bool


def _ap_masks(N: int, ell: int, diffs) -> np.ndarray:
    """Bitmasks of the proper (ell+1)-term progressions with difference in diffs."""
    masks = set()
    for d in diffs:
        d = int(d) % N
        if d == 0:
            raise ValueError("differences must be nonzero mod N")
        for x in range(N):
            terms = [(x + t * d) % N for t in range(ell + 1)]
            if len(set(terms)) != ell + 1:
                continue
            mask = 0
            for v in terms:
                mask |= 1 << v
            masks.add(mask)
    return np.array(sorted(masks), dtype=np.int64)


def _required_size(N: int, alpha: float) -> int:
    # ceil(alpha*N) with a nudge against float representation of alpha*N
    return min(N, max(0, math.ceil(alpha * N - 1e-9)))


def _witness_vector(N: int, members) -> np.ndarray:
    out = np.zeros(N, dtype=np.uint8)
    out[list(members)] = 1
    return out


def _exact_witness_search(N, q, ap_masks, batch=4096):
    """First q-subset (in lexicographic order) containing no progression.

    Only subsets of the minimum admissible size q need checking: supersets
    contain every progression their subsets do.
    """
    combos = []
    masks = []
    for combo in itertools.combinations(range(N), q):
        m = 0
        for v in combo:
            m |= 1 << v
        combos.append(combo)
        masks.append(m)
        if len(masks) == batch:
            hit = _first_progression_free(np.array(masks, dtype=np.int64), ap_masks)
            if hit >= 0:
                return combos[hit]
            combos, masks = [], []
    if masks:
        hit = _first_progression_free(np.array(masks, dtype=np.int64), ap_masks)
        if hit >= 0:
            return combos[hit]
    return None


def _first_progression_free(subset_masks, ap_masks):
    if len(ap_masks) == 0:
        return 0 if len(subset_masks) else -1
    contains = ((~subset_masks[:, None]) & ap_masks[None, :]) == 0
    free = ~contains.any(axis=1)
    idx = np.argmax(free)
    return int(idx) if free[idx] else -1


def _anneal_witness_search(N, q, ap_masks, gen, iters=20000, restarts=4):
    """Simulated-annealing search for a progression-free q-subset."""
    if q == 0:
        return ()
    for _ in range(restarts):
        members = list(gen.choice(N, size=q, replace=False))
        outside = [v for v in range(N) if v not in set(members)]
        mask = 0
        for v in members:
            mask |= 1 << v

        def energy(m):
            return int((((~m) & ap_masks) == 0).sum()) if len(ap_masks) else 0

        cur = energy(mask)
        temp = max(1.0, cur / 2.0)
        for it in range(iters):
            if cur == 0:
                return tuple(members)
            if not outside:
                break
            i = int(gen.integers(len(members)))
            j = int(gen.integers(len(outside)))
            new_mask = (mask & ~(1 << members[i])) | (1 << outside[j])
            new = energy(new_mask)
            if new <= cur or gen.random() < math.exp((cur - new) / max(temp, 1e-9)):
                members[i], outside[j] = outside[j], members[i]
                mask, cur = new_mask, new
            temp *= 0.9995
        if cur == 0:
            return tuple(members)
    return None


def intersectivity_check(
    N: int,
    ell: int,
    alpha: float,
    diffs,
    exact_limit: int = EXACT_SUBSET_LIMIT,
    seed: int = 0,
    anneal_iters: int = 20000,
) -> IntersectivityResult:
    """Does every subset of density alpha contain a proper (ell+1)-term
    progression with common difference in ``diffs``?

    Exact (exhaustive over minimum-size subsets) for N <= exact_limit;
    beyond that a simulated-annealing witness search runs and a True answer
    only means "no witness found".
    """
    if not 1 <= N <= 63:
        raise ValueError("N must lie in [1, 63] (bitmask representation)")
    if ell < 1:
        raise ValueError("ell must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    q = _required_size(N, alpha)
    ap_masks = _ap_masks(N, ell, diffs)
    if N <= exact_limit:
        witness = _exact_witness_search(N, q, ap_masks)
        if witness is None:
            return IntersectivityResult(True, None, True)
        return IntersectivityResult(False, _witness_vector(N, witness), True)
    gen = mc.stream(seed, 0)
    witness = _anneal_witness_search(N, q, ap_masks, gen, iters=anneal_iters)
    if witness is None:
        return IntersectivityResult(True, None, False)
    return IntersectivityResult(False, _witness_vector(N, witness), False)


def random_intersectivity_experiment(
    N: int,
    ell: int,
    alpha: float,
    trials: int,
    seed: int,
    p: float | None = None,
    k_draws: int | None = None,
    threads: int = 1,
) -> mc.McEstimate:
    """Fraction of random difference sets D that are intersective.

    D is drawn either as the p-random subset of the nonzero residues or as
    k_draws uniform samples with replacement (exactly one model must be
    given).  Each trial runs the exact intersectivity check, so N above
    ``EXACT_SUBSET_LIMIT`` raises BudgetExceededError.
    """
    if (p is None) == (k_draws is None):
        raise ValueError("give exactly one of p or k_draws")
    if N > EXACT_SUBSET_LIMIT:
        raise BudgetExceededError(
            f"N = {N} exceeds the exact intersectivity limit {EXACT_SUBSET_LIMIT}"
        )
    nonzero = np.arange(1, N, dtype=np.int64)

    def value_fn(gen, count):
        out = np.zeros(count, dtype=np.float64)
        for i in range(count):
            if p is not None:
                picks = nonzero[gen.random(N - 1) < p]
            else:
                picks = np.unique(gen.choice(nonzero, size=k_draws, replace=True))
            res = intersectivity_check(N, ell, alpha, picks.tolist())
            out[i] = 1.0 if res.intersective else 0.0
        return out

    return mc.mc_estimate(value_fn, trials, seed, threads=threads)
