"""Random subsets of Z/NZ: AP-count statistics, upper-tail Monte Carlo, and
exact intersectivity checking.

Upper-tail estimation is plain (unweighted) Monte Carlo; runs with zero
observed hits report the rule-of-three 3/samples upper confidence bound
instead of a point estimate.

Intersectivity is decided exactly for N <= 63 by a pruned depth-first search
for a progression-free witness.  The search may visit at most
``SEARCH_NODE_BUDGET`` nodes; beyond that it raises BudgetExceededError
rather than answer with a weaker method.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, mc
from .aps import ApParams, ap_hypergraph, progressions
from .errors import BudgetExceededError

__all__ = [
    "RandomSetParams",
    "TailQuery",
    "UpperTailResult",
    "IntersectivityResult",
    "count_aps",
    "expected_ap_count",
    "upper_tail_mc",
    "intersectivity_check",
    "random_intersectivity_experiment",
]

SEARCH_NODE_BUDGET = 10**7


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
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")


@lru_cache(maxsize=32)
def _ap_edge_array(N: int, k: int) -> np.ndarray:
    return np.array(ap_hypergraph(ApParams(N, k)).edges, dtype=np.int64)


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
    reference_rate: float
    rule_of_three_bound: float | None  # set when no hits were observed


def reference_tail_rate(N: int, k: int, p: float, delta: float) -> float:
    """Qualitative reference rate N * min(sqrt(delta) p^{k/2} log(1/p), delta^2 p)."""
    return N * min(math.sqrt(delta) * p ** (k / 2) * math.log(1.0 / p), delta**2 * p)


def upper_tail_mc(
    params: RandomSetParams, query: TailQuery, samples: int, threads=1
) -> UpperTailResult:
    """Monte-Carlo estimate of Pr[AP count >= (1+delta) * expectation],
    sampled from the stream of ``params.seed``."""
    edges = _ap_edge_array(params.N, query.k)
    threshold = (1.0 + query.delta) * expected_ap_count(params, query.k)

    def value_fn(gen, count):
        bits = (gen.random((count, params.N)) < params.p).astype(np.uint8)
        hits = _kernels.contained_edges_batch(bits, edges)
        return (hits >= threshold).astype(np.float64)

    est = mc.run_chunked(value_fn, samples, params.seed, threads=threads)[0]
    return UpperTailResult(
        estimate=est,
        reference_rate=reference_tail_rate(params.N, query.k, params.p, query.delta),
        rule_of_three_bound=(3.0 / samples) if est.mean == 0.0 else None,
    )


# --------------------------------------------------------------------------
# Intersectivity.


@dataclass(frozen=True)
class IntersectivityResult:
    intersective: bool
    witness: np.ndarray | None
    exact: bool


def _ap_masks(N: int, ell: int, diffs) -> list[int]:
    """Bitmasks of the proper (ell+1)-term progressions with difference in diffs."""
    diffs = [int(d) % N for d in diffs]
    if 0 in diffs:
        raise ValueError("differences must be nonzero mod N")
    masks = set()
    for terms in progressions(N, ell + 1, diffs).tolist():
        if len(set(terms)) == ell + 1:
            mask = 0
            for v in terms:
                mask |= 1 << v
            masks.add(mask)
    return sorted(masks)


def _required_size(N: int, alpha: float) -> int:
    # ceil(alpha*N) with a nudge against float representation of alpha*N;
    # a set of density alpha > 0 has at least one element
    return min(N, max(1, math.ceil(alpha * N - 1e-9)))


def _first_witness(N: int, q: int, ap_masks) -> int | None:
    """Bitmask of the lexicographically first q-subset (q >= 1) of {0, ..., N-1}
    containing no progression in ``ap_masks``, or None if there is none.

    Only subsets of the minimum admissible size q need checking: supersets
    contain every progression their subsets do.  The search is an
    include-first depth-first search over the vertices in increasing order,
    so the first q-subset it completes is the lexicographically first one.
    Vertex v joins only if no progression whose largest vertex is v then lies
    inside the set, and a branch is cut when the vertices left cannot reach
    q.  Every visited branch costs one node of ``SEARCH_NODE_BUDGET``.
    """
    ending = [[] for _ in range(N)]
    for m in ap_masks:
        ending[m.bit_length() - 1].append(m)
    nodes = 0

    def extend(v, mask, size):
        nonlocal nodes
        if size == q:
            return mask
        if N - v < q - size:
            return None
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            raise BudgetExceededError(
                f"intersectivity search exceeded {SEARCH_NODE_BUDGET} nodes"
            )
        grown = mask | (1 << v)
        for m in ending[v]:
            if grown & m == m:
                break
        else:
            found = extend(v + 1, grown, size + 1)
            if found is not None:
                return found
        return extend(v + 1, mask, size)

    # The progressions are invariant under translation, so if S is a witness
    # then so is S - min S: it contains 0 and is lexicographically no larger.
    # The first witness therefore contains 0, and if no witness contains 0,
    # none exists.
    return extend(1, 1, 1)


def intersectivity_check(N: int, ell: int, alpha: float, diffs) -> IntersectivityResult:
    """Does every subset of density alpha contain a proper (ell+1)-term
    progression with common difference in ``diffs``?

    The answer is exact: a pruned depth-first search looks for the
    lexicographically first progression-free subset of size ceil(alpha N),
    returned as the witness.  A search that would visit more than
    ``SEARCH_NODE_BUDGET`` nodes raises BudgetExceededError.
    """
    if not 1 <= N <= 63:
        raise ValueError("N must lie in [1, 63] (bitmask representation)")
    if ell < 1:
        raise ValueError("ell must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    found = _first_witness(N, _required_size(N, alpha), _ap_masks(N, ell, diffs))
    if found is None:
        return IntersectivityResult(True, None, True)
    witness = np.array([(found >> v) & 1 for v in range(N)], dtype=np.uint8)
    return IntersectivityResult(False, witness, True)


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
    given).  p must lie strictly inside (0, 1), as in ``RandomSetParams``,
    and k_draws must be nonnegative.  Each trial runs the exact
    intersectivity check, so a trial whose search overruns
    ``SEARCH_NODE_BUDGET`` raises BudgetExceededError.
    """
    if (p is None) == (k_draws is None):
        raise ValueError("give exactly one of p or k_draws")
    if p is not None and not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if k_draws is not None and k_draws < 0:
        raise ValueError("k_draws must be nonnegative")
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

    return mc.run_chunked(value_fn, trials, seed, threads=threads)[0]
