"""Random subsets of Z/NZ: upper-tail Monte Carlo and exact intersectivity
checking.

Upper-tail estimation is plain (unweighted) Monte Carlo; runs with zero
observed hits also carry the rule-of-three 3/samples upper confidence
bound, which ``upper-tail`` reports in place of the standard error.

Intersectivity is decided exactly for every N >= 1 by a depth-first search
over int bitmasks (Python ints, so of any width) for a progression-free
witness, with forward checking: a vertex that would complete a progression
leaves the set of vertices that may still join, and a branch is cut when
too few of those remain.  The
search may visit at most ``SEARCH_NODE_BUDGET`` nodes; beyond that it
raises BudgetExceededError rather than answer with a weaker method.
Neither the exact path nor the random-difference-set experiment imports
numpy (the experiment draws from ``mc.PhiloxStream``): only
``upper_tail_mc`` loads numpy, ``_kernels`` and ``aps``, when called.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .errors import BudgetExceededError

__all__ = [
    "UpperTailResult",
    "IntersectivityResult",
    "upper_tail_mc",
    "intersectivity_check",
    "random_intersectivity_experiment",
]

SEARCH_NODE_BUDGET = 10**7


class UpperTailResult(
    namedtuple("UpperTailResult", "estimate reference_rate rule_of_three_bound")
):
    """An ``mc.McEstimate``, the reference rate, and the rule-of-three bound
    (set when no hits were observed, else None)."""

    __slots__ = ()


def reference_tail_rate(N: int, k: int, p: float, delta: float) -> float:
    """Qualitative reference rate N * min(sqrt(delta) p^{k/2} log(1/p), delta^2 p)."""
    return N * min(math.sqrt(delta) * p ** (k / 2) * -math.log(p), delta * delta * p)


def upper_tail_mc(
    N: int, k: int, p: float, delta: float, samples: int, seed: int = 0, threads: int = 1
) -> UpperTailResult:
    """Monte-Carlo estimate of Pr[k-AP count >= (1+delta) * expectation] in
    the p-random subset of Z/NZ (N prime, 3 <= k <= N, 0 < p < 1, delta > 0
    finite), sampled from the stream of ``seed``.

    The expectation is p^k times the N(N-1)/2 progressions.  A count is an
    integer, so it reaches the threshold exactly when it reaches the
    threshold's ceiling, computed in exact rationals (a float p^k may
    underflow to 0) and capped at one more than the number of progressions.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    from fractions import Fraction

    import numpy as np

    from . import _kernels, mc
    from .aps import ap_hypergraph

    edges = np.array(ap_hypergraph(N, k).edges, dtype=np.int64)
    num_aps = N * (N - 1) // 2
    expected = Fraction(p) ** k * num_aps
    need = min(num_aps + 1, math.ceil((1 + Fraction(delta)) * expected))

    def value_fn(gen, count):
        def score(rows):
            return _kernels.contained_edges_batch(gen.random((rows, N)) < p, edges)

        # one byte per progression and sample: the kernel's (edges, rows) bool temporary
        hits = _kernels._in_blocks(count, len(edges), score)
        return (hits >= need).astype(np.float64)

    est = mc.run_chunked(value_fn, samples, seed, threads=threads)[0]
    return UpperTailResult(
        estimate=est,
        reference_rate=reference_tail_rate(N, k, p, delta),
        rule_of_three_bound=(3.0 / samples) if est.mean == 0.0 else None,
    )


# --------------------------------------------------------------------------
# Intersectivity.


class IntersectivityResult(namedtuple("IntersectivityResult", "intersective witness exact")):
    """The answer, the witness (a 0/1 tuple per residue, or None), and
    whether the answer is exact."""

    __slots__ = ()


def _ap_masks(N: int, ell: int, diffs) -> list[int]:
    """Bitmasks of the proper (ell+1)-term progressions with difference in diffs."""
    diffs = {int(d) % N for d in diffs}
    if 0 in diffs:
        raise ValueError("differences must be nonzero mod N")
    masks = set()
    for d in diffs:
        masks.update(_difference_masks(N, ell, d))
    return sorted(masks)


@functools.lru_cache
def _difference_masks(N: int, ell: int, d: int) -> tuple[int, ...]:
    """The N rotations of the progression of difference d from 0, or none if
    it is not proper; random experiments ask for the same d in every trial."""
    base = sum({1 << (t * d % N) for t in range(ell + 1)})
    if base.bit_count() != ell + 1:
        return ()
    full = (1 << N) - 1
    return tuple(((base << x) & full) | (base >> (N - x)) for x in range(N))


def _required_size(N: int, alpha: float) -> int:
    """ceil(alpha * N) for 0 < alpha <= 1, and at least 1 (a set of density
    alpha > 0 is nonempty), computed in integers for the shortest decimal
    that reads back as alpha (its repr: 0.4 is 4/10, not the binary value
    just above it)."""
    digits, _, exponent = repr(float(alpha)).partition("e")
    whole, _, fraction = digits.partition(".")
    scale = 10 ** (len(fraction) - int(exponent or 0))  # alpha = int(whole + fraction) / scale
    return max(1, -(-int(whole + fraction) * N // scale))


def _first_witness(N: int, q: int, ap_masks) -> int | None:
    """Bitmask of the lexicographically first q-subset (q >= 1) of {0, ..., N-1}
    containing no progression in ``ap_masks``, or None if there is none.

    Only subsets of the minimum admissible size q need checking: supersets
    contain every progression their subsets do.  The search is an
    include-first depth-first search over the vertices in increasing order,
    so the first q-subset it completes is the lexicographically first one.

    Forward checking: ``avail`` holds the vertices that may still join.
    When v joins, each progression through v that now misses exactly one
    vertex w > v removes w, since w would complete it.  Such a progression
    has v as its second-largest member and w as its largest, so it is filed
    under v as the pair (its members below v, w).  Every vertex below w is
    decided when w is reached, so w may join exactly when it is in
    ``avail``.  The search tries the available vertices in increasing
    order, each first as a member and then not, and cuts a branch when the
    available vertices cannot reach q.  Only dead branches are cut, so the
    first witness is unchanged.  Every vertex tried costs one node of
    ``SEARCH_NODE_BUDGET``.
    """
    closing = [[] for _ in range(N)]
    for m in ap_masks:
        w = 1 << (m.bit_length() - 1)
        v = (m ^ w).bit_length() - 1
        closing[v].append((m ^ w ^ (1 << v), ~w))
    # Depth-first search with an explicit stack, as a witness may have
    # thousands of members: the state (v, mask, size, avail) seeks the first
    # witness that adds vertices from v on to ``mask``, and each stacked
    # state waits at the vertex v it tried as a member, to try it as a
    # non-member once that branch fails.
    #
    # The progressions are invariant under translation, so if S is a witness
    # then so is S - min S: it contains 0 and is lexicographically no larger.
    # The first witness therefore contains 0, and if no witness contains 0,
    # none exists.
    v, mask, size, avail = 1, 1, 1, _forward(closing[0], 0, (1 << N) - 1)
    stack = []
    nodes = 0
    while size < q:
        ahead = avail >> v
        if size + ahead.bit_count() >= q:
            nodes += 1
            if nodes > SEARCH_NODE_BUDGET:
                raise BudgetExceededError(
                    f"intersectivity search exceeded {SEARCH_NODE_BUDGET} nodes"
                )
            v += (ahead & -ahead).bit_length() - 1
            stack.append((v, mask, size, avail))
            avail = _forward(closing[v], mask, avail)
            mask |= 1 << v
            size += 1
            v += 1
        elif stack:
            v, mask, size, avail = stack.pop()
            v += 1
        else:
            return None
    return mask


def _forward(closing, mask, avail):
    """``avail`` less the vertex w of each pair (below, ~w) in ``closing``
    whose ``below`` lies inside ``mask``."""
    for below, keep in closing:
        if mask & below == below:
            avail &= keep
    return avail


def _check_search_args(N: int, ell: int, alpha: float):
    """Raise ValueError unless N >= 1, ell >= 1 and 0 < alpha <= 1."""
    if N < 1:
        raise ValueError("N must be positive")
    if ell < 1:
        raise ValueError("ell must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def intersectivity_check(N: int, ell: int, alpha: float, diffs) -> IntersectivityResult:
    """Does every subset of density alpha contain a proper (ell+1)-term
    progression with common difference in ``diffs``?

    The answer is exact: a forward-checked depth-first search looks for the
    lexicographically first progression-free subset of size ceil(alpha N),
    returned as the witness.  A search that would visit more than
    ``SEARCH_NODE_BUDGET`` nodes raises BudgetExceededError.
    """
    _check_search_args(N, ell, alpha)
    found = _first_witness(N, _required_size(N, alpha), _ap_masks(N, ell, diffs))
    if found is None:
        return IntersectivityResult(True, None, True)
    witness = tuple(found >> v & 1 for v in range(N))
    return IntersectivityResult(False, witness, True)


def random_intersectivity_experiment(
    N: int,
    ell: int,
    alpha: float,
    trials: int,
    seed: int,
    p: float | None = None,
    k_draws: int | None = None,
) -> mc.McEstimate:
    """Fraction of random difference sets D that are intersective.

    D is drawn either as the p-random subset of the nonzero residues or as
    k_draws uniform samples with replacement (exactly one model must be
    given).  p must lie strictly inside (0, 1), as in ``upper_tail_mc``,
    and k_draws must be nonnegative, and 0 when N = 1, which has no nonzero
    residue to draw.  N, ell and alpha are checked as in
    ``intersectivity_check``, and trials must be positive, before the first
    draw.  Trials are drawn in the chunks of ``mc.chunk_counts`` from
    ``mc.PhiloxStream``, so the sets are those numpy's ``mc.stream`` would
    give.  Each trial runs the exact intersectivity check, so a trial whose
    search overruns ``SEARCH_NODE_BUDGET`` raises BudgetExceededError.
    """
    if (p is None) == (k_draws is None):
        raise ValueError("give exactly one of p or k_draws")
    if p is not None and not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if k_draws is not None and k_draws < 0:
        raise ValueError("k_draws must be nonnegative")
    _check_search_args(N, ell, alpha)
    if k_draws and N == 1:
        raise ValueError("k_draws must be 0 when N = 1: there is no nonzero residue")
    if trials < 1:
        raise ValueError("trials must be positive")
    from . import mc

    hits = 0
    for index, count in enumerate(mc.chunk_counts(trials)):
        gen = mc.PhiloxStream(seed, index)
        for _ in range(count):
            if p is not None:
                picks = [d for d, u in enumerate(gen.random(N - 1), 1) if u < p]
            elif k_draws:
                picks = sorted({1 + j for j in gen.integers(N - 1, k_draws)})
            else:
                picks = []
            hits += intersectivity_check(N, ell, alpha, picks).intersective
    # each trial's value is 0 or 1, so it equals its square
    return mc.McEstimate.from_sums(hits, hits, trials)
