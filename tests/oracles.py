"""Independent brute-force oracles used to pin expected test values.

Everything here recomputes results from first principles (exhaustive
enumeration, direct definitions), deliberately avoiding the library code
paths under test.  The exceptions are ``lift_pairs``, which rebuilds the
pairs that the lift streams from the pair generator, itself checked
against ``complements_direct``, and ``ordered_ap_count``, a shift-and
count for tests that count many subsets, itself checked against
``ordered_ap_count_direct``.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from polywidth import mc
from polywidth.errors import BudgetExceededError
from polywidth.hypergraph import (
    Hypergraph,
    color_classes,
    complete_to_maximal_matching,
    greedy_edge_coloring,
)
from polywidth.tensorlift import enumerate_pairs


def eval_poly_direct(edges, x):
    """Sum over edges of the product of coordinates (definition)."""
    total = 0
    for e in edges:
        term = 1
        for v in e:
            term = term * x[v]
        total += term
    return total


def hypercube_image_direct(components, distinct=True):
    """Image tuples (p_1(x), ..., p_k(x)) of every x in {0,1}^n, x in
    lexicographic order; with ``distinct`` their sorted set instead."""
    n = components[0].n
    image = [
        tuple(eval_poly_direct(h.edges, x) for h in components)
        for x in itertools.product((0, 1), repeat=n)
    ]
    return sorted(set(image)) if distinct else image


def proper_coloring_exists(edges, num_colors):
    """Exhaustive search for a proper edge coloring with num_colors colors."""
    m = len(edges)
    inter = [
        [j for j in range(m) if j != i and set(edges[i]) & set(edges[j])]
        for i in range(m)
    ]
    for assignment in itertools.product(range(num_colors), repeat=m):
        if all(assignment[i] != assignment[j] for i in range(m) for j in inter[i] if j > i):
            return True
    return False


def tensor_power_vector(x, m):
    """x^{tensor m} indexed by map rank (little-endian base n digits)."""
    n = len(x)
    out = np.empty(n**m, dtype=np.int64)
    for rank in range(n**m):
        rem, term = rank, 1
        for _ in range(m):
            rem, d = divmod(rem, n)
            term *= x[d]
        out[rank] = term
    return out


def quadratic_form_direct(f_ranks, g_ranks, y):
    """<A y, y> for A = B + B^T with B the pair counts: 2 * sum of y_f y_g (exact ints)."""
    return 2 * sum(int(y[f]) * int(y[g]) for f, g in zip(f_ranks, g_ranks))


def lift_matrix_dense(f_ranks, g_ranks, dim):
    """Dense A = B + B^T: each pair (f, g) adds 1 at (f, g) and 1 at (g, f)."""
    a = np.zeros((dim, dim), dtype=np.int64)
    np.add.at(a, (f_ranks, g_ranks), 1)
    np.add.at(a, (g_ranks, f_ranks), 1)
    return a


def lift_pairs(h, m, r, s):
    """The kept pairs (f, g) of B as two int64 arrays, which the lift streams
    without keeping: colour by colour of h's first-fit colouring, the pairs
    that ``enumerate_pairs`` generates over all n^m ranks for the colour's
    completed family, less those covering completion padding.  It calls the
    pair generator whole, where the lift calls it block by block;
    ``test_enumerate_pairs_match_oracle`` checks the generator itself."""
    empty = np.zeros(0, dtype=np.int64)
    rows, cols = [empty], [empty]
    for class_edges in color_classes(h, greedy_edge_coloring(h)):
        family = complete_to_maximal_matching(Hypergraph(h.n, class_edges), r)
        f_ranks, g_ranks, covers = enumerate_pairs(family, m, s, range(h.n**m))
        keep = covers < len(class_edges)
        rows.append(f_ranks[keep])
        cols.append(g_ranks[keep])
    return np.concatenate(rows), np.concatenate(cols)


def pair_mask_counts(f_ranks, g_ranks, n, m):
    """Counter of mask(f) ^ mask(g) over the pairs, mask(f) holding the
    vertices that map f hits an odd number of times (definition, one pair
    and one digit at a time): a mapping of the masks that occur."""
    counts = Counter()
    for pair in zip(f_ranks.tolist(), g_ranks.tolist()):
        mask = 0
        for rank in pair:
            for _ in range(m):
                rank, d = divmod(rank, n)
                mask ^= 1 << d
        counts[mask] += 1
    return counts


def phi_direct(f, edges, r):
    """Sum over edges of the r-sets of positions that f maps injectively into the edge."""
    total = 0
    for e in edges:
        for I in itertools.combinations(range(len(f)), r):
            image = {f[i] for i in I}
            total += len(image) == r and image <= set(e)
    return total


def contained_edges_direct(bits, edges):
    """Number of edges whose vertices all carry a 1 in ``bits``."""
    return sum(1 for e in edges if all(bits[v] for v in e))


def complements_direct(f, matching_edges, n):
    """All g satisfying the complement definition, by testing every map."""
    m = len(f)
    size = len(matching_edges[0])
    r = size // 2
    family = {frozenset(e) for e in matching_edges}
    out = []
    for g in itertools.product(range(n), repeat=m):
        witnesses = [
            I
            for I in itertools.combinations(range(m), r)
            if len({f[i] for i in I} | {g[i] for i in I}) == size
            and frozenset({f[i] for i in I} | {g[i] for i in I}) in family
        ]
        if len(witnesses) != 1:
            continue
        (I,) = witnesses
        if all(g[i] == f[i] for i in range(m) if i not in I):
            out.append(g)
    return sorted(out)


def ap_edges_direct(N, k):
    """Unordered k-AP multiset by enumerating ordered pairs and pairing reversals."""
    seen = set()
    edges = []
    for a in range(N):
        for b in range(1, N):
            if (a, b) in seen:
                continue
            partner = ((a + (k - 1) * b) % N, (N - b) % N)
            seen.add((a, b))
            seen.add(partner)
            edges.append(tuple(sorted((a + t * b) % N for t in range(k))))
    return edges


def ap_edges_orbit_direct(N, k):
    """One sorted edge per orbit {(a, b), (a + (k-1)b, -b)} of progressions
    with distinct terms, scanning b = 1..N-1, then a (the edge order of
    ``ap_hypergraph`` at prime N)."""
    edges = []
    for b in range(1, N):
        for a in range(N):
            terms = [(a + t * b) % N for t in range(k)]
            if len(set(terms)) != k or (b, a) > (N - b, terms[-1]):
                continue
            edges.append(tuple(sorted(terms)))
    return edges


def ap_masks_direct(N, ell, diffs):
    """Sorted distinct bitmasks of the proper (ell+1)-term progressions with
    difference in ``diffs``; a difference 0 mod N raises ValueError."""
    masks = set()
    for d in diffs:
        d = int(d) % N
        if d == 0:
            raise ValueError("differences must be nonzero mod N")
        for x in range(N):
            terms = [(x + t * d) % N for t in range(ell + 1)]
            if len(set(terms)) == ell + 1:
                masks.add(sum(1 << v for v in terms))
    return sorted(masks)


def matching_entries_direct(dim, k, seed):
    """(rows, cols) of k random perfect matchings: one permutation of [dim]
    per matching from the stream of ``seed``, pairing perm[0::2] with
    perm[1::2] in both directions."""
    gen = mc.stream(seed, 0)
    out = []
    for _ in range(k):
        perm = gen.permutation(dim)
        u, v = perm[0::2], perm[1::2]
        out.append((np.concatenate([u, v]), np.concatenate([v, u])))
    return out


def ordered_ap_count_direct(bits, k):
    """Pairs (a, b), b != 0, with a, a+b, ..., a+(k-1)b all in the support."""
    N = len(bits)
    count = 0
    for b in range(1, N):
        for a in range(N):
            if all(bits[(a + t * b) % N] for t in range(k)):
                count += 1
    return count


def ordered_ap_count(bits, k):
    """Ordered count: pairs (a, b), b != 0, with the whole progression
    a, a+b, ..., a+(k-1)b inside the subset whose 0/1 (or truthy) entries
    are ``bits``.

    On the int mask S of the subset, with R_j the rotation of S that has
    bit x set iff x + j (mod N) lies in S, the count is the sum over
    d = 1..N-1 of popcount(S & R_d & R_2d & ... & R_(k-1)d).
    """
    if k < 1:
        raise ValueError("k must be positive")
    N = len(bits)
    S = sum(1 << x for x, b in enumerate(bits) if b)
    full = (1 << N) - 1
    rotated = [((S >> j) | (S << (N - j))) & full for j in range(N)]  # R_j
    total = 0
    for d in range(1, N):
        # a term repeated at composite N only repeats an AND
        inside = S
        for t in range(1, k):
            inside &= rotated[t * d % N]
        total += inside.bit_count()
    return total


def affine_maps_keep_direct(edges, N):
    """Whether each of the N(N-1) affine maps x -> s*x + t of Z/NZ (prime N,
    s != 0) sends the edge multiset onto itself, parallel edges counted."""
    want = Counter(tuple(sorted(e)) for e in edges)
    return all(
        Counter(tuple(sorted((s * v + t) % N for v in e)) for e in edges) == want
        for s in range(1, N)
        for t in range(N)
    )


def random_hypergraph(rng, n_max=10, d_max=4, max_edges=12):
    """Arbitrary small hypergraph with edge sizes up to d_max."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, max_edges + 1))
    edges = []
    for _ in range(m):
        size = int(rng.integers(1, min(d_max, n) + 1))
        edges.append(tuple(sorted(rng.choice(n, size=size, replace=False))))
    return Hypergraph(n, edges)


def exact_upper_tail_probability(N, k, p, delta):
    """Sum of subset weights over the 2^N subsets holding at least
    (1+delta)*E of the progressions of ``ap_edges_direct``, E = p^k N(N-1)/2.

    A count is an integer, so the threshold is the ceiling of (1+delta)*E in
    exact rationals: a p^k that underflows as a float still needs one
    progression.
    """
    need = math.ceil((1 + Fraction(delta)) * Fraction(p) ** k * N * (N - 1) / 2)
    edge_masks = [sum(1 << v for v in set(e)) for e in ap_edges_direct(N, k)]
    total = 0.0
    for mask in range(1 << N):
        if sum(mask & e == e for e in edge_masks) >= need:
            size = mask.bit_count()
            total += p**size * (1 - p) ** (N - size)
    return total


def naive_intersective(N, ell, alpha, diffs):
    """Check every subset of size >= ceil(alpha N) against the definition."""
    q = min(N, max(1, math.ceil(Fraction(repr(alpha)) * N)))  # the decimal alpha, exactly
    aps = set()
    for d in diffs:
        d %= N
        for x in range(N):
            terms = tuple(sorted({(x + t * d) % N for t in range(ell + 1)}))
            if len(terms) == ell + 1:
                aps.add(terms)
    for size in range(q, N + 1):
        for combo in itertools.combinations(range(N), size):
            s = set(combo)
            if not any(set(ap) <= s for ap in aps):
                return False
    return True


def first_witness_direct(N, ell, alpha, diffs):
    """Lexicographically first ceil(alpha N)-subset containing no progression
    (as a sorted tuple), or None: a plain scan of every subset of that size."""
    q = min(N, max(1, math.ceil(Fraction(repr(alpha)) * N)))  # the decimal alpha, exactly
    aps = []
    for d in diffs:
        for x in range(N):
            terms = {(x + t * d) % N for t in range(ell + 1)}
            if len(terms) == ell + 1:
                aps.append(terms)
    for combo in itertools.combinations(range(N), q):
        s = set(combo)
        if not any(ap <= s for ap in aps):
            return combo
    return None


def first_witness_dfs(N, q, ap_masks, budget=10**7):
    """The intersectivity search before forward checking, kept as the
    reference for ``randsets._first_witness``: bitmask of the
    lexicographically first q-subset (q >= 1) of {0, ..., N-1} containing no
    progression in ``ap_masks``, or None.  Vertex v joins only if no
    progression whose largest vertex is v then lies inside the set, and a
    branch is cut only when the vertices left cannot reach q.  Raises
    BudgetExceededError past ``budget`` nodes.
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
        if nodes > budget:
            raise BudgetExceededError(f"intersectivity search exceeded {budget} nodes")
        grown = mask | (1 << v)
        for m in ending[v]:
            if grown & m == m:
                break
        else:
            found = extend(v + 1, grown, size + 1)
            if found is not None:
                return found
        return extend(v + 1, mask, size)

    # The first witness contains 0 (translation invariance).
    return extend(1, 1, 1)


def exact_intersective_probability(N, ell, alpha, p, check_fn):
    """Weighted truth of intersectivity over all 2^(N-1) difference subsets."""
    nonzero = list(range(1, N))
    total = 0.0
    for mask in range(1 << len(nonzero)):
        diffs = [d for i, d in enumerate(nonzero) if (mask >> i) & 1]
        weight = p ** len(diffs) * (1 - p) ** (len(nonzero) - len(diffs))
        if check_fn(N, ell, alpha, diffs):
            total += weight
    return total


def random_intersectivity_direct(N, ell, alpha, trials, seed, p=None, k_draws=None):
    """``random_intersectivity_experiment`` drawn with numpy: each chunk of
    ``mc.chunk_counts(trials)`` from ``mc.stream(seed, chunk)``, with the
    p-model's mask of uniforms below p or the k-draw model's unique choices,
    and the estimate from ``mc.run_chunked``."""
    from polywidth.randsets import intersectivity_check

    nonzero = np.arange(1, N, dtype=np.int64)

    def value_fn(gen, count):
        out = np.zeros(count, dtype=np.float64)
        for i in range(count):
            if p is not None:
                picks = nonzero[gen.random(N - 1) < p]
            else:
                picks = np.unique(gen.choice(nonzero, size=k_draws, replace=True))
            out[i] = intersectivity_check(N, ell, alpha, picks.tolist()).intersective
        return out

    return mc.run_chunked(value_fn, trials, seed)[0]
