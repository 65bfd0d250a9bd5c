"""Reproducible Monte-Carlo plumbing.

Sampling uses splittable counter-based streams: the sample index space is cut
into fixed-size chunks and chunk ``i`` of a run draws from a Philox generator
keyed by ``(seed, i)``.  Chunks may be evaluated on any number of worker
threads; partial sums are merged in chunk order, so estimates are identical
for any worker count.  Gaussians come from Box-Muller applied to the uniform
stream, keeping the byte-level output independent of numpy's normal sampler.

Importing this module loads neither ``numpy.random`` (annotations stay
strings, and numpy loads it on first use) nor the thread pool (imported
for ``threads > 1`` only), so commands that use neither do not pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHUNK_SAMPLES = 4096

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class McEstimate:
    """Mean and standard error of a Monte-Carlo run."""

    mean: float
    std_error: float


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for chunk ``index`` of the run keyed by ``seed``."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normals(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller on the uniform stream."""
    if np.isscalar(shape):
        shape = (int(shape),)
    size = int(np.prod(shape)) if len(shape) else 1
    half = (size + 1) // 2
    u1 = 1.0 - gen.random(half)  # in (0, 1]; keeps the log finite
    u2 = gen.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size]
    return z.reshape(shape)


def chunk_counts(samples: int, chunk: int = CHUNK_SAMPLES) -> list[int]:
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    full, rest = divmod(samples, chunk)
    return [chunk] * full + ([rest] if rest else [])


def run_chunked(value_fn, samples, seed, threads=1, chunk=CHUNK_SAMPLES) -> list[McEstimate]:
    """Estimate the mean of one or more statistics by chunked sampling.

    ``value_fn(gen, count)`` must return an array of shape ``(count,)`` or
    ``(count, q)`` of per-sample statistic values drawn from ``gen``.  Returns
    one McEstimate per statistic (q = 1 for the flat shape).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    counts = chunk_counts(samples, chunk)

    def work(i):
        vals = np.asarray(value_fn(stream(seed, i), counts[i]), dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != counts[i]:
            raise RuntimeError("value_fn returned a wrong number of samples")
        return vals.sum(axis=0), np.square(vals).sum(axis=0)

    indices = range(len(counts))
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(work, indices))
    else:
        partials = [work(i) for i in indices]

    # Ordered merge: identical result for any thread count.
    total = np.zeros_like(partials[0][0])
    total_sq = np.zeros_like(partials[0][1])
    for s, sq in partials:
        total = total + s
        total_sq = total_sq + sq

    n = float(samples)
    means = total / n
    if samples > 1:
        var = np.maximum(total_sq - total * total / n, 0.0) / (n - 1.0)
    else:
        var = np.zeros_like(total)
    ses = np.sqrt(var / n)
    return [McEstimate(float(mean), float(se)) for mean, se in zip(means, ses)]
