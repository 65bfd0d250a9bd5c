"""Reproducible Monte-Carlo plumbing.

Sampling uses splittable counter-based streams: the sample index space is cut
into fixed-size chunks and chunk ``i`` of a run draws from a Philox generator
keyed by ``(seed, i)``.  Chunks may be evaluated on any number of worker
threads; partial sums are merged in chunk order, so estimates are identical
for any worker count.  Gaussians come from Box-Muller applied to the uniform
stream, keeping the byte-level output independent of numpy's normal sampler.

``PhiloxStream`` is a pure-Python twin of ``stream``: Philox4x64-10 (Salmon
et al., "Random123: Parallel random numbers: as easy as 1, 2, 3", SC'11) in
Python ints, with numpy's conversion to doubles and Lemire's bounded
integers (ACM TOMACS 2019).  It returns the same values as numpy's generator
for the same key, at about 2 us per 64-bit output, so a caller that needs a
few draws per trial need not load numpy.

Importing this module loads neither numpy (it is imported inside ``stream``,
``normals`` and ``run_chunked``) nor ``threading`` (imported only when
``run_chunked`` has more than one chunk for more than one thread), so
commands that use neither do not pay for them.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

CHUNK_SAMPLES = 4096

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Philox4x64 multipliers and Weyl key increments (Random123).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


class McEstimate(namedtuple("McEstimate", "mean std_error")):
    """Mean and standard error of a Monte-Carlo run."""

    __slots__ = ()

    @classmethod
    def from_sums(cls, total: float, total_sq: float, samples: int) -> McEstimate:
        """Estimate from the sum and the sum of squares of ``samples`` values."""
        total, total_sq, n = float(total), float(total_sq), float(samples)
        if samples > 1:
            var = max(total_sq - total * total / n, 0.0) / (n - 1.0)
        else:
            var = 0.0
        return cls(total / n, math.sqrt(var / n))


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for chunk ``index`` of the run keyed by ``seed``."""
    import numpy as np

    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox_block(counter: int, keys) -> list[int]:
    """The four outputs of Philox4x64 for a counter below 2^64 and the
    round keys ``keys``."""
    c0, c1, c2, c3 = counter, 0, 0, 0
    for k0, k1 in keys:
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0 = (p1 >> 64) ^ c1 ^ k0
        c2 = (p0 >> 64) ^ c3 ^ k1
        c1 = p1 & _MASK64
        c3 = p0 & _MASK64
    return [c0, c1, c2, c3]


class PhiloxStream:
    """The values of ``stream(seed, index)`` without numpy.

    ``random(count)`` and ``integers(high, count)`` return what
    ``stream(seed, index).random(count)`` and ``.integers(0, high, count)``
    return, as lists, and calls may interleave as on numpy's generator.
    """

    def __init__(self, seed: int, index: int = 0):
        k0, k1 = seed & _MASK64, index & _MASK64
        keys = []
        for _ in range(_PHILOX_ROUNDS):
            keys.append((k0, k1))
            k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
        # the 64-bit outputs of the blocks at counters 1, 2, ...; a stream
        # never reaches 2^64 blocks
        self._words = itertools.chain.from_iterable(
            map(_philox_block, itertools.count(1), itertools.repeat(keys))
        )
        self._half = None  # high half of the last 64-bit output split for 32-bit draws

    def _next32(self) -> int:
        if self._half is not None:
            out, self._half = self._half, None
            return out
        x = next(self._words)
        self._half = x >> 32
        return x & _MASK32

    def random(self, count: int) -> list[float]:
        """``count`` uniform doubles in [0, 1)."""
        return [(x >> 11) * 2.0**-53 for x in itertools.islice(self._words, count)]

    def integers(self, high: int, count: int) -> list[int]:
        """``count`` uniform integers in [0, high), for 1 <= high <= 2^32."""
        if not 1 <= high <= 1 << 32:
            raise ValueError("high must lie in [1, 2^32]")
        if high == 1:
            return [0] * count
        if high == 1 << 32:
            return [self._next32() for _ in range(count)]
        # Lemire's multiply-shift with rejection, as numpy draws it
        threshold = (1 << 32) % high
        out = []
        for _ in range(count):
            m = self._next32() * high
            while m & _MASK32 < threshold:
                m = self._next32() * high
            out.append(m >> 32)
        return out


def normals(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller on the uniform stream."""
    import numpy as np

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
    import numpy as np

    counts = chunk_counts(samples, chunk)

    def work(i):
        vals = np.asarray(value_fn(stream(seed, i), counts[i]), dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != counts[i]:
            raise RuntimeError("value_fn returned a wrong number of samples")
        return vals.sum(axis=0), np.square(vals).sum(axis=0)

    # Each thread takes the next chunk index from one shared iterator until
    # some chunk has failed; a chunk already taken runs to the end.  Every
    # chunk below a failing one was taken before it, so the lowest failing
    # chunk is always among the errors, and its exception is raised.
    partials = [None] * len(counts)
    errors = {}
    todo = iter(range(len(counts)))

    def drain():
        while not errors:
            i = next(todo, None)
            if i is None:
                return
            try:
                partials[i] = work(i)
            except BaseException as exc:
                errors[i] = exc

    workers = min(threads or 1, len(counts))
    helpers = []
    if workers > 1:
        import threading

        helpers = [threading.Thread(target=drain) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    drain()  # the calling thread drains too
    for t in helpers:
        t.join()
    if errors:
        raise errors[min(errors)]

    # Ordered merge: identical result for any thread count.
    total = np.zeros_like(partials[0][0])
    total_sq = np.zeros_like(partials[0][1])
    for s, sq in partials:
        total = total + s
        total_sq = total_sq + sq
    return [McEstimate.from_sums(t, sq, samples) for t, sq in zip(total, total_sq)]
