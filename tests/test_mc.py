import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywidth import mc


def test_streams_are_independent_of_each_other():
    a = mc.stream(7, 0).random(5)
    b = mc.stream(7, 1).random(5)
    c = mc.stream(7, 0).random(5)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_normals_moments_and_shape():
    gen = mc.stream(11, 0)
    z = mc.normals(gen, (200, 500))
    assert z.shape == (200, 500)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert mc.normals(mc.stream(11, 0), 7).shape == (7,)


def test_chunk_counts():
    assert mc.chunk_counts(10, 4) == [4, 4, 2]
    assert mc.chunk_counts(8, 4) == [4, 4]
    assert mc.chunk_counts(0, 4) == []


def test_run_chunked_matches_direct_statistics():
    def value_fn(gen, count):
        return gen.random(count)

    (est,) = mc.run_chunked(value_fn, 5000, seed=3, chunk=512)
    # reproduce the exact sample set chunk by chunk
    vals = np.concatenate(
        [mc.stream(3, i).random(c) for i, c in enumerate(mc.chunk_counts(5000, 512))]
    )
    assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
    assert est.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(5000), rel=1e-9)
    assert type(est.mean) is float and type(est.std_error) is float


def test_run_chunked_thread_invariance():
    # 3000 samples in chunks of 512 make 6 chunks: fewer, as many and more
    # threads than chunks give the estimates of one thread, bit for bit
    def value_fn(gen, count):
        return np.stack([gen.random(count), gen.random(count) ** 2], axis=1)

    a = mc.run_chunked(value_fn, 3000, seed=5, threads=1, chunk=512)
    assert len(a) == 2
    for threads in (2, 6, 8):
        assert mc.run_chunked(value_fn, 3000, seed=5, threads=threads, chunk=512) == a


def test_run_chunked_threads_run_every_chunk_once():
    # more threads than cores, switching every microsecond: a chunk index
    # taken twice or lost from the shared iterator shows in ``seen``
    seen = []

    def value_fn(gen, count):
        seen.append(int(gen.bit_generator.state["state"]["key"][1]))
        return gen.random(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = mc.run_chunked(value_fn, 400 * 8, seed=4, threads=8, chunk=8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(400))
    assert threaded == mc.run_chunked(value_fn, 400 * 8, seed=4, chunk=8)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_chunked_raises_the_lowest_failing_chunk(threads):
    # chunk 1 fails after chunk 3 has failed on another thread
    def value_fn(gen, count):
        index = int(gen.bit_generator.state["state"]["key"][1])  # the key is (seed, chunk)
        if index == 1:
            time.sleep(0.05)
        if index in (1, 3):
            raise ValueError(f"chunk {index}")
        return gen.random(count)

    with pytest.raises(ValueError, match="^chunk 1$"):
        mc.run_chunked(value_fn, 5 * 64, seed=2, threads=threads, chunk=64)


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_run_chunked_stops_drawing_after_a_failed_chunk(threads):
    # 50 chunks, of which chunk 0 fails, switching every microsecond: each
    # thread finishes the chunk it has begun and takes no other.  However
    # late the thread that took chunk 0 runs, the other chunks end only
    # 10 ms after it starts to fail.
    calls = []
    failing = threading.Event()

    def value_fn(gen, count):
        calls.append(int(gen.bit_generator.state["state"]["key"][1]))
        if calls[-1] == 0:
            failing.set()
            raise ValueError("chunk 0")
        failing.wait(timeout=10)
        time.sleep(0.01)
        return gen.random(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(ValueError, match="^chunk 0$"):
            mc.run_chunked(value_fn, 50 * 64, seed=2, threads=threads, chunk=64)
    finally:
        sys.setswitchinterval(interval)
    assert 0 in calls and len(calls) <= threads


def test_mc_estimate_is_an_immutable_record():
    est = mc.McEstimate(0.25, 0.125)
    assert (est.mean, est.std_error) == (0.25, 0.125)
    assert repr(est) == "McEstimate(mean=0.25, std_error=0.125)"
    assert est == mc.McEstimate(0.25, 0.125) and est != mc.McEstimate(0.25, 0.5)
    assert hash(est) == hash((0.25, 0.125))
    with pytest.raises(AttributeError):
        est.mean = 1.0
    with pytest.raises(AttributeError):
        est.other = 1.0


@pytest.mark.parametrize("high", [7, 600, 2**31 + 11, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3])
def test_integer_draws_in_blocks_equal_one_draw(high):
    # a Monte-Carlo chunk draws its maps block by block: numpy keeps the
    # spare 32-bit half of a 64-bit output in the bit generator, so blocks
    # whose rows * m is odd still continue the whole-chunk draw exactly
    m = 13
    one, blocked = mc.stream(5, 3), mc.stream(5, 3)
    whole = one.integers(0, high, size=(37, m))
    blocks = [blocked.integers(0, high, size=(rows, m)) for rows in (5, 11, 1, 20)]
    assert np.array_equal(np.concatenate(blocks), whole)
    assert one.integers(0, high, 3).tolist() == blocked.integers(0, high, 3).tolist()


def test_uniform_draws_into_blocks_equal_one_draw():
    whole = mc.stream(6, 1).random(1001)
    gen, buf = mc.stream(6, 1), np.empty(1001)
    for start, stop in ((0, 333), (333, 334), (334, 1001)):
        gen.random(out=buf[start:stop])
    assert np.array_equal(buf, whole)


def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        mc.run_chunked(lambda gen, count: np.zeros(count), 0, seed=1)


def test_single_sample_has_zero_se():
    (est,) = mc.run_chunked(lambda gen, count: gen.random(count), 1, seed=9)
    assert est.std_error == 0.0


def test_from_sums_matches_run_chunked():
    # the fixtures of test_run_chunked_matches_direct_statistics and of
    # test_single_sample_has_zero_se
    for samples, seed, chunk in ((5000, 3, 512), (1, 9, mc.CHUNK_SAMPLES)):
        (est,) = mc.run_chunked(lambda gen, count: gen.random(count), samples, seed, chunk=chunk)
        vals = [mc.stream(seed, i).random(c) for i, c in enumerate(mc.chunk_counts(samples, chunk))]
        total = total_sq = 0.0
        for v in vals:
            total += v.sum()
            total_sq += np.square(v).sum()
        assert mc.McEstimate.from_sums(total, total_sq, samples) == est


HIGHS = st.sampled_from([1, 2, 3, 7, 2**31 + 1, 2**32])


@settings(max_examples=150, deadline=None)
@given(
    # keys past 2^64 are masked as numpy masks them
    seed=st.integers(0, 2**64 - 1) | st.integers(2**64, 2**80),
    index=st.integers(0, 2**65),
    # (None, count) draws doubles, (high, count) integers in [0, high)
    calls=st.lists(st.tuples(st.none() | HIGHS, st.integers(0, 11)), min_size=1, max_size=8),
)
@example(seed=2**64 + 5, index=0, calls=[(None, 7), (None, 5), (None, 1)])
@example(seed=2**70, index=3, calls=[(2**32, 3), (2**31 + 1, 9), (1, 4), (3, 5), (2, 6)])
def test_philox_stream_matches_numpy(seed, index, calls):
    # a 32-bit draw keeps the high half of its 64-bit output for the next
    # 32-bit draw, across any doubles drawn in between
    twin, gen = mc.PhiloxStream(seed, index), mc.stream(seed, index)
    for high, count in calls:
        if high is None:
            assert twin.random(count) == gen.random(count).tolist()
        else:
            assert twin.integers(high, count) == gen.integers(0, high, count).tolist()


def test_philox_stream_redraws_exactly_below_lemires_threshold(monkeypatch):
    # numpy redraws a 32-bit word x when (x * high) mod 2^32 < 2^32 mod high;
    # at high = 3 the bound is 1, which random words hit with odds 2^-32.
    # 3 * 2863311531 = 2 * 2^32 + 1 sits on the bound and is kept; 0 is not
    twin = mc.PhiloxStream(1)
    words = iter([0, 2863311531])
    monkeypatch.setattr(twin, "_next32", lambda: next(words))
    assert twin.integers(3, 1) == [2]


def test_philox_stream_rejects_out_of_range_bounds():
    for high in (0, -1, 2**32 + 1):
        with pytest.raises(ValueError, match="high must lie"):
            mc.PhiloxStream(1).integers(high, 3)
