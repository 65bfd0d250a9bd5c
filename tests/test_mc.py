import math

import numpy as np
import pytest

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
    def value_fn(gen, count):
        return np.stack([gen.random(count), gen.random(count) ** 2], axis=1)

    a = mc.run_chunked(value_fn, 3000, seed=5, threads=1)
    b = mc.run_chunked(value_fn, 3000, seed=5, threads=8)
    assert len(a) == 2
    assert a == b


def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        mc.run_chunked(lambda gen, count: np.zeros(count), 0, seed=1)


def test_single_sample_has_zero_se():
    (est,) = mc.run_chunked(lambda gen, count: gen.random(count), 1, seed=9)
    assert est.std_error == 0.0
