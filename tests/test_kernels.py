"""Each numpy kernel agrees exactly with an independent first-principles
oracle, and block loops reuse the pages their blocks free."""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import oracles
import polywidth
from polywidth import _kernels as kn
from polywidth import mc


def test_phi_batch_paths_agree():
    gen = mc.stream(1, 0)
    maps = gen.integers(0, 30, size=(200, 9))
    edges = np.arange(28, dtype=np.int64).reshape(7, 4)
    expected = [oracles.phi_direct(f.tolist(), edges.tolist(), 2) for f in maps]
    assert kn.phi_batch(maps, edges, 30).tolist() == expected


def test_phi_hist_batch_paths_agree():
    gen = mc.stream(2, 0)
    hists = gen.integers(0, 5, size=(150, 20)).astype(np.int64)
    edges = np.arange(20, dtype=np.int64).reshape(10, 2)
    # a histogram is the occupancy of the map listing each vertex count times
    expected = [
        oracles.phi_direct(np.repeat(np.arange(20), h).tolist(), edges.tolist(), 1)
        for h in hists
    ]
    assert kn.phi_hist_batch(hists, edges).tolist() == expected


def matching_with_unmatched(n, r, num_edges, seed):
    """``num_edges`` disjoint 2r-sets of a shuffled [n], leaving vertices unmatched."""
    assert num_edges * 2 * r < n
    perm = mc.stream(seed, 0).permutation(n)
    return perm[: num_edges * 2 * r].reshape(num_edges, 2 * r).astype(np.int64)


def scored_in_blocks(batch, kernel, cells):
    """``kernel`` over the rows of ``batch``, handed to it block by block
    by the Monte-Carlo block loop ``_in_blocks``."""
    done = 0

    def score(rows):
        nonlocal done
        done += rows
        return kernel(batch[done - rows : done])

    return kn._in_blocks(len(batch), cells, score)


@pytest.mark.parametrize("r, n, m, num_edges", [(1, 11, 7, 4), (2, 13, 8, 2), (3, 14, 8, 2)])
@pytest.mark.parametrize("block_cells", [1, 80], ids=["one-row", "ragged"])
def test_phi_kernels_blocked(monkeypatch, r, n, m, num_edges, block_cells):
    monkeypatch.setattr(kn, "_BLOCK_CELLS", block_cells)
    gen = mc.stream(10 + r, 0)
    edges = matching_with_unmatched(n, r, num_edges, r)
    rows = 37
    if block_cells > 1:  # the phi loops take blocks of _block_rows(n) rows
        assert 1 < kn._block_rows(n) < rows and rows % kn._block_rows(n)

    def phi_maps(batch):
        return scored_in_blocks(batch, lambda b: kn.phi_batch(b, edges, n), n)

    def phi_hists(batch):
        return scored_in_blocks(batch, lambda b: kn.phi_hist_batch(b, edges), n)

    maps = gen.integers(0, n, size=(rows, m))
    expected = [oracles.phi_direct(f.tolist(), edges.tolist(), r) for f in maps]
    assert kn.phi_batch(maps, edges, n).tolist() == expected
    assert phi_maps(maps).tolist() == expected
    # phi reads a map only through its occupancy histogram
    occupancy = np.stack([np.bincount(f, minlength=n) for f in maps])
    assert kn.phi_hist_batch(occupancy, edges).tolist() == expected
    assert phi_hists(occupancy).tolist() == expected
    hists = gen.integers(0, 3, size=(rows, n))
    expected = [
        oracles.phi_direct(np.repeat(np.arange(n), h).tolist(), edges.tolist(), r)
        for h in hists
    ]
    assert kn.phi_hist_batch(hists, edges).tolist() == expected
    assert phi_hists(hists).tolist() == expected


@pytest.mark.parametrize(
    "maps, edges",
    [
        ([[2, 2], [0, 0]], [[0, 1]]),  # a value n once spilled into the next row
        ([[0, -1]], [[0, 1]]),
        ([[0, 1]], [[0, 2]]),
        ([[0, 1]], [[0, 1], [1, 0]]),
        ([[0, 1]], [[0]]),
        ([[0, 1]], np.zeros((1, 0), dtype=np.int64)),
    ],
    ids=["value-n", "negative-value", "edge-vertex-n", "shared-vertex", "odd-width", "no-width"],
)
def test_phi_batch_rejects_invalid_inputs(maps, edges):
    with pytest.raises(ValueError):
        kn.phi_batch(np.array(maps), np.array(edges), 2)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 2]], "must lie in"),
        ([[-1, 0]], "must lie in"),
        ([[0]], "even-size edges"),
        (np.zeros((1, 0), dtype=np.int64), "even-size edges"),
    ],
    ids=["vertex-n", "negative", "odd-width", "no-width"],
)
def test_phi_hist_batch_rejects_edge_vertices_outside_the_histogram(edges, message):
    with pytest.raises(ValueError, match=message):
        kn.phi_hist_batch(np.ones((3, 2), dtype=np.int64), np.array(edges))


def test_phi_batch_against_edges_of_width_two():
    # vertices 6 to 9 left unmatched
    maps = mc.stream(7, 0).integers(0, 10, size=(40, 4))
    edges = np.array([[0, 3], [5, 1], [2, 4]], dtype=np.int64)
    expected = [oracles.phi_direct(f.tolist(), edges.tolist(), 1) for f in maps]
    assert kn.phi_batch(maps, edges, 10).tolist() == expected


def test_phi_batch_follows_edges_of_the_same_shape():
    # the vertex table is cached by the edges' bytes, never by their shape
    maps = mc.stream(11, 0).integers(0, 9, size=(20, 6))
    for edges in ([[0, 1], [2, 3]], [[4, 5], [6, 7]], [[0, 1], [2, 3]], [[8, 0], [2, 3]]):
        expected = [oracles.phi_direct(f.tolist(), edges, 1) for f in maps]
        assert kn.phi_batch(maps, np.array(edges), 9).tolist() == expected
    with pytest.raises(ValueError):
        kn.phi_batch(maps, np.array([[0, 1], [1, 3]]), 9)


@pytest.mark.parametrize("r", [1, 2])
def test_phi_batch_of_maps_onto_unmatched_vertices(r):
    # every value lands in the slot that phi_batch drops
    edges = np.arange(8, dtype=np.int64).reshape(-1, 2 * r)
    maps = mc.stream(8, 0).integers(8, 12, size=(25, 6))
    expected = [oracles.phi_direct(f.tolist(), edges.tolist(), r) for f in maps]
    assert expected == [0] * 25
    assert kn.phi_batch(maps, edges, 12).tolist() == expected


def test_phi_batch_empty_inputs():
    edges = np.zeros((0, 2), dtype=np.int64)
    maps = np.zeros((0, 3), dtype=np.int64)
    assert kn.phi_batch(maps, np.arange(4).reshape(2, 2), 5).shape == (0,)
    assert np.array_equal(
        kn.phi_batch(np.ones((3, 2), dtype=np.int64), edges, 5), np.zeros(3, dtype=np.int64)
    )


def test_contained_edges_paths_agree():
    gen = mc.stream(3, 0)
    bits = (gen.random((100, 13)) < 0.5).astype(np.uint8)
    edges = gen.integers(0, 13, size=(40, 3)).astype(np.int64)
    expected = [oracles.contained_edges_direct(b.tolist(), edges.tolist()) for b in bits]
    assert kn.contained_edges_batch(bits, edges).tolist() == expected


def test_contained_edges_bool_input_and_repeated_vertex():
    gen = mc.stream(6, 0)
    bits = gen.random((50, 9)) < 0.5
    edges = np.array([[4, 4, 7], [2, 2, 2], [0, 1, 8], [8, 1, 0]], dtype=np.int64)
    expected = [oracles.contained_edges_direct(b.tolist(), edges.tolist()) for b in bits]
    assert kn.contained_edges_batch(bits, edges).tolist() == expected
    assert kn.contained_edges_batch(bits.astype(np.uint8), edges).tolist() == expected


@pytest.mark.parametrize("num_edges", [255, 256, 65535, 65536])
def test_contained_edges_exact_at_the_count_dtype_boundaries(num_edges):
    # the counts' dtype holds num_edges: uint8 up to 255, uint16 up to 65,535
    gen = mc.stream(9, 0)
    bits = np.vstack([np.ones((2, 12), dtype=bool), gen.random((3, 12)) < 0.8])
    bits[1, 11] = False
    edges = gen.integers(0, 11, size=(num_edges, 2))
    edges[0] = (3, 11)
    expected = [oracles.contained_edges_direct(b.tolist(), edges.tolist()) for b in bits]
    assert expected[:2] == [num_edges, num_edges - 1]
    assert kn.contained_edges_batch(bits, edges).tolist() == expected


def test_coo_matvec_paths_agree():
    gen = mc.stream(4, 0)
    rows = gen.integers(0, 12, size=60).astype(np.int64)
    cols = gen.integers(0, 12, size=60).astype(np.int64)
    vals = gen.integers(1, 4, size=60).astype(np.int64)
    x = mc.normals(gen, 12)
    out = kn.coo_matvec(rows, cols, vals, x, 12)
    dense = np.zeros((12, 12))
    np.add.at(dense, (rows, cols), vals)
    assert np.allclose(out, dense @ x)


def test_wht_paths_agree_and_invert():
    gen = mc.stream(5, 0)
    a = gen.integers(-50, 50, size=64).astype(np.int64)
    out = kn.wht_inplace(a.copy())
    # direct definition: out[x] = sum_m a[m] (-1)^popcount(m & x)
    direct = np.array(
        [
            sum(int(a[m]) * (-1) ** bin(m & x).count("1") for m in range(64))
            for x in range(64)
        ],
        dtype=np.int64,
    )
    assert np.array_equal(out, direct)
    # involution up to scaling
    twice = kn.wht_inplace(out.copy())
    assert np.array_equal(twice, 64 * a)


def test_wht_validates_inputs():
    with pytest.raises(ValueError):
        kn.wht_inplace(np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        kn.wht_inplace(np.zeros(4, dtype=np.float64))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the page policy is glibc's")
@pytest.mark.parametrize(
    "setup, call",
    [
        ("from polywidth.birthday import default_map_length, phi_statistics",
         "phi_statistics(2, 20000, default_map_length(2, 20000), 3200, 1024, 0, 1)"),
        ("from polywidth.birthday import default_map_length, poisson_domination_check",
         "poisson_domination_check(2, 4000, default_map_length(2, 4000), 1024, 0, 1)"),
        ("from polywidth.hypergraph import default_matching\n"
         "from polywidth.tensorlift import build_matrix_lift",
         "build_matrix_lift(default_matching(12, 1), 5, 1)"),
    ],
    ids=["phi_statistics", "poisson_domination_check", "lift-12^5"],
)
def test_block_loops_reuse_freed_pages(setup, call):
    # Under the page policy of _kernels these calls take 600-750 minor faults
    # in a fresh process; without it glibc maps each block's 0.5 MiB
    # temporaries afresh, and they took about 89,000, 58,000 and 20,000.
    probe = (
        f"import resource\n{setup}\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"{call}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = os.path.dirname(os.path.dirname(polywidth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 10_000
