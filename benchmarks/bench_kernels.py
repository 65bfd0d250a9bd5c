#!/usr/bin/env python3
"""Benchmark the hot numpy kernels.

Runs each kernel on a realistic workload and prints the best per-call time.
Invoke from the repo root (``src`` must be importable unless the package
is installed):

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import time

import numpy as np

from polywidth import _kernels as kn
from polywidth import mc


def timeit(fn, repeats):
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads():
    gen = mc.stream(0, 0)

    # goodness scores of 10^4 random maps, the r=2 birthday configuration
    maps = gen.integers(0, 600, size=(10000, 139)).astype(np.int64)
    edges4 = np.arange(600, dtype=np.int64).reshape(150, 4)
    yield (
        "phi_batch (10k maps, n=600, r=2)",
        lambda: kn.phi_batch(maps, edges4, 600, 2),
    )

    # the r=3 birthday configuration: 580 positions, 333 six-vertex edges
    maps3 = gen.integers(0, 2000, size=(4096, 580)).astype(np.int64)
    edges6 = np.arange(1998, dtype=np.int64).reshape(333, 6)
    yield (
        "phi_batch (4096 maps, n=2000, r=3)",
        lambda: kn.phi_batch(maps3, edges6, 2000, 3),
    )

    # occupancy-histogram scores, the Poisson-side workload
    hists = gen.integers(0, 4, size=(20000, 100)).astype(np.int64)
    edges2 = np.arange(100, dtype=np.int64).reshape(50, 2)
    yield (
        "phi_hist_batch (20k histograms, r=1)",
        lambda: kn.phi_hist_batch(hists, edges2, 1),
    )

    # progression counting over 10^5 random subsets of Z/13Z
    bits = (gen.random((100000, 13)) < 0.5).astype(np.uint8)
    ap_edges = gen.integers(0, 13, size=(78, 3)).astype(np.int64)
    yield (
        "contained_edges_batch (100k subsets)",
        lambda: kn.contained_edges_batch(bits, ap_edges),
    )

    # sparse matvec at lift scale
    nnz, dim = 200000, 10**6
    rows = gen.integers(0, dim, size=nnz).astype(np.int64)
    cols = gen.integers(0, dim, size=nnz).astype(np.int64)
    vals = gen.integers(1, 3, size=nnz).astype(np.float64)
    x = mc.normals(gen, dim)
    yield (
        "coo_matvec (200k entries, dim 1e6)",
        lambda: kn.coo_matvec(rows, cols, vals, x, dim),
    )

    # exact sign-vector transform at the n=16 cap
    a = gen.integers(-100, 100, size=1 << 16).astype(np.int64)
    yield (
        "wht_inplace (2^16 int64)",
        lambda: kn.wht_inplace(a.copy()),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    header = f"{'kernel':42s} {'best':>10s}"
    print(header)
    print("-" * len(header))
    for name, fn in workloads():
        print(f"{name:42s} {timeit(fn, args.repeats) * 1e3:9.2f}ms")


if __name__ == "__main__":
    main()
