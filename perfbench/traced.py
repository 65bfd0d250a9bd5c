#!/usr/bin/env python3
"""Traced in-process pass over one workload: per-layer spans and counts.

Started by ``run.py --trace 1`` with ``src`` on ``PYTHONPATH``:

    python3 perfbench/traced.py --workload lift --seed 1 --spans perfbench/out/s.jsonl

It imports ``polywidth.cli`` (timing the import and counting the modules it
loads), then runs the workload's invocations three times in this process
through ``polywidth.cli.main``: untraced, traced, untraced.  The traced
pass replaces every public function of the layer modules, and the public
methods of ``sparse.SparseMatrix``, with a wrapper at each module binding
site.  The wrapper records a span (name, start, end, parent, thread) and
counts taken from arguments and return values.  Source under ``src/`` is
not changed.

Span names are ``<module>.<function>`` (``_kernels`` is named ``kernels``,
as metric names start with a letter), plus ``mc.value_fn`` for each call
of the statistic that ``mc.run_chunked`` samples (it runs on worker threads;
its parent is the ``run_chunked`` span).  A span's self time is its length
minus the part of it covered by its children; its inclusive time counts
only spans with no ancestor of the same name.  Kernel ``bytes_computed`` is
computed from operand sizes, not measured: int64/float64 inputs and the
output, each counted once (``wht_inplace``: one read and one write of the
array; ``coo_matvec`` rows are COO entries).

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed``, ``passes`` and the values of the ``per_layer`` metrics named in
``BENCHMARK.json``; the spans of the traced pass go to ``--spans`` as JSON
lines.  A layer a workload does not call reads 0 on that workload.

Which end-to-end metric (``run.py --trace 0``) each layer metric should move:

* set-up: ``cli.import_s``, ``cli.modules_loaded``, ``cli.scipy_stats_loaded``
  -> ``setup_s`` on every workload; ``cli.run.self_s`` (parse and emit)
  -> ``wall_s`` on every workload.
* ``hypergraph``, ``tensorlift``, ``sparse.from_entries``, and the
  ``phi_batch``/``wht_inplace`` kernels -> ``lift`` ``wall_s`` (and
  ``peak_rss_mb`` for pair generation and assembly).
* ``mc``, ``birthday``, ``gwidth``, ``sparse.matvec``,
  ``randsets.upper_tail_mc`` and the ``phi_batch``, ``phi_hist_batch``,
  ``contained_edges_batch``, ``coo_matvec`` kernels -> ``sample`` ``wall_s``
  (``mc`` also ``cpu_s``).
* ``aps``, ``poly``, ``randsets.intersectivity_check`` and
  ``randsets.random_intersectivity_experiment`` -> ``search`` ``wall_s``.
* ``trace.overhead_frac`` (traced pass against the mean of the two untraced
  passes) and ``trace.unattributed_frac`` (share of the traced pass outside
  every library span called from ``cli``) qualify the rest.
"""

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

from workloads import ROOT, invocations, load_golden

LAYERS = (
    "hypergraph", "tensorlift", "sparse", "_kernels", "mc", "birthday",
    "gwidth", "aps", "poly", "randsets", "cli",
)

# Called once per generated pair: a span each would cost more than the work.
UNTRACED = {"tensorlift.map_rank", "tensorlift.map_digits"}


def _size(a):
    # numpy is imported here, not at the top, so that the timed import of
    # polywidth.cli is the one that loads it.
    import numpy as np

    return int(np.asarray(a).size)


# Counts per span, from the bound arguments ``a`` and the return value ``r``.
COUNTS = {
    "hypergraph.greedy_edge_coloring": lambda a, r: {"colors": r.num_colors},
    "tensorlift.enumerate_pairs": lambda a, r: {"pairs": len(r[0])},
    "sparse.from_entries": lambda a, r: {"entries": len(a["rows"])},
    "kernels.phi_batch": lambda a, r: {
        "rows": len(r),
        "bytes_computed": 8 * (_size(a["maps"]) + _size(a["edges"]) + len(r)),
    },
    "kernels.phi_hist_batch": lambda a, r: {
        "rows": len(r),
        "bytes_computed": 8 * (_size(a["hists"]) + _size(a["edges"]) + len(r)),
    },
    "kernels.contained_edges_batch": lambda a, r: {
        "rows": len(r),
        "bytes_computed": _size(a["bits"]) + 8 * (_size(a["edges"]) + len(r)),
    },
    "kernels.coo_matvec": lambda a, r: {
        "rows": len(a["rows"]),
        "bytes_computed": 8 * (3 * len(a["rows"]) + _size(a["x"]) + len(r)),
    },
    "kernels.wht_inplace": lambda a, r: {"rows": len(r), "bytes_computed": 16 * len(r)},
    "mc.run_chunked": lambda a, r: {
        "samples": a["samples"],
        "chunks": -(-a["samples"] // a["chunk"]),
        "threads": max(1, a["threads"] or 1),
    },
    "gwidth.gw_estimate": lambda a, r: {"samples": a["samples"]},
    "gwidth.spectral_norm": lambda a, r: {"iterations": r.iterations},
    "randsets.intersectivity_check": lambda a, r: {"exact": int(r.exact)},
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread, counts)
        self.names = {"mc.value_fn"}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, parent=None):
        """``fn`` recording a span per call; ``parent`` is used on a thread
        that has no open span (the workers of ``mc.run_chunked``)."""
        self.names.add(name)
        count = COUNTS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            up = stack[-1] if stack else parent
            if name == "mc.run_chunked":
                args = (self.wrap("mc.value_fn", args[0], parent=sid),) + args[1:]
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if count and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = count(bound.arguments, result)
                self.spans.append((sid, up, name, start, end, threading.get_ident(), counts))

        return traced

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"polywidth.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer.lstrip('_')}.{attr}"
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and name not in UNTRACED
                ):
                    targets[obj] = self.wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("polywidth") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, targets[obj])

        from polywidth.sparse import SparseMatrix

        for attr, raw in list(vars(SparseMatrix).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(f"sparse.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(f"sparse.{attr}", raw)
            else:
                continue
            self._restore.append((SparseMatrix, attr, raw))
            setattr(SparseMatrix, attr, wrapped)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def aggregate(spans):
    """Per span name: inclusive ``s``, ``self_s``, ``calls`` and summed counts."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    agg = defaultdict(lambda: defaultdict(int))
    for sid, parent, name, start, end, _, counts in spans:
        a = agg[name]
        a["calls"] += 1
        inner = [(max(c[3], start), min(c[4], end)) for c in children[sid]]
        a["self_s"] += (end - start) - _covered([i for i in inner if i[1] > i[0]])
        up = by_id.get(parent)
        while up is not None and up[2] != name:
            up = by_id.get(up[1])
        if up is None:
            a["s"] += end - start
        for key, value in (counts or {}).items():
            a[key] += value
    return agg


def layer_metrics(tracer, agg, extras):
    """Values of the declared ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [s for s in tracer.spans if s[2] == "mc.run_chunked"]
    capacity = sum((s[4] - s[3]) * s[6]["threads"] for s in runs if s[6])
    derived = {
        "hypergraph.colors": agg["hypergraph.greedy_edge_coloring"]["colors"],
        "mc.value_fn.busy_s": agg["mc.value_fn"]["s"],
        "mc.parallel_eff": agg["mc.value_fn"]["s"] / capacity if capacity else 0.0,
        "randsets.intersectivity_check.exact_frac": (
            agg["randsets.intersectivity_check"]["exact"]
            / max(agg["randsets.intersectivity_check"]["calls"], 1)
        ),
        **extras,
    }
    values = {}
    for metric in (m["name"] for m in spec["per_layer"]):
        if metric in derived:
            values[metric] = derived[metric]
            continue
        span, field = metric.rsplit(".", 1)
        if span not in tracer.names:
            raise KeyError(f"{metric}: no span named {span}")
        if span in agg and field not in {"s", "self_s", "calls", *agg[span]}:
            raise KeyError(f"{metric}: span {span} has no field {field}")
        values[metric] = agg[span][field] if span in agg else 0
    return values


def run_pass(cli, argvs, golden):
    """Run every invocation in process; returns (wall seconds, failures)."""
    failed = 0
    start = time.perf_counter()
    for argv, want in zip(argvs, golden):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        failed += (code, out.getvalue()) != want
    return time.perf_counter() - start, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    before = set(sys.modules)
    start = time.perf_counter()
    cli = importlib.import_module("polywidth.cli")
    import_s = time.perf_counter() - start
    loaded = len(set(sys.modules) - before)
    scipy_stats = int("scipy.stats" in sys.modules)

    index, argvs = invocations(args.workload, args.seed)
    golden = load_golden(args.workload, index, argvs)

    plain_1, failed_1 = run_pass(cli, argvs, golden)
    tracer = Tracer()
    tracer.install()
    try:
        traced, failed_t = run_pass(cli, argvs, golden)
    finally:
        tracer.uninstall()
    plain_2, failed_2 = run_pass(cli, argvs, golden)

    agg = aggregate(tracer.spans)
    cli_ids = {s[0] for s in tracer.spans if s[2].startswith("cli.")}
    top = [s for s in tracer.spans if s[1] in cli_ids and s[0] not in cli_ids]
    extras = {
        "cli.import_s": import_s,
        "cli.modules_loaded": loaded,
        "cli.scipy_stats_loaded": scipy_stats,
        "trace.overhead_frac": traced / statistics.mean((plain_1, plain_2)) - 1.0,
        "trace.unattributed_frac": 1.0 - sum(s[4] - s[3] for s in top) / traced,
    }
    values = layer_metrics(tracer, agg, extras)

    t0 = min((s[3] for s in tracer.spans), default=0.0)
    with open(args.spans, "w") as fh:
        for sid, parent, name, s0, s1, thread, counts in sorted(tracer.spans):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": s0 - t0,
                                 "end": s1 - t0, "thread": thread, "counts": counts}) + "\n")

    failed = failed_1 + failed_t + failed_2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": 3 * len(argvs),
        "failed": failed,
        "passes": {"plain_s": [plain_1, plain_2], "traced_s": traced, "spans": len(tracer.spans)},
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
