#!/usr/bin/env python3
"""End-to-end benchmark of the `polywidth` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lift --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one summary
    python3 perfbench/run.py --record-golden           # re-record golden reports

One benchmark process runs a closed loop with a single client: each CLI
invocation is a child process (``python -m polywidth ...`` with ``src`` on
``PYTHONPATH``), so interpreter start-up and imports are part of the cost,
and the next invocation starts only after the previous one has exited.
Every report (stdout and exit code) is compared with a golden copy recorded
at ``--threads 1``.  BLAS and OpenMP are pinned to one thread in the
children, so ``--threads`` is the only parallelism.

``--trace 0`` repeats whole passes over the workload: at least three, and
more while another fits in ``--seconds``.  Before each pass it times a
``python -m polywidth --version`` probe; ``setup_s`` is their median.  One
more probe runs first and is discarded as cache warm-up.  ``wall_s``,
``cpu_s`` (the children's user plus system time) and ``peak_rss_mb`` (the
largest child peak RSS) are medians over the passes.

``--trace 1`` runs ``perfbench/traced.py`` in one child, which times the
same invocations in process through ``polywidth.cli.main`` with and without
spans around every public library function, and reports the per-layer
metrics named in ``BENCHMARK.json``.  It runs a fixed three passes and does
not use ``--seconds``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a full result file with the environment block
goes to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import GOLDEN_DIR, GOLDEN_SETS, ROOT, WORKLOADS, golden_key, invocations, load_golden

OUT = ROOT / "perfbench" / "out"
SPEC = ROOT / "BENCHMARK.json"

MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env():
    """Environment of every child: this checkout's sources, pinned BLAS threads.

    Bytecode caching stays on, as for an installed command; the discarded
    first probe fills the cache.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(PINNED_THREADS)
    return env


def run_child(cmd, env) -> Child:
    """Run one child to completion; resource usage comes from ``os.wait4``."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(
        proc.returncode,
        out.decode(errors="replace"),
        stderr,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def polywidth(argv, env) -> Child:
    return run_child([sys.executable, "-m", "polywidth", *argv], env)


def declared(kind):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def with_units(values, kind):
    units = declared(kind)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"no value for declared metrics: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def checked(argv, child, want):
    """Record of one invocation, compared with its golden ``(exit, stdout)``."""
    ok = (child.code, child.stdout) == want
    record = {
        "args": " ".join(argv),
        "exit": child.code,
        "ok": ok,
        "wall_s": child.wall_s,
        "cpu_s": child.cpu_s,
        "peak_rss_mb": child.peak_rss_mb,
    }
    if not ok:
        record["stderr"] = child.stderr[-2000:]
    return record


def measure(name, seed, seconds):
    """One ``--trace 0`` run: a warm-up probe, then passes while time allows."""
    index, argvs = invocations(name, seed)
    golden = load_golden(name, index, argvs)
    env = child_env()

    probes = [polywidth(["--version"], env)]
    passes = []
    begin = time.perf_counter()
    while True:
        lap = time.perf_counter()
        probes.append(polywidth(["--version"], env))
        start = time.perf_counter()
        children = [polywidth(argv, env) for argv in argvs]
        passes.append(
            {
                "wall_s": time.perf_counter() - start,
                "cpu_s": sum(c.cpu_s for c in children),
                "peak_rss_mb": max(c.peak_rss_mb for c in children),
                "invocations": [checked(*z) for z in zip(argvs, children, golden)],
            }
        )
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - begin + (now - lap) > seconds:
            break

    probe_failed = sum(p.code != 0 or not p.stdout.startswith("polywidth ") for p in probes)
    attempted = len(probes) + sum(len(p["invocations"]) for p in passes)
    failed = probe_failed + sum(not i["ok"] for p in passes for i in p["invocations"])
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p.wall_s for p in probes[1:]),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {
        "golden_set": index,
        "setup_probes_s": [p.wall_s for p in probes],
        "passes": passes,
        "failed_frac": failed / attempted,
    }
    return attempted, failed, with_units(values, "end_to_end"), detail


def measure_traced(name, seed):
    """One ``--trace 1`` run, delegated to ``traced.py`` in a single child."""
    spans = OUT / f"{name}-seed{seed}-spans.jsonl"
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "traced.py"),
        "--workload", name,
        "--seed", str(seed),
        "--spans", str(spans),
    ]
    child = run_child(cmd, child_env())
    if child.code != 0:
        raise RuntimeError(f"traced pass failed ({child.code}):\n{child.stderr[-4000:]}")
    doc = json.loads(child.stdout.strip().splitlines()[-1])
    metrics = with_units(doc["metrics"], "per_layer")
    detail = {"spans_file": str(spans.relative_to(ROOT)), "passes": doc["passes"]}
    return doc["attempted"], doc["failed"], metrics, detail


def environment(seed):
    import importlib.util

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = rev.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": blas,
        "thread_env": PINNED_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload_seed": seed,
    }


def run_workload(name, seed, seconds, trace):
    start = time.perf_counter()
    if trace:
        attempted, failed, metrics, detail = measure_traced(name, seed)
    else:
        attempted, failed, metrics, detail = measure(name, seed, seconds)
    result = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "run_s": time.perf_counter() - start,
        "environment": environment(seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        **detail,
    }
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{name} seed={seed} trace={trace}: {attempted} invocations, {failed} failed "
          f"(failed_frac {failed / attempted:.6g}); details in {path.relative_to(ROOT)}")
    for metric, m in metrics.items():
        print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    return attempted, failed, metrics


def record_golden():
    """Write golden reports for every workload and seed set at ``--threads 1``."""
    env = child_env()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        sets = {}
        for index in range(GOLDEN_SETS):
            _, argvs = invocations(name, index, threads=1)
            sets[str(index)] = []
            for argv in argvs:
                c = polywidth(argv, env)
                sets[str(index)].append({"args": golden_key(argv), "exit": c.code, "stdout": c.stdout})
                print(f"{name}[{index}] exit={c.code} {c.wall_s:.2f}s {' '.join(argv)}", flush=True)
        doc = {"threads": 1, "sets": sets}
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polywidth" / "__init__.py").is_file():
        print(f"error: no polywidth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        attempted, failed = attempted + a, failed + f
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
