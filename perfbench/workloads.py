"""The benchmark's workloads: fixed lists of `polywidth` invocations.

Each workload is a list of CLI argument vectors that one pass runs in
order.  The workload seed chooses one of ``GOLDEN_SETS`` seed sets
(``seed % GOLDEN_SETS``); within a set, invocation ``j`` gets the CLI seed
``derived_seed(name, index, j)``.  Golden reports are recorded for every
set, so any workload seed maps to inputs whose reports are known.

Why each workload exists:

* ``lift`` -- exact tensor-power lifts checked on every sign vector, one
  of them a 7-colour K_8 input.  Exercises hypergraph colouring and
  completion, ``tensorlift`` pair generation, ``sparse`` assembly and the
  ``phi_batch``/``wht_inplace`` kernels.  No Monte Carlo runs here.
* ``sample`` -- birthday, Poisson, upper-tail, matrix-series and
  Gaussian-width Monte Carlo at ``--threads 2``.  Exercises threaded
  ``mc`` chunking, the random-input kernels, ``sparse`` matvecs and
  ``gwidth``; compared against golden reports recorded at ``--threads 1``,
  every pass also re-checks that reports do not depend on ``--threads``.
* ``search`` -- exact intersectivity in Z/NZ (one full scan answering
  true, one early witness, one random-difference-set experiment) and the
  progression-hypergraph structure checks.  Exercises ``randsets``,
  ``aps`` and ``poly`` and bypasses ``tensorlift`` and ``gwidth``.

Sizes are chosen so that a run of three passes, each after a start-up
probe, takes 30-40 s on two cores (a pass takes 8-11 s, about two thirds
of it interpreter start-up and imports), and so that no report hits a known
open defect: ``intersective --diffs`` runs use ``--format json`` (the CSV
row does not quote the comma list), and no ``intersective`` run has N > 24
(where a heuristic search takes over).
"""

import json
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "perfbench" / "golden"

GOLDEN_SETS = 10

K8_FILE = "perfbench/data/k8.hg"

WORKLOADS = {
    "lift": {
        "threads": 1,
        "invocations": [
            ["matrix-verify", "--n", "8", "--m", "5", "--r", "1"],
            ["matrix-verify", "--n", "8", "--m", "4", "--r", "2"],
            ["matrix-verify", "--n", "8", "--m", "4", "--r", "1", "--hypergraph", K8_FILE],
        ],
    },
    "sample": {
        "threads": 2,
        "invocations": [
            ["birthday", "--r", "2", "--n", "600", "--samples", "40000"],
            ["poisson-check", "--r", "1", "--n", "200", "--samples", "50000"],
            ["upper-tail", "--N", "31", "--k", "3", "--p", "0.3", "--delta", "1",
             "--samples", "200000"],
            ["tj-ratio", "--N", "256", "--k", "64", "--samples", "12"],
            ["gw-estimate", "--map", "matchings", "--n", "18", "--k", "8",
             "--samples", "2048"],
        ],
    },
    "search": {
        "threads": 1,
        "invocations": [
            ["intersective", "--N", "22", "--ell", "2", "--alpha", "0.5",
             "--diffs", "1,2,3,4,5,6,7,8", "--format", "json"],
            ["intersective", "--N", "22", "--ell", "2", "--alpha", "0.4",
             "--diffs", "1,2,3", "--format", "json"],
            ["intersective", "--N", "20", "--ell", "1", "--alpha", "0.5", "--p", "0.3",
             "--trials", "6"],
            ["ap-structure", "--N", "31", "--k", "5", "--trials", "100"],
        ],
    },
}


def derived_seed(name: str, index: int, j: int) -> int:
    """CLI seed of invocation ``j`` of workload ``name`` in seed set ``index``."""
    return zlib.crc32(f"{name}/{index}/{j}".encode()) & 0x7FFFFFFF


def invocations(name: str, seed: int, threads: int | None = None):
    """Argument vectors of one pass of ``name`` under workload seed ``seed``.

    ``threads`` overrides the workload's ``--threads`` (golden reports are
    recorded at 1).  Returns ``(index, [argv, ...])``.
    """
    spec = WORKLOADS[name]
    index = seed % GOLDEN_SETS
    threads = spec["threads"] if threads is None else threads
    out = []
    for j, args in enumerate(spec["invocations"]):
        seed_j = derived_seed(name, index, j)
        out.append(list(args) + ["--seed", str(seed_j), "--threads", str(threads)])
    return index, out


def golden_key(argv) -> str:
    """The argument vector without its ``--threads`` value, as one string."""
    i = argv.index("--threads")
    return " ".join(argv[:i] + argv[i + 2 :])


def load_golden(name: str, index: int, argvs):
    """Golden ``(exit_code, stdout)`` per invocation of one pass.

    Raises ``ValueError`` when the recorded invocations differ from
    ``argvs``, so a changed workload cannot be checked against stale reports.
    """
    path = GOLDEN_DIR / f"{name}.json"
    entries = json.loads(path.read_text())["sets"][str(index)]
    keys = [golden_key(a) for a in argvs]
    if [e["args"] for e in entries] != keys:
        raise ValueError(f"{path} does not match the {name} invocations; re-record it")
    return [(e["exit"], e["stdout"]) for e in entries]
