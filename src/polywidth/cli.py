"""Command-line front end.

Every subcommand is a thin wrapper over one library operation, takes
long-form flags only, and emits a CSV (default) or JSON report that is
byte-identical across reruns with the same configuration, including under
different --threads values.  argparse parses and checks every flag: its
type, whether it is required, its choices and its minimum.  Flags must be
spelled in full.  A config file (JSON object or key=value lines) becomes
``--key=value`` flags placed right after the subcommand, so explicit
command-line flags win; its values are strings or numbers.

Exit codes: 0 success, 2 invalid configuration, 3 enumeration budget
exceeded, 4 verification failure.
"""

import argparse
import os
import sys

from . import __version__
from .errors import DEFAULT_BUDGET, BudgetExceededError, check_budget

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

# Thread counts of the BLAS and OpenMP pools numpy may start: pinned to 1 at
# every --threads value, so worker threads do not each fan out into a pool
# and a single-thread run does not wait on one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _int_at_least(minimum):
    def convert(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    convert.__name__ = "int"  # argparse names the type in "invalid int value"
    return convert


COMMON_OPTS = (
    ("seed", dict(type=int, default=0, help="base seed for all randomness")),
    ("threads", dict(type=_int_at_least(1), default=1, help="worker threads (result-invariant)")),
    ("format", dict(default="csv", choices=("csv", "json"), help="report format")),
    ("output", dict(help="report path (default: stdout)")),
    ("config", dict(help="config file supplying flags (JSON or key=value)")),
)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(value):
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _emit(rows, args, stream):
    fieldnames = list(rows[0])
    if args["format"] == "csv":
        import csv

        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([_fmt(row[f]) for f in fieldnames] for row in rows)
        stream.write(f"# seed={args['seed']} version={__version__}\n")
    else:
        import json

        doc = {
            "command": args["command"],
            "rows": [{f: _jsonable(row[f]) for f in fieldnames} for row in rows],
            "meta": {"seed": args["seed"], "version": __version__},
        }
        stream.write(json.dumps(doc, indent=2) + "\n")


# --------------------------------------------------------------------------
# Subcommand runners.  Each returns (rows, exit_code, pre_lines), the keys of
# the first row being the report's fields, and imports only the layers it
# uses, so a run loads no other layer.


DEFAULT_MATCHINGS = 8  # components of the matchings map when --k is not given


def _run_gw_estimate(args):
    from . import gwidth
    from .hypergraph import Hypergraph, width_bound

    n, samples = args["n"], args["samples"]
    if args["map"] == "identity":
        if args["k"] is not None:
            raise ValueError("--k applies to --map matchings only")
        pmap = gwidth.identity_map(n)
    else:  # matchings
        if n % 2:
            raise ValueError("--n must be even for the matchings map")
        k = args["k"] or DEFAULT_MATCHINGS
        matchings = gwidth.random_matchings(n, k, args["seed"] + 1)
        pmap = gwidth.PolyMap(Hypergraph(n, pairs.tolist()) for pairs in matchings)
    bound = width_bound(pmap.n, pmap.k, max(pmap.degree, 1), max(pmap.multiplicity, 1))
    est = gwidth.gw_estimate(pmap, samples, args["seed"], threads=args["threads"])
    row = {
        "n": pmap.n,
        "k": pmap.k,
        "d": pmap.degree,
        "t": pmap.multiplicity,
        "samples": samples,
        "seed": args["seed"],
        "gw_mean": est.mean,
        "gw_se": est.std_error,
        "bound": bound,
        "fitted_C": est.mean / bound,
    }
    return [row], EXIT_OK, []


def _run_matrix_verify(args):
    n, m, r = args["n"], args["m"], args["r"]
    budget = DEFAULT_BUDGET if args["budget"] is None else args["budget"]
    check_budget(n, m, budget)  # before numpy loads or any hypergraph is built or read
    from . import tensorlift
    from .hypergraph import default_matching, load_hypergraph

    if args["hypergraph"]:
        h = load_hypergraph(args["hypergraph"])
        if h.n != n:
            raise ValueError(f"--n {n} does not match the file vertex count {h.n}")
    else:
        h = default_matching(n, r)
    lift = tensorlift.build_matrix_lift(h, m, r, args["s"], budget)
    ok, witness = tensorlift.check_lift_identity(lift.mask_counts, lift.cover_count, h)
    status = "OK" if ok else f"FAIL at x={witness}"
    pre = [f"identity: {status}, cover_count={lift.cover_count}"]
    row = {
        "n": lift.n,
        "m": lift.m,
        "r": lift.r,
        "s": lift.s,
        "dim": lift.dim,
        "num_colors": lift.num_colors,
        "cover_count": lift.cover_count,
        "nnz": lift.nnz,
        "max_row_sum": lift.max_row_sum,
        "row_sum_bound": lift.row_sum_bound,
        "identity_ok": ok,
    }
    return [row], EXIT_OK if ok else EXIT_VERIFY, pre


def _run_birthday(args):
    from . import birthday
    from .hypergraph import default_goodness_bound

    r, n, samples = args["r"], args["n"], args["samples"]
    m = args["m"] or birthday.default_map_length(r, n)
    s = args["s"] or default_goodness_bound(r)
    stats = birthday.phi_statistics(r, n, m, s, samples, args["seed"], args["threads"])
    row = {
        "r": r,
        "n": n,
        "m": m,
        "s": s,
        "samples": samples,
        "seed": args["seed"],
        "p_good": stats.good_probability.mean,
        "se": stats.good_probability.std_error,
        "mean_phi": stats.mean_phi.mean,
        "se_phi": stats.mean_phi.std_error,
    }
    return [row], EXIT_OK, []


def _run_poisson_check(args):
    from . import birthday

    r, n, samples = args["r"], args["n"], args["samples"]
    m = args["m"] or birthday.default_map_length(r, n)
    domination = birthday.poisson_domination_check(
        r, n, m, samples, args["seed"], args["threads"]
    )
    rows = []
    for dr in domination:
        rows.append(
            {
                "check": dr.functional,
                "lhs": dr.lhs.mean,
                "rhs": 2.0 * dr.rhs.mean,
                "value": dr.margin,
                "threshold": dr.tolerance,
                "passed": dr.holds,
            }
        )
    chi = birthday.poisson_sum_chisquare(
        *birthday.CHI_SQUARE_MEANS, samples=samples, seed=args["seed"] + 2
    )
    rows.append(
        {
            "check": "sum_chisquare",
            "lhs": chi.statistic,
            "rhs": float(chi.dof),
            "value": chi.p_value,
            "threshold": birthday.CHI_SQUARE_SIGNIFICANCE,
            "passed": chi.passed,
        }
    )
    ok = all(dr.holds for dr in domination)  # a 10^-3 chi-square test fails 1 seed in 1000
    return rows, EXIT_OK if ok else EXIT_VERIFY, []


def _run_tj_ratio(args):
    from . import gwidth

    dim, k, samples = args["N"], args["k"], args["samples"]
    mats = gwidth.random_matching_matrices(dim, k, args["seed"] + 1)
    res = gwidth.tj_ratio_experiment(mats, samples, args["seed"], threads=args["threads"])
    row = {
        "N": dim,
        "k": k,
        "samples": samples,
        "seed": args["seed"],
        "lhs_mean": res.lhs.mean,
        "lhs_se": res.lhs.std_error,
        "rhs": res.rhs,
        "ratio": res.ratio,
    }
    return [row], EXIT_OK, []


def _run_ap_count(args):
    from .aps import ap_hypergraph, pair_incidence_profile

    h = ap_hypergraph(args["N"], args["k"])
    max_pair, _ = pair_incidence_profile(h)
    pre = [f"edges={h.num_edges}"]
    row = {
        "N": args["N"],
        "k": args["k"],
        "edges": h.num_edges,
        "vertex_degree": h.max_degree,
        "pair_incidence": max_pair,
    }
    return [row], EXIT_OK, pre


def _run_ap_structure(args):
    from . import aps

    N, k = args["N"], args["k"]
    h = aps.ap_hypergraph(N, k)
    _, table = aps.pair_incidence_profile(h)
    edges_ok = h.num_edges == N * (N - 1) // 2
    degree_ok = all(2 * d == k * (N - 1) for d in h.degrees())
    pair_ok = all(2 * c == k * (k - 1) for c in table.values()) and len(table) == N * (N - 1) // 2
    lambda_ok = aps.doubled_polynomial_check(h, k)
    transitive_ok = aps.two_transitivity_check(h)
    all_ok = edges_ok and degree_ok and pair_ok and lambda_ok and transitive_ok
    row = {
        "N": N,
        "k": k,
        "edges": h.num_edges,
        "edges_ok": edges_ok,
        "degree_ok": degree_ok,
        "pair_ok": pair_ok,
        "lambda_ok": lambda_ok,
        "transitive_ok": transitive_ok,
        "all_ok": all_ok,
    }
    return [row], EXIT_OK if all_ok else EXIT_VERIFY, []


def _run_upper_tail(args):
    from . import randsets

    N, k, p, delta, samples = args["N"], args["k"], args["p"], args["delta"], args["samples"]
    res = randsets.upper_tail_mc(N, k, p, delta, samples, args["seed"], args["threads"])
    row = {
        "N": N,
        "k": k,
        "p": p,
        "delta": delta,
        "samples": samples,
        "seed": args["seed"],
        "prob": res.estimate.mean,
        "se_or_bound": res.rule_of_three_bound
        if res.rule_of_three_bound is not None
        else res.estimate.std_error,
        "reference_rate": res.reference_rate,
    }
    return [row], EXIT_OK, []


DEFAULT_TRIALS = 200  # random-model trials when --trials is not given


def _run_intersective(args):
    from . import randsets

    n, ell, alpha = args["N"], args["ell"], args["alpha"]
    if args["diffs"] is not None:
        if any(args[key] is not None for key in ("p", "k_draws", "trials")):
            raise ValueError("--diffs cannot be combined with --p, --k-draws or --trials")
        diffs = [int(tok) for tok in args["diffs"].split(",") if tok.strip() != ""]
        res = randsets.intersectivity_check(n, ell, alpha, diffs)
        if res.intersective:
            pre = ["intersective: true [exact]"]
        else:
            witness = "".join(map(str, res.witness))
            pre = [f"intersective: false [exact], witness={witness}"]
        row = {
            "N": n,
            "ell": ell,
            "alpha": alpha,
            "model": "explicit",
            "param": args["diffs"],
            "trials": 1,
            "prob": 1.0 if res.intersective else 0.0,
        }
        return [row], EXIT_OK, pre
    if (args["p"] is None) == (args["k_draws"] is None):
        raise ValueError("give exactly one of --p / --k-draws (or --diffs)")
    trials = args["trials"] or DEFAULT_TRIALS
    est = randsets.random_intersectivity_experiment(
        n,
        ell,
        alpha,
        trials,
        args["seed"],
        p=args["p"],
        k_draws=args["k_draws"],
    )
    model = "subset" if args["p"] is not None else "draws"
    row = {
        "N": n,
        "ell": ell,
        "alpha": alpha,
        "model": model,
        "param": args["p"] if args["p"] is not None else args["k_draws"],
        "trials": trials,
        "prob": est.mean,
    }
    return [row], EXIT_OK, []


def _run_bound_eval(args):
    from .hypergraph import width_bound

    value = width_bound(args["n"], args["k"], args["d"], args["t"])
    row = {"n": args["n"], "k": args["k"], "d": args["d"], "t": args["t"], "bound": value}
    return [row], EXIT_OK, [f"bound={_fmt(value)}"]


COMMANDS = {
    "gw-estimate": (
        "Monte-Carlo Gaussian width of a hypercube polynomial image "
        "(gwidth.gw_estimate with an exact enumeration inner maximizer)",
        (
            ("map", dict(default="identity", choices=("identity", "matchings"),
                         help="component family: coordinate map, or random perfect matchings")),
            ("n", dict(type=_int_at_least(1), required=True, help="hypercube dimension")),
            ("k", dict(type=_int_at_least(1), help="number of components "
                       f"(--map matchings only; default {DEFAULT_MATCHINGS})")),
            ("samples", dict(type=_int_at_least(1), default=10000, help="Gaussian directions")),
        ),
        _run_gw_estimate,
    ),
    "matrix-verify": (
        "Build the tensor-power lift of a 2r-uniform hypergraph and check "
        "the quadratic identity exactly on all sign vectors "
        "(tensorlift.build_matrix_lift, tensorlift.check_lift_identity)",
        (
            ("n", dict(type=_int_at_least(1), required=True, help="vertex count")),
            ("m", dict(type=_int_at_least(1), required=True, help="tensor power")),
            ("r", dict(type=_int_at_least(1), required=True, help="half edge size")),
            ("s", dict(type=int, default=0, help="goodness threshold (0 = 200*4^r)")),
            ("budget", dict(type=_int_at_least(1), help="cap on n^m enumeration size "
                            "(default 10^6, errors.DEFAULT_BUDGET)")),
            ("hypergraph", dict(help="hypergraph file (default: full matching)")),
        ),
        _run_matrix_verify,
    ),
    "birthday": (
        "Goodness statistics of random maps against a maximal matching "
        "(birthday.phi_statistics): Pr[s-good], E[phi]",
        (
            ("r", dict(type=_int_at_least(1), required=True, help="half edge size")),
            ("n", dict(type=_int_at_least(1), required=True, help="vertex count")),
            ("m", dict(type=int, default=0, help="map length (0 = floor(C_r n^(1-1/r)))")),
            ("s", dict(type=int, default=0, help="goodness threshold (0 = 200*4^r)")),
            ("samples", dict(type=_int_at_least(1), default=10000, help="Monte-Carlo samples")),
        ),
        _run_birthday,
    ),
    "poisson-check": (
        "Poisson-domination inequality for the occupancy functionals, which "
        "sets the exit code, and a chi-square test that Poisson(1.3) and "
        "Poisson(0.7) draws add up, whose row is reported but sets no exit code "
        "(birthday.poisson_domination_check, birthday.poisson_sum_chisquare)",
        (
            ("r", dict(type=_int_at_least(1), required=True, help="half edge size")),
            ("n", dict(type=_int_at_least(1), required=True, help="vertex count")),
            ("m", dict(type=int, default=0, help="map length (0 = default)")),
            ("samples", dict(type=_int_at_least(1), default=100000, help="Monte-Carlo samples")),
        ),
        _run_poisson_check,
    ),
    "tj-ratio": (
        "Expected norm of a Gaussian series of random matching matrices "
        "against sqrt(log N) times the root-sum-of-squares of their norms "
        "(gwidth.tj_ratio_experiment)",
        (
            ("N", dict(type=_int_at_least(2), required=True, help="matrix dimension (even)")),
            ("k", dict(type=_int_at_least(1), required=True, help="number of matrices")),
            ("samples", dict(type=_int_at_least(1), default=24, help="Gaussian draws")),
        ),
        _run_tj_ratio,
    ),
    "ap-count": (
        "Edge count and incidence statistics of the k-term progression "
        "hypergraph on Z/NZ (aps.ap_hypergraph)",
        (
            ("N", dict(type=int, required=True, help="modulus (prime)")),
            ("k", dict(type=int, required=True, help="progression length")),
        ),
        _run_ap_count,
    ),
    "ap-structure": (
        "Exact structural checks of the progression hypergraph: counts, "
        "degrees, pair incidences, the doubled-polynomial identity, and "
        "2-transitivity (aps module)",
        (
            ("N", dict(type=int, required=True, help="modulus (prime)")),
            ("k", dict(type=int, required=True, help="progression length")),
            ("trials", dict(type=_int_at_least(1), default=100,
                            help="accepted for compatibility; the checks are exact")),
        ),
        _run_ap_structure,
    ),
    "upper-tail": (
        "Monte-Carlo upper-tail probability of the progression count in a "
        "p-random subset of Z/NZ (randsets.upper_tail_mc)",
        (
            ("N", dict(type=int, required=True, help="modulus (prime)")),
            ("k", dict(type=int, required=True, help="progression length")),
            ("p", dict(type=float, required=True, help="inclusion probability")),
            ("delta", dict(type=float, required=True, help="relative exceedance")),
            ("samples", dict(type=_int_at_least(1), default=100000, help="Monte-Carlo samples")),
        ),
        _run_upper_tail,
    ),
    "intersective": (
        "Intersectivity of a difference set: exact minimum-size subset "
        "search, or the probability that a random difference set is "
        "intersective (randsets.intersectivity_check / "
        "randsets.random_intersectivity_experiment)",
        (
            ("N", dict(type=int, required=True, help="modulus")),
            ("ell", dict(type=_int_at_least(1), required=True,
                         help="progression length minus one")),
            ("alpha", dict(type=float, required=True, help="density threshold")),
            ("diffs", dict(help="explicit difference set, comma-separated")),
            ("p", dict(type=float, help="random model: inclusion probability")),
            ("k-draws", dict(type=_int_at_least(0),
                             help="random model: uniform draws with replacement")),
            ("trials", dict(type=_int_at_least(1), help="random-model trials "
                            f"(default {DEFAULT_TRIALS}; not with --diffs)")),
        ),
        _run_intersective,
    ),
    "bound-eval": (
        "Evaluate the width bound n*t*sqrt(k*n^(1-1/ceil(d/2))*log n) "
        "(hypergraph.width_bound)",
        (
            ("n", dict(type=int, required=True, help="hypercube dimension")),
            ("k", dict(type=int, required=True, help="component count")),
            ("d", dict(type=int, required=True, help="degree")),
            ("t", dict(type=int, required=True, help="multiplicity")),
        ),
        _run_bound_eval,
    ),
}


def _build_parser(argv):
    """The parser of ``argv``, with the flags of its subcommand only.

    When ``argv`` starts with a subcommand and asks for no help, only that
    subparser is registered; naming every subcommand in the metavar keeps
    the top usage line of its errors.  Any other ``argv`` may print the
    top help or an invalid-choice error, which list every subcommand.
    """
    chosen = next((token for token in argv if token in COMMANDS), None)
    parser = argparse.ArgumentParser(
        prog="polywidth",
        description="Experiments on hypergraph polynomials over the hypercube: "
        "tensor-power lifts, birthday-paradox statistics, Gaussian widths, and "
        "arithmetic progressions in Z/NZ.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"polywidth {__version__}")
    alone = argv[:1] == [chosen] and "-h" not in argv and "--help" not in argv
    metavar = "{" + ",".join(COMMANDS) + "}" if alone else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [chosen] if alone else COMMANDS:
        help_text, opts, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        if name == chosen:
            for flag, kwargs in opts + COMMON_OPTS:
                p.add_argument(f"--{flag}", **kwargs)
    return parser


def _config_flags(path):
    """The flags a config file supplies, as ``--key=value`` tokens."""
    import json

    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
    else:
        data = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, value = line.split("=", 1)
            data[key.strip()] = value.strip()
    flags = []
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r} must be a string or a number, "
                             f"not {json.dumps(value)}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="polywidth", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    if config:
        argv[1:1] = _config_flags(config)  # right after the subcommand
    args = vars(_build_parser(argv).parse_args(argv))
    for name in BLAS_THREAD_VARS:  # before a runner imports numpy; a caller's value is kept
        os.environ.setdefault(name, "1")
    rows, code, pre_lines = COMMANDS[args["command"]][2](args)
    for line in pre_lines:
        print(line)
    if args["output"]:
        with open(args["output"], "w") as fh:
            _emit(rows, args, fh)
    else:
        _emit(rows, args, sys.stdout)
    return code


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse --help or usage error
        return EXIT_INVALID if exc.code else EXIT_OK
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
