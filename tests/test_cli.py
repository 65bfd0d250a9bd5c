import argparse
import csv
import json
import os
import subprocess
import sys

import pytest

import polywidth
from polywidth import birthday, errors, gwidth, hypergraph, randsets, tensorlift
from polywidth.cli import (
    BLAS_THREAD_VARS,
    COMMANDS,
    COMMON_OPTS,
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_VERIFY,
    main,
)
from polywidth.hypergraph import Hypergraph, save_hypergraph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ap_count_output(capsys):
    code, out = run_cli(capsys, "ap-count", "--N", "5", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "edges=10"
    assert lines[1] == "N,k,edges,vertex_degree,pair_incidence"
    assert lines[2] == "5,3,10,6,3"
    assert lines[3].startswith("# seed=0 version=")


def test_matrix_verify_worked_example(capsys, tmp_path):
    path = tmp_path / "m4.txt"
    save_hypergraph(Hypergraph(4, [(0, 1), (2, 3)]), path)
    code, out = run_cli(
        capsys, "matrix-verify", "--n", "4", "--m", "2", "--r", "1",
        "--hypergraph", str(path),
    )
    assert code == 0
    assert out.splitlines()[0] == "identity: OK, cover_count=16"


def test_matrix_verify_checks_vertex_count(capsys, tmp_path):
    path = tmp_path / "m4.txt"
    save_hypergraph(Hypergraph(4, [(0, 1), (2, 3)]), path)
    code, _ = run_cli(
        capsys, "matrix-verify", "--n", "6", "--m", "2", "--r", "1",
        "--hypergraph", str(path),
    )
    assert code == EXIT_INVALID


def test_matrix_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(tensorlift, "check_lift_identity", lambda *args: (False, (1, 1, 1, 1)))
    code, out = run_cli(capsys, "matrix-verify", "--n", "4", "--m", "2", "--r", "1")
    assert code == EXIT_VERIFY
    assert out.splitlines()[0] == "identity: FAIL at x=(1, 1, 1, 1), cover_count=16"


def test_reruns_are_byte_identical(capsys):
    args = ("birthday", "--r", "1", "--n", "60", "--samples", "3000", "--seed", "11")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_threads_do_not_change_bytes(capsys):
    base = ("birthday", "--r", "2", "--n", "80", "--m", "30", "--samples", "6000",
            "--seed", "4")
    _, one = run_cli(capsys, *base, "--threads", "1")
    _, eight = run_cli(capsys, *base, "--threads", "8")
    assert one == eight


def test_blas_threads_pinned_at_every_thread_count(capsys, monkeypatch):
    argv = ("ap-count", "--N", "7", "--k", "3", "--threads")
    for threads in ("1", "2"):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        assert run_cli(capsys, *argv, threads)[0] == 0
        assert [os.environ.get(name) for name in BLAS_THREAD_VARS] == ["1"] * 3
    monkeypatch.setenv("OMP_NUM_THREADS", "4")  # the caller's value is kept
    assert run_cli(capsys, *argv, "1")[0] == 0
    assert {name: os.environ[name] for name in BLAS_THREAD_VARS} == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": "1"}


def test_gw_estimate_threads_byte_identical(capsys):
    base = ("gw-estimate", "--map", "matchings", "--n", "8", "--k", "3",
            "--samples", "2000", "--seed", "5")
    _, one = run_cli(capsys, *base, "--threads", "1")
    _, eight = run_cli(capsys, *base, "--threads", "8")
    assert one == eight


def test_json_format_fixed_key_order(capsys):
    code, out = run_cli(
        capsys, "bound-eval", "--n", "16", "--k", "4", "--d", "2", "--t", "1",
        "--format", "json",
    )
    assert code == 0
    body = out.split("\n", 1)[1]  # after the human-readable bound line
    doc = json.loads(body)
    assert list(doc) == ["command", "rows", "meta"]
    assert list(doc["rows"][0]) == ["n", "k", "d", "t", "bound"]
    assert doc["rows"][0]["bound"] == pytest.approx(53.2834951141)


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out = run_cli(
        capsys, "upper-tail", "--N", "13", "--k", "3", "--p", "0.5", "--delta", "1",
        "--samples", "1000", "--output", str(path),
    )
    assert code == 0
    assert out == ""
    lines = path.read_text().splitlines()
    assert lines[0] == "N,k,p,delta,samples,seed,prob,se_or_bound,reference_rate"


def test_config_file_supplies_and_cli_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=13\nk=3\np=0.5\ndelta=1\nsamples=1000\nseed=9\n")
    code, from_cfg = run_cli(capsys, "upper-tail", "--config", str(cfg))
    assert code == 0
    assert ",9," in from_cfg.splitlines()[1]
    code, overridden = run_cli(capsys, "upper-tail", "--config", str(cfg), "--seed", "10")
    assert code == 0
    assert ",10," in overridden.splitlines()[1]


def test_config_file_json(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 13, "k": 3, "p": 0.5, "delta": 1.0, "samples": 500}))
    code, out = run_cli(capsys, "upper-tail", "--config", str(cfg))
    assert code == 0


@pytest.mark.parametrize("form", ["key=value", "json"])
def test_config_key_naming_no_flag_is_rejected(capsys, tmp_path, form):
    # "sample" is a typo for "samples": it used to be ignored silently
    values = {"r": 1, "n": 10, "sample": 100}
    cfg = tmp_path / "run.cfg"
    if form == "json":
        cfg.write_text(json.dumps(values))
    else:
        cfg.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
    code = main(["birthday", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert "--sample" in err


@pytest.mark.parametrize("value", [True, None, [100], {"samples": 100}], ids=repr)
def test_config_value_must_be_a_string_or_a_number(capsys, tmp_path, value):
    # a JSON true used to run as samples=1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"r": 1, "n": 10, "samples": value}))
    code = main(["birthday", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert "'samples'" in err


def test_config_values_parse_as_flags(capsys, tmp_path):
    # negative values and a JSON number for a string flag
    argv = ["intersective", "--N", "7", "--ell", "1", "--alpha", "0.5", "--format", "json"]
    _, want = run_cli(capsys, *argv, "--diffs=-1,2", "--seed=-5")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("diffs=-1,2\nseed=-5\n")
    code, got = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert got == want and '"seed": -5' in got
    _, want = run_cli(capsys, *argv, "--diffs", "3")
    cfg.write_text(json.dumps({"diffs": 3}))
    code, got = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert got == want


@pytest.mark.parametrize(
    "argv",
    [
        ("intersective", "--N", "11", "--ell", "1", "--alpha", "0.5", "--k", "3",
         "--trials", "5"),
        ("birthday", "--r", "1", "--n", "10", "--sample", "7"),
    ],
    ids=["--k", "--sample"],
)
def test_abbreviated_flags_are_rejected(capsys, argv):
    # they used to run as --k-draws and --samples
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("matrix-verify", "--n", "4", "--m", "2", "--r", "1", "--budget", "0"), "--budget"),
        (("gw-estimate", "--map", "identity", "--n", "4", "--k", "0"), "--k"),
        (("intersective", "--N", "7", "--ell", "1", "--alpha", "0.5", "--diffs", "1",
          "--trials", "0"), "--trials"),
    ],
    ids=["budget", "identity-map-k", "diffs-trials"],
)
def test_ranges_apply_whatever_the_mode(capsys, argv, flag):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert f"argument {flag}: must be at least" in err


def test_missing_required_flag(capsys):
    code, _ = run_cli(capsys, "upper-tail", "--N", "13", "--k", "3", "--p", "0.5")
    assert code == EXIT_INVALID


def test_invalid_value_names_field(capsys):
    code = main(["birthday", "--r", "0", "--n", "10"])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "--r" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected(capsys, threads):
    code = main(["bound-eval", "--n", "16", "--k", "4", "--d", "2", "--t", "1",
                 "--threads", threads])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert "--threads" in captured.err


def test_budget_exit_code(capsys):
    code, _ = run_cli(
        capsys, "matrix-verify", "--n", "10", "--m", "3", "--r", "1", "--budget", "10"
    )
    assert code == EXIT_BUDGET


def test_matrix_verify_checks_budget_before_building(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a hypergraph or the lift was built or read")

    monkeypatch.setattr(hypergraph, "default_matching", refuse)
    monkeypatch.setattr(hypergraph, "load_hypergraph", refuse)
    monkeypatch.setattr(tensorlift, "build_matrix_lift", refuse)
    bad = tmp_path / "bad.txt"
    bad.write_text("not a hypergraph\n")
    # the last two exited 2 before: on the 5001-digit n^m in the message,
    # and on the bad file read before the budget check
    for argv, power, budget in [
        (["--n", "2000000", "--m", "1", "--r", "1"], "2000000^1", 10**6),
        (["--n", "10", "--m", "5000", "--r", "1"], "10^5000", 10**6),
        (["--n", "10", "--m", "3", "--r", "1", "--budget", "999", "--hypergraph", str(bad)],
         "10^3", 999),
    ]:
        code = main(["matrix-verify", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET
        assert captured.out == ""
        assert captured.err == f"error: n^m = {power} exceeds the enumeration budget {budget}\n"


def test_matrix_verify_refuses_the_budget_without_numpy():
    # the n^m check comes before tensorlift, and with it numpy, is imported
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from polywidth.cli import main\n"
        "raise SystemExit(main(['matrix-verify', '--n', '2000000', '--m', '1', '--r', '1']))\n"
    )
    done = _run_python(probe)
    assert done.returncode == EXIT_BUDGET
    assert done.stdout == ""
    assert done.stderr == "error: n^m = 2000000^1 exceeds the enumeration budget 1000000\n"


@pytest.mark.parametrize("n, m, row", [
    (18, 3, "18,3,1,800,5832,1,1944,17496,6,1280000,true"),
    (24, 4, "24,4,1,800,331776,1,110592,1327104,8,1280000,true"),
])
def test_matrix_verify_answers_past_n_16(capsys, n, m, row):
    code, out = run_cli(capsys, "matrix-verify", "--n", str(n), "--m", str(m), "--r", "1")
    assert code == 0
    assert out.splitlines()[:3] == [f"identity: OK, cover_count={row.split(',')[6]}",
                                    "n,m,r,s,dim,num_colors,cover_count,nnz,max_row_sum,"
                                    "row_sum_bound,identity_ok", row]


def test_overflow_exits_invalid(capsys):
    code = main(["bound-eval", "--n", "1" + "0" * 400, "--k", "4", "--d", "2", "--t", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err == "error: int too large to convert to float\n"


def test_gw_estimate_checks_the_bound_before_sampling(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr(gwidth, "gw_estimate", refuse)
    code = main(["gw-estimate", "--map", "identity", "--n", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err == "error: n must be at least 2\n"


def test_poisson_check_checks_the_mean_before_sampling(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr(birthday, "phi_statistics", refuse)
    code = main(["poisson-check", "--r", "1", "--n", "2", "--m", "2000"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err.startswith("error: Poisson mean 1000.0 is not in [0, ~708.4]")


@pytest.mark.parametrize(
    "argv,message",
    [
        ("ap-count --N 1 --k 3", "N must be prime"),
        ("ap-count --N 2 --k 3", "need 3 <= k <= N"),
        ("ap-structure --N 9 --k 3", "N must be prime"),
        ("upper-tail --N 13 --k 3 --p 1.5 --delta 1", "p must lie strictly inside (0, 1)"),
        ("upper-tail --N 13 --k 3 --p 0.5 --delta 0", "delta must be positive and finite"),
        ("upper-tail --N 2 --k 3 --p 0.5 --delta 1", "need 3 <= k <= N"),
        ("upper-tail --N 13 --k 2 --p 0.5 --delta 1", "need 3 <= k <= N"),
        # the lift and birthday checks, on plain arguments
        ("birthday --r 2 --n 3", "n must be at least 2r"),
        ("birthday --r 1 --n 10 --s -1", "s must be positive"),
        ("matrix-verify --n 4 --m 1 --r 2", "m must be at least r"),
        ("matrix-verify --n 3 --m 2 --r 2", "n must be at least 2r"),
        ("matrix-verify --n 4 --m 2 --r 1 --s -1", "s must be positive"),
        ("poisson-check --r 1 --n 10 --m -1", "m must be positive"),
        # --k used to be ignored with the identity map
        ("gw-estimate --map identity --n 4 --k 3", "--k applies to --map matchings only"),
        # these reached numpy first: "negative dimensions are not allowed" and
        # "a cannot be empty unless no samples are taken"
        ("intersective --N 0 --ell 1 --alpha 0.5 --p 0.3 --trials 2", "N must be positive"),
        ("intersective --N -5 --ell 1 --alpha 0.5 --k-draws 3 --trials 2", "N must be positive"),
        ("intersective --N 1 --ell 1 --alpha 0.5 --k-draws 3 --trials 2",
         "k_draws must be 0 when N = 1: there is no nonzero residue"),
    ],
)
def test_progression_commands_reject_invalid_arguments(capsys, argv, message):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gw_estimate_matchings_map_defaults_to_8_components(capsys):
    base = ["gw-estimate", "--map", "matchings", "--n", "6", "--samples", "50"]
    _, default = run_cli(capsys, *base)
    _, explicit = run_cli(capsys, *base, "--k", "8")
    assert default == explicit
    assert default.splitlines()[1].startswith("6,8,")


def test_poisson_check_runs(capsys):
    code, out = run_cli(
        capsys, "poisson-check", "--r", "1", "--n", "50", "--samples", "20000"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,lhs,rhs,value,threshold,passed"
    assert [ln.split(",")[0] for ln in lines[1:4]] == ["psi", "chi", "sum_chisquare"]
    assert all(ln.endswith("true") for ln in lines[1:4])


def test_poisson_check_rejects_single_bin_chi_square(capsys):
    # At means 1.3 + 0.7, 5 samples lump every Poisson bin into one, and up
    # to 12 leave a bin expecting fewer than 5 draws (4.87 at 12); 13 give
    # bins expecting 5.28 and 7.72 draws: 1 degree of freedom.
    argv = ("poisson-check", "--r", "1", "--n", "10", "--samples")
    for samples in range(5, 13):
        code, _ = run_cli(capsys, *argv, str(samples))
        assert code == EXIT_INVALID, samples
    code, out = run_cli(capsys, *argv, "13")
    assert code == 0
    row = next(ln for ln in out.splitlines() if ln.startswith("sum_chisquare,"))
    assert row.split(",")[2] == "1"  # dof


@pytest.mark.parametrize("flags", [("--m", "1120")], ids=" ".join)
def test_poisson_check_runs_at_large_means(capsys, flags):
    # Poisson mean 112 on the domination side (m/n)
    code, out = run_cli(
        capsys, "poisson-check", "--r", "1", "--n", "10", "--samples", "1000", *flags
    )
    assert code == 0
    assert out.splitlines()[0] == "check,lhs,rhs,value,threshold,passed"


def test_poisson_check_reports_a_failed_chi_square_row_and_exits_0(capsys):
    # a 10^-3 test fails about one seed in a thousand with a correct sampler
    code, out = run_cli(capsys, "poisson-check", "--r", "1", "--n", "200", "--seed", "1011")
    assert code == 0
    assert "sum_chisquare,30.7247199693,9,0.000329996056946,0.001,false" in out.splitlines()


def test_poisson_check_exits_4_on_a_failed_domination_row(capsys, monkeypatch):
    check = birthday.poisson_domination_check

    def psi_fails(*args):
        rows = check(*args)
        return (rows[0]._replace(holds=False),) + rows[1:]

    monkeypatch.setattr(birthday, "poisson_domination_check", psi_fails)
    code, out = run_cli(capsys, "poisson-check", "--r", "1", "--n", "20", "--samples", "2000")
    assert code == EXIT_VERIFY
    assert out.splitlines()[1].endswith(",false")


def test_poisson_check_has_no_mean_flags(capsys):
    # the chi-square row runs at the means 1.3 and 0.7 (birthday.CHI_SQUARE_MEANS)
    code = main(["poisson-check", "--r", "1", "--n", "10", "--mu-a", "1.3"])
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == "" and "unrecognized arguments: --mu-a 1.3" in err


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_upper_tail_rejects_nonfinite_delta(capsys, delta):
    code, out = run_cli(
        capsys, "upper-tail", "--N", "7", "--k", "3", "--p", "0.5", "--delta", delta,
        "--samples", "100", "--format", "json",
    )
    assert code == EXIT_INVALID
    assert out == ""


def test_upper_tail_extreme_p_and_delta_report_finite_json(capsys):
    def strict(const):
        raise AssertionError(f"not JSON: {const}")

    for p, delta in (("5e-324", "1"), ("0.3", "1e300")):
        code, out = run_cli(
            capsys, "upper-tail", "--N", "31", "--k", "3", "--p", p, "--delta", delta,
            "--samples", "10", "--format", "json",
        )
        assert code == 0
        row = json.loads(out, parse_constant=strict)["rows"][0]
        assert row["prob"] == 0.0
        assert row["reference_rate"] >= 0.0


def test_tj_ratio_runs(capsys):
    code, out = run_cli(
        capsys, "tj-ratio", "--N", "32", "--k", "8", "--samples", "8", "--seed", "2"
    )
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header == "N,k,samples,seed,lhs_mean,lhs_se,rhs,ratio"
    assert float(row.split(",")[-1]) < 4.0


def test_ap_structure_runs(capsys):
    code, out = run_cli(capsys, "ap-structure", "--N", "7", "--k", "3", "--trials", "20")
    assert code == 0
    assert out.splitlines()[1].endswith("true")


def test_ap_structure_reports_ignore_trials_and_seed():
    # both checks are exact: --trials and --seed change no computed byte,
    # and the run draws nothing and evaluates no polynomial
    probe = (
        "import contextlib, io, json, sys\n"
        "from polywidth.cli import main\n"
        "runs = []\n"
        "for trials, seed in ((1, 7), (100, 7), (5000, 7), (100, 0), (100, 2**40 + 3)):\n"
        "    out = io.StringIO()\n"
        "    argv = ['ap-structure', '--N', '31', '--k', '5', '--trials', str(trials),\n"
        "            '--seed', str(seed)]\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append([main(argv), out.getvalue()])\n"
        "loaded = [m for m in ('numpy', 'polywidth.mc', 'polywidth.poly') if m in sys.modules]\n"
        "print(json.dumps([runs, loaded]))\n"
    )
    done = _run_python(probe)
    assert done.returncode == 0, done.stderr
    runs, loaded = json.loads(done.stdout)
    assert loaded == []
    assert [code for code, _ in runs] == [0] * 5
    reports = [out for _, out in runs]
    assert reports[0] == reports[1] == reports[2]
    header = "N,k,edges,edges_ok,degree_ok,pair_ok,lambda_ok,transitive_ok,all_ok\n"
    row = "31,5,465,true,true,true,true,true,true\n"
    for seed, report in zip((7, 0, 2**40 + 3), reports[2:]):
        assert report == f"{header}{row}# seed={seed} version={polywidth.__version__}\n"


def test_intersective_random_model(capsys):
    code, out = run_cli(
        capsys, "intersective", "--N", "11", "--ell", "1", "--alpha", "0.5",
        "--p", "0.3", "--trials", "100", "--seed", "3",
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "subset"
    assert 0.0 <= float(row[6]) <= 1.0


def test_intersective_requires_one_model(capsys):
    code, _ = run_cli(capsys, "intersective", "--N", "11", "--ell", "1", "--alpha", "0.5")
    assert code == EXIT_INVALID


@pytest.mark.parametrize("p", ["nan", "inf", "1.5", "-0.2", "0", "1"])
def test_intersective_rejects_p_outside_the_unit_interval(capsys, p):
    # nan and inf used to print "param": NaN / Infinity, which is not JSON
    code = main(["intersective", "--N", "11", "--ell", "1", "--alpha", "0.5", "--p", p,
                 "--trials", "5", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert "p must lie strictly inside (0, 1)" in err


def test_intersective_rejects_negative_draws(capsys):
    code = main(["intersective", "--N", "11", "--ell", "1", "--alpha", "0.5",
                 "--k-draws", "-1", "--trials", "5"])
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert "--k-draws" in err


@pytest.mark.parametrize("model", [["--p", "0.3"], ["--k-draws", "3"]], ids=["p", "k-draws"])
def test_intersective_rejects_diffs_with_a_random_model(capsys, model):
    # --p used to be ignored next to --diffs, with exit 0
    code = main(["intersective", "--N", "22", "--ell", "2", "--alpha", "0.5",
                 "--diffs", "1,2", *model])
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert "--diffs" in err and "--p" in err and "--k-draws" in err


def test_intersective_rejects_diffs_with_trials(capsys):
    # --trials used to be ignored next to --diffs, which reported "trials": 1
    code = main(["intersective", "--N", "22", "--ell", "2", "--alpha", "0.5",
                 "--diffs", "1,2", "--trials", "5", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert "--diffs" in err and "--trials" in err


def test_intersective_random_model_defaults_to_200_trials(capsys):
    code, out = run_cli(capsys, "intersective", "--N", "11", "--ell", "1", "--alpha", "0.5",
                        "--p", "0.3", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["trials"] == 200


def test_intersective_diffs_ignores_seed_and_threads(capsys):
    argv = ["intersective", "--N", "22", "--ell", "2", "--alpha", "0.5", "--diffs", "1,2"]
    _, plain = run_cli(capsys, *argv)
    code, got = run_cli(capsys, *argv, "--seed", "7", "--threads", "2")
    assert code == 0
    # the footer echoes the seed it was given; everything above it is the same
    assert got == plain.replace("# seed=0 ", "# seed=7 ")
    assert run_cli(capsys, *argv, "--threads", "2")[1] == plain


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["birthday", "--help"]) == 0


def _full_parser():
    """The front end's parser with every subcommand's flags added."""
    parser = argparse.ArgumentParser(
        prog="polywidth",
        description="Experiments on hypergraph polynomials over the hypercube: "
        "tensor-power lifts, birthday-paradox statistics, Gaussian widths, and "
        "arithmetic progressions in Z/NZ.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"polywidth {polywidth.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, opts, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        for flag, kwargs in opts + COMMON_OPTS:
            p.add_argument(f"--{flag}", **kwargs)
    return parser


@pytest.mark.parametrize("argv", [
    ["--help"], *([name, "--help"] for name in COMMANDS),
    ["birthday", "--r", "2", "--n", "600", "--bogus", "1"],
    [], ["--version"], ["foo"], ["foo", "intersective"],
    ["intersective", "--N", "5"], ["intersective", "--N", "5", "bogus"],
    ["--bogus", "intersective", "--N", "5", "--ell", "1", "--alpha", "0.5", "--diffs", "1"],
    ["intersective", "--N", "22", "--ell", "2", "--alpha", "0.5", "--diffs", "1", "extra"],
    ["intersective", "--config", "CONFIG"], ["--config", "CONFIG", "intersective"],
])
def test_help_and_usage_equal_those_of_the_full_parser(capsys, tmp_path, argv):
    # the front end adds only the chosen subcommand's flags, and registers
    # only its subparser when argv starts with it and asks for no help
    config = tmp_path / "run.cfg"
    config.write_text("N=5\n")
    argv = [str(config) if token == "CONFIG" else token for token in argv]
    code = main(argv)
    got = capsys.readouterr()
    # the config flags go right after the subcommand
    expanded = argv[:1] + ["--N=5"] + argv[1:] if "--config" in argv else argv
    with pytest.raises(SystemExit) as exc:
        _full_parser().parse_args(expanded)
    want = capsys.readouterr()
    ok = {"-h", "--help", "--version"} & set(argv)
    assert code == exc.value.code == (0 if ok else 2)
    assert (got.out, got.err) == (want.out, want.err)
    if argv != ["--version"]:
        assert (want.out if ok else want.err).startswith("usage: polywidth")


def test_intersective_tiny_alpha_witness_is_one_element(capsys):
    code, out = run_cli(capsys, "intersective", "--N", "22", "--ell", "2", "--alpha", "1e-12",
                        "--diffs", "1,2")
    assert code == 0
    assert out.splitlines()[0] == "intersective: false [exact], witness=1" + "0" * 21


def test_intersective_deep_witness(capsys):
    # a 2000-member witness: the search keeps its own stack, not Python's
    code, out = run_cli(capsys, "intersective", "--N", "4000", "--ell", "1", "--alpha", "0.5",
                        "--diffs", "1")
    assert code == 0
    assert out.splitlines()[0] == "intersective: false [exact], witness=" + "10" * 2000


def test_intersective_random_model_past_old_scan_limit(capsys):
    code, _ = run_cli(
        capsys, "intersective", "--N", "30", "--ell", "1", "--alpha", "0.5",
        "--p", "0.3", "--trials", "2",
    )
    assert code == 0


def test_intersective_search_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(randsets, "SEARCH_NODE_BUDGET", 100)
    code, _ = run_cli(
        capsys, "intersective", "--N", "31", "--ell", "1", "--alpha", "0.5", "--diffs", "1"
    )
    assert code == EXIT_BUDGET


CSV_RUNS = [
    ("gw-estimate", "--n", "4", "--samples", "50"),
    ("matrix-verify", "--n", "4", "--m", "2", "--r", "1"),
    ("birthday", "--r", "1", "--n", "20", "--samples", "200"),
    ("poisson-check", "--r", "1", "--n", "20", "--samples", "2000"),
    ("tj-ratio", "--N", "8", "--k", "2", "--samples", "3"),
    ("ap-count", "--N", "5", "--k", "3"),
    ("ap-structure", "--N", "7", "--k", "3", "--trials", "5"),
    ("upper-tail", "--N", "7", "--k", "3", "--p", "0.5", "--delta", "1", "--samples", "200"),
    ("intersective", "--N", "7", "--ell", "1", "--alpha", "0.5", "--diffs", "1,2"),
    ("intersective", "--N", "7", "--ell", "1", "--alpha", "0.5", "--p", "0.3", "--trials", "5"),
    ("bound-eval", "--n", "16", "--k", "4", "--d", "2", "--t", "1"),
]


def test_csv_runs_cover_every_subcommand():
    assert {argv[0] for argv in CSV_RUNS} == set(COMMANDS)


@pytest.mark.parametrize("argv", CSV_RUNS, ids=" ".join)
def test_csv_rows_match_header_width(capsys, tmp_path, argv):
    path = tmp_path / "report.csv"
    code, _ = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    assert rows
    assert all(len(row) == len(header) for row in rows)


def _run_python(probe):
    src = os.path.dirname(os.path.dirname(polywidth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)


def test_cli_import_leaves_scipy_stats_unloaded():
    probe = "import sys, polywidth.cli; print('scipy.stats' in sys.modules)"
    done = _run_python(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_import_leaves_numpy_unloaded():
    probe = (
        "import contextlib, io, sys\n"
        "import polywidth.cli\n"
        "imported = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = polywidth.cli.main(['--version'])\n"
        "print(imported, 'numpy' in sys.modules, code)\n"
    )
    done = _run_python(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "0"]


def test_version_loads_no_dataclasses_or_inspect():
    # nor the report writers, json and csv, which the probe does not import either
    probe = (
        "import contextlib, io, sys\n"
        "from polywidth.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['--version'])\n"
        "print(*(m in sys.modules for m in ('dataclasses', 'inspect', 'json', 'csv')), code)\n"
    )
    done = _run_python(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False", "False", "0"]


SEARCH_UNUSED = [f"polywidth.{m}" for m in ("birthday", "gwidth", "sparse", "tensorlift")]
SEARCH_UNUSED += ["fractions", "decimal"]  # the density threshold is computed in ints
# no command loads dataclasses; the search commands run without numpy and
# inspect (which numpy loads) too
NUMPY_FREE = ["numpy", "dataclasses", "inspect"]
BIRTHDAY_UNUSED = [f"polywidth.{m}" for m in ("tensorlift", "gwidth", "sparse", "randsets", "aps")]
BIRTHDAY_UNUSED += ["dataclasses"]
# more than one chunk at --threads 2 starts a worker thread, without the pool
POOL = ["concurrent.futures", "logging"]


@pytest.mark.parametrize(
    "argv,unused",
    [
        (["intersective", "--N", "10", "--ell", "2", "--alpha", "0.5", "--diffs", "1,2"],
         SEARCH_UNUSED + NUMPY_FREE + ["polywidth.aps", "polywidth.mc", "polywidth._kernels",
                                       "concurrent.futures"]),
        (["intersective", "--N", "10", "--ell", "1", "--alpha", "0.5", "--p", "0.3",
          "--trials", "2"],
         SEARCH_UNUSED + NUMPY_FREE + ["polywidth._kernels", "polywidth.aps",
                                       "concurrent.futures"]),
        (["intersective", "--N", "10", "--ell", "1", "--alpha", "0.5", "--k-draws", "3",
          "--trials", "2"],
         SEARCH_UNUSED + NUMPY_FREE + ["polywidth._kernels", "polywidth.aps",
                                       "concurrent.futures"]),
        (["ap-structure", "--N", "7", "--k", "3", "--trials", "5"],
         SEARCH_UNUSED + NUMPY_FREE + ["polywidth._kernels", "concurrent.futures"]),
        (["ap-count", "--N", "7", "--k", "3"],
         SEARCH_UNUSED + NUMPY_FREE + ["polywidth._kernels", "polywidth.mc"]),
        (["matrix-verify", "--n", "6", "--m", "2", "--r", "1"],
         ["polywidth.mc", "polywidth.randsets", "numpy.random", "dataclasses"]),
        (["birthday", "--r", "1", "--n", "20", "--samples", "100"], BIRTHDAY_UNUSED),
        (["poisson-check", "--r", "1", "--n", "20", "--samples", "100"], BIRTHDAY_UNUSED),
        (["birthday", "--r", "1", "--n", "20", "--samples", "5000", "--threads", "2"],
         BIRTHDAY_UNUSED + POOL),
        (["upper-tail", "--N", "7", "--k", "3", "--p", "0.5", "--delta", "1",
          "--samples", "5000", "--threads", "2"], POOL + ["dataclasses"]),
        (["gw-estimate", "--n", "6", "--samples", "2000", "--threads", "2"],
         POOL + ["dataclasses", "polywidth.sparse"]),
        # 12 samples fill one chunk, so there is nothing for a second thread
        (["tj-ratio", "--N", "256", "--k", "64", "--samples", "12", "--threads", "2"],
         POOL + ["dataclasses"]),
        (["bound-eval", "--n", "16", "--k", "4", "--d", "2", "--t", "1"],
         NUMPY_FREE + [f"polywidth.{m}" for m in ("gwidth", "mc", "_kernels", "sparse",
                                                  "birthday", "tensorlift")]),
    ],
    ids=["intersective-diffs", "intersective-random", "intersective-draws", "ap-structure",
         "ap-count", "matrix-verify", "birthday", "poisson-check", "birthday-threads",
         "upper-tail-threads", "gw-estimate-threads", "tj-ratio-one-chunk", "bound-eval"],
)
def test_subcommand_loads_only_its_layers(argv, unused):
    # modules the command loads; a command that uses numpy counts them from
    # after numpy's own import (numpy < 2 loads numpy.random there)
    preload = "" if "numpy" in unused else "import numpy\n"
    probe = (
        "import contextlib, io, json, sys\n"
        f"{preload}"
        "before = set(sys.modules)\n"
        "from polywidth.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    done = _run_python(probe)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout)
    assert code == 0
    assert [m for m in unused if m in loaded] == []


EXACT_INTERSECTIVE_RUNS = [
    [*argv, "--format", fmt]
    for argv in (
        # a witness, then none
        ["intersective", "--N", "22", "--ell", "2", "--alpha", "0.4", "--diffs", "1,2,3"],
        ["intersective", "--N", "22", "--ell", "2", "--alpha", "0.5",
         "--diffs", "1,2,3,4,5,6,7,8"],
    )
    for fmt in ("csv", "json")
]


def _runs_without_numpy(capsys, runs):
    """[exit code, stdout] of each run in a child where numpy cannot be
    imported, checked against the same runs in process."""
    # a None entry makes `import numpy` fail
    probe = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from polywidth.cli import main\n"
        "runs = []\n"
        f"for argv in {runs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append([main(argv), out.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    done = _run_python(probe)
    assert done.returncode == 0, done.stderr
    expected = [list(run_cli(capsys, *argv)) for argv in runs]
    assert json.loads(done.stdout) == expected
    assert all(code == 0 for code, _ in expected)
    return expected


def test_exact_intersective_runs_without_numpy(capsys):
    expected = _runs_without_numpy(capsys, EXACT_INTERSECTIVE_RUNS)
    assert "witness=" in expected[0][1] and "witness=" not in expected[2][1]


RANDOM_INTERSECTIVE_RUNS = [
    ["intersective", "--N", "20", "--ell", "1", "--alpha", "0.5", *model, "--format", fmt]
    for model in (["--p", "0.3", "--trials", "6"], ["--k-draws", "6", "--trials", "20"])
    for fmt in ("csv", "json")
]


def test_random_intersective_runs_without_numpy(capsys):
    # the draws come from mc.PhiloxStream, which matches numpy's stream
    _runs_without_numpy(capsys, RANDOM_INTERSECTIVE_RUNS)


AP_RUNS = [
    [*argv, "--format", fmt]
    for argv in (
        ["ap-structure", "--N", "31", "--k", "5", "--trials", "100"],
        ["ap-structure", "--N", "7", "--k", "7"],
        ["ap-count", "--N", "31", "--k", "5"],
    )
    for fmt in ("csv", "json")
]


def test_ap_commands_run_without_numpy(capsys):
    # aps counts and checks on Python ints and draws nothing
    _runs_without_numpy(capsys, AP_RUNS)


def test_bound_eval_runs_without_numpy(capsys):
    # the bound is a closed form in math, kept in hypergraph
    _runs_without_numpy(capsys, [
        ["bound-eval", "--n", "16", "--k", "4", "--d", "2", "--t", "1", "--format", fmt]
        for fmt in ("csv", "json")
    ])


def test_matrix_verify_budget_defaults_to_the_tensorlift_cap(capsys):
    code = main(["matrix-verify", "--n", "10", "--m", "7", "--r", "1"])
    assert code == EXIT_BUDGET
    assert capsys.readouterr().err.endswith(f"budget {errors.DEFAULT_BUDGET}\n")


def test_every_subcommand_runs_without_scipy():
    # numpy is the only runtime dependency; a None entry makes `import scipy` fail
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from polywidth.cli import main\n"
        f"codes = [main(list(argv)) for argv in {CSV_RUNS!r}]\n"
        "sys.stderr.write(repr(codes))\n"
        "sys.exit(any(codes))\n"
    )
    done = _run_python(probe)
    assert done.returncode == 0, done.stderr[-2000:]
