"""CLI integration: grammar, formats, exit codes, osculating output."""

import json
import os
import subprocess
import sys

import pytest

import snm
from snm import BetaQuantileQuery, GammaQuantileQuery, invert_beta, invert_gamma
from snm.cli import build_parser, cmd_compare, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invert_gamma_table(capsys):
    code, out, _ = run(capsys, "invert", "gamma", "--a", "2", "--p", "0.5")
    assert code == 0
    assert "1.67834699002" in out
    assert "converged   true" in out
    for line in ("variable    log", "start       asymptotic", "underflow   false"):
        assert line in out.splitlines()


def test_invert_beta_uniform(capsys):
    code, out, _ = run(capsys, "invert", "beta", "--a", "1", "--b", "1",
                       "--p", "0.37")
    assert code == 0
    assert "0.37" in out


def test_invert_elliptic_linear_csv(capsys):
    code, out, _ = run(capsys, "invert", "elliptic", "--m", "0", "--p", "0.3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "root,iterations,converged,reason"
    root, iters, conv, reason = lines[1].split(",")
    assert float(root) == 0.47123889803846897
    assert conv == "true"


def test_formats_round_trip(capsys):
    args = ("invert", "gamma", "--a", "5", "--p", "0.25")
    _, table_out, _ = run(capsys, *args)
    _, csv_out, _ = run(capsys, *args, "--format", "csv")
    _, json_out, _ = run(capsys, *args, "--format", "json")
    payload = json.loads(json_out)
    csv_root = float(csv_out.strip().splitlines()[1].split(",")[0])
    # json and csv carry the same double; the table shows its 12-digit form
    assert payload["root"] == csv_root
    assert f"{payload['root']:.12g}" in table_out


def test_json_keys_exact(capsys):
    _, out, _ = run(capsys, "invert", "gamma", "--a", "2", "--p", "0.5",
                    "--format", "json")
    payload = json.loads(out)
    assert set(payload.keys()) == {"root", "iterations", "evaluations",
                                   "converged", "reason", "variable",
                                   "start", "root_underflow", "predicted_error",
                                   "trace"}
    assert (payload["variable"], payload["start"], payload["root_underflow"]) \
        == ("log", "asymptotic", False)
    assert payload["trace"] == []
    assert payload["evaluations"] == payload["iterations"] + 1
    assert payload["converged"] is True
    # The start is one SNM step from the root in log x; the evaluation
    # after it meets the residual stop, so no error is predicted.
    assert payload["reason"] == "ResidualTol"
    assert payload["predicted_error"] == 0.0


def test_json_reports_a_root_of_one_unflagged(capsys):
    # 1 - x ~ 1e-21 is below 2^-54, so the root prints as 1: exact in x to
    # 1e-16 relative, so not flagged.
    code, out, _ = run(capsys, "invert", "beta", "--a", "5", "--b", "0.1",
                       "--p", "0.99", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["root"], payload["start"], payload["root_underflow"]) \
        == (1.0, "series", False)


def test_trace_row_count_matches_iterations(capsys):
    _, out, _ = run(capsys, "invert", "gamma", "--a", "5", "--p", "0.25",
                    "--format", "json", "--trace")
    payload = json.loads(out)
    assert len(payload["trace"]) == payload["iterations"]
    _, csv_out, _ = run(capsys, "invert", "gamma", "--a", "5", "--p", "0.25",
                        "--format", "csv", "--trace")
    rows = csv_out.strip().splitlines()
    assert rows[0] == "n,x,f,h,omega,step,fallback_used"
    assert len(rows) - 1 == payload["iterations"]


def test_invert_table_trace(capsys):
    code, out, _ = run(capsys, "invert", "gamma", "--a", "5", "--p", "0.25",
                       "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if l.strip().startswith("n "))
    payload_rows = lines[header_idx + 1:]
    iters = int(next(l for l in lines if l.startswith("iterations")).split()[1])
    assert len(payload_rows) == iters


def test_compare_respects_common_start(capsys):
    _, out1, _ = run(capsys, "compare", "gamma", "--a", "5", "--p", "0.5",
                     "--methods", "snm", "--format", "json", "--x0", "20")
    _, out2, _ = run(capsys, "compare", "gamma", "--a", "5", "--p", "0.5",
                     "--methods", "snm", "--format", "json")
    far = json.loads(out1)["rows"][0]
    near = json.loads(out2)["rows"][0]
    assert far["iterations"] >= near["iterations"]
    assert far["final_residual"] <= 1e-13


# compare --x0 rows in the log/logit variables; the last case inverts the
# upper side of its root from the a >= 1 >= b upper-bound start.  CHANGES.md
# records each re-pin.
COMPARE_X0_ROWS = {
    ("gamma", "--a", "0.5", "--p", "0.3", "--x0", "0.2"): [
        {"method": "snm", "iterations": 2, "final_residual": 1.6653345369377348e-16,
         "errors": [0.0003391717306616554, 5.770384170489251e-14]},
        {"method": "halley", "iterations": 3, "final_residual": 1.6653345369377348e-16,
         "errors": [0.0025564621435088114, 7.96967384031344e-08, 8.326672684688674e-17]}],
    ("beta", "--a", "0.5", "--b", "3", "--p", "0.2", "--x0", "0.05"): [
        {"method": "snm", "iterations": 2, "final_residual": 0.0,
         "errors": [0.00018427585718350237, 6.794686341349276e-13]},
        {"method": "halley", "iterations": 3, "final_residual": 1.942890293094024e-16,
         "errors": [0.0012043826670882878, 2.8323875304880897e-07, 1.0408340855860843e-17]}],
    ("beta", "--a", "3", "--b", "0.5", "--p", "0.2", "--x0", "0.9"): [
        {"method": "snm", "iterations": 2, "final_residual": 1.6653345369377348e-16,
         "errors": [0.003423150059983504, 4.895617244926598e-10]},
        {"method": "halley", "iterations": 4, "final_residual": 1.6653345369377348e-16,
         "errors": [0.016429662373150467, 1.5355945221728895e-05, 1.2434497875801753e-14,
                    1.1102230246251565e-16]}],
}


def test_compare_x0_in_solver_variable_leaves_args_untouched(capsys):
    parser = build_parser()
    for argv, expected in COMPARE_X0_ROWS.items():
        args = parser.parse_args(["compare", *argv, "--format", "json"])
        before = vars(args).copy()
        assert cmd_compare(parser, args) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == expected, argv
        assert vars(args) == before, argv


# Commands with their exact exit status: 0 on convergence, 1 on a solver
# failure, 2 on a usage error.  Any other exception fails the test.
EXIT_STATUS = [
    # The README "Command line" examples.
    ("invert gamma --a 2 --p 0.5", 0),
    ("invert beta --a 2 --b 3 --p 0.3 --trace", 0),
    ("invert elliptic --m 0.5 --p 0.5 --format json", 0),
    ("compare gamma --a 5 --p 0.5 --methods snm,halley,newton", 0),
    ("osculate gamma --a 30 --p 0.5 --x0 31 --range 15:50 --samples 200 --format csv", 0),
    ("osculate tan --x0 1.0 --range=-1.4:1.4 --samples 29 --curves function,snm", 0),
    # A tiny root (1.3e-21) and one that underflows, so no oracle root.
    ("compare beta --a 0.1 --b 5 --p 0.01", 0),
    ("compare gamma --a 1e-3 --p 0.3", 1),
    # The beta continued fraction does not converge: a KernelError.
    ("invert beta --a 0.5 --b 1e308 --p 0.5", 1),
    ("invert beta --a 5 --b 0.1 --p 0.99 --format json", 0),
    # An anchor where x^2 underflows and Omega is infinite.
    ("osculate gamma --a 0.5 --p 0.3 --x0 1e-300 --range 0:1 --samples 3", 1),
    ("invert gamma --a 1 --p 0.5 --format json", 0),
    # An upper-tail oracle (q - Q) and the Stirling beta prefactor (a, b >= 16).
    ("compare gamma --a 5 --p 0.9999999999 --oracle", 0),
    ("compare beta --a 40 --b 60 --p 0.3", 0),
    # m near 1, where E(1, m) takes the most AGM levels.
    ("invert elliptic --m 0.999999999999 --p 0.999 --format json", 0),
    ("compare elliptic --m 0.999999 --p 0.999999 --oracle", 0),
    # The gamma start at a large shape and in an upper tail.
    ("invert gamma --a 1e4 --p 1e-15 --format json", 0),
    ("compare gamma --a 200 --p 0.999999999999 --oracle", 0),
    # All three methods from a start near a 6.1e-14 root: a relative step
    # stop, and the bisection oracle at a root that small.
    ("compare gamma --a 1.024624177225431 --p 2.8504124359267774e-14 --x0 2.9e-13"
     " --oracle --methods snm,halley,newton", 0),
    # Tails given alone through --p (1e-300 and 1e-20) and through --q.
    ("compare beta --a 1.5 --b 3 --p 1e-300 --oracle", 0),
    ("invert gamma --a 2 --p 1e-20 --format json", 0),
    # The elliptic complementary start in the m -> 1, p -> 1 corner, and a
    # modulus on the switch between the AGM and the k' series of E(1, m).
    ("invert elliptic --m 0.999999 --p 0.9995 --format json", 0),
    ("compare elliptic --m 0.9999 --p 0.999 --oracle", 0),
    ("invert elliptic --m 0.975 --p 0.9", 0),
    ("invert gamma --a 2 --q 1e-20 --format json", 0),
    ("invert beta --a 1.5 --b 3 --q 1e-300", 0),
    # The elliptic oracle in x (p <= 1/2) and in the complementary amplitude.
    ("compare elliptic --m 0.5 --p 0.3 --oracle", 0),
    ("compare elliptic --m 0.999999999999 --p 0.9999999999 --oracle --format json", 0),
    # A tiny modulus and p, where the high start cancels to 0 or below and
    # the low start is taken; the oracle's root is 2.6e-137.
    ("invert elliptic --m 7.083934405581968e-10 --p 1.644471410137576e-137", 0),
    ("compare elliptic --m 7.083934405581968e-10 --p 1.644471410137576e-137 --oracle", 0),
    # A subnormal modulus, where sqrt(2)/m overflows: both starts are p E(1, m).
    ("invert elliptic --m 1e-310 --p 0.3", 0),
    ("compare elliptic --m 1e-310 --p 0.3", 0),
    # Usage errors: a missing or out-of-range flag, an unknown problem.
    ("invert gamma --a 2", 2),
    ("invert beta --a 2 --p 0.5", 2),
    ("invert gamma --a 2 --p 1.5", 2),
    ("invert cauchy --p 0.5", 2),
    # --x0 outside the domain, in x or in the solver variable.
    ("compare gamma --a 0.5 --p 0.3 --x0 0", 2),
    ("compare beta --a 0.5 --b 3 --p 0.3 --x0 1", 2),
    ("compare beta --a 2 --b 3 --p 0.3 --x0 1.5", 2),
    ("compare elliptic --m 0.5 --p 0.3 --x0 2", 2),
    # m = 0 and m = 1 invert in closed form: there is nothing to compare or
    # osculate.
    ("compare elliptic --m 0 --p 0.3", 2),
    ("compare elliptic --m 1 --p 0.3", 2),
    ("osculate elliptic --m 0 --p 0.3 --x0 0.5 --range 0:1.5 --samples 4", 2),
    # The step stop is the solver's: there is no tolerance flag.
    ("invert gamma --a 2 --p 0.3 --tol 1e-9", 2),
    ("compare gamma --a 2 --p 0.3 --tol 1e-9", 2),
    # An iteration cap below 1, and no method named.
    ("invert gamma --a 2 --p 0.3 --max-iter 0", 2),
    ("compare gamma --a 2 --p 0.3 --max-iter 0", 2),
    ("compare gamma --a 2 --p 0.3 --methods ,", 2),
    # An unknown curve, and a range that is not increasing.
    ("osculate gamma --a 2 --p 0.5 --x0 1 --range 0:2 --curves function,bogus", 2),
    ("osculate gamma --a 2 --p 0.5 --x0 1 --range 2:1", 2),
]


@pytest.mark.parametrize("command, status", EXIT_STATUS,
                         ids=[command.replace(" ", "_") for command, _ in EXIT_STATUS])
def test_exit_status(capsys, command, status):
    try:
        code = main(command.split())
    except SystemExit as exc:  # parser.error
        code = exc.code
    assert code == status
    if status == 2:  # a usage error is found before anything is printed
        assert capsys.readouterr().out == ""


def test_the_module_entry_point_exits_with_main_status(capsys):
    argv = ["invert", "gamma", "--a", "0.5", "--p", "0.5", "--max-iter", "1"]
    src = os.path.dirname(os.path.dirname(snm.__file__))
    done = subprocess.run([sys.executable, "-m", "snm.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


# The exact stdout of one command per output path that the other tests read
# only in part: compare in csv and as a table, invert --trace rows in csv and
# in the table, and the osculate table.
OUTPUT = {
    "compare gamma --a 5 --p 0.5 --methods snm,halley,newton --format csv --oracle": (
        "# oracle_root,4.670908882795981\n"
        "method,iterations,final_residual,iter_errors\n"
        "snm,0,1.1102230246251565e-16,\n"
        "halley,2,4.4408920985006262e-16,2.1138646388862981e-13;0\n"
        "newton,2,4.4408920985006262e-16,1.1417897738397187e-09;0\n"
    ),
    "compare beta --a 2 --b 3 --p 0.3 --oracle": (
        "oracle_root 0.272383942075\n"
        "method   iters   final_residual  per-iteration error\n"
        "snm          1 4.4408920985e-16  1.67e-16\n"
        "halley       2                0  9.55e-12 0\n"
    ),
    "invert gamma --a 5 --p 0.25 --format csv --trace --method halley": (
        "n,x,f,h,omega,step,fallback_used\n"
        "1,1.2144458325277825,-3.2058528366907257e-05,-5.1509835182334598e-05,"
        "-2.3497211532465863,5.1509835182317332e-05,false\n"
        "2,1.2144973423629648,-6.6613381477509392e-14,-1.0702612729263245e-13,"
        "-2.3496663681471111,1.0702549957386509e-13,false\n"
    ),
    "invert beta --a 2 --b 3 --p 0.3 --trace --method newton": (
        "root        0.272383942075\n"
        "iterations  2\n"
        "converged   true\n"
        "reason      ResidualTol\n"
        "variable    logit\n"
        "start       asymptotic\n"
        "underflow   false\n"
        "predicted   0\n"
        "  n                   x                   f                   h"
        "               omega                step fb\n"
        "  1     -0.983184110887  -0.000213699912332  -0.000623217462586"
        "     -0.597320450337   0.000623341522388 -\n"
        "  2     -0.982560769364   4.25317671637e-08   1.24011607628e-07"
        "     -0.597263928204  -1.24011602765e-07 -\n"
    ),
    "osculate elliptic --m 0.5 --p 0.3 --x0 0.5 --range 0:1.5 --samples 4": (
        "                  x            function                 snm"
        "              halley              newton\n"
        "                  0                   0   -0.00065105103323"
        "   -0.00435174202274    0.00957977617505\n"
        "                0.5      0.495001703016      0.495001703016"
        "      0.495001703016      0.495001703016\n"
        "                  1      0.964876454269      0.963937213663"
        "      0.967248366813      0.980423629858\n"
        "                1.5       1.40613374098       1.39003225105"
        "        1.4145371121        1.4658455567\n"
    ),
}


@pytest.mark.parametrize("command", OUTPUT, ids=lambda command: command.replace(" ", "_"))
def test_output_is_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == OUTPUT[command]


@pytest.mark.parametrize("argv, query", [
    (("gamma", "--a", "2", "--q", "1e-20"), GammaQuantileQuery(2.0, 1.0, 1e-20)),
    (("beta", "--a", "1.5", "--b", "3", "--q", "1e-300"),
     BetaQuantileQuery(1.5, 3.0, 1.0, 1e-300)),
    (("gamma", "--a", "0.5", "--q", "1e-100"), GammaQuantileQuery(0.5, 1.0, 1e-100)),
])
def test_invert_an_upper_tail_given_alone(capsys, argv, query):
    # p = 1 - q rounds to 1.0, which --p cannot say: --q alone gives the
    # query the tail itself, as the query classes take it.
    code, out, _ = run(capsys, "invert", *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    solver = invert_gamma if isinstance(query, GammaQuantileQuery) else invert_beta
    assert payload["converged"] is True
    assert payload["root"] == solver(query).root


def test_invert_takes_p_and_q_together(capsys):
    _, alone, _ = run(capsys, "invert", "gamma", "--a", "3", "--p", "0.25", "--format", "json")
    code, both, _ = run(capsys, "invert", "gamma", "--a", "3", "--p", "0.25", "--q", "0.75",
                        "--format", "json")
    assert code == 0
    assert json.loads(both)["root"] == json.loads(alone)["root"]


def test_compare_an_upper_tail_given_alone(capsys):
    code, out, _ = run(capsys, "compare", "gamma", "--a", "2", "--q", "1e-20",
                       "--format", "json", "--oracle")
    assert code == 0
    root = invert_gamma(GammaQuantileQuery(2.0, 1.0, 1e-20)).root
    assert abs(json.loads(out)["oracle_root"] - root) <= 1e-12 * root


@pytest.mark.parametrize("argv", [
    ["invert", "gamma", "--a", "2", "--p", "0.3", "--q", "0.6"],  # p + q != 1
    ["invert", "gamma", "--a", "2", "--q", "0"],                  # q out of range
    ["invert", "elliptic", "--m", "0.5", "--q", "0.3"],           # no upper tail
    ["compare", "elliptic", "--m", "0.5", "--p", "0.5", "--q", "0.5"],
    ["osculate", "gamma", "--a", "2", "--q", "0.5", "--x0", "1", "--range", "0:2"],
])
def test_q_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_a_missing_tail_names_both_flags(capsys):
    with pytest.raises(SystemExit):
        main(["invert", "gamma", "--a", "2"])
    assert "gamma requires --p or --q" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # osculate takes no --q
        main(["osculate", "gamma", "--a", "2", "--x0", "1", "--range", "0:2"])
    assert capsys.readouterr().err.rstrip().endswith("gamma requires --p")


def test_solver_failure_exit_one(capsys):
    # An a < 1 solve at a central p runs in log x from the lower bound x_l,
    # past the series start's reach, so it needs more than one iteration
    # (from the series or an asymptotic start one evaluation can end it).
    code, _, err = run(capsys, "invert", "gamma", "--a", "0.5", "--p", "0.5",
                       "--max-iter", "1")
    assert code == 1
    assert "MaxIter" in err


@pytest.mark.parametrize("command", ["invert", "compare"])
def test_typed_solver_error_is_one_line_exit_one(capsys, command):
    # The beta continued fraction raises KernelError at this shape; the
    # CLI reports it on one stderr line instead of a traceback.
    code, out, err = run(capsys, command, "beta", "--a", "0.5", "--b", "1e308",
                         "--p", "0.5")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"{command}: KernelError: ")


def test_compare_orders_methods(capsys):
    code, out, _ = run(capsys, "compare", "gamma", "--a", "5", "--p", "0.5",
                       "--methods", "snm,halley,newton", "--format", "json")
    assert code == 0
    rows = {r["method"]: r for r in json.loads(out)["rows"]}
    assert rows["snm"]["iterations"] <= rows["halley"]["iterations"]
    assert rows["halley"]["iterations"] <= rows["newton"]["iterations"]
    assert rows["snm"]["final_residual"] <= 1e-13
    # error columns resolve per iteration
    assert len(rows["snm"]["errors"]) == rows["snm"]["iterations"]


def test_compare_gamma_exactness_one_iteration(capsys):
    _, out, _ = run(capsys, "compare", "gamma", "--a", "1", "--p", "0.4",
                    "--methods", "snm", "--format", "json")
    rows = json.loads(out)["rows"]
    # Omega is constant at a = 1 in x, not in the plan's log x: one step
    # is counted, and the second, predicted, is applied without the
    # evaluation that would count it.  (In x the step is exact and
    # uncounted: test_gamma.test_exactness_counts_one_iteration_at_a_one.)
    # The predicted stop in z is relative to x: the root is 2 ulps off
    # -log(0.6), a residual of 2^-52.
    assert rows[0]["iterations"] == 1
    assert rows[0]["final_residual"] <= 2.0 ** -52


def test_compare_elliptic_two_iterations(capsys):
    _, out, _ = run(capsys, "compare", "elliptic", "--m", "0.6", "--p", "0.5",
                    "--methods", "snm", "--format", "json")
    rows = json.loads(out)["rows"]
    # Two steps: the second is predicted and applied uncounted.
    assert rows[0]["iterations"] == 1
    assert rows[0]["final_residual"] <= 2e-16


def test_compare_oracle_flag(capsys):
    _, out, _ = run(capsys, "compare", "gamma", "--a", "2", "--p", "0.5",
                    "--methods", "snm", "--format", "json", "--oracle")
    payload = json.loads(out)
    assert payload["oracle_root"] == pytest.approx(1.6783469900166605, rel=1e-12)
    _, out, _ = run(capsys, "compare", "gamma", "--a", "2", "--p", "0.5",
                    "--methods", "snm", "--format", "json")
    assert "oracle_root" not in json.loads(out)


def test_compare_oracle_outside_the_default_bracket(capsys):
    # The root 1.33e-21 lies far below 1e-12; the oracle bisects in logit
    # x, which is log x there, so it resolves the root relative to its size.
    argv = ("beta", "--a", "0.1", "--b", "5", "--p", "0.01")
    _, out, _ = run(capsys, "invert", *argv, "--format", "json")
    root = json.loads(out)["root"]
    code, out, _ = run(capsys, "compare", *argv, "--format", "json", "--oracle")
    assert code == 0
    assert json.loads(out)["oracle_root"] == pytest.approx(root, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("argv", [
    ("gamma", "--a", "5", "--p", "0.9999999999"),
    ("beta", "--a", "3", "--b", "4", "--p", "0.99999999999"),
    ("beta", "--a", "0.01", "--b", "1", "--p", "0.6"),
    ("beta", "--a", "2", "--b", "1000", "--p", "0.99999999"),
    ("beta", "--a", "1.5", "--b", "3", "--q", "1e-300"),  # the root rounds to 1
])
def test_compare_oracle_resolves_an_upper_tail(capsys, argv):
    # P - p cannot resolve q = 1e-10 (gamma) or 1e-11 (beta): the oracle
    # solves q - Q instead, as the solvers do, so it agrees with invert.
    # Beta takes 1 - I from the kernel's pair at x: I_x - p cannot resolve
    # q = 1e-8 at the root 0.0213 either, and the mirror I_(1-x)(b, a)
    # reads 1 where 1 - x rounds to 1 (the root 0.6^100 = 6.5e-23).  In
    # logit x the oracle also reaches a root where x rounds to 1 (q = 1e-300).
    _, out, _ = run(capsys, "invert", *argv, "--format", "json")
    root = json.loads(out)["root"]
    code, out, _ = run(capsys, "compare", *argv, "--format", "json", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_root"] == pytest.approx(root, rel=1e-12, abs=0.0)


def test_compare_oracle_resolves_a_tiny_root(capsys):
    # Bisection in x to 1e-15 absolute put this 6.09e-14 root 1.5e-3 off;
    # down to adjacent doubles, from a bracket a fixed ratio wide, it is
    # relative at any size.
    a, p = 1.024624177225431, 2.8504124359267774e-14
    code, out, _ = run(capsys, "compare", "gamma", "--a", repr(a), "--p", repr(p),
                       "--format", "json", "--oracle")
    assert code == 0
    root = invert_gamma(GammaQuantileQuery(a, p)).root
    assert abs(json.loads(out)["oracle_root"] - root) <= 1e-12 * root


def test_compare_oracle_resolves_the_elliptic_corner(capsys):
    # With 1 - m and 1 - p both small, E(sin x, m) - p E(1, m) cancels two
    # values near 1, and a bisection of it is 8.75e-11 off here; the
    # complementary amplitude's residual does not cancel.
    mpmath = pytest.importorskip("mpmath")
    m, p = 0.999999999999, 0.9999999999
    code, out, _ = run(capsys, "compare", "elliptic", "--m", repr(m), "--p", repr(p),
                       "--oracle", "--format", "json")
    assert code == 0
    oracle = json.loads(out)["oracle_root"]
    with mpmath.workdps(40):
        m2 = mpmath.mpf(m) ** 2
        target = mpmath.mpf(p) * mpmath.ellipe(m2)
        exact = mpmath.findroot(lambda x: mpmath.ellipe(x, m2) - target, mpmath.mpf(oracle))
        assert abs(oracle - exact) <= 1e-12


# For m > 0.95 and p > 1/2 compare forms the residual from (1 - p) E(1, m)
# - C(pi/2 - x), as the solver does: E(sin x, m) - p E(1, m) cancels two
# values near E(1, m): it read 1.6e-15 here, where the residual is 7.8e-20.
_CANCELLING = ("compare", "elliptic", "--m", "0.9999999", "--p", "0.999999",
               "--methods", "snm", "--format", "json")


def test_compare_elliptic_residual_does_not_cancel(capsys):
    _, out, _ = run(capsys, *_CANCELLING)
    assert json.loads(out)["rows"][0]["final_residual"] <= 1e-18


def test_compare_elliptic_residual_against_mpmath(capsys):
    # Within 1e-20 of |E(sin x, m) - p E(1, m)| at 40 digits, x the root.
    mpmath = pytest.importorskip("mpmath")
    m, p = 0.9999999, 0.999999
    _, out, _ = run(capsys, *_CANCELLING)
    got = json.loads(out)["rows"][0]["final_residual"]
    root = snm.invert_ellip_e(snm.EllipticQuery(m, p)).root
    with mpmath.workdps(40):
        m2 = mpmath.mpf(m) ** 2
        exact = abs(mpmath.ellipe(mpmath.mpf(root), m2) - mpmath.mpf(p) * mpmath.ellipe(m2))
        assert abs(got - exact) <= 1e-20, (got, exact)


def test_compare_without_an_oracle_root_exits_one(capsys):
    # The root underflows (invert reports root_underflow): no positive
    # double brackets it, so compare says so on one line and exits 1.
    code, out, err = run(capsys, "compare", "gamma", "--a", "1e-3", "--p", "0.3")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "no sign change" in err


def test_compare_rejects_unknown_method(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "gamma", "--a", "2", "--p", "0.5",
              "--methods", "snm,bisection"])
    assert exc.value.code == 2


def test_osculate_gamma_figure_data(capsys):
    code, out, _ = run(capsys, "osculate", "gamma", "--a", "30", "--p", "0.5",
                       "--x0", "31", "--range", "15:50", "--samples", "200",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,function,snm,halley,newton"
    assert len(lines) == 201
    sum_err = {"snm": 0.0, "halley": 0.0, "newton": 0.0}
    for line in lines[1:]:
        x_s, f_s, s_s, h_s, n_s = line.split(",")
        if not f_s:
            continue
        truth = float(f_s)
        sum_err["snm"] += abs(float(s_s) - truth) if s_s else 10.0
        sum_err["halley"] += abs(float(h_s) - truth) if h_s else 10.0
        sum_err["newton"] += abs(float(n_s) - truth) if n_s else 10.0
    assert sum_err["snm"] < sum_err["halley"]
    assert sum_err["snm"] < sum_err["newton"]


def test_osculate_tan_model_coincides(capsys):
    code, out, _ = run(capsys, "osculate", "tan", "--x0", "0.8",
                       "--range=-0.6:1.4", "--samples", "41",
                       "--curves", "function,snm", "--format", "csv")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, f_s, s_s = line.split(",")
        if f_s and s_s:
            assert abs(float(s_s) - float(f_s)) <= 1e-12 * max(1.0, abs(float(f_s)))


def test_osculate_emits_empty_cells_at_poles(capsys):
    # Samples more than pi/2 from the anchor leave the model's branch:
    # cells go empty, the run still succeeds.
    code, out, _ = run(capsys, "osculate", "tan", "--x0", "1.0",
                       "--range=-1.4:1.4", "--samples", "29",
                       "--curves", "snm", "--format", "csv")
    assert code == 0
    cells = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert any(c == "" for c in cells)
    assert any(c != "" for c in cells)


def test_osculate_newton_is_tangent(capsys):
    _, out, _ = run(capsys, "osculate", "gamma", "--a", "30", "--p", "0.5",
                    "--x0", "31", "--range", "29:33", "--samples", "5",
                    "--curves", "function,newton", "--format", "json")
    payload = json.loads(out)
    rows = {row[0]: row for row in payload["rows"]}
    # value matches at the anchor
    assert rows[31.0][2] == pytest.approx(rows[31.0][1], abs=1e-12)
    # slope matches the CDF derivative there
    from snm.special import gamma_density
    slope = (rows[32.0][2] - rows[30.0][2]) / 2.0
    assert slope == pytest.approx(gamma_density(30.0, 31.0), rel=1e-12)


def test_osculate_json_nulls(capsys):
    _, out, _ = run(capsys, "osculate", "tan", "--x0", "1.0",
                    "--range=-1.4:1.4", "--samples", "15",
                    "--curves", "snm", "--format", "json")
    payload = json.loads(out)
    assert payload["columns"] == ["x", "snm"]
    assert any(row[1] is None for row in payload["rows"])


def test_osculate_where_omega_is_infinite_is_a_solver_failure(capsys):
    # At x0 = 1e-300, x^2 underflows and Omega is +inf for a = 0.5: one
    # line on stderr and exit 1, not a traceback.
    code, out, err = run(capsys, "osculate", "gamma", "--a", "0.5", "--p", "0.3",
                         "--x0", "1e-300", "--range", "0:1", "--samples", "3")
    assert code == 1 and out == ""
    assert err.startswith("osculate: OmegaNotFiniteError:") and err.count("\n") == 1


def test_osculate_usage_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["osculate", "gamma", "--a", "30", "--p", "0.5", "--x0", "31",
              "--range", "15-50", "--samples", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["osculate", "gamma", "--a", "30", "--p", "0.5", "--x0", "31",
              "--range", "15:50", "--samples", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["osculate", "gamma", "--a", "30", "--p", "0.5", "--x0", "-3",
              "--range", "15:50", "--samples", "10"])
    assert exc.value.code == 2
    # An infinite end would put nan or inf in every row.
    for rng in ("0:inf", "-inf:1", "0:nan"):
        with pytest.raises(SystemExit) as exc:
            main(["osculate", "gamma", "--a", "2", "--p", "0.5", "--x0", "1",
                  "--range", rng, "--samples", "3"])
        assert exc.value.code == 2, rng
    # No command takes a tolerance; osculate runs no solve, so it has no
    # iteration cap either.
    for extra in (["--tol", "1e-9"], ["--max-iter", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["osculate", "tan", "--x0", "1", "--range=-1:1", "--samples", "3"]
                 + extra)
        assert exc.value.code == 2, extra
