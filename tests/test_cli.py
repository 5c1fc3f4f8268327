"""CLI integration: grammar, formats, exit codes, osculating output."""

import json
import math

import pytest

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
    for line in ("variable    direct", "flipped     false", "start       asymptotic",
                 "underflow   false"):
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
                                   "converged", "reason", "variable", "flipped",
                                   "start", "root_underflow", "trace"}
    assert (payload["variable"], payload["flipped"], payload["start"],
            payload["root_underflow"]) == ("direct", False, "asymptotic", False)
    assert payload["trace"] == []
    assert payload["evaluations"] >= payload["iterations"] + 1
    assert payload["converged"] is True
    assert payload["reason"] == "ResidualTol" or payload["reason"] == "StepTol"


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


# compare --x0 rows in the log/logit variables, pinned to the values the
# solvers gave before they prepared plans; the last case is a flipped query.
COMPARE_X0_ROWS = {
    ("gamma", "--a", "0.5", "--p", "0.3", "--x0", "0.2"): [
        {"method": "snm", "iterations": 3, "final_residual": 2.220446049250313e-16,
         "errors": [0.00033917173066180806, 5.785649737077847e-14, 6.938893903907228e-17]},
        {"method": "halley", "iterations": 3, "final_residual": 2.220446049250313e-16,
         "errors": [0.0025564621435086587, 7.969673825047874e-08, 6.938893903907228e-17]}],
    ("beta", "--a", "0.5", "--b", "3", "--p", "0.2", "--x0", "0.05"): [
        {"method": "snm", "iterations": 3, "final_residual": 8.326672684688674e-17,
         "errors": [0.00018427585718359257, 6.795605744791544e-13, 8.153200337090993e-17]},
        {"method": "halley", "iterations": 3, "final_residual": 8.326672684688674e-17,
         "errors": [0.0012043826670882062, 2.832387529568686e-07, 9.194034422677078e-17]}],
    ("beta", "--a", "3", "--b", "0.5", "--p", "0.2", "--x0", "0.9"): [
        {"method": "snm", "iterations": 3, "final_residual": 5.551115123125783e-17,
         "errors": [0.003423150059983615, 4.895623906264746e-10, 3.3306690738754696e-16]},
        {"method": "halley", "iterations": 4, "final_residual": 5.551115123125783e-17,
         "errors": [0.01642966237315069, 1.5355945221839917e-05, 1.2878587085651816e-14,
                    7.771561172376096e-16]}],
}


def test_compare_x0_in_solver_variable_leaves_args_untouched(capsys):
    parser = build_parser()
    for argv, expected in COMPARE_X0_ROWS.items():
        args = parser.parse_args(["compare", *argv, "--format", "json"])
        before = vars(args).copy()
        assert cmd_compare(parser, args) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == expected, argv
        assert vars(args) == before, argv


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "gamma", "--a", "2"])  # missing --p
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["invert", "beta", "--a", "2", "--p", "0.5"])  # missing --b
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["invert", "gamma", "--a", "2", "--p", "1.5"])  # p out of range
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["invert", "cauchy", "--p", "0.5"])  # unknown problem
    assert exc.value.code == 2
    for argv in (
        # --x0 outside the domain, in x or in the solver variable
        ["compare", "gamma", "--a", "0.5", "--p", "0.3", "--x0", "0"],
        ["compare", "beta", "--a", "0.5", "--b", "3", "--p", "0.3", "--x0", "1"],
        ["compare", "beta", "--a", "2", "--b", "3", "--p", "0.3", "--x0", "1.5"],
        ["compare", "elliptic", "--m", "0.5", "--p", "0.3", "--x0", "2"],
        # options that SolveOptions refuses
        ["invert", "gamma", "--a", "2", "--p", "0.3", "--tol", "0"],
        ["invert", "gamma", "--a", "2", "--p", "0.3", "--tol", "nan"],
        ["invert", "gamma", "--a", "2.5", "--p", "0.3", "--tol", "inf"],
        ["invert", "gamma", "--a", "2", "--p", "0.3", "--max-iter", "0"],
        ["compare", "gamma", "--a", "2", "--p", "0.3", "--max-iter", "0"],
        # no method named
        ["compare", "gamma", "--a", "2", "--p", "0.3", "--methods", ","],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["compare", "gamma", "--a", "2", "--p", "0.3", "--methods", ","])
    assert capsys.readouterr().out == ""


def test_solver_failure_exit_one(capsys):
    code, _, err = run(capsys, "invert", "gamma", "--a", "5", "--p", "0.5",
                       "--max-iter", "1")
    assert code == 1
    assert "MaxIter" in err


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
    assert rows[0]["iterations"] == 1


def test_compare_elliptic_two_iterations(capsys):
    _, out, _ = run(capsys, "compare", "elliptic", "--m", "0.6", "--p", "0.5",
                    "--methods", "snm", "--format", "json", "--tol", "1e-14")
    rows = json.loads(out)["rows"]
    assert rows[0]["iterations"] == 2


def test_compare_oracle_flag(capsys):
    _, out, _ = run(capsys, "compare", "gamma", "--a", "2", "--p", "0.5",
                    "--methods", "snm", "--format", "json", "--oracle")
    payload = json.loads(out)
    assert payload["oracle_root"] == pytest.approx(1.6783469900166605, rel=1e-12)
    _, out, _ = run(capsys, "compare", "gamma", "--a", "2", "--p", "0.5",
                    "--methods", "snm", "--format", "json")
    assert "oracle_root" not in json.loads(out)


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
    # osculate runs no solve, so it has no tolerance or iteration cap.
    for extra in (["--tol", "1e-9"], ["--max-iter", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["osculate", "tan", "--x0", "1", "--range=-1:1", "--samples", "3"]
                 + extra)
        assert exc.value.code == 2, extra
