import json
import warnings

import numpy as np
import pytest

from transdirac.cli import main, parse_g_spec, render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_torus_spectrum_dl(capsys):
    code, out = run_cli(capsys, "torus-spectrum", "--op", "DL",
                        "--g", "0.3sin", "--N", "64", "--mode", "0")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["op"] == "DL" and report["N"] == 64
    ev = np.array(report["eigenvalues"])
    assert len(ev) == 64
    assert np.max(np.abs(ev - np.round(ev))) < 1e-6


def test_torus_spectrum_dq(capsys):
    code, out = run_cli(capsys, "torus-spectrum", "--op", "DQ",
                        "--g", "0.3sin", "--N", "128", "--mode", "2")
    assert code == 0
    ev = np.array(json.loads(out)["eigenvalues"])
    assert ev.min() >= 2 * np.exp(-0.3) - 1e-12
    assert ev.max() <= 2 * np.exp(0.3) + 1e-12


def test_sphere_index_both_routes(capsys):
    code, out = run_cli(capsys, "sphere-index", "--n-min", "-5", "--n-max", "5",
                        "--m-min", "-6", "--m-max", "6", "--method", "both")
    assert code == 0
    report = json.loads(out)
    assert len(report["blocks"]) == 143
    totals = {(b["n"], b["m"]): b["index"] for b in report["blocks"]}
    assert totals[(2, 3)] == -1 and totals[(0, 0)] == 0 and totals[(2, -2)] == 1


def test_sphere_index_csv(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _ = run_cli(capsys, "sphere-index", "--n-min", "0", "--n-max", "1",
                      "--m-min", "0", "--m-max", "1", "--format", "csv",
                      "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "n,m,dim_ker_plus,dim_ker_minus,index,method"
    assert len(lines) == 5


def test_sphere_kernel(capsys):
    code, out = run_cli(capsys, "sphere-kernel", "--n", "2", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["index"] == -1
    assert len(report["sections"]) == 4
    for section in report["sections"]:
        assert section["indicial_exponent"] == section["estimated_exponent"]
        assert section["pde_residual"] < 1e-6


def test_compare_quotient(capsys):
    code, out = run_cli(capsys, "compare-quotient", "--n-max", "2", "--m-max", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_discrepancy"] < 1e-12
    assert len(report["blocks"]) == 25


def test_verify_suites_pass(capsys):
    for suite in ("clifford", "connection", "clutching", "quotient"):
        code, out = run_cli(capsys, "verify", "--suite", suite,
                            "--trials", "20", "--seed", "7")
        assert code == 0, suite
        assert json.loads(out)["passed"] is True


def test_verify_failing_tolerance_exits_one(capsys):
    # machine-readable failure report with exit code 1
    code, out = run_cli(capsys, "verify", "--suite", "quotient", "--tol", "1e-30")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert any(not c["passed"] for c in report["checks"])


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["torus-spectrum", "--op", "bogus", "--N", "64"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_invalid_parameters_exit_one(capsys):
    code, _ = run_cli(capsys, "torus-spectrum", "--op", "DL", "--N", "15")
    assert code == 1
    code, _ = run_cli(capsys, "sphere-index", "--n-min", "2", "--n-max", "1",
                      "--m-min", "0", "--m-max", "0")
    assert code == 1


def test_non_finite_warping_exits_one(capsys):
    # e^{+-400} overflows the discretized log-weight derivative to NaN
    for op in ("DQ", "DL"):
        code = main(["torus-spectrum", "--op", op, "--g", "400sin", "--mode", "3", "--N", "64"])
        captured = capsys.readouterr()
        assert code == 1, op
        assert captured.out == ""
        assert "non-finite" in json.loads(captured.err)["error"]


def test_extreme_warping_errors_without_warnings(capsys):
    # warnings are errors here: main would let one escape as an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in ("DQ", "DL"):
            code = main(["torus-spectrum", "--op", op, "--g", "400sin", "--N", "64"])
            captured = capsys.readouterr()
            assert code == 1, op
            assert captured.out == ""
            assert "non-finite" in json.loads(captured.err)["error"]
            # e^{800} overflows and e^{-800} underflows: rejected before the grid
            code = main(["torus-spectrum", "--op", op, "--g", "800sin", "--N", "64"])
            captured = capsys.readouterr()
            error = json.loads(captured.err)["error"]
            assert code == 1, op
            assert "overflows or underflows" in error and "quadrature" not in error
            code = main(["torus-spectrum", "--op", op, "--g", "nansin", "--N", "64"])
            captured = capsys.readouterr()
            assert code == 1, op
            assert "not finite" in json.loads(captured.err)["error"]


def test_overflowing_kernel_section_errors_without_warnings(capsys):
    # sin(phi)^{-403} overflows on the residual mesh; warnings are errors here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sphere-kernel", "--n", "400", "--m", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "non-finite PDE residual" in json.loads(captured.err)["error"]


def test_vacuous_checks_exit_one(capsys):
    for argv in (["verify", "--suite", "all", "--trials", "0"],
                 ["verify", "--suite", "connection", "--trials", "-3"],
                 ["compare-quotient", "--n-max", "-1"],
                 ["compare-quotient", "--m-max", "-1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert json.loads(captured.err)["error"], argv


def test_unwritable_out_exits_one(tmp_path, capsys):
    out_file = tmp_path / "missing" / "x.json"
    code = main(["torus-spectrum", "--op", "DL", "--N", "32", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "No such file" in json.loads(captured.err)["error"]
    assert not out_file.exists()


def test_deterministic_output(capsys):
    argv = ["verify", "--suite", "connection", "--trials", "30", "--seed", "11"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    argv = ["torus-spectrum", "--op", "DL", "--g", "0.3sin", "--N", "32", "--mode", "1"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_render_json_float_precision():
    text = render_json({"x": 1.0 / 3.0, "k": 5, "flag": True, "items": [1.5]})
    assert '"x": 0.33333333333333331' in text
    assert '"k": 5' in text
    assert '"flag": true' in text


def test_parse_g_spec():
    geom = parse_g_spec("0.3sin,0.1cos", "")
    assert geom.sin_coeffs == (0.3,) and geom.cos_coeffs == (0.1,)
    geom = parse_g_spec("", "0.2;0.3,0.4;")
    assert geom.const == 0.2 and geom.sin_coeffs == (0.3, 0.4)
    assert parse_g_spec("", "").coefficient_list() == [0.0, [], []]
    with pytest.raises(ValueError):
        parse_g_spec("0.3tan", "")
    with pytest.raises(ValueError):
        parse_g_spec("0.3sin", "0.1;;")
