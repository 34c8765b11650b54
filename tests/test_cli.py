import hashlib
import json
import warnings

import numpy as np
import pytest

from transdirac import cli
from transdirac.cli import main, parse_g_spec, render_json
from transdirac.sphere_model import MAX_BLOCKS


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
    for op in ("DQ", "DL"):
        code = main(["torus-spectrum", "--op", op, "--g-coeffs", "inf;1", "--mode", "3",
                     "--N", "64"])
        captured = capsys.readouterr()
        assert code == 1, op
        assert captured.out == ""
        assert "not finite" in json.loads(captured.err)["error"]


def test_extreme_warping_errors_without_warnings(capsys):
    # warnings are errors here: main would let one escape as an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in ("DQ", "DL"):
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


def test_strong_warping_spectra_without_warnings(capsys):
    # w'/w = g' is exact, so D_L stays Hermitian with integer spectrum however
    # strong the warping; warnings are errors here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g, n_points in (("10sin", 64), ("10sin", 128), ("30sin", 256), ("400sin", 512)):
            code, out = run_cli(capsys, "torus-spectrum", "--op", "DL", "--g", g,
                                "--N", str(n_points))
            assert code == 0, g
            ev = np.array(json.loads(out)["eigenvalues"])
            assert np.max(np.abs(ev - np.arange(1 - n_points // 2, n_points // 2 + 1))) < 1e-12
        code, out = run_cli(capsys, "torus-spectrum", "--op", "DQ", "--g", "400sin",
                            "--mode", "3", "--N", "64")
        assert code == 0
        assert len(json.loads(out)["eigenvalues"]) == 64


def test_dq_band_overflow_exits_one_without_warnings(capsys):
    # at g = 700sin the band |mode| e^{-g} peaks at |mode| e^{700}, which
    # leaves float64 from |mode| = 17725 on; warnings are errors here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("1000000", "17725", "-17725"):
            code = main(["torus-spectrum", "--op", "DQ", "--g", "700sin", "--N", "16",
                         "--mode", mode])
            captured = capsys.readouterr()
            assert code == 1, mode
            assert captured.out == ""
            error = json.loads(captured.err)["error"]
            assert "--mode = %s overflows" % mode in error, error
            assert "max |g| on the grid is 700" in error and "singular" not in error
        for mode in ("17724", "-17724"):
            code, out = run_cli(capsys, "torus-spectrum", "--op", "DQ", "--g", "700sin",
                                "--N", "16", "--mode", mode)
            assert code == 0, mode
            ev = np.array(json.loads(out)["eigenvalues"])
            assert np.all(np.isfinite(ev)) and np.max(np.abs(ev)) > 1e308


def test_block_ranges_beyond_the_bound_exit_one(capsys):
    # each would build its blocks one by one: 2**63 - 1 of them, or 2e9 + 1
    for argv in (["compare-quotient", "--n-max", str(2 ** 62 - 1), "--m-max", "0"],
                 ["sphere-index", "--n-min", "-1000000000", "--n-max", "1000000000",
                  "--m-min", "0", "--m-max", "0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert "more than the %d allowed" % MAX_BLOCKS in json.loads(captured.err)["error"]


def test_large_weight_kernel_sections_pass_without_warnings(capsys):
    # the residual uses the sections' exact log-derivatives, so neither large
    # weights nor sin(phi)^{-403} near the pole disturb it; warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, m in ((5, 3), (8, 1), (6, -6), (60, 3), (400, 3), (-400, 17)):
            code, out = run_cli(capsys, "sphere-kernel", "--n", str(n), "--m", str(m))
            assert code == 0, (n, m)
            for section in json.loads(out)["sections"]:
                assert section["indicial_exponent"] == section["estimated_exponent"]
                assert section["pde_residual"] < 1e-11, (n, m)


def test_vacuous_checks_exit_one(capsys):
    for argv in (["verify", "--suite", "all", "--trials", "0"],
                 ["verify", "--suite", "connection", "--trials", "-3"],
                 ["compare-quotient", "--n-max", "-1"],
                 ["compare-quotient", "--m-max", "-1"],
                 ["compare-quotient", "--tol", "inf"],
                 ["compare-quotient", "--tol", "nan"],
                 ["verify", "--suite", "quotient", "--tol", "inf"],
                 ["verify", "--suite", "residual", "--tol", "-1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert json.loads(captured.err)["error"], argv


def test_huge_integer_labels_exit_one(capsys):
    huge = str(10 ** 400)
    for argv in (["sphere-kernel", "--n", huge, "--m", "3"],
                 ["torus-spectrum", "--op", "DQ", "--N", "64", "--mode", huge],
                 ["torus-spectrum", "--op", "DQ", "--N", "32", "--mode", huge],
                 ["torus-spectrum", "--op", "DL", "--N", "32", "--mode", "-" + huge],
                 ["torus-spectrum", "--op", "DQ", "--N", "32", "--mode", str(2 ** 63)],
                 ["sphere-index", "--n-min", "0", "--n-max", huge, "--m-min", "0", "--m-max", "0"],
                 ["sphere-kernel", "--n", str(2 ** 53), "--m", "0"],
                 ["sphere-kernel", "--n", str(2 ** 62), "--m", str(-2 ** 62)],
                 ["sphere-index", "--n-min", str(2 ** 63), "--n-max", str(2 ** 63),
                  "--m-min", "0", "--m-max", "0", "--method", "both"],
                 ["compare-quotient", "--n-max", str(2 ** 62), "--m-max", "0"],
                 ["compare-quotient", "--n-max", str(2 ** 63), "--m-max", "0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error, argv
        if argv[0] == "torus-spectrum":
            assert "--mode" in error and "|mode| < 2**63" in error, argv


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
    for bad in (float("inf"), float("nan"), np.float64(-np.inf)):
        with pytest.raises(ValueError):
            render_json({"x": [bad]})


# a dict in a list in a dict, empty containers, a tuple, np.int64, and
# strings that need escaping
NESTED = {
    "outer": [1, {"inner": {"deep": [True, None, "s"]}, "empty_dict": {}, "empty_list": []}],
    "empty_dict": {},
    "empty_list": [],
    "tuple": (1, "two", False, ()),
    "np_int": np.int64(-7),
    "text": 'quote " backslash \\ newline \n tab \t bell \x07',
    'key "quoted" \\ \n': "non-ASCII stays: \u00fc \u03c6",
}

CLOSED_50 = ["sphere-index", "--n-min", "-50", "--n-max", "50", "--m-min", "-50",
             "--m-max", "50", "--method", "closed"]


def test_render_json_matches_stdlib_layout():
    # np.int64 is the one value json.dumps needs help with
    expected = json.dumps(NESTED, indent=2, ensure_ascii=False, default=int) + "\n"
    assert render_json(NESTED) == expected


def test_render_json_closed_table_matches_stdlib_layout(capsys, monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "render_json", lambda obj: reports.append(obj) or render_json(obj))
    code, out = run_cli(capsys, *CLOSED_50)
    assert code == 0 and len(reports) == 1
    assert len(reports[0]["blocks"]) == 101 * 101
    assert out == render_json(reports[0]) == json.dumps(reports[0], indent=2) + "\n"


def test_render_json_closed_table_bytes_pinned(capsys):
    # SHA-256 of this command's stdout at commit 1437c34, rendered by the
    # isinstance-chain renderer that the type-dispatched one replaced
    _, out = run_cli(capsys, *CLOSED_50)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "9318f68182d463da0444b9dde90f4304c9210a409ac35c6a8e1370076471ae31"


def test_render_json_round_trips_numpy_scalars():
    obj = dict(NESTED, floats=[np.float64(0.1), 1.0 / 3.0, np.float64(-2.5e-300), -0.0],
               flags=[np.True_, np.False_, True])
    expected = json.loads(json.dumps(obj, default=lambda value: value.item()))
    assert json.loads(render_json(obj)) == expected


def test_render_json_numpy_bool():
    assert render_json({"a": np.True_, "b": [np.False_]}) == \
        '{\n  "a": true,\n  "b": [\n    false\n  ]\n}\n'


def test_render_json_escapes_strings_and_keys():
    for obj in ({"c": "x\ny"}, {'k"q': 1}, {"k\\": "\x00\x1f"}, {"\t": ["\r"]}):
        assert json.loads(render_json(obj)) == obj
    assert render_json({'k"q': "a\\b\n"}) == '{\n  "k\\"q": "a\\\\b\\n"\n}\n'
    # no escaping needed: the bytes of the plain quoting
    assert render_json(["plain", "\u00e9t\u00e9"]) == '[\n  "plain",\n  "\u00e9t\u00e9"\n]\n'


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
