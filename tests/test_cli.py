import hashlib
import json
import re
import warnings
from pathlib import PurePosixPath

import numpy as np
import pytest

from transdirac import cli, index_engine, sphere_model, torus_model, verification
from transdirac.cli import Records, main, parse_g_spec, render_json
from transdirac.sphere_model import LOWER, MAX_BLOCKS, RadialODE, reduction_gaps


def as_dicts(records):
    return [dict(zip(records.keys, row)) for row in zip(*records.lists())]


class _Float:
    def __init__(self, value):
        self.text = format(float(value), ".17g")


def _wrap_floats(obj):
    if isinstance(obj, dict):
        return {key: _wrap_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_wrap_floats(value) for value in obj]
    return _Float(obj) if isinstance(obj, (float, np.floating)) else obj


def stdlib_json(obj):
    """json.dumps(obj, indent=2) and a newline, with non-ASCII kept, numpy
    scalars as their Python values and every float written "%.17g" as
    render_json writes it (json.dumps writes repr: -0.0, 5e-324)."""
    floats = []

    def default(value):
        if isinstance(value, _Float):
            floats.append(value.text)
            return "@float%d@" % (len(floats) - 1)
        return value.item()

    text = json.dumps(_wrap_floats(obj), indent=2, ensure_ascii=False, default=default)
    return re.sub(r'"@float(\d+)@"', lambda match: floats[int(match.group(1))], text) + "\n"


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


def test_compare_quotient_passes_at_large_frame_weights(capsys):
    # a float comparison of r failed its 1e-12 gate from |n| = 128 on
    code, out = run_cli(capsys, "compare-quotient", "--n-max", "2000", "--m-max", "2")
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["max_discrepancy"] < 1e-12
    assert len(report["blocks"]) == 4001 * 5


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


def test_failing_verdict_still_writes_the_whole_document(tmp_path, capsys, monkeypatch):
    # no residual lies below 0, and the blocks' gaps of about 4.5e-16 lie above 1e-300
    monkeypatch.setattr(sphere_model, "RESIDUAL_TOL", 0.0)
    out_file = tmp_path / "report.json"
    for argv, keys, rows in (
            (["sphere-kernel", "--n", "2", "--m", "3"], ["schema_version", "n", "m",
              "dim_ker_plus", "dim_ker_minus", "index", "sections"], ("sections", 4)),
            (["compare-quotient", "--n-max", "1", "--m-max", "1", "--tol", "1e-300"],
             ["schema_version", "tol", "max_discrepancy", "passed", "blocks"], ("blocks", 9))):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "", argv
        report = json.loads(captured.out)
        assert list(report) == keys and len(report[rows[0]]) == rows[1], argv
        assert report.get("passed", False) is False
        assert main(argv + ["--out", str(out_file)]) == 1
        assert capsys.readouterr() == ("", "")
        assert out_file.read_text() == captured.out


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
    # strong the warping; g = 820 sin 8y vanishes on the 16-point grid, but
    # e^{+-g} leaves float64 at some of the points where the frame's
    # orthonormality is checked; warnings are errors here
    aliased = ["--g-coeffs", "0;0,0,0,0,0,0,0,820;"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for warping, n_points, mode in ((["--g", "10sin"], 64, 0), (["--g", "10sin"], 128, 0),
                                        (["--g", "30sin"], 256, 0), (["--g", "400sin"], 512, 0),
                                        (["--g", "700sin"], 16, 1 - 2 ** 63), (aliased, 16, 0)):
            code, out = run_cli(capsys, "torus-spectrum", "--op", "DL", *warping,
                                "--N", str(n_points), "--mode", str(mode))
            assert code == 0, warping
            ev = np.array(json.loads(out)["eigenvalues"])
            assert np.max(np.abs(ev - np.arange(1 - n_points // 2, n_points // 2 + 1))) < 1e-12
        for warping, n_points in ((["--g", "10sin"], 64), (["--g", "400sin"], 64), (aliased, 16)):
            code, out = run_cli(capsys, "torus-spectrum", "--op", "DQ", *warping,
                                "--mode", "3", "--N", str(n_points))
            assert code == 0, warping
            assert len(json.loads(out)["eigenvalues"]) == n_points


def test_non_circulant_dl_matrix_exits_one(capsys, monkeypatch):
    # the spectrum is read off the circulant symbols only; a D_L matrix that
    # is not exactly circulant ends in the structured error, not a dense solve
    real = torus_model.discretize_hermitian

    def perturbed(op, grid):
        dense = real(op, grid)
        dense[3, 3] += 1e-9
        return dense

    monkeypatch.setattr(torus_model, "discretize_hermitian", perturbed)
    code = main(["torus-spectrum", "--op", "DL", "--g", "0.3sin", "--N", "64"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "matrix is not block-circulant: block (3, 3) differs from block (0, 0)")


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


def test_numeric_labels_beyond_the_bound_exit_one(capsys):
    # past MAX_LABEL the oracle's slope bias can snap to a wrong integer: at
    # (84103, -84103) it gave dimensions (0, 0) with exit 0, where the closed
    # form gives (1, 0); every command that runs the oracle refuses the block
    error = ("block (84103, -84103) is past the oracle's label bound |n|, |m| <= "
             "MAX_LABEL = %d" % index_engine.MAX_LABEL)
    block = ["--n-min", "84103", "--n-max", "84103", "--m-min", "-84103", "--m-max", "-84103"]
    for argv in (["sphere-index", *block, "--method", "numeric"],
                 ["sphere-index", *block, "--method", "both"],
                 ["sphere-kernel", "--n", "84103", "--m", "-84103"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", argv
        assert json.loads(captured.err) == {"schema_version": 1, "error": error}, argv
    code, out = run_cli(capsys, "sphere-index", *block)
    assert code == 0 and json.loads(out)["blocks"][0]["dim_ker_plus"] == 1


@pytest.mark.parametrize("option", ["--eps", "--steps"])
def test_oracle_settings_are_not_options(capsys, option):
    # the oracle has one setting, so the CLI takes none: a usage error
    with pytest.raises(SystemExit) as info:
        main(["sphere-index", "--n-min", "0", "--n-max", "1", "--m-min", "0", "--m-max", "1",
              "--method", "numeric", option, "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: %s 1" % option in capsys.readouterr().err


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
    # the blocks are columnar Records; json.dumps needs them as a list of dicts
    stdlib = json.dumps(reports[0], indent=2, default=as_dicts) + "\n"
    texts = (out, render_json(reports[0]), stdlib)
    # lengths and digests first, and the byte equality bound to a name: pytest
    # would otherwise diff two 1.5 MB strings with difflib, which takes minutes
    assert len({len(text) for text in texts}) == 1
    assert len({hashlib.sha256(text.encode()).hexdigest() for text in texts}) == 1
    identical = texts[0] == texts[1] == texts[2]
    assert identical


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


class _Label(int):
    pass


@pytest.mark.parametrize("value, text", [
    # an int subclass and numpy integers other than int64
    (_Label(-7), "-7"), (np.int32(-5), "-5"), (np.uint64(2 ** 64 - 1), "18446744073709551615"),
    (np.int8(-128), "-128"),
    # any other object: its str, as a JSON string
    (PurePosixPath('a/"b'), '"a/\\"b"'), (1 + 2j, '"(1+2j)"'),
])
def test_render_json_falls_back_by_isinstance(value, text):
    assert render_json(value) == text + "\n"
    assert render_json({"x": value}) == '{\n  "x": %s\n}\n' % text
    assert render_json([{}, value]) == "[\n  {},\n  %s\n]\n" % text


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
    # more than three parts, and malformed numbers, are named by their option
    for shorthand, coeffs, option in (("", "0;0.3;0.1;9", "--g-coeffs"), ("", "a", "--g-coeffs"),
                                      ("", "0;0.3,x", "--g-coeffs"), ("", ";1", "--g-coeffs"),
                                      ("sin", "", "--g"), ("0.1cos,xsin", "", "--g"),
                                      ("0.3tan", "", "--g")):
        with pytest.raises(ValueError, match="^" + option + ": "):
            parse_g_spec(shorthand, coeffs)


def test_negative_leading_warping_coefficient(capsys):
    # argparse takes "-0.3sin" after a space for an option; after "=" it is the value
    for flag, coeffs in (("--g=-0.3sin", [0.0, [-0.3], []]),
                         ("--g-coeffs=-0.5;0.3;", [-0.5, [0.3], []])):
        code, out = run_cli(capsys, "torus-spectrum", "--op", "DQ", "--N", "16", "--mode", "1",
                            flag)
        assert code == 0 and json.loads(out)["g_coeffs"] == coeffs, flag
    with pytest.raises(SystemExit) as info:
        main(["torus-spectrum", "--op", "DQ", "--N", "16", "--g", "-0.3sin"])
    assert info.value.code == 2
    assert "argument --g: expected one argument" in capsys.readouterr().err


def test_extra_g_coeffs_part_exits_one(capsys):
    code = main(["torus-spectrum", "--op", "DQ", "--N", "16", "--mode", "1",
                 "--g-coeffs", "0;0.3;0.1;9"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "--g-coeffs" in json.loads(captured.err)["error"]


# SHA-256 of each command's stdout at commit 29b4c54, where every block was a dict
TABLE_DIGESTS = (
    (["sphere-index", "--n-min", "-5", "--n-max", "5", "--m-min", "-6", "--m-max", "6",
      "--method", "both"], "e4b98893a88468a388ef39cfc83a0daf0826529e42c6faed3300bd6b6769f140"),
    (["sphere-index", "--n-min", "-10", "--n-max", "10", "--m-min", "-10", "--m-max", "10",
      "--method", "numeric"], "8fb4a40a4a9f233e0f89b0e1c7c926257405b61b5d7ff74f754527127d8e5724"),
    (CLOSED_50 + ["--format", "csv"],
     "e8cbd9823663ace86ffa7a54b57970d94bb3940ebe172af1d01e1f8614ddd9e6"),
)


def test_index_table_bytes_pinned(capsys):
    for argv, digest in TABLE_DIGESTS:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_closed_table_beyond_int64(capsys):
    # the bytes at commit 29b4c54; int64 labels would wrap under -|n| here
    big = 2 ** 63
    code, out = run_cli(capsys, "sphere-index", "--n-min", str(big), "--n-max", str(big + 1),
                        "--m-min", "-1", "--m-max", "1", "--format", "csv")
    assert code == 0
    assert out == "n,m,dim_ker_plus,dim_ker_minus,index,method\n" + "".join(
        "%d,%d,0,0,0,closed\n" % (n, m) for n in (big, big + 1) for m in (-1, 0, 1))
    code, out = run_cli(capsys, "sphere-index", "--n-min", str(-big), "--n-max", str(-big),
                        "--m-min", str(big - 1), "--m-max", str(big), "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["-9223372036854775808,9223372036854775807,0,0,0,closed",
                                    "-9223372036854775808,9223372036854775808,0,1,-1,closed"]
    code, out = run_cli(capsys, "sphere-index", "--n-min", str(-10 ** 20), "--n-max",
                        str(-10 ** 20), "--m-min", str(-10 ** 20 - 1), "--m-max", str(-10 ** 20))
    assert code == 0
    block = '''    {
      "n": -100000000000000000000,
      "m": %s,
      "dim_ker_plus": 1,
      "dim_ker_minus": 0,
      "index": 1,
      "method": "closed"
    }'''
    blocks = (block % "-100000000000000000001", block % "-100000000000000000000")
    assert out == ('{\n  "schema_version": 1,\n  "method": "closed",\n  "blocks": [\n%s,\n%s\n'
                   '  ]\n}\n' % blocks)


# SHA-256 of each stdout at commit 6064946, where the label columns were lists
# of Python ints; 2**63 - 1 fits int64 and 2**63 does not, so both columns
# hold Python ints
BEYOND_INT64 = ["sphere-index", "--n-min", str(2 ** 63 - 1), "--n-max", str(2 ** 63),
                "--m-min", "-1", "--m-max", "0"]
BEYOND_INT64_DIGESTS = (
    (BEYOND_INT64, "3252749095948da723d8d10062c86ff7f00d33b35e51ea0dba08f076083a6984"),
    (BEYOND_INT64 + ["--format", "csv"],
     "47a03832a2b02eaf096693fb5d7d5caa395d1aedb07cc8e502d82f29f7d52ea6"),
)


def test_table_beyond_int64_bytes_pinned(capsys):
    for argv, digest in BEYOND_INT64_DIGESTS:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_route_disagreement_exits_one(capsys, monkeypatch):
    real = index_engine.index_numerical

    def flip(n, m):
        res = dict(real(n, m))
        res["d_minus"] = 1 - res["d_minus"]
        return res

    monkeypatch.setattr(index_engine, "index_numerical", flip)
    code = main(["sphere-index", "--n-min", "-1", "--n-max", "1", "--m-min", "0", "--m-max", "1",
                 "--method", "both"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"].startswith("route disagreement at (-1, 0): ")


# the checks that a mutant of the reductions can fail, each by its exit code
REDUCTION_CHECKS = {
    "residual": ["verify", "--suite", "residual"],
    "clutching": ["verify", "--suite", "clutching"],
    "quotient suite": ["verify", "--suite", "quotient"],
    "compare-quotient": ["compare-quotient", "--n-max", "2", "--m-max", "2"],
    "index": ["sphere-index", "--n-min", "-2", "--n-max", "2", "--m-min", "-3", "--m-max", "3",
              "--method", "both"],
}


def assert_failing_checks(capsys, checks, failing):
    for check in checks:
        assert main(REDUCTION_CHECKS[check]) == int(check in failing), check
        capsys.readouterr()


@pytest.mark.parametrize("signs", [(1, 1), (-1, 1)])
def test_chirality_sign_mutants_fail_the_checks(capsys, monkeypatch, signs):
    # the chirality signs are written once, in CHIRAL_SIGNS: a wrong sign on
    # either chirality fails the residual suite (through the sections), the
    # numeric route against the closed form and the quotient comparison
    # (through the reductions). The clutching suite cannot see it: on the
    # equator sin(phi) = 1 and cos(phi) = 0, so the signed powers drop out
    monkeypatch.setattr(sphere_model, "CHIRAL_SIGNS", np.array(signs))
    assert_failing_checks(capsys, ("residual", "index", "compare-quotient", "clutching"),
                          {"residual", "index", "compare-quotient"})


# the lower chart's row of a reduction's (chart, chirality) table: 1 there, 0 on the upper
ON_LOWER = (np.array(sphere_model.CHARTS) == LOWER)[:, None]

# reduce_block's RadialODE is the one closed form that the residual, the
# clutching suite and compare-quotient read: (name, the edit to a block's
# (p, q), the checks the edit must fail). Only the quotient sees m apart from
# n, and only the clutching factor e^{2 i n theta} relates the charts
REDUCTION_MUTANTS = [
    # the lower sections no longer solve the PDE, their theta weight leaves
    # the upper one's, and the quotient's (p, q) differs
    ("p + 1 on the lower chart", lambda ode: RadialODE(ode.p + ON_LOWER, ode.q),
     {"residual", "clutching", "compare-quotient"}),
    # the residual cannot see it: the lower sections become those of block
    # (n, m - 1) for '+' and (n, m + 1) for '-', and the weight-n chart
    # operator annihilates the sections of every m
    ("q + 1 on the lower chart", lambda ode: RadialODE(ode.p, ode.q + ON_LOWER),
     {"clutching", "compare-quotient"}),
    # neither can see it: on both charts the sections are those of block
    # (n, -m), which solve the same weight-n PDE and clutch by the same e^{2 i n theta}
    ("sign flip of q", lambda ode: RadialODE(ode.p, -ode.q), {"compare-quotient"}),
    # the clutching suite cannot see it: both charts' theta weights move by
    # the same +-1, which the gap psi_1 - e^{2 i n theta} psi_2 cancels, and at
    # phi = pi / 2 the powers of sin and 1 + cos drop out
    ("p + 1 on both charts", lambda ode: RadialODE(ode.p + 1, ode.q),
     {"residual", "compare-quotient"}),
]


@pytest.mark.parametrize("edit, failing", [row[1:] for row in REDUCTION_MUTANTS],
                         ids=[row[0] for row in REDUCTION_MUTANTS])
def test_reduction_mutants_fail_exactly_their_checks(capsys, monkeypatch, edit, failing):
    real = sphere_model.reduce_block

    def mutant(n, m):
        return edit(real(n, m))

    monkeypatch.setattr(sphere_model, "reduce_block", mutant)
    monkeypatch.setattr(verification, "reduce_block", mutant)
    assert_failing_checks(capsys, ("residual", "clutching", "compare-quotient"), failing)


# a wrong chart sign in CHART_SIGNS, and the checks it must fail. Neither
# quotient check can see one: the comparison reads k = n_eff - m and p =
# +-n_eff off the same n_eff, and the quotient relates p to k and m alone
CHART_SIGN_MUTANTS = [
    # the lower sections keep n: they solve the weight -n equation, their
    # theta weight is the upper one's, which e^{2 i n theta} does not match,
    # and the numeric route counts '+' as regular when n - m >= 0 alone
    ((1, 1), {"residual", "clutching", "index"}),
    # the charts swap their weights: the index counts a chirality when it is
    # regular on both charts, which does not depend on their order
    ((-1, 1), {"residual", "clutching"}),
]


@pytest.mark.parametrize("signs, failing", CHART_SIGN_MUTANTS,
                         ids=[str(row[0]) for row in CHART_SIGN_MUTANTS])
def test_chart_sign_mutants_fail_exactly_their_checks(capsys, monkeypatch, signs, failing):
    monkeypatch.setattr(sphere_model, "CHART_SIGNS", np.array(signs))
    assert_failing_checks(capsys, REDUCTION_CHECKS, failing)


def test_allocation_failure_exits_one_with_the_json_error(capsys, monkeypatch):
    # numpy's "Unable to allocate" error is a MemoryError: main reports it as
    # the JSON error, with no traceback
    def spectrum_DL(geom, mode, n_points):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(torus_model, "spectrum_DL", spectrum_DL)
    code = main(["torus-spectrum", "--op", "DL", "--N", "65536"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {"schema_version": 1,
                                        "error": "Unable to allocate 64.0 GiB for an array"}


def test_compare_quotient_records_match_dict_blocks(capsys):
    # the bytes of the report rendered with a dict per block, as at commit 29b4c54
    code, out = run_cli(capsys, "compare-quotient", "--n-max", "6", "--m-max", "3")
    columns = [column.tolist() for column in reduction_gaps(6, 3)]
    report = {"schema_version": 1, "tol": 1e-12, "max_discrepancy": max(columns[2]),
              "passed": True, "blocks": [{"n": n, "m": m, "discrepancy": gap}
                                         for n, m, gap in zip(*columns)]}
    assert code == 0 and out == render_json(report)


def test_render_records_matches_stdlib_layout():
    keys = ("n", 'k"%s\\', "nested", "mixed", "flags", "x", "int64", "uint8", "bool_",
            "huge", "zeros%n")
    columns = ([1, 2, 3], np.array([0.5, -2.25, 0.125]), [{"a": [1, {}]}, [], (2, "t")],
               [np.int64(4), None, 5], np.array([True, False, True]), ["a", "é", "%d"],
               np.array([-7, -2 ** 63, -7]), np.array([255, 0, 255], dtype=np.uint8),
               np.array([np.False_, np.False_, np.True_], dtype=np.bool_),
               np.array([2 ** 64, -2 ** 70, 2 ** 64], dtype=object),
               np.array([-0.0, 5e-324, -0.0]))
    records = Records(keys, columns)
    expected = [dict(zip(keys, row)) for row in zip(*(list(c) for c in columns))]
    assert len(records) == 3 and as_dicts(records) == expected
    one_row = Records(keys, [column[1:2] for column in columns])
    for obj, plain in ((records, expected), (one_row, expected[1:2]),
                       ({"r": records, "e": Records(("a",), ([],))}, {"r": expected, "e": []}),
                       ([Records(("a",), (np.arange(2),))], [[{"a": 0}, {"a": 1}]])):
        assert render_json(obj) == stdlib_json(plain)
    # a list of dicts that do not share their keys takes the generic path
    ragged = [{"a": 1}, {"b": [2.5]}, {}, {"a": None, "c": {"d": "e"}}]
    assert render_json({"blocks": ragged}) == stdlib_json({"blocks": ragged})
    for column in ([1.0, float("inf")], np.array([np.nan]), [1, np.float64(-np.inf)]):
        with pytest.raises(ValueError):
            render_json(Records(("x",), (column,)))
    with pytest.raises(ValueError):
        Records(("a", "b"), ([1], [1, 2]))


def test_render_column_formats_repeated_values_per_value():
    # each distinct value is formatted once: the bytes are those of
    # formatting every value on its own
    columns = ([3, -1, 3, 0, -1, 2 ** 70, 2 ** 70], [np.int64(-5), np.int64(7), np.int64(-5)],
               [True, False, True, True], [np.True_, np.False_, np.True_],
               ["closed", "both", "closed", 'q"\\n', 'q"\\n'], [None, None])
    # integer and bool arrays: spans shorter than the column (int8 values
    # whose difference wraps in int8; uint64 above 2**63) and longer ones,
    # which are formatted like a list
    arrays = (np.array([-3, 2, -3, -3]), np.array([9, 0, 9], dtype=np.uint8),
              np.array([True, True, False]), np.array([True]), np.array([False, False]),
              np.arange(-100, 101, dtype=np.int8)[::-1], np.array([-2 ** 63, 2 ** 63 - 1, 5]),
              np.array([2 ** 64 - 1, 2 ** 64 - 3, 2 ** 64 - 1], dtype=np.uint64))
    prefix = ',\n    "n%s": '
    for values in columns + arrays:
        plain = [v.item() if isinstance(v, np.generic) else v for v in values]
        assert cli._render_column(values, "") == [json.dumps(v) for v in plain]
        assert cli._render_column(values, "", prefix) == [prefix + json.dumps(v) for v in plain]
    floats = [0.5, -0.0, 0.5]
    assert cli._render_column(floats, "", prefix) == [prefix + "0.5", prefix + "-0", prefix + "0.5"]
    table = Records(("n", "flag", "method"), ([1, 1, 2], np.array([True, True, False]),
                                               ["closed"] * 3))
    assert render_json(table) == json.dumps(as_dicts(table), indent=2) + "\n"


def test_equal_values_of_different_types_render_by_type():
    # 0 == False == 0.0 == -0.0, and a broadcast column holds one value however
    # long it is: each value renders as its own type, as json.dumps writes it
    mixed = [0, False, 0.0, -0.0]
    one = lambda value, rows: np.broadcast_to(np.array(value), rows)
    cases = [
        (Records(("x",), (mixed,)), [{"x": value} for value in mixed]),
        ({"x": mixed, "y": [False, 0, {"z": -0.0}, [0.0]]},
         {"x": mixed, "y": [False, 0, {"z": -0.0}, [0.0]]}),
        (Records(("method",), (one("closed", 3),)), [{"method": "closed"}] * 3),
        (Records(("method",), (["closed"] * 3,)), [{"method": "closed"}] * 3),
        (Records(("a", "b", "c"), (one(0, 2), one(False, 2), one(-0.0, 2))),
         [{"a": 0, "b": False, "c": -0.0}] * 2),
        (Records(("n", "m", "method"), (np.array([2 ** 62]), [False], one('q"\\n', 1))),
         [{"n": 2 ** 62, "m": False, "method": 'q"\\n'}]),
        (Records(("n", "method"), (np.array([], dtype=np.int64), one("closed", 0))), []),
    ]
    for obj, plain in cases:
        assert render_json(obj) == stdlib_json(plain)
    with pytest.raises(ValueError, match="^cannot render the non-finite value nan as JSON$"):
        render_json(Records(("x",), (one(float("nan"), 3),)))


def test_render_column_keeps_both_zero_spellings():
    # 0.0 == -0.0, so a float column is not rendered once per distinct value
    assert cli._render_column([0.0, -0.0, 0.0, -0.0], "") == ["0", "-0", "0", "-0"]
    assert cli._render_column(np.array([-0.0, 0.0]).tolist(), "") == ["-0", "0"]
    for column in ([0.0, float("nan"), 0.0], [float("nan")] * 3):
        with pytest.raises(ValueError):
            render_json(Records(("x",), (column,)))


def test_float_lists_and_columns_render_like_per_value_format():
    floats = [-0.0, 5e-324, 1e308, -1e308, 1e300, 0.1, 1.0 / 3.0, -2.5e-300, 1e16, 2.0 ** 53 + 2]
    per_value = [format(v, ".17g") for v in floats]
    assert cli._render_column(floats, "") == per_value
    assert render_json(floats) == "[\n  %s\n]\n" % ",\n  ".join(per_value)
    assert render_json(Records(("x",), (np.array(floats),))) == (
        "[\n%s\n]\n" % ",\n".join('  {\n    "x": %s\n  }' % v for v in per_value))
    mixed = [1, 2.5, -0.0, 3, 5e-324, 1e308, 0]
    expected = [str(v) if type(v) is int else format(v, ".17g") for v in mixed]
    assert cli._render_column(mixed, "") == expected
    assert render_json({"x": mixed}) == '{\n  "x": [\n    %s\n  ]\n}\n' % ",\n    ".join(expected)


def test_non_finite_floats_keep_their_message():
    # the first non-finite value is named, in a list and in a Records column
    inf, nan = float("inf"), float("nan")
    for values, named in (([1.0, inf], "inf"), ([nan, 0.5], "nan"), ([0.0, -inf, nan], "-inf"),
                          ([1, 2.5, nan], "nan")):
        message = "cannot render the non-finite value %s as JSON" % named
        for obj in ({"x": values}, Records(("x",), (values,)),
                    Records(("n%s",), (np.array(values, dtype=float),))):
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                render_json(obj)


@pytest.mark.parametrize("suite", verification.SUITES + ("all",))
def test_verify_negative_seed_exits_one(capsys, suite):
    # checked before any suite runs: numpy's generators would reject it
    # without naming the option, and the unseeded suites ignore it
    code = main(["verify", "--suite", suite, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {"schema_version": 1,
                                        "error": "seed = -1 must be non-negative"}


def test_verify_trials_beyond_the_bound_exit_one(capsys, monkeypatch):
    # checked before any suite runs: a billion trials would take about a day
    ran = []
    for name in ("clifford", "connection"):
        def suite(trials, seed, name=name):
            ran.append((name, trials))
            return {"suite": name, "passed": True, "checks": []}

        monkeypatch.setattr(verification, "suite_" + name, suite)
    bound = verification.MAX_TRIALS
    for suite, trials in (("all", bound + 1), ("connection", bound + 1), ("clifford", 10 ** 9)):
        code = main(["verify", "--suite", suite, "--trials", str(trials)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and ran == []
        assert json.loads(captured.err) == {
            "schema_version": 1, "error": "trials = %d must lie in [1, %d]" % (trials, bound)}
    assert main(["verify", "--suite", "connection", "--trials", str(bound)]) == 0
    assert ran == [("connection", bound)]
