"""Benchmark workloads: seeded argv lists for the transdirac CLI and the
independent reference checks their outputs must pass.

Only the standard library is used here, so argv generation is identical in
the driver process and in the worker, and needs no numpy.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = {
    "torus_spectra": (
        "dense eigensolve of D_L at N=64..512 dominates; diagonal D_Q bands at "
        "N=256..1024 feed the same solver a different kind of input"
    ),
    "index_sweep": (
        "log-ODE integration and exponent fitting over 143 and 441 blocks, plus a "
        "10201-block closed-form table that is mostly table building and JSON; no eigensolve"
    ),
    "verify_suites": (
        "per-point Python loops: PDE residual chart operator and per-block "
        "reduction comparison, plus frame and Clifford algebra; no eigensolve"
    ),
}

# The ten blocks covering every branch of the index formula and kernel table.
BRANCH_BLOCKS = (
    (0, 0), (2, 3), (3, 1), (1, 1), (1, -1),
    (2, -3), (0, 2), (0, -2), (2, 2), (3, -3),
)

DL_SIZES = (64, 128, 256, 512)
DQ_SIZES = (256, 512, 1024)
DQ_MODES = (1, 2, 3, 4)

DL_ABS_TOL = 1e-8
DQ_REL_TOL = 1e-10
KERNEL_RESIDUAL_TOL = 1e-6
VERIFY_SUITES = ("clifford", "connection", "clutching", "residual", "quotient")


# ---------------------------------------------------------------------------
# argv generation


def _warping(rng: random.Random):
    """1 to 3 harmonics; the coefficients' absolute sum (a bound on |g|) is
    drawn from [0.1, 1.0]."""
    harmonics = rng.randint(1, 3)
    amplitude = rng.uniform(0.1, 1.0)
    raw = [rng.uniform(-1.0, 1.0) for _ in range(2 * harmonics)]
    scale = amplitude / sum(abs(v) for v in raw)
    coeffs = [round(v * scale, 6) for v in raw]
    return coeffs[:harmonics], coeffs[harmonics:]


def _g_coeffs_arg(sins, coss) -> str:
    return "0;%s;%s" % (",".join(repr(v) for v in sins), ",".join(repr(v) for v in coss))


def _torus_spectra(rng: random.Random):
    argvs = []
    for n_points in DL_SIZES:
        argvs.append(["torus-spectrum", "--op", "DL", "--g-coeffs", _g_coeffs_arg(*_warping(rng)),
                      "--N", str(n_points), "--mode", str(rng.randint(-3, 3))])
    for mode in DQ_MODES:
        for n_points in DQ_SIZES:
            argvs.append(["torus-spectrum", "--op", "DQ", "--g-coeffs",
                          _g_coeffs_arg(*_warping(rng)), "--N", str(n_points), "--mode", str(mode)])
    return argvs


def _index_sweep(rng: random.Random):
    argvs = [
        ["sphere-index", "--n-min", "-5", "--n-max", "5", "--m-min", "-6", "--m-max", "6",
         "--method", "both"],
        ["sphere-index", "--n-min", "-10", "--n-max", "10", "--m-min", "-10", "--m-max", "10",
         "--method", "numeric"],
        ["sphere-index", "--n-min", "-50", "--n-max", "50", "--m-min", "-50", "--m-max", "50",
         "--method", "closed"],
    ]
    rng.shuffle(argvs)
    return argvs


def _verify_suites(rng: random.Random):
    argvs = [
        ["verify", "--suite", "all", "--trials", "100", "--seed", str(rng.randrange(2 ** 31))],
        ["compare-quotient", "--n-max", "6", "--m-max", "6"],
    ]
    blocks = list(BRANCH_BLOCKS)
    rng.shuffle(blocks)
    argvs += [["sphere-kernel", "--n", str(n), "--m", str(m)] for n, m in blocks]
    return argvs


_GENERATORS = {
    "torus_spectra": _torus_spectra,
    "index_sweep": _index_sweep,
    "verify_suites": _verify_suites,
}


def make_argvs(workload: str, seed: int) -> list:
    """The fixed list of CLI invocations of one workload instance."""
    if workload not in _GENERATORS:
        raise ValueError("unknown workload %r" % workload)
    return _GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))


# ---------------------------------------------------------------------------
# reference formulas, written independently of the package


def kernel_dims(n: int, m: int):
    """(dim ker+, dim ker-) of block (n, m): a chirality has kernel iff both
    hemisphere indicial exponents are >= 0; for '+' they are n - m and
    -n - m, for '-' their negatives."""
    return int(m <= -abs(n)), int(m >= abs(n))


def indicial_exponent(n: int, m: int, chart: str, chirality: str) -> int:
    n_chart = n if chart == "upper" else -n
    return n_chart - m if chirality == "+" else m - n_chart


def warping_values(sins, coss, n_points: int) -> list:
    ys = [2.0 * math.pi * j / n_points for j in range(n_points)]
    return [
        sum(a * math.sin(k * y) for k, a in enumerate(sins, start=1))
        + sum(b * math.cos(k * y) for k, b in enumerate(coss, start=1))
        for y in ys
    ]


def _parse_g_coeffs(text: str):
    const, sins, coss = text.split(";")
    parse = lambda part: [float(v) for v in part.split(",")] if part else []
    return float(const), parse(sins), parse(coss)


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is correct, else a reason


def _check_torus(opts: dict, report: dict):
    n_points, mode = int(opts["--N"]), int(opts["--mode"])
    const, sins, coss = _parse_g_coeffs(opts["--g-coeffs"])
    if (report.get("op"), report.get("N"), report.get("mode")) != (opts["--op"], n_points, mode):
        return "echoed op/N/mode differ from the request"
    if report.get("g_coeffs") != [const, sins, coss]:
        return "echoed warping coefficients differ from the request"
    eigs = report.get("eigenvalues")
    if not isinstance(eigs, list) or len(eigs) != n_points:
        return "expected %d eigenvalues" % n_points
    if opts["--op"] == "DL":
        expected = [float(k) for k in range(-n_points // 2 + 1, n_points // 2 + 1)]
        worst = max(abs(a - b) for a, b in zip(eigs, expected))
        if not worst <= DL_ABS_TOL:
            return "DL eigenvalues off the integers by %.3e" % worst
        return None
    expected = sorted(mode * math.exp(-(const + g)) for g in warping_values(sins, coss, n_points))
    worst = max(abs(a - b) / abs(b) for a, b in zip(eigs, expected))
    if not worst <= DQ_REL_TOL:
        return "DQ eigenvalues off n*exp(-g) by %.3e relative" % worst
    return None


def _check_index(opts: dict, report: dict):
    n_values = range(int(opts["--n-min"]), int(opts["--n-max"]) + 1)
    m_values = range(int(opts["--m-min"]), int(opts["--m-max"]) + 1)
    method = opts["--method"]
    if report.get("method") != method:
        return "echoed method differs"
    blocks = report.get("blocks")
    keys = [(n, m) for n in n_values for m in m_values]
    if not isinstance(blocks, list) or len(blocks) != len(keys):
        return "expected %d blocks" % len(keys)
    for (n, m), block in zip(keys, blocks):
        d_plus, d_minus = kernel_dims(n, m)
        expected = {"n": n, "m": m, "dim_ker_plus": d_plus, "dim_ker_minus": d_minus,
                    "index": d_plus - d_minus, "method": method}
        if block != expected:
            return "block (%d, %d) is %s, expected %s" % (n, m, block, expected)
    return None


def _check_verify(opts: dict, report: dict):
    if report.get("passed") is not True or report.get("suite") != "all":
        return "verify did not report passed"
    suites = report.get("suites", [])
    if [s.get("suite") for s in suites] != list(VERIFY_SUITES):
        return "verify ran suites %s" % [s.get("suite") for s in suites]
    for suite in suites:
        if suite.get("passed") is not True or not suite.get("checks"):
            return "suite %s did not pass" % suite.get("suite")
        for check in suite["checks"]:
            if check["passed"] is not True or not check["value"] <= check["tol"]:
                return "check %r failed: %r > %r" % (check["name"], check["value"], check["tol"])
    return None


def _check_quotient(opts: dict, report: dict):
    n_max, m_max = int(opts["--n-max"]), int(opts["--m-max"])
    blocks = report.get("blocks", [])
    if len(blocks) != (2 * n_max + 1) * (2 * m_max + 1):
        return "expected %d blocks" % ((2 * n_max + 1) * (2 * m_max + 1))
    worst = max(b["discrepancy"] for b in blocks)
    if report.get("passed") is not True or worst != report.get("max_discrepancy"):
        return "compare-quotient did not report passed"
    if not worst < report["tol"]:
        return "discrepancy %.3e above tol" % worst
    return None


def _check_kernel(opts: dict, report: dict):
    n, m = int(opts["--n"]), int(opts["--m"])
    d_plus, d_minus = kernel_dims(n, m)
    got = tuple(report.get(k) for k in ("n", "m", "dim_ker_plus", "dim_ker_minus", "index"))
    if got != (n, m, d_plus, d_minus, d_plus - d_minus):
        return "kernel dimensions %s differ from the index formula" % (got,)
    sections = report.get("sections", [])
    if len(sections) != 4:
        return "expected 4 sections"
    for sec in sections:
        k = indicial_exponent(n, m, sec["chart"], sec["chirality"])
        if sec["indicial_exponent"] != k or sec["estimated_exponent"] != k:
            return "exponent of %s/%s is not %d" % (sec["chart"], sec["chirality"], k)
        if not sec["pde_residual"] < KERNEL_RESIDUAL_TOL:
            return "PDE residual %.3e above %g" % (sec["pde_residual"], KERNEL_RESIDUAL_TOL)
    return None


_CHECKS = {
    "torus-spectrum": _check_torus,
    "sphere-index": _check_index,
    "verify": _check_verify,
    "compare-quotient": _check_quotient,
    "sphere-kernel": _check_kernel,
}


def check_output(argv: list, exit_code: int, stdout: str):
    """None if the invocation exited 0 and its JSON output matches the
    reference; otherwise the reason it does not."""
    if exit_code != 0:
        return "exit code %r" % (exit_code,)
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return "output is not JSON: %s" % exc
    opts = dict(zip(argv[1::2], argv[2::2]))
    try:
        return _CHECKS[argv[0]](opts, report)
    except (KeyError, TypeError, ValueError) as exc:
        return "malformed output: %r" % (exc,)
