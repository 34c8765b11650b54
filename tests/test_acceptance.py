"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The criteria cover the index-table reproduction, the warped-torus spectra,
the connection identities, the kernel-section residuals, the operator
reduction comparison, the ellipticity boundary, and the property suites.
"""

import time

import numpy as np
import pytest

from transdirac.clifford import (
    anticommutation_defect,
    build_standard_module,
    skew_adjointness_defect,
)
from transdirac.frame_geometry import (
    compute_BX_Lframe,
    compute_BX_Qframe,
    random_frame_data,
    verify_compatibility,
)
from transdirac.index_engine import (
    index_closed_form,
    index_numerical,
    kernel_dims_closed_form,
)
from transdirac.sphere_model import (
    CHARTS,
    UPPER,
    chart_operator,
    compare_block_reductions,
    pde_residual,
    quotient_operator,
)
from transdirac.spectral import fit_exponent, integrate_log_ode
from transdirac.torus_model import (
    TorusGeometry,
    mode_grid,
    operator_AQ_full,
    spectrum_DL,
    spectrum_DQ_band,
)
from transdirac.transverse_operator import (
    hermitian_discretization_defect,
    restrict_to_mode,
    symbol_smallest_singular_value,
)
from transdirac.verification import BRANCH_BLOCKS, run_suite

SWEEP = [(n, m) for n in range(-5, 6) for m in range(-6, 7)]


def reference_index(n, m):
    if m > abs(n) or (m == abs(n) and n != 0):
        return -1
    if -abs(n) < m < abs(n) or (m == 0 and n == 0):
        return 0
    return 1


def reference_kernel_total(n, m):
    if n == 0 and m == 0:
        return 2
    if abs(n) <= abs(m) and m != 0:
        return 1
    return 0


def report(capsys, number, label, passed):
    with capsys.disabled():
        print("criterion %d (%s): %s" % (number, label, "PASS" if passed else "FAIL"))
    assert passed, "criterion %d failed: %s" % (number, label)


def test_criterion_1_index_table_reproduction(capsys):
    start = time.time()
    ok = all(index_closed_form(n, m) == reference_index(n, m) for n, m in SWEEP)
    ok = ok and all(index_numerical(n, m)["index"] == reference_index(n, m)
                    for n, m in SWEEP)
    elapsed = time.time() - start
    report(capsys, 1, "index table, 143 blocks, %.1fs" % elapsed, ok and elapsed < 30.0)


def test_criterion_2_kernel_dimension_table(capsys):
    ok = True
    for n, m in SWEEP:
        d_plus, d_minus = kernel_dims_closed_form(n, m)
        ok = ok and d_plus + d_minus == reference_kernel_total(n, m)
    report(capsys, 2, "kernel dimension table", ok)


def test_criterion_3_torus_dl_spectrum(capsys):
    start = time.time()
    geom = TorusGeometry(sin_coeffs=(0.3,))
    base = spectrum_DL(geom, 0, 64)
    ok = np.max(np.abs(base - np.round(base))) < 1e-6
    for k in (3, -7):
        ok = ok and np.max(np.abs(spectrum_DL(geom, k, 64) - base)) < 1e-6
    elapsed = time.time() - start
    report(capsys, 3, "torus D_L integer spectrum, %.1fs" % elapsed, ok and elapsed < 5.0)


def test_criterion_4_torus_dq_band(capsys):
    geom = TorusGeometry(sin_coeffs=(0.3,))
    ev = spectrum_DQ_band(geom, 2, 128)
    lo, hi = 2.0 * np.exp(-0.3), 2.0 * np.exp(0.3)
    ok = bool(ev.min() >= lo - 1e-12 and ev.max() <= hi + 1e-12)
    ok = ok and abs(ev.min() - lo) < 1e-3 and abs(ev.max() - hi) < 1e-3
    ok = ok and np.max(np.abs(spectrum_DQ_band(geom, 0, 128))) < 1e-14
    report(capsys, 4, "torus D_Q band containment", ok)


def test_criterion_5_connection_identities(capsys):
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        data = random_frame_data(p, q, rng)
        mod = build_standard_module(p + q)
        x = int(rng.integers(0, q))
        gap = np.max(np.abs(compute_BX_Lframe(data, mod, x)
                            - compute_BX_Qframe(data, mod, x)))
        y = np.zeros(p + q)
        y[:q] = rng.standard_normal(q)
        ok = ok and gap < 1e-12 and verify_compatibility(data, mod, x, y) < 1e-10
    report(capsys, 5, "connection identities, 100 trials", ok)


def test_criterion_6_kernel_section_residuals(capsys):
    phis = np.linspace(0.05, np.pi / 2, 25)
    ok = True
    for n, m in BRANCH_BLOCKS:
        for chart in CHARTS:
            ok = ok and bool(np.all(pde_residual(n, m, chart, phis) < 1e-6))
    report(capsys, 6, "kernel PDE residuals, 10 blocks", ok)


def test_criterion_7_reduction_comparison(capsys):
    ok = all(compare_block_reductions(n, m) < 1e-12
             for n in range(-4, 5) for m in range(-4, 5))
    report(capsys, 7, "per-block operator reductions agree", ok)


def test_criterion_8_ellipticity_boundary(capsys):
    op = restrict_to_mode(chart_operator(UPPER), 0, 2)
    ok = symbol_smallest_singular_value(op, [0.3, np.pi / 2], [1.0, 0.0]) < 1e-10
    for phi in (np.pi / 2 - 0.1, np.pi / 2 + 0.1):
        ok = ok and symbol_smallest_singular_value(op, [0.3, phi], [1.0, 0.0]) > 1e-10
    rng = np.random.default_rng(7)
    qop = quotient_operator(UPPER, 1)
    for _ in range(100):
        x = [rng.uniform(0, 2 * np.pi), rng.uniform(0.05, np.pi / 2 - 0.01)]
        xi = rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        ok = ok and symbol_smallest_singular_value(qop, x, xi) > 1e-10
    report(capsys, 8, "ellipticity boundary at the equator", ok)


def test_criterion_9_property_suites(capsys):
    ok = True
    # Clifford algebra properties
    for q in range(1, 6):
        mod = build_standard_module(q)
        ok = ok and anticommutation_defect(mod) < 1e-12
        ok = ok and skew_adjointness_defect(mod) < 1e-12
    # Hermitian-discretization defect: zero when corrected, |g'|/2 without
    geom = TorusGeometry(sin_coeffs=(0.3,))
    a_l = restrict_to_mode(operator_AQ_full(geom, "L"), 0, 0)
    defect = hermitian_discretization_defect(a_l, mode_grid(geom, 64))
    ok = ok and defect > 1e-3

    # integrator order ratio in [12, 20]
    def endpoint_error(steps):
        log_psi = integrate_log_ode(
            lambda p: np.cos(p) / np.sin(p), np.pi / 4, 0.2, steps)
        return abs(log_psi[-1] - (np.log(np.sin(0.2)) - np.log(np.sin(np.pi / 4))))

    ratio = endpoint_error(40) / endpoint_error(80)
    ok = ok and 12.0 <= ratio <= 20.0
    # exponent fit is exact on linear data
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-3.0, -1.0, size=25))
    ok = ok and abs(fit_exponent(x, -2.0 * x + 0.3) + 2.0) < 1e-12
    # full self-check battery under the fixed seed
    start = time.time()
    result = run_suite("all", trials=100, seed=7)
    elapsed = time.time() - start
    ok = ok and result["passed"] and elapsed < 120.0
    report(capsys, 9, "property suites, verify-all %.1fs" % elapsed, ok)
