import tracemalloc

import numpy as np
import pytest

from transdirac.torus_model import (
    TorusError,
    TorusGeometry,
    mode_grid,
    operator_D_full,
    spectrum_DL,
    spectrum_DQ_band,
)
from transdirac.spectral import (
    SpectralError,
    check_hermitian,
    circulant_symbols,
    fourier_diff_matrix,
    periodic_grid,
)
from transdirac.transverse_operator import discretize_hermitian, restrict_to_mode


def test_geometry_evaluation():
    geom = TorusGeometry(const=0.2, sin_coeffs=(0.3,), cos_coeffs=(0.0, 0.1))
    y = np.linspace(0, 2 * np.pi, 11)
    expected = 0.2 + 0.3 * np.sin(y) + 0.1 * np.cos(2 * y)
    assert np.allclose(geom.g(y), expected, atol=1e-14)
    h = 1e-6
    fd = (geom.g(y + h) - geom.g(y - h)) / (2 * h)
    assert np.allclose(geom.g_prime(y), fd, atol=1e-8)


def test_dl_spectrum_is_integers():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    ev = spectrum_DL(geom, 0, 64)
    assert len(ev) == 64
    assert np.max(np.abs(ev - np.round(ev))) < 1e-6


def test_dl_spectrum_flat_case():
    # g = 0: D_L = i d_y, eigenvalues are one full integer band
    ev = spectrum_DL(TorusGeometry(), 0, 32)
    assert np.allclose(ev, np.arange(-15, 17), atol=1e-10)


def test_dl_spectrum_mode_independent():
    # infinite multiplicity: every x-mode sees the same spectrum
    geom = TorusGeometry(sin_coeffs=(0.3,))
    base = spectrum_DL(geom, 0, 64)
    for k in (3, -7, 12):
        assert np.max(np.abs(spectrum_DL(geom, k, 64) - base)) < 1e-6


def test_dl_spectrum_integers_at_n512():
    geom = TorusGeometry(sin_coeffs=(0.4,), cos_coeffs=(0.0, 0.2))
    ev = spectrum_DL(geom, 5, 512)
    assert np.max(np.abs(ev - np.arange(-255, 257))) < 1e-8


def test_dl_spectrum_matches_dense_eigensolve():
    # the symbols' eigenvalues against LAPACK on the assembled matrix itself
    warpings = (TorusGeometry(sin_coeffs=(0.3,)),
                TorusGeometry(const=0.7, sin_coeffs=(0.4, -0.25), cos_coeffs=(0.1, 0.0, 0.3)),
                TorusGeometry(sin_coeffs=(30.0,), cos_coeffs=(0.0, 5.0)))
    for geom in warpings:
        for n_points in (64, 128, 256, 512):
            op = restrict_to_mode(operator_D_full(geom, "L"), 0, 2)
            dense = discretize_hermitian(op, mode_grid(geom, n_points))
            ev = spectrum_DL(geom, 2, n_points)
            assert np.max(np.abs(ev - np.linalg.eigvalsh(dense))) <= 1e-11, (geom, n_points)


def test_dl_matrix_is_i_times_the_differentiation_matrix():
    # g'/2 cancels w'/(2w) exactly, so every warping gives the same circulant
    # matrix, and its Hermitian verdict is that of the dense check
    for geom in (TorusGeometry(sin_coeffs=(0.3,)), TorusGeometry(sin_coeffs=(400.0,))):
        dense = discretize_hermitian(restrict_to_mode(operator_D_full(geom, "L"), 0, 1),
                                     mode_grid(geom, 64))
        assert np.array_equal(dense, 1j * fourier_diff_matrix(64))
        assert np.array_equal(check_hermitian(dense), dense)
        assert circulant_symbols(dense, 1).shape == (64, 1, 1)


def test_dl_spectrum_integers_at_n2048():
    geom = TorusGeometry(sin_coeffs=(0.6,), cos_coeffs=(0.0, -0.3))
    ev = spectrum_DL(geom, 1, 2048)
    assert np.max(np.abs(ev - np.arange(-1023, 1025))) < 1e-8


def test_circulant_symbols_refuse_the_dq_matrix():
    # D_Q's coefficient e^{-g} varies along y, so its diagonal is not constant
    geom = TorusGeometry(sin_coeffs=(0.3,))
    dense = discretize_hermitian(restrict_to_mode(operator_D_full(geom, "Q"), 0, 2),
                                 mode_grid(geom, 32))
    with pytest.raises(SpectralError, match=r"not block-circulant: block \(1, 1\) differs "
                                            r"from block \(0, 0\)"):
        circulant_symbols(dense, 1)


def test_dq_band_is_sorted_diagonal_at_n1024():
    geom = TorusGeometry(sin_coeffs=(0.5,), cos_coeffs=(0.2,))
    ev = spectrum_DQ_band(geom, 3, 1024)
    y = mode_grid(geom, 1024).points
    expected = np.sort(3.0 * np.exp(-geom.g(y)))
    assert np.max(np.abs(ev - expected) / expected) < 1e-12


def test_dq_band_equals_dense_discretization_diagonal():
    geom = TorusGeometry(sin_coeffs=(0.5, -0.1), cos_coeffs=(0.2,))
    for n_points, mode in ((256, 3), (1024, -2)):
        op = restrict_to_mode(operator_D_full(geom, "Q"), 0, mode)
        dense = discretize_hermitian(op, mode_grid(geom, n_points))
        expected = np.sort(np.diag(dense).real)
        assert np.array_equal(spectrum_DQ_band(geom, mode, n_points), expected)


def test_dq_band_evaluates_the_warping_twice_on_the_grid(monkeypatch):
    # one evaluation serves mode_grid's range check and the overflow guard,
    # and one the restricted operator; the frame check adds its two at the 7
    # samples. The two checks once evaluated g apart (3 times on the grid),
    # and each coefficient of D_Q read g afresh before that (4 times)
    geom = TorusGeometry(sin_coeffs=(0.3,), cos_coeffs=(0.1,))
    calls = []
    g = TorusGeometry.g
    monkeypatch.setattr(TorusGeometry, "g", lambda self, y: calls.append(np.shape(y)) or g(self, y))
    spectrum_DQ_band(geom, 2, 256)
    assert sorted(calls) == [(7,), (7,), (256,), (256,)]


def test_dq_band_memory_is_linear_in_grid_size():
    # one dense 2048 x 2048 complex matrix alone would be 64 MB
    geom = TorusGeometry(sin_coeffs=(0.3,), cos_coeffs=(0.1,))
    spectrum_DQ_band(geom, 3, 2048)
    tracemalloc.start()
    try:
        spectrum_DQ_band(geom, 3, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_dq_band_containment_and_endpoints():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    ev = spectrum_DQ_band(geom, 2, 128)
    lo, hi = 2.0 * np.exp(-0.3), 2.0 * np.exp(0.3)
    assert ev.min() >= lo - 1e-12 and ev.max() <= hi + 1e-12
    assert abs(ev.min() - lo) < 1e-3 and abs(ev.max() - hi) < 1e-3


def test_dq_band_scales_with_mode():
    geom = TorusGeometry(sin_coeffs=(0.2,))
    ev1 = spectrum_DQ_band(geom, 1, 64)
    ev3 = spectrum_DQ_band(geom, 3, 64)
    assert np.max(np.abs(ev3 - 3.0 * ev1)) < 1e-12


def test_dq_zero_mode_collapses():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    assert np.max(np.abs(spectrum_DQ_band(geom, 0, 128))) < 1e-14


def test_full_chart_operator_along_l_carries_curvature_term():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    op = operator_D_full(geom, along="L")
    y = 1.1
    # zeroth order is -c(H^Q)/2 = +g'(y) i/2 with c(e_1) = i and H = -g' e_1
    assert np.allclose(op.zeroth_at([0.0, y]), [[0.5j * geom.g_prime(y)]], atol=1e-14)
    assert np.allclose(operator_D_full(geom, along="Q").zeroth_at([0.0, y]),
                       [[0.0]], atol=1e-14)


def test_mode_grid_validation():
    geom = TorusGeometry()
    with pytest.raises(TorusError):
        mode_grid(geom, 15)
    with pytest.raises(TorusError):
        mode_grid(geom, 8)
    geom = TorusGeometry(sin_coeffs=(0.3,))
    grid = mode_grid(geom, 32)
    assert np.array_equal(grid.points, periodic_grid(32).points)
    assert np.array_equal(grid.log_weight_prime, geom.g_prime(grid.points))
