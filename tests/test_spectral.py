import re

import numpy as np
import pytest

from transdirac.spectral import (
    SpectralError,
    check_hermitian,
    circulant_symbols,
    fit_exponent,
    fourier_derivative,
    fourier_diff_matrix,
    hermitian_defect,
    hermitian_eigensolve,
    integrate_log_ode,
    periodic_grid,
    simpson_abscissas,
    smallest_singular_value,
)


def char_poly_roots(m):
    """Eigenvalues via the Faddeev-LeVerrier characteristic polynomial.

    Independent brute-force oracle for small matrices: builds the
    coefficients from traces of powers and calls the polynomial root finder.
    """
    n = m.shape[0]
    coeffs = [1.0 + 0j]
    aux = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = m @ aux
        c = -np.trace(aux) / k
        coeffs.append(c)
        aux = aux + c * np.eye(n)
    return np.sort(np.roots(coeffs).real)


# ---------------------------------------------------------------------------
# differentiation matrices


def test_fourier_diff_on_cos():
    n = 32
    y = periodic_grid(n).points
    d = fourier_diff_matrix(n)
    assert np.max(np.abs(d @ np.cos(y) + np.sin(y))) < 1e-12


def test_fourier_diff_on_constant():
    d = fourier_diff_matrix(16)
    assert np.max(np.abs(d @ np.ones(16))) < 1e-12


def test_fourier_diff_exact_on_trig_polynomials():
    n = 32
    y = periodic_grid(n).points
    d = fourier_diff_matrix(n)
    for k in range(1, n // 2):
        assert np.max(np.abs(d @ np.sin(k * y) - k * np.cos(k * y))) < 1e-10


def test_fourier_diff_eigenvalues_are_integers():
    # eigenvalues of -i D are exactly the integers -N/2 .. N/2-1
    n = 16
    d = fourier_diff_matrix(n)
    ev = np.sort(np.linalg.eigvals(-1j * d).real)
    assert np.allclose(ev, np.arange(-n // 2, n // 2), atol=1e-10)


def test_fourier_diff_antihermitian():
    d = fourier_diff_matrix(24)
    assert np.max(np.abs(d + d.conj().T)) < 1e-12


def test_fourier_diff_circulant_matches_fft_construction():
    # the circulant build equals F^-1 diag(ik) F applied to the identity, and
    # is anti-Hermitian to the last bit
    for n in (4, 16, 64, 256):
        k = np.fft.fftfreq(n, d=1.0 / n)
        reference = np.fft.ifft(1j * k[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
        d = fourier_diff_matrix(n)
        assert np.max(np.abs(d - reference)) < 1e-12 * n
        assert np.max(np.abs(d + d.conj().T)) == 0.0


def gathered_diff_matrix(n, rows=slice(None)):
    """Rows of the differentiation matrix by the n x n index gather
    col[(j - l) % n] that the strided circulant build replaced."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    col = np.fft.ifft(1j * k)
    col = 0.5 * (col - np.conj(col[-np.arange(n)]))
    idx = np.arange(n)
    return col[(idx[rows, None] - idx[None, :]) % n]


def byte_span(a):
    """Bytes from the lowest address a view reads to one past the highest."""
    reach = [(size - 1) * stride for size, stride in zip(a.shape, a.strides)]
    return sum(r for r in reach if r > 0) - sum(r for r in reach if r < 0) + a.itemsize


def test_fourier_diff_strided_build_bit_identical_to_gather():
    # a read-only circulant view that reads only the doubled column
    for n in (4, 6, 64, 512, 2048):
        d = fourier_diff_matrix(n)
        assert d.shape == (n, n) and d.dtype == complex and not d.flags.writeable
        assert byte_span(d) <= 2 * n * d.itemsize
        # the reference in bands of rows keeps its index arrays small
        for start in range(0, n, 256):
            rows = slice(start, start + 256)
            assert d[rows].tobytes() == gathered_diff_matrix(n, rows).tobytes(), n


def test_fourier_diff_rejects_odd():
    with pytest.raises(SpectralError):
        fourier_diff_matrix(15)


def test_fourier_derivative_matches_diff_matrix():
    rng = np.random.default_rng(3)
    for n in (4, 16, 64, 1024):
        d = fourier_diff_matrix(n)
        real = rng.standard_normal(n)
        cplx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        stack = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:, None, None]
        for values in (real, cplx, stack):
            reference = np.tensordot(d, values, axes=(1, 0))
            result = fourier_derivative(values)
            assert result.shape == values.shape
            assert np.max(np.abs(result - reference)) < 1e-12 * n, (n, values.shape)
    with pytest.raises(SpectralError):
        fourier_derivative(np.ones(15))


# ---------------------------------------------------------------------------
# eigensolver


def test_eigensolve_diagonal():
    ev = hermitian_eigensolve(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(ev, [1.0, 2.0, 3.0], atol=1e-12)


def test_eigensolve_pauli_like():
    m = np.array([[0.0, -1j], [1j, 0.0]])
    ev = hermitian_eigensolve(m)
    assert np.allclose(ev, [-1.0, 1.0], atol=1e-12)


def test_eigensolve_vs_char_poly_4x4():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (a + a.conj().T)
        mine = hermitian_eigensolve(h)
        assert np.allclose(mine, char_poly_roots(h), atol=1e-8)


def test_eigensolve_random_50x50_contracts():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    h = 0.5 * (a + a.conj().T)
    ev = hermitian_eigensolve(h)
    scale = np.max(np.abs(h))
    # trace identity and agreement with the library solver
    assert abs(np.sum(ev) - np.trace(h).real) < 1e-8 * scale
    assert np.allclose(ev, np.linalg.eigvalsh(h), atol=1e-9 * scale)


def test_eigensolve_known_spectrum():
    # H = U diag(lam) U^H with U unitary from the QR of a random complex matrix
    rng = np.random.default_rng(21)
    u = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))[0]
    lam = rng.uniform(-5.0, 5.0, size=40)
    h = (u * lam) @ u.conj().T
    ev = hermitian_eigensolve(h)
    assert np.max(np.abs(ev - np.sort(lam))) <= 1e-12 * np.max(np.abs(lam))


def test_eigensolve_sorted():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((12, 12))
    ev = hermitian_eigensolve(0.5 * (a + a.T).astype(complex))
    assert np.all(np.diff(ev) >= 0)


def test_eigensolve_rejects_non_hermitian():
    with pytest.raises(SpectralError):
        hermitian_eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensolve_rejects_non_finite():
    # NaN compares False against any tolerance, so the Hermitian check alone
    # would let these through
    for bad in (np.nan, np.inf):
        with pytest.raises(SpectralError, match="non-finite"):
            hermitian_eigensolve(np.array([[1.0, 0.0], [0.0, bad]]))


def test_hermitian_defect_measures_antihermitian_part():
    m = np.array([[0.0, 0.3j], [0.3j, 0.0]])
    assert abs(hermitian_defect(m) - 0.3) < 1e-14
    assert hermitian_defect(np.eye(3)) == 0.0


def block_diagonal(stack):
    n, d, _ = stack.shape
    dense = np.zeros((n * d, n * d), dtype=complex)
    for j, block in enumerate(stack):
        dense[d * j:d * j + d, d * j:d * j + d] = block
    return dense


def verdict(fn, m):
    try:
        fn(m)
    except SpectralError as exc:
        return str(exc)
    return "ok"


def test_check_hermitian_on_block_stack_matches_block_diagonal():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    hermitian = 0.5 * (a + np.swapaxes(a, 1, 2).conj())
    skewed = hermitian.copy()
    skewed[4, 0, 2] += 1e-3
    nan = hermitian.copy()
    nan[2] = np.nan

    for stack in (hermitian, skewed):
        assert hermitian_defect(stack) == hermitian_defect(block_diagonal(stack))
    for stack in (hermitian, skewed, nan):
        assert verdict(check_hermitian, stack) == verdict(check_hermitian, block_diagonal(stack))
    assert verdict(check_hermitian, hermitian) == "ok"
    assert "not Hermitian" in verdict(check_hermitian, skewed)
    assert "non-finite" in verdict(check_hermitian, nan)


def test_eigensolve_symmetrisation_does_not_overflow():
    # entries this large pass check_hermitian; summing m and m^H before halving
    # overflowed ("overflow encountered in add", an error under pytest here)
    m = np.array([[1.5e308, 1e307j], [-1e307j, 1.0]])
    ev = hermitian_eigensolve(m)
    assert np.all(np.isfinite(ev))
    assert np.array_equal(ev, np.linalg.eigvalsh(m))


def test_eigensolve_matrix_bit_identical_to_summed_symmetrisation():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    m = 0.5 * (a + a.conj().T)
    m[3, 7] += 1e-12  # a defect the check admits, removed by the symmetrisation
    assert np.array_equal(hermitian_eigensolve(m), np.linalg.eigvalsh(0.5 * (m + m.conj().T)))


def test_eigensolve_stack_equals_block_diagonal():
    rng = np.random.default_rng(17)
    for n, d in ((1, 1), (40, 1), (12, 3)):
        a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        stack = 0.5 * (a + np.swapaxes(a, 1, 2).conj())
        ev = hermitian_eigensolve(stack)
        assert ev.shape == (n * d,)
        assert np.all(np.diff(ev) >= 0)
        assert np.max(np.abs(ev - np.linalg.eigvalsh(block_diagonal(stack)))) < 1e-13
    with pytest.raises(SpectralError, match="not Hermitian"):
        hermitian_eigensolve(np.array([[[1.0, 1.0], [0.0, 1.0]]]))


def block_circulant(col):
    """The dense matrix whose block (j, l) is col[(j - l) mod n]."""
    n, d, _ = col.shape
    lag = (np.arange(n)[:, None] - np.arange(n)) % n
    return col[lag].transpose(0, 2, 1, 3).reshape(n * d, n * d)


def hermitian_column(rng, n, d):
    """Blocks C_j with C_{-j} = C_j^H exactly, so block_circulant is Hermitian."""
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return 0.5 * (a + np.swapaxes(a[-np.arange(n)], 1, 2).conj())


def test_circulant_symbols_spectrum_equals_dense():
    rng = np.random.default_rng(5)
    for n, d in ((1, 2), (2, 1), (7, 1), (16, 2), (33, 3)):
        col = hermitian_column(rng, n, d)
        dense = block_circulant(col)
        symbols = circulant_symbols(dense, d)
        assert symbols.shape == (n, d, d)
        assert np.array_equal(symbols, np.fft.fft(col, axis=0))
        ev = hermitian_eigensolve(symbols)
        assert np.max(np.abs(ev - np.linalg.eigvalsh(dense))) < 1e-12 * n


def test_circulant_symbols_refuse_a_perturbed_entry():
    rng = np.random.default_rng(6)
    col = hermitian_column(rng, 8, 2)
    for row, column, block in ((5, 2, "(2, 1) differs from block (1, 0)"),
                               (0, 15, "(0, 7) differs from block (1, 0)"),
                               (15, 15, "(7, 7) differs from block (0, 0)")):
        dense = block_circulant(col)
        dense[row, column] += 1e-15 * (1 + abs(dense[row, column]))
        with pytest.raises(SpectralError, match=re.escape("not block-circulant: block " + block)):
            circulant_symbols(dense, 2)


def test_circulant_symbols_hermitian_verdict_matches_dense_check():
    rng = np.random.default_rng(7)
    col = hermitian_column(rng, 9, 2)
    skewed = col.copy()
    skewed[3, 0, 1] += 1e-3  # C_3 no longer matches C_{-3}^H
    admitted = col.copy()
    admitted[0, 0, 0] += 2e-12j  # within 1e-8 max|m|
    nan = col.copy()
    nan[4, 1, 0] = np.nan
    inf = col.copy()
    inf[0, 0, 0] = np.inf
    for stack, expected in ((col, "ok"), (skewed, "not Hermitian (defect 5.000e-04)"),
                            (admitted, "ok"), (nan, "non-finite"), (inf, "non-finite")):
        dense = block_circulant(stack)
        assert verdict(lambda m: circulant_symbols(m, 2), dense) == verdict(check_hermitian, dense)
        assert expected in verdict(check_hermitian, dense)
    # finiteness is checked before circulancy: a non-finite entry off the
    # circulant pattern still gets check_hermitian's message
    dense = block_circulant(col)
    dense[1, 6] = np.nan
    assert verdict(lambda m: circulant_symbols(m, 2), dense) == verdict(check_hermitian, dense)


def test_circulant_symbols_report_non_finite_first():
    # finiteness is checked on the column only when the matrix is circulant;
    # a matrix that fails is checked whole before the failure is named
    bad_shape = np.eye(6)[:5]
    bad_shape[4, 1] = np.nan
    with pytest.raises(SpectralError, match="non-finite"):
        circulant_symbols(bad_shape, 1)
    # inf == inf, so an inf diagonal passes the circulancy comparison
    diagonal = block_circulant(hermitian_column(np.random.default_rng(8), 6, 1))
    np.fill_diagonal(diagonal, np.inf)
    with pytest.raises(SpectralError, match="non-finite"):
        circulant_symbols(diagonal, 1)


def test_circulant_symbols_reject_bad_shapes():
    for m, d in ((np.eye(4)[:3], 1), (np.eye(6), 4), (np.eye(4), 0), (np.ones((2, 2, 2)), 1)):
        with pytest.raises(SpectralError, match="square matrix"):
            circulant_symbols(m, d)


def test_smallest_singular_value():
    m = np.diag([3.0, 1e-3, 2.0]).astype(complex)
    assert abs(smallest_singular_value(m) - 1e-3) < 1e-12
    assert smallest_singular_value(np.zeros((2, 2))) < 1e-12


def test_smallest_singular_value_non_diagonal():
    # sqrt(lambda_min(m^H m)) loses about half the digits here: lambda_min = 1e-14
    # sits near the rounding level of ||m||^2 = 9
    rng = np.random.default_rng(12)

    def random_unitary():
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        return np.linalg.qr(z)[0]

    m = random_unitary() @ np.diag([3.0, 1e-7, 2.0]) @ random_unitary().conj().T
    assert abs(smallest_singular_value(m) - 1e-7) < 1e-6 * 1e-7


# ---------------------------------------------------------------------------
# log-ODE integration and exponent fitting


def test_integrate_log_ode_constant_rhs():
    log_psi = integrate_log_ode(lambda p: np.zeros_like(p), 1.0, 0.1, 100)
    assert np.max(np.abs(log_psi)) < 1e-14


def test_integrate_log_ode_cot_antiderivative():
    # d(log psi)/dphi = cot(phi)  =>  log psi = log sin(phi) + const
    phis = simpson_abscissas(np.pi / 4, 1e-3, 20000)[0::2]
    log_psi = integrate_log_ode(lambda p: np.cos(p) / np.sin(p), np.pi / 4, 1e-3, 20000)
    exact = np.log(np.sin(phis)) - np.log(np.sin(np.pi / 4))
    assert np.max(np.abs(log_psi - exact)) < 1e-8


def test_integrate_log_ode_csc_antiderivative():
    # d(log psi)/dphi = csc(phi)  =>  log psi = log tan(phi/2) + const
    phis = simpson_abscissas(np.pi / 4, 1e-3, 20000)[0::2]
    log_psi = integrate_log_ode(lambda p: 1.0 / np.sin(p), np.pi / 4, 1e-3, 20000)
    exact = np.log(np.tan(phis / 2)) - np.log(np.tan(np.pi / 8))
    assert np.max(np.abs(log_psi - exact)) < 1e-8


def test_integrate_log_ode_fourth_order():
    # halving the step shrinks the error by ~16x
    def endpoint_error(steps):
        log_psi = integrate_log_ode(lambda p: np.cos(p) / np.sin(p), np.pi / 4, 0.2, steps)
        return abs(log_psi[-1] - (np.log(np.sin(0.2)) - np.log(np.sin(np.pi / 4))))

    ratio = endpoint_error(40) / endpoint_error(80)
    assert 12.0 <= ratio <= 20.0


def test_integrate_log_ode_propagates_nan():
    with pytest.raises(SpectralError):
        integrate_log_ode(lambda p: np.full_like(p, np.nan), 1.0, 0.1, 100)


def test_simpson_abscissas_interleave_nodes_and_midpoints():
    points = simpson_abscissas(1.0, 0.1, 100)
    nodes = np.linspace(1.0, 0.1, 101)
    assert points.shape == (201,)
    assert np.array_equal(points[0::2], nodes)
    assert np.array_equal(points[1::2], 0.5 * (nodes[:-1] + nodes[1:]))


def test_integrate_log_ode_evaluates_callable_once():
    seen = []

    def r(p):
        seen.append(p.copy())
        return np.cos(p) / np.sin(p)

    log_psi = integrate_log_ode(r, np.pi / 4, 0.2, 40)
    assert len(seen) == 1
    assert np.array_equal(seen[0], simpson_abscissas(np.pi / 4, 0.2, 40))
    sampled = integrate_log_ode(np.cos(seen[0]) / np.sin(seen[0]), np.pi / 4, 0.2, 40)
    assert np.array_equal(sampled, log_psi)


def test_integrate_log_ode_stack_matches_rows():
    points = simpson_abscissas(np.pi / 4, 0.2, 40)
    stack = np.cos(points) / np.sin(points) * np.arange(-3.0, 4.0).reshape(7, 1)
    log_psi = integrate_log_ode(stack, np.pi / 4, 0.2, 40)
    assert log_psi.shape == (7, 41)
    for row, samples in zip(log_psi, stack):
        assert np.array_equal(row, integrate_log_ode(samples, np.pi / 4, 0.2, 40))
    nested = integrate_log_ode(stack.reshape(7, 1, 81), np.pi / 4, 0.2, 40)
    assert np.array_equal(nested, log_psi.reshape(7, 1, 41))


def test_integrate_log_ode_rejects_bad_samples():
    with pytest.raises(SpectralError, match="Simpson abscissas"):
        integrate_log_ode(np.zeros(200), 1.0, 0.1, 100)
    with pytest.raises(SpectralError, match="singular"):
        integrate_log_ode(np.full(201, np.nan), 1.0, 0.1, 100)


def test_fit_exponent_recovers_slope():
    phis = np.linspace(1e-3, 1e-2, 50)
    assert abs(fit_exponent(np.log(np.sin(phis)), 3.0 * np.log(np.sin(phis))) - 3.0) < 1e-6


def test_fit_exponent_on_regular_solution():
    # psi = sin^2(phi) / (1 + cos(phi)) vanishes to second order at the pole
    phis = np.linspace(1e-3, 1e-2, 60)
    samples = np.log(np.sin(phis) ** 2 / (1.0 + np.cos(phis)))
    assert abs(fit_exponent(np.log(np.sin(phis)), samples) - 2.0) < 1e-3


def test_fit_exponent_constant_is_zero():
    phis = np.linspace(1e-3, 1e-2, 20)
    assert abs(fit_exponent(np.log(np.sin(phis)), np.zeros(20))) < 1e-12


def test_fit_exponent_exactly_linear_in_data():
    rng = np.random.default_rng(6)
    x = np.sort(rng.uniform(-3.0, -1.0, size=30))
    a, b = -4.0, 2.5
    assert abs(fit_exponent(x, a * x + b) - a) < 1e-12


def test_fit_exponent_stack_matches_rows():
    x = np.log(np.sin(np.linspace(1e-3, 1e-2, 40)))
    rng = np.random.default_rng(8)
    stack = rng.uniform(-5.0, 5.0, size=(6, 1)) * x + rng.standard_normal((6, 40))
    slopes = fit_exponent(x, stack)
    assert slopes.shape == (6,)
    assert isinstance(fit_exponent(x, stack[0]), float)
    assert np.array_equal(slopes, [fit_exponent(x, row) for row in stack])


def test_fit_exponent_needs_samples():
    with pytest.raises(SpectralError):
        fit_exponent(np.linspace(0, 1, 5), np.zeros(5))
