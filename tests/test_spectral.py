import numpy as np
import pytest

from transdirac.spectral import (
    SpectralError,
    fit_exponent,
    fourier_diff_matrix,
    hermitian_defect,
    hermitian_eigensolve,
    integrate_log_ode,
    periodic_grid,
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


def test_fourier_diff_rejects_odd():
    with pytest.raises(SpectralError):
        fourier_diff_matrix(15)


# ---------------------------------------------------------------------------
# eigensolver


def test_eigensolve_diagonal():
    res = hermitian_eigensolve(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)


def test_eigensolve_pauli_like():
    m = np.array([[0.0, -1j], [1j, 0.0]])
    res = hermitian_eigensolve(m)
    assert np.allclose(res.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eigensolve_vs_char_poly_4x4():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (a + a.conj().T)
        mine = hermitian_eigensolve(h).eigenvalues
        assert np.allclose(mine, char_poly_roots(h), atol=1e-8)


def test_eigensolve_random_50x50_contracts():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    h = 0.5 * (a + a.conj().T)
    res = hermitian_eigensolve(h)
    scale = np.max(np.abs(h))
    # residual and orthonormality contracts
    assert np.max(np.abs(h @ res.eigenvectors - res.eigenvectors * res.eigenvalues)) < 1e-8 * scale
    gram = res.eigenvectors.conj().T @ res.eigenvectors
    assert np.max(np.abs(gram - np.eye(50))) < 1e-10
    # trace identity and agreement with the library solver
    assert abs(np.sum(res.eigenvalues) - np.trace(h).real) < 1e-8 * scale
    assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(h), atol=1e-9 * scale)


def test_eigensolve_sorted():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((12, 12))
    res = hermitian_eigensolve(0.5 * (a + a.T).astype(complex))
    assert np.all(np.diff(res.eigenvalues) >= 0)


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
    phis, log_psi = integrate_log_ode(lambda p: np.zeros_like(p), 1.0, 0.1, 100)
    assert np.max(np.abs(log_psi)) < 1e-14


def test_integrate_log_ode_cot_antiderivative():
    # d(log psi)/dphi = cot(phi)  =>  log psi = log sin(phi) + const
    phis, log_psi = integrate_log_ode(lambda p: np.cos(p) / np.sin(p), np.pi / 4, 1e-3, 20000)
    exact = np.log(np.sin(phis)) - np.log(np.sin(np.pi / 4))
    assert np.max(np.abs(log_psi - exact)) < 1e-8


def test_integrate_log_ode_csc_antiderivative():
    # d(log psi)/dphi = csc(phi)  =>  log psi = log tan(phi/2) + const
    phis, log_psi = integrate_log_ode(lambda p: 1.0 / np.sin(p), np.pi / 4, 1e-3, 20000)
    exact = np.log(np.tan(phis / 2)) - np.log(np.tan(np.pi / 8))
    assert np.max(np.abs(log_psi - exact)) < 1e-8


def test_integrate_log_ode_fourth_order():
    # halving the step shrinks the error by ~16x
    def endpoint_error(steps):
        phis, log_psi = integrate_log_ode(lambda p: np.cos(p) / np.sin(p), np.pi / 4, 0.2, steps)
        return abs(log_psi[-1] - (np.log(np.sin(0.2)) - np.log(np.sin(np.pi / 4))))

    ratio = endpoint_error(40) / endpoint_error(80)
    assert 12.0 <= ratio <= 20.0


def test_integrate_log_ode_propagates_nan():
    with pytest.raises(SpectralError):
        integrate_log_ode(lambda p: np.full_like(p, np.nan), 1.0, 0.1, 100)


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


def test_fit_exponent_needs_samples():
    with pytest.raises(SpectralError):
        fit_exponent(np.linspace(0, 1, 5), np.zeros(5))
