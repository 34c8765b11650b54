"""Dense numerical kernel: spectral differentiation, Hermitian eigensolver,
log-ODE integration and indicial-exponent fitting.

The eigensolver and the singular values are LAPACK's, called through
numpy.linalg; the matrices here are dense and at most a few thousand rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SpectralError(ValueError):
    pass


@dataclass(frozen=True)
class Grid1D:
    points: np.ndarray
    weights: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise SpectralError("points/weights shape mismatch")
        if np.any(np.diff(pts) <= 0):
            raise SpectralError("grid points must be strictly increasing")
        if np.any(wts <= 0):
            raise SpectralError("quadrature weights must be positive")

    @property
    def n(self) -> int:
        return len(self.points)


def periodic_grid(n: int, weights=None) -> Grid1D:
    """Uniform grid on [0, 2*pi) with optional nonuniform weights."""
    pts = 2.0 * np.pi * np.arange(n) / n
    if weights is None:
        weights = np.full(n, 2.0 * np.pi / n)
    return Grid1D(points=pts, weights=np.asarray(weights, dtype=float), periodic=True)


def fourier_diff_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix on n equispaced points of [0, 2*pi).

    Exact on trigonometric polynomials up to degree n/2 - 1; the Nyquist
    mode is assigned wavenumber -n/2, so -1j * D has integer eigenvalues
    -n/2 .. n/2 - 1 and D is exactly anti-Hermitian.
    """
    if n < 4 or n % 2:
        raise SpectralError("need an even grid size >= 4")
    k = np.fft.fftfreq(n, d=1.0 / n)
    # D is circulant, D[j, l] = col[(j - l) mod n] with col = ifft(i k);
    # antisymmetrising col[m] against conj(col[-m]) makes D + D^H vanish exactly
    col = np.fft.ifft(1j * k)
    col = 0.5 * (col - np.conj(col[-np.arange(n)]))
    idx = np.arange(n)
    return col[(idx[:, None] - idx[None, :]) % n]


def centered_diff_matrix(points: np.ndarray) -> np.ndarray:
    """Second-order differentiation on a uniform non-periodic grid."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 3:
        raise SpectralError("need at least 3 points")
    h = points[1] - points[0]
    if np.max(np.abs(np.diff(points) - h)) > 1e-12 * abs(h):
        raise SpectralError("grid must be uniform")
    d = np.zeros((n, n))
    for j in range(1, n - 1):
        d[j, j - 1] = -0.5 / h
        d[j, j + 1] = 0.5 / h
    d[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    d[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return d


@dataclass(frozen=True)
class HermitianSpectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_defect(m: np.ndarray) -> float:
    """Entrywise distance to the Hermitian part (m + m^H)/2."""
    return float(0.5 * np.max(np.abs(m - m.conj().T)))


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Return m as a complex array after checking that it is finite and
    Hermitian to 1e-8 max|m|; raises SpectralError otherwise."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise SpectralError(
            "matrix has non-finite entries (overflow or underflow, e.g. of the warping e^g)"
        )
    scale = max(float(np.max(np.abs(m))), 1e-300)
    defect = hermitian_defect(m)
    if defect > 1e-8 * scale:
        raise SpectralError("matrix is not Hermitian (defect %.3e)" % defect)
    return m


def hermitian_eigensolve(m: np.ndarray) -> HermitianSpectrum:
    """Full spectrum of a Hermitian matrix, eigenvalues ascending.

    The matrix is checked by check_hermitian, symmetrised, and handed to
    LAPACK through numpy.linalg.eigh.
    """
    m = check_hermitian(m)
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    return HermitianSpectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def smallest_singular_value(m: np.ndarray) -> float:
    """Smallest singular value, from LAPACK's SVD of m itself (not of m^H m,
    which would square the condition number)."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[-1])


def simpson_abscissas(phi_start: float, phi_end: float, steps: int) -> np.ndarray:
    """The 2*steps + 1 abscissas of Simpson's rule on [phi_start, phi_end]:
    the steps + 1 equispaced nodes at even indices, the midpoints between
    them at odd indices."""
    if steps < 1:
        raise SpectralError("need at least one step")
    nodes = np.linspace(phi_start, phi_end, steps + 1)
    points = np.empty(2 * steps + 1)
    points[0::2] = nodes
    points[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return points


def integrate_log_ode(r, phi_start: float, phi_end: float, steps: int):
    """RK4 integration of d(log psi)/dphi = r(phi) from phi_start to phi_end.

    Since the right-hand side depends on phi only, the classical RK4 step
    collapses to Simpson's rule. r is either a callable, evaluated once on
    the array simpson_abscissas(phi_start, phi_end, steps), or r already
    sampled on those 2*steps + 1 points. Returns (phi nodes, log|psi|
    samples) with log|psi| = 0 at phi_start.
    """
    if steps < 1:
        raise SpectralError("need at least one step")
    if callable(r):
        r = r(simpson_abscissas(phi_start, phi_end, steps))
    samples = np.asarray(r, dtype=float)
    if samples.shape != (2 * steps + 1,):
        raise SpectralError("r must be sampled on the %d Simpson abscissas, got shape %s"
                            % (2 * steps + 1, samples.shape))
    if not np.all(np.isfinite(samples)):
        raise SpectralError("singular coefficient encountered on the integration span")
    h = (phi_end - phi_start) / steps
    increments = (h / 6.0) * (samples[:-2:2] + 4.0 * samples[1::2] + samples[2::2])
    log_psi = np.zeros(steps + 1)
    np.cumsum(increments, out=log_psi[1:])
    return np.linspace(phi_start, phi_end, steps + 1), log_psi


def fit_exponent(log_abscissas, log_samples) -> float:
    """Least-squares slope of log samples against log abscissas."""
    x = np.asarray(log_abscissas, dtype=float)
    y = np.asarray(log_samples, dtype=float)
    if len(x) < 10:
        raise SpectralError("need at least 10 samples in the fit window")
    x0 = x - x.mean()
    denom = float(x0 @ x0)
    if denom < 1e-300:
        raise SpectralError("degenerate abscissas")
    return float(x0 @ (y - y.mean())) / denom
