"""Dense numerical kernel: spectral differentiation, Hermitian eigensolver,
block-circulant symbols, log-ODE integration and indicial-exponent fitting.

The eigensolver and the singular values are LAPACK's, called through
numpy.linalg; the matrices here are dense and at most a few thousand rows.
A block-circulant matrix is solved through its Fourier symbols, one FFT of
its first block column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SpectralError(ValueError):
    pass


@dataclass(frozen=True)
class Grid1D:
    """Points of a periodic grid on [0, 2*pi) and the log-derivative w'/w of
    the density w of the measure w dy there; made by periodic_grid."""

    points: np.ndarray
    log_weight_prime: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        lwp = np.asarray(self.log_weight_prime, dtype=float)
        if pts.ndim != 1 or pts.shape != lwp.shape:
            raise SpectralError("points/log_weight_prime shape mismatch")
        if np.any(np.diff(pts) <= 0):
            raise SpectralError("grid points must be strictly increasing")
        if not np.all(np.isfinite(lwp)):
            raise SpectralError("log-weight derivative must be finite")

    @property
    def n(self) -> int:
        return len(self.points)


def periodic_grid(n: int, log_weight_prime=None) -> Grid1D:
    """Uniform grid on [0, 2*pi) with w'/w on its points, 0 (flat measure) if omitted."""
    pts = 2.0 * np.pi * np.arange(n) / n
    if log_weight_prime is None:
        log_weight_prime = np.zeros(n)
    return Grid1D(points=pts, log_weight_prime=np.asarray(log_weight_prime, dtype=float))


def _wavenumbers(n: int) -> np.ndarray:
    """FFT-ordered wavenumbers of n equispaced points, Nyquist mode at -n/2."""
    if n < 4 or n % 2:
        raise SpectralError("need an even grid size >= 4")
    return np.fft.fftfreq(n, d=1.0 / n)


def fourier_diff_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix on n equispaced points of [0, 2*pi).

    Exact on trigonometric polynomials up to degree n/2 - 1; the Nyquist
    mode is assigned wavenumber -n/2, so -1j * D has integer eigenvalues
    -n/2 .. n/2 - 1 and D is exactly anti-Hermitian.

    D is circulant, and the result is a read-only strided view of its
    doubled first column: O(n) memory, not n x n. Copy it to write to it.
    """
    k = _wavenumbers(n)
    # D is circulant, D[j, l] = col[(j - l) mod n] with col = ifft(i k);
    # antisymmetrising col[m] against conj(col[-m]) makes D + D^H vanish exactly
    col = np.fft.ifft(1j * k)
    col = 0.5 * (col - np.conj(col[-np.arange(n)]))
    # row j is col[j], col[j - 1], ..., col[j + 1]: the window of length n
    # that starts at col[j] in the reversed doubled column
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((col, col))[::-1], n)
    return windows[n - 1::-1]


def fourier_derivative(values) -> np.ndarray:
    """fourier_diff_matrix(n) @ values along axis 0, for n = len(values).

    Computed as ifft(i k fft(values)) with the same wavenumbers, in
    O(n log n) and without the n x n matrix; values may be a stack such as
    (n, d, d) matrix samples. The result is complex.
    """
    values = np.asarray(values)
    k = _wavenumbers(len(values)).reshape((-1,) + (1,) * (values.ndim - 1))
    return np.fft.ifft(1j * k * np.fft.fft(values, axis=0), axis=0)


def hermitian_defect(m: np.ndarray) -> float:
    """Entrywise distance to the Hermitian part (m + m^H)/2; for a stack of
    blocks, the largest over the blocks."""
    return float(0.5 * np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())))


def _finite_complex(m) -> np.ndarray:
    """m as a complex array, after checking that every entry is finite."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise SpectralError(
            "matrix has non-finite entries (overflow or underflow, e.g. of the warping e^g)"
        )
    return m


def _check_defect(entries: np.ndarray, defect: float):
    """Raise SpectralError unless defect <= 1e-8 max|entries|."""
    scale = max(float(np.max(np.abs(entries))), 1e-300)
    if defect > 1e-8 * scale:
        raise SpectralError("matrix is not Hermitian (defect %.3e)" % defect)


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Return m as a complex array after checking that it is finite and
    Hermitian to 1e-8 max|m|; raises SpectralError otherwise.

    m is a matrix or a stack of blocks; a stack gets the same verdict as the
    block-diagonal matrix it stands for, whose zero off-diagonal blocks
    change neither the defect nor max|m|."""
    m = _finite_complex(m)
    _check_defect(m, hermitian_defect(m))
    return m


def circulant_symbols(m: np.ndarray, d: int) -> np.ndarray:
    """The (n, d, d) Fourier symbols C^(k) = sum_j C_j e^{-2 pi i k j / n} of
    an exactly block-circulant Hermitian matrix with d x d blocks, whose
    block (j, l) is C_{(j - l) mod n}; the matrix's spectrum is the union of
    the symbols' spectra.

    The matrix gets the verdict of check_hermitian, with the same defect and
    message, and must equal its block shift exactly: no tolerance. Raises
    SpectralError naming the first block (row-major) that breaks circulancy.
    Finiteness is checked on the first block column only: an exactly
    circulant matrix holds nothing else, and a NaN anywhere breaks the
    equality. A matrix that fails is checked whole first, so a non-finite
    entry is reported before a bad shape or a block off the pattern.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or d < 1 or m.shape[0] % d:
        _finite_complex(m)
        raise SpectralError("need a square matrix of %s x %s blocks, got shape %s"
                            % (d, d, m.shape))
    n = m.shape[0] // d
    # block (j + 1, l + 1) = block (j, l), indices mod n, compared on views of m
    # without a shifted copy; the first offender is located only on failure
    shifts = ((slice(d, None), slice(None, -d)), (slice(None, d), slice(-d, None)))
    blocks = m.reshape(n, d, n, d).swapaxes(1, 2)
    col = blocks[:, 0]
    if not all(np.array_equal(m[rows, cols], m[rows_before, cols_before])
               for rows, rows_before in shifts for cols, cols_before in shifts):
        _finite_complex(m)
        lag = (np.arange(n)[:, None] - np.arange(n)) % n
        j, l = np.argwhere(np.any(blocks != col[lag], axis=(2, 3)))[0]
        raise SpectralError("matrix is not block-circulant: block (%d, %d) differs from "
                            "block (%d, 0)" % (j, l, (j - l) % n))
    # every entry of the matrix and of its conjugate transpose is one of C_j
    # and C_{-j}^H, so the column gives the dense matrix's finiteness, max|m|
    # and defect bit for bit
    _finite_complex(col)
    mirror = np.swapaxes(col[-np.arange(n)], 1, 2).conj()
    _check_defect(col, float(0.5 * np.max(np.abs(col - mirror))))
    return np.fft.fft(col, axis=0)


def hermitian_eigensolve(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending; for a stack of blocks,
    the sorted union of the blocks' eigenvalues, which are those of the
    block-diagonal matrix it stands for.

    The matrix is checked by check_hermitian, symmetrised, and handed to
    LAPACK through numpy.linalg.eigvalsh, one batched call for a stack; no
    eigenvectors are computed.
    """
    m = check_hermitian(m)
    # halved before the sum, which cannot overflow for finite entries
    return np.sort(np.linalg.eigvalsh(0.5 * m + 0.5 * np.swapaxes(m, -1, -2).conj()), axis=None)


def smallest_singular_value(m: np.ndarray) -> float:
    """Smallest singular value of a matrix, or the least over a stack of
    them, from LAPACK's SVD of m itself (not of m^H m, which would square the
    condition number)."""
    return float(np.min(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[..., -1]))


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
    sampled on those 2*steps + 1 points; a (..., 2*steps + 1) stack of
    samples integrates each row along the last axis. Returns log|psi| at the
    steps + 1 nodes simpson_abscissas(phi_start, phi_end, steps)[0::2] (one
    row per sample row), with log|psi| = 0 at phi_start.
    """
    if steps < 1:
        raise SpectralError("need at least one step")
    if callable(r):
        r = r(simpson_abscissas(phi_start, phi_end, steps))
    samples = np.asarray(r, dtype=float)
    if samples.shape[-1:] != (2 * steps + 1,):
        raise SpectralError("r must be sampled on the %d Simpson abscissas, got shape %s"
                            % (2 * steps + 1, samples.shape))
    if not np.all(np.isfinite(samples)):
        raise SpectralError("singular coefficient encountered on the integration span")
    h = (phi_end - phi_start) / steps
    increments = (h / 6.0) * (samples[..., :-2:2] + 4.0 * samples[..., 1::2]
                              + samples[..., 2::2])
    log_psi = np.zeros(samples.shape[:-1] + (steps + 1,))
    np.cumsum(increments, axis=-1, out=log_psi[..., 1:])
    return log_psi


def fit_exponent(log_abscissas, log_samples):
    """Least-squares slope of log samples against log abscissas: a float for
    one row of samples, one slope per row for a (..., len) stack."""
    x = np.asarray(log_abscissas, dtype=float)
    y = np.asarray(log_samples, dtype=float)
    if len(x) < 10:
        raise SpectralError("need at least 10 samples in the fit window")
    x0 = x - x.mean()
    denom = float(x0 @ x0)
    if denom < 1e-300:
        raise SpectralError("degenerate abscissas")
    slopes = np.sum(x0 * (y - y.mean(axis=-1, keepdims=True)), axis=-1) / denom
    return float(slopes) if y.ndim == 1 else slopes
