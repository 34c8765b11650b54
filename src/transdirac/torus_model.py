"""Warped 2-torus with metric e^{2g(y)} dx^2 + dy^2.

The operators are assembled on the (x, y) chart from the frames and the
mean curvature, and the spectra restrict them to one x-Fourier mode n, where
d_x acts as -i n. The operator along L = span(d_y) is D_L = i(d_y + g'/2)
with spectrum Z of infinite multiplicity; the operator along Q = span(d_x)
is D_Q = i e^{-g} d_x, whose restriction to the x-mode n is multiplication
by n e^{-g(y)} with spectrum n [min e^{-g}, max e^{-g}].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from transdirac.clifford import build_standard_module
from transdirac.spectral import (
    check_hermitian,
    circulant_symbols,
    hermitian_eigensolve,
    periodic_grid,
)
from transdirac.transverse_operator import (
    FirstOrderOperator,
    FrameField,
    assemble_AQ,
    assemble_DQ,
    discretize_diagonal,
    discretize_hermitian,
    restrict_to_mode,
)

MIN_GRID = 16
MAX_ABS_G = -np.log(np.finfo(float).tiny)  # about 708.4


class TorusError(ValueError):
    pass


@dataclass(frozen=True)
class TorusGeometry:
    """2*pi-periodic warping g(y) = const + sum_k (a_k sin ky + b_k cos ky)."""

    const: float = 0.0
    sin_coeffs: tuple = field(default_factory=tuple)
    cos_coeffs: tuple = field(default_factory=tuple)

    def g(self, y):
        y = np.asarray(y, dtype=float)
        out = np.full_like(y, self.const, dtype=float)
        for k, a in enumerate(self.sin_coeffs, start=1):
            out += a * np.sin(k * y)
        for k, b in enumerate(self.cos_coeffs, start=1):
            out += b * np.cos(k * y)
        return out

    def g_prime(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y, dtype=float)
        for k, a in enumerate(self.sin_coeffs, start=1):
            out += a * k * np.cos(k * y)
        for k, b in enumerate(self.cos_coeffs, start=1):
            out -= b * k * np.sin(k * y)
        return out

    def coefficient_list(self) -> list:
        return [self.const, list(self.sin_coeffs), list(self.cos_coeffs)]


def full_chart_frames(geom: TorusGeometry, along: str = "Q") -> FrameField:
    """Q- or L-frame field on the (x, y) chart of the torus."""
    if along not in ("Q", "L"):
        raise TorusError("along must be 'Q' or 'L'")

    def components(pts):
        out = np.zeros((len(pts), 1, 2))
        if along == "Q":
            out[:, 0, 0] = np.exp(-geom.g(pts[:, 1]))
        else:
            out[:, 0, 1] = 1.0
        return out

    def coframe(pts):
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = np.exp(geom.g(pts[:, 1]))
        out[:, 1, 1] = 1.0
        return out

    samples = [np.array([0.3, y]) for y in np.linspace(0.0, 2.0 * np.pi, 7)]
    return FrameField(dim=2, q=1, components=components, coframe=coframe, samples=samples)


def operator_AQ_full(geom: TorusGeometry, along: str = "Q") -> FirstOrderOperator:
    """A_Q (or A_L) on the full (x, y) chart; c(f_1) acts as i."""
    return assemble_AQ(full_chart_frames(geom, along), build_standard_module(1))


def operator_D_full(geom: TorusGeometry, along: str = "Q") -> FirstOrderOperator:
    """D = A - c(H)/2 on the full chart. H^L = 0 for the Q-operator and
    H^Q = -g'(y) d_y for the L-operator."""
    if along == "Q":
        mean_curvature = lambda pts: np.zeros((len(pts), 1))
    else:
        mean_curvature = lambda pts: -geom.g_prime(pts[:, 1:])
    return assemble_DQ(full_chart_frames(geom, along), build_standard_module(1), mean_curvature)


def mode_grid(geom: TorusGeometry, n_points: int):
    """Periodic y-grid for the volume density w = e^{g(y)}, carrying its
    exact log-derivative w'/w = g'(y)."""
    return _grid_and_warping(geom, n_points)[0]


def _grid_and_warping(geom: TorusGeometry, n_points: int):
    """mode_grid and the warping g on its points, checked finite and within
    the float64 range of e^{+-g}."""
    if n_points < MIN_GRID or n_points % 2:
        raise TorusError("grid size must be even and >= %d" % MIN_GRID)
    y = 2.0 * np.pi * np.arange(n_points) / n_points  # the points of periodic_grid
    g = geom.g(y)
    if not np.all(np.isfinite(g)):
        raise TorusError("warping g is not finite on the grid")
    # the D_Q band e^{-g} must be a normal float, and then the coframe's e^{g} is finite
    if np.max(np.abs(g)) > MAX_ABS_G:
        raise TorusError(
            "warping e^{+-g} overflows or underflows float64: max |g| on the grid is %.6g, "
            "the limit is %.6g" % (np.max(np.abs(g)), MAX_ABS_G)
        )
    return periodic_grid(n_points, geom.g_prime(y)), g


def spectrum_DL(geom: TorusGeometry, x_mode: int, n_points: int) -> np.ndarray:
    """Eigenvalues of D_L on the x-mode subspace; independent of the mode.

    In the weighted orthonormal basis the mean-curvature term g'/2 cancels
    the weight's w'/(2w), so the discretization of D_L is i times the Fourier
    differentiation matrix: circulant for every warping. Its eigenvalues are
    read off the Fourier symbols of the assembled matrix, which is checked
    to be exactly block-circulant and Hermitian first.
    """
    grid = mode_grid(geom, n_points)
    op = restrict_to_mode(operator_D_full(geom, "L"), 0, x_mode)
    return hermitian_eigensolve(circulant_symbols(discretize_hermitian(op, grid), op.fiber_dim))


def spectrum_DQ_band(geom: TorusGeometry, x_mode: int, n_points: int) -> np.ndarray:
    """Eigenvalues of D_Q on the x-mode subspace: the diagonal n e^{-g(y_j)}.

    Restricted to the mode, D_Q has no derivative part, so its
    discretization is diagonal; its 1 x 1 blocks are checked like a dense
    Hermitian matrix and their entries read off without an eigensolve. A
    mode whose band leaves float64 is rejected before the band is formed.
    """
    grid, g = _grid_and_warping(geom, n_points)
    # the largest band entry |n| max e^{-g}, in the rounding the band gets;
    # a Python float product overflows to inf without a warning
    peak = float(np.max(np.exp(-g)))
    if not math.isfinite(abs(x_mode) * peak):
        raise TorusError(
            "--mode = %d overflows the D_Q band |mode| e^{-g} in float64: max |g| on the grid "
            "is %.6g, so |mode| must stay below %.6g" % (x_mode, np.max(np.abs(g)),
                                                        np.finfo(float).max / peak)
        )
    op = restrict_to_mode(operator_D_full(geom, "Q"), 0, x_mode)
    blocks = check_hermitian(discretize_diagonal(op, grid))
    return np.sort(blocks[:, 0, 0].real)
