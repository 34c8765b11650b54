"""Chartwise first-order operators: assembly of A_Q and D_Q = A_Q - c(H^L)/2,
restriction to one weight of a circle action, principal symbols, and
Hermitian-symmetric discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from transdirac.clifford import CliffordModule, clifford_matrix
from transdirac.spectral import (
    Grid1D,
    fourier_derivative,
    fourier_diff_matrix,
    hermitian_defect,
    smallest_singular_value,
)

GRAM_TOL = 1e-8


class OperatorError(ValueError):
    pass


class SingularPointError(OperatorError):
    """Raised when a coefficient is evaluated on a declared singular locus."""


@dataclass(frozen=True)
class FirstOrderOperator:
    """Coefficient description sum_k A^k(x) d_k + B0(x) on one chart.

    Array contract: terms takes an (npts, dim) real array of chart points and
    returns the pair of the complex (dim, npts, fiber_dim, fiber_dim) stack
    of all dim derivative coefficients and the (npts, fiber_dim, fiber_dim)
    stack of the zeroth-order term, from one evaluation of whatever they are
    built from. coefficients_at and zeroth_at accept one point (shape (dim,))
    or a stack of points (shape (npts, dim)), check the shape and finiteness
    of both stacks, and drop the npts axis for a single point.
    """

    dim: int
    fiber_dim: int
    terms: Callable

    def coefficients_at(self, x, with_zeroth: bool = False):
        """The dim derivative coefficients at x, shape (dim, [npts,] d, d);
        with_zeroth=True gives the pair of them and the zeroth-order term at
        x, shape ([npts,] d, d), from the same evaluation of terms."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise OperatorError("points must have shape (%d,) or (npts, %d)" % (self.dim, self.dim))
        stack = (len(pts), self.fiber_dim, self.fiber_dim)
        coeffs, zeroth = self.terms(pts)
        coeffs = _checked(coeffs, (self.dim,) + stack, pts, "coefficient")
        zeroth = _checked(zeroth, stack, pts, "zeroth-order term")
        if x.ndim != 2:
            coeffs, zeroth = coeffs[:, 0], zeroth[0]
        return (coeffs, zeroth) if with_zeroth else coeffs

    def zeroth_at(self, x) -> np.ndarray:
        """The zeroth-order term at x: shape ([npts,] d, d)."""
        return self.coefficients_at(x, with_zeroth=True)[1]


def _checked(mats, shape: tuple, pts: np.ndarray, what: str) -> np.ndarray:
    """mats as a complex array, checked to be the finite stack of the given
    shape, whose third-to-last axis runs over pts."""
    mats = np.asarray(mats, dtype=complex)
    if mats.shape != shape:
        raise OperatorError("%s returned shape %s, expected %s" % (what, mats.shape, shape))
    finite = np.all(np.isfinite(mats.reshape((-1,) + shape[-3:])), axis=(0, 2, 3))
    if not np.all(finite):
        raise SingularPointError("%s singular at %s" % (what, pts[np.argmin(finite)]))
    return mats


@dataclass(frozen=True)
class FrameField:
    """Chartwise orthonormal Q-frame: coordinate components of f_1..f_q, an
    orthonormal coframe theta_a of the chart metric (which is sum_a theta_a^2,
    so the frame is orthonormal when the rows theta_a(f_j) are; a conformal
    factor e^{g} enters once, where the metric has e^{2g}).

    Each callable takes an (npts, dim) array of chart points, like the
    FirstOrderOperator coefficients, and returns an array broadcastable to
    the stack shape noted below; a constant field may return one matrix.
    """

    dim: int
    q: int
    components: Callable  # -> (npts, q, dim) real, rows are f_j
    coframe: Callable  # -> (npts, dim, dim) real, rows are theta_a
    samples: Sequence  # points where orthonormality is validated, where finite


def _field_stack(fn: Callable, pts: np.ndarray, shape: tuple) -> np.ndarray:
    """fn(pts) broadcast to the real (npts,) + shape stack."""
    return np.broadcast_to(np.asarray(fn(pts), dtype=float), (len(pts),) + shape)


def _validate_frame(frames: FrameField):
    pts = np.asarray(frames.samples, dtype=float).reshape(-1, frames.dim)
    # a sample where the check leaves float64 cannot be checked; one must remain
    with np.errstate(over="ignore", invalid="ignore"):
        f = _field_stack(frames.components, pts, (frames.q, frames.dim))
        c = _field_stack(frames.coframe, pts, (frames.dim, frames.dim))
        pairings = f @ np.swapaxes(c, 1, 2)
        gram_gap = np.max(np.abs(pairings @ np.swapaxes(pairings, 1, 2) - np.eye(frames.q)),
                          axis=(1, 2))
    finite = np.isfinite(gram_gap)
    if not np.any(finite):
        raise OperatorError("frame not finite at any sample; orthonormality cannot be checked")
    bad = finite & (gram_gap > GRAM_TOL)
    if np.any(bad):
        raise OperatorError("frame not orthonormal at %s" % pts[np.argmax(bad)])


def assemble_AQ(frames: FrameField, mod: CliffordModule) -> FirstOrderOperator:
    """Dirac operator A_Q = sum_j c(f_j) nabla_{f_j} in chart coordinates."""
    if mod.q != frames.q:
        raise OperatorError("module rank does not match frame count")
    _validate_frame(frames)

    def terms(pts):
        # c(f_j) weighted by the k-th components of the f_j, for each k
        rows = _field_stack(frames.components, pts, (frames.q, frames.dim))
        coeffs = clifford_matrix(mod, np.moveaxis(rows, 2, 0))
        return coeffs, np.zeros((len(pts), mod.fiber_dim, mod.fiber_dim), dtype=complex)

    return FirstOrderOperator(dim=frames.dim, fiber_dim=mod.fiber_dim, terms=terms)


def assemble_DQ(frames: FrameField, mod: CliffordModule, mean_curvature: Callable) -> FirstOrderOperator:
    """Self-adjoint correction D_Q = A_Q - c(H^L)/2.

    mean_curvature maps an (npts, dim) array of chart points to the
    (npts, q) f-frame coordinates of H^L.
    """
    aq = assemble_AQ(frames, mod)

    def terms(pts):
        coeffs, zeroth = aq.terms(pts)
        return coeffs, zeroth - 0.5 * clifford_matrix(mod, mean_curvature(pts))

    return FirstOrderOperator(dim=aq.dim, fiber_dim=aq.fiber_dim, terms=terms)


def restrict_to_mode(op: FirstOrderOperator, axis: int, n: int) -> FirstOrderOperator:
    """op on the sections of weight n along the coordinate axis, where d_axis
    acts as -i n: the coefficient of d_axis times -i n joins the zeroth-order
    term, and the other coefficients stay. The result acts on the other dim - 1
    coordinates; its terms evaluate op once, with the axis coordinate set to 0.

    This is the restriction of op only if no coefficient depends on the axis
    coordinate, as when a group acts along it; then the 0 filled in is immaterial.
    """
    if op.dim < 2 or not 0 <= axis < op.dim:
        raise OperatorError("cannot restrict a %d-dimensional operator along axis %r"
                            % (op.dim, axis))

    def terms(pts):
        coeffs, zeroth = op.terms(np.insert(pts, axis, 0.0, axis=1))
        return np.delete(coeffs, axis, axis=0), zeroth + (-1j * n) * coeffs[axis]

    return FirstOrderOperator(dim=op.dim - 1, fiber_dim=op.fiber_dim, terms=terms)


def principal_symbol(op: FirstOrderOperator, x, xi) -> np.ndarray:
    """Symbol sum_k A^k(x) xi_k (no factor of i) at one point or a stack."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if len(xi) != op.dim:
        raise OperatorError("covector length mismatch")
    return np.tensordot(xi, op.coefficients_at(x), axes=(0, 0))


def symbol_smallest_singular_value(op: FirstOrderOperator, x, xi) -> float:
    """The symbol's smallest singular value at x, the least over a stack of points."""
    return smallest_singular_value(principal_symbol(op, x, xi))


def _grid_coefficients(op: FirstOrderOperator, grid: Grid1D):
    """A and B of a 1D operator on the grid points, each an (n, d, d) stack."""
    if op.dim != 1:
        raise OperatorError("only 1D discretization is provided")
    coeffs, zeroth = op.coefficients_at(grid.points[:, None], with_zeroth=True)
    return coeffs[0], zeroth


def discretize_hermitian(op: FirstOrderOperator, grid: Grid1D) -> np.ndarray:
    """Dense matrix of a 1D operator in the weighted orthonormal discrete basis.

    Multiplying sections by sqrt(w) maps L^2(w dy) unitarily onto the flat
    measure, where the operator A d + B becomes A d + (B - A w'/(2w)).  Its
    derivative part is discretized in the split form (A D + D A)/2, which is
    exactly anti-Hermitian times anti-Hermitian coefficients and consistently
    carries the A'/2 term; the pointwise remainder B - A'/2 - A w'/(2w) sits
    on the diagonal.  The result is Hermitian to rounding whenever the
    operator is formally self-adjoint with respect to the weight, while a
    missing self-adjointness correction shows up verbatim in the defect.
    A' is spectral, on the periodic grid; w'/w is the grid's exact
    log_weight_prime.

    The read-only O(n) view fourier_diff_matrix gives is multiplied in place
    into one fresh (n, n, d, d) buffer. For d = 1 that buffer is the result;
    for d > 1 the block transpose copies it once.
    """
    avals, bvals = _grid_coefficients(op, grid)
    rem = bvals - 0.5 * fourier_derivative(avals) - 0.5 * grid.log_weight_prime[:, None, None] * avals
    n, d = grid.n, op.fiber_dim
    # 0.5 (A_j + A_l) D_jl, formed in one (n, n, d, d) buffer
    full = avals[:, None] + avals[None, :]
    full *= 0.5
    full *= fourier_diff_matrix(n)[:, :, None, None]
    full[np.arange(n), np.arange(n)] += rem
    return full.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def discretize_diagonal(op: FirstOrderOperator, grid: Grid1D) -> np.ndarray:
    """The (n, d, d) diagonal blocks of discretize_hermitian(op, grid), which
    has nothing else for an operator without derivative part: B - A'/2 -
    A w'/(2w) at A = 0, the zeroth-order coefficients B. Raises OperatorError
    unless every derivative coefficient is exactly 0 on the grid."""
    avals, bvals = _grid_coefficients(op, grid)
    if np.any(avals != 0):
        raise OperatorError("operator has a derivative part; its discretization is not diagonal")
    return bvals


def hermitian_discretization_defect(op: FirstOrderOperator, grid: Grid1D) -> float:
    return hermitian_defect(discretize_hermitian(op, grid))
