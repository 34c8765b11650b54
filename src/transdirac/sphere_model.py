"""Circle action on the two-sphere via its oriented frame bundle SO(3).

The frame bundle is charted by two hemisphere charts (theta, phi, alpha);
the horizontal fields V_1, V_2 and the orbit field T are left translates of
the so(3) elements E1, E2 and ET. Each chart is built from rotations
exp(t K) of these generators and its (basis, flip) pair, and every field
component on either chart comes from one pushforward solve of the chart's
partials, several generators sharing it as right-hand sides. The chartwise
kernel operator applies w = V_1 + i V_2 (chirality '+') and -conj(w)
(chirality '-'), so one field evaluation serves both chiralities.

Sections are doubly reduced by the weight n of the fiberwise SO(2) rotation
and the weight m of the lifted circle action, which collapses each chirality
component to a radial ODE d_phi psi = r(phi) psi on (0, pi/2].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from transdirac.transverse_operator import FirstOrderOperator, SingularPointError

UPPER = "upper"
LOWER = "lower"
CHARTS = (UPPER, LOWER)
CHIRALITIES = ("+", "-")

POLE_EPS = 1e-3
CHUNK = 128  # labels per batched call in reduction_gaps and build_index_table
# the most blocks one index table or gap report may span. Peak memory grows
# by about 0.9 kB per block, so on a 2-core host the 511 x 511 blocks within
# the bound peak at 258 MB for a closed-form table (2 s) and at 187 MB for
# compare-quotient (7 s); a 601 x 601 table, beyond it, peaks at 352 MB
MAX_BLOCKS = 2 ** 18
# the phi mesh and the pass threshold of the kernel PDE residual checks
RESIDUAL_PHIS = np.linspace(0.05, 0.5 * np.pi, 25)
RESIDUAL_PHIS.flags.writeable = False
RESIDUAL_TOL = 1e-6

# so(3) generators of the two horizontal directions and the orbit direction
E1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
E2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
ET = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


class SphereModelError(ValueError):
    pass


def _check_chart(chart: str):
    if chart not in CHARTS:
        raise SphereModelError("unknown chart %r" % chart)


@dataclass(frozen=True)
class SphereBlock:
    """Isotypic label: frame-rotation weight n, lifted-rotation weight m; for
    a batch, n and m are integer arrays of one shape (reduce_block is elementwise)."""

    n: int
    m: int
    chirality: str = "+"

    def __post_init__(self):
        if self.chirality not in CHIRALITIES:
            raise SphereModelError("chirality must be '+' or '-'")


@dataclass(frozen=True)
class RadialODE:
    """d_phi psi = r(phi) psi with r(phi) = (p - q cos phi) / sin phi; the
    indicial exponent at the pole phi = 0 is p - q. For a batched block, p, q
    and exponent are integer arrays of the labels' shape."""

    p: int
    q: int
    exponent: int

    def r(self, phi):
        return (self.p - self.q * np.cos(phi)) / np.sin(phi)


# ---------------------------------------------------------------------------
# charts of SO(3) and pushforward of the invariant fields
#
# Angles may be scalars or broadcastable arrays; matrices come back as
# (..., 3, 3) stacks over the broadcast shape.


def _t(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _rotation(generator: np.ndarray, t) -> np.ndarray:
    """exp(t K) for a generator K with K^3 = -K (a unit-speed rotation), by
    Rodrigues: the axis projector I + K^2, plus sin t K, minus cos t K^2. For
    the axis generators here each entry takes one term, so it holds cos t and
    sin t exactly."""
    t = np.asarray(t, dtype=float)[..., None, None]
    square = generator @ generator
    return np.eye(3) + square + np.sin(t) * generator - np.cos(t) * square


# columns (e3, e1, e2) of each chart's basis: parallel transport of these
# gives the rows (point, X, Y) of the frame matrix, then the flip
_CHART_FRAMES = {
    UPPER: (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.eye(3)),
    LOWER: (np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
            np.diag([1.0, 1.0, -1.0])),
}


def _chart_frame(chart: str, transport: np.ndarray) -> np.ndarray:
    """The chart's frame matrix carried by a transport matrix; linear in it,
    so the transport's partials give the frame's."""
    basis, flip = _CHART_FRAMES[chart]
    return _t(transport @ basis) @ flip


def _transport(theta, phi):
    """Parallel transport P = Rz(theta) Ry(phi) Rz(-theta) from the pole, with
    Rz(t) = exp(-t ET) and Ry(t) = exp(t E1), and its partials
    (d_theta P, d_phi P) = (P ET - ET P, Rz(theta) Ry(phi) E1 Rz(-theta))."""
    rz, ry = _rotation(-ET, theta), _rotation(E1, phi)
    p = rz @ ry @ _t(rz)
    return p, (p @ ET - ET @ p, rz @ ry @ E1 @ _t(rz))


def chart_matrix(chart: str, theta, phi, alpha=0.0) -> np.ndarray:
    """The SO(3) element of the hemisphere chart at (theta, phi, alpha)."""
    _check_chart(chart)
    return _rotation(E2, alpha) @ _chart_frame(chart, _transport(theta, phi)[0])


def _chart_partials(chart: str, theta, phi, alpha):
    """The chart matrix U and its partials (d_alpha U, d_theta U, d_phi U)."""
    p, (p_theta, p_phi) = _transport(theta, phi)
    la, frame = _rotation(E2, alpha), _chart_frame(chart, p)
    return la @ frame, (la @ E2 @ frame,
                        la @ _chart_frame(chart, p_theta), la @ _chart_frame(chart, p_phi))


def _vec_skew(w: np.ndarray) -> np.ndarray:
    return np.stack([w[..., 0, 1], w[..., 0, 2], w[..., 1, 2]], axis=-1)


def pushforward_components(chart: str, theta, phi, generator: np.ndarray,
                           alpha=0.0) -> np.ndarray:
    """Components of the left-invariant field A -> A*generator in the chart
    coordinate basis (d_alpha, d_theta, d_phi), shape (..., 3) over the
    broadcast shape of the angles. A (k, 3, 3) stack of generators gives
    (..., 3, k), one column per generator, from the same solve: one batched
    solve of the (..., 3, 3) pushforward systems with k right-hand sides."""
    _check_chart(chart)
    u, partials = _chart_partials(chart, theta, phi, alpha)
    cols = np.stack([_vec_skew(_t(u) @ d) for d in partials], axis=-1)
    generator = np.asarray(generator, dtype=float)
    rhs = _vec_skew(generator.reshape(-1, 3, 3)).T
    try:
        out = np.linalg.solve(cols, np.broadcast_to(rhs, cols.shape[:-1] + rhs.shape[-1:]))
    except np.linalg.LinAlgError as err:
        worst = np.argmin(np.abs(np.linalg.det(cols)).ravel())
        bad_phi = np.broadcast_to(phi, cols.shape[:-2]).ravel()[worst]
        raise SingularPointError("chart degenerate at phi=%g" % bad_phi) from err
    return out[..., 0] if generator.ndim == 2 else out


def lifted_vector_fields(chart: str, theta, phi):
    """Component triples of V_1, V_2 in (d_alpha, d_theta, d_phi), each of
    shape (..., 3) over the broadcast shape of theta and phi: on either
    chart, one pushforward solve with E1 and E2 as its two right-hand sides.
    """
    _check_chart(chart)
    pole = np.abs(np.sin(phi)) < 1e-12
    if np.any(pole):
        raise SingularPointError("coordinate pole at phi=%g" % np.asarray(phi, dtype=float)[pole][0])
    fields = pushforward_components(chart, theta, phi, np.stack([E1, E2]))
    return fields[..., 0], fields[..., 1]


def orbit_field_components(chart: str, theta, phi) -> np.ndarray:
    return pushforward_components(chart, theta, phi, ET)


# ---------------------------------------------------------------------------
# isotypic reduction to radial ODEs


def _n_eff(n: int, chart: str) -> int:
    # the lower chart sees the frame weight with flipped sign (clutching)
    return n if chart == UPPER else -n


def _weights(block: SphereBlock, chart: str):
    """(n_eff, m) of the block on the chart. Int labels stay Python ints; a
    batch comes back as int64 arrays, once exact integers show that n, m and
    n_eff - m, and so their negatives, fit int64 for every label pair."""
    _check_chart(chart)
    if np.ndim(block.n) == 0 and np.ndim(block.m) == 0:
        return _n_eff(block.n, chart), block.m
    n, m = np.broadcast_arrays(np.asarray(block.n, dtype=object), np.asarray(block.m, dtype=object))
    bad = np.any([abs(v) >= 2 ** 63 for v in (n, m, _n_eff(n, chart) - m)], axis=0)
    if np.any(bad):
        at = np.argmax(bad)
        raise SphereModelError("label pair (n, m) = (%d, %d) leaves int64 on the %s chart"
                               % (n.flat[at], m.flat[at], chart))
    return _n_eff(n.astype(np.int64), chart), m.astype(np.int64)


def theta_weight(block: SphereBlock, chart: str) -> int:
    """Angular weight k with psi(theta, phi) = e^{i k theta} psi(0, phi)."""
    ne, m = _weights(block, chart)
    return ne - m


def reduce_block(block: SphereBlock, chart: str) -> RadialODE:
    """Radial reduction d_phi psi = r(phi) psi of the kernel equation."""
    ne, m = _weights(block, chart)
    sign = 1 if block.chirality == "+" else -1
    return RadialODE(p=sign * ne, q=sign * m, exponent=sign * (ne - m))


@dataclass(frozen=True)
class KernelSection:
    """Closed-form kernel solution sin(phi)^sin_power (1 + cos(phi))^cos_power
    e^{i theta_weight theta} (C = 1); may be unbounded at the pole."""

    sin_power: int
    cos_power: int
    theta_weight: int

    def __call__(self, theta, phi):
        return (np.sin(phi) ** self.sin_power * (np.cos(phi) + 1.0) ** self.cos_power
                * np.exp(1j * self.theta_weight * theta))

    def log_derivatives(self, phi):
        """(d_theta s / s, d_phi s / s) at phi, exact and free of overflow."""
        return (1j * self.theta_weight,
                self.sin_power / np.tan(phi) - self.cos_power * np.sin(phi) / (1.0 + np.cos(phi)))


def closed_form_kernel_section(block: SphereBlock, chart: str) -> KernelSection:
    """The block's kernel section on the chart, from the weights, not reduce_block."""
    ne, m = _weights(block, chart)
    sign = 1 if block.chirality == "+" else -1
    return KernelSection(sin_power=sign * (ne - m), cos_power=-sign * ne, theta_weight=ne - m)


# ---------------------------------------------------------------------------
# full chartwise operator and residual diagnostics


def _w_plus(chart: str, theta, phi) -> np.ndarray:
    v1, v2 = lifted_vector_fields(chart, theta, phi)
    return v1 + 1j * v2


def apply_chart_operator(n, chart: str, value, d_theta, d_phi, theta, phi):
    """Apply the chartwise kernel operator of both chiralities to a weight-n
    section with the given value and partial derivatives d_theta, d_phi at the
    broadcast (theta, phi), from one evaluation of the chart fields.

    Chirality '+' applies w = V_1 + i V_2, chirality '-' applies -conj(w);
    d_alpha acts as multiplication by -i n. The result carries the
    chiralities, in the order of CHIRALITIES, on a new last axis, and n,
    value, d_theta and d_phi broadcast against it: a scalar serves both, a
    trailing axis of length 2 gives each chirality its own input.
    """
    w = _w_plus(chart, theta, phi)
    w = np.stack([w, -np.conj(w)], axis=-1)
    return w[..., 0, :] * (-1j * n) * value + w[..., 1, :] * d_theta + w[..., 2, :] * d_phi


def pde_residual(n, m, chart: str, phi_values) -> np.ndarray:
    """Max relative residual |Ds|/|s| of the closed-form kernel sections s of
    the blocks (n, m) under the full chartwise operator on the mesh of six
    thetas by the given phis, away from the poles; D acts on s/s = 1 with the
    exact log-derivatives of s, so s (which can overflow) is never formed.

    n and m are ints or integer arrays of one broadcast shape; the result has
    shape (len(CHIRALITIES),) + that shape, both chiralities of every block
    from one evaluation of the chart fields.
    """
    phi_values = np.atleast_1d(np.asarray(phi_values, dtype=float))
    if phi_values.size == 0:
        raise SphereModelError("empty phi grid")
    if np.min(phi_values) < POLE_EPS:
        raise SphereModelError("grid touches the coordinate pole")
    # labels on leading axes, then the (theta, phi) mesh, then the chirality
    n, m = np.asarray(n)[..., None, None], np.asarray(m)[..., None, None]
    theta = np.linspace(0.0, 2.0 * np.pi, 7)[:-1, None]
    phi = phi_values[None, :]
    logs = [closed_form_kernel_section(SphereBlock(n, m, chirality), chart).log_derivatives(phi)
            for chirality in CHIRALITIES]
    d_theta, d_phi = (np.stack(pair, axis=-1) for pair in zip(*logs))
    out = apply_chart_operator(n[..., None], chart, 1.0, d_theta, d_phi, theta, phi)
    return np.moveaxis(np.max(np.abs(out), axis=(-3, -2)), -1, 0)


def clutching_check(n: int, psi_upper: Callable, psi_lower: Callable,
                    thetas=None, tol: float = 1e-10) -> bool:
    """Equator matching psi1(theta, pi/2) = e^{2 i n theta} psi2(theta, pi/2)."""
    if thetas is None:
        thetas = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
    thetas = np.asarray(thetas, dtype=float)
    upper = psi_upper(thetas, 0.5 * np.pi)
    gap = np.abs(upper - np.exp(2j * n * thetas) * psi_lower(thetas, 0.5 * np.pi))
    return bool(np.all(gap <= tol * max(np.max(np.abs(upper)), 1e-300)))


def matched_global_section(block: SphereBlock):
    """Kernel sections on both charts; with C = 1 both are 1 at theta = 0 on
    the equator, so they need no rescaling to be matched there."""
    return closed_form_kernel_section(block, UPPER), closed_form_kernel_section(block, LOWER)


# ---------------------------------------------------------------------------
# reduced 2x2 operators on the hemisphere


def _chiral_pair(upper, lower) -> np.ndarray:
    """(npts, 2, 2) stack with zero diagonal and the given off-diagonal entries."""
    out = np.zeros((len(lower), 2, 2), dtype=complex)
    out[:, 0, 1] = upper
    out[:, 1, 0] = lower
    return out


def sigma_reduced_operator(n: int) -> FirstOrderOperator:
    """The weight-n reduction of the sphere operator on the upper chart:
    a 2x2 first-order operator in (theta, phi) with d_alpha -> -i n."""

    def w_at(pts):
        return _w_plus(UPPER, pts[:, 0], pts[:, 1])

    def coeff(index):
        def pair(pts):
            w = w_at(pts)[:, index]
            return _chiral_pair(-np.conj(w), w)

        return pair

    def zeroth(pts):
        w = w_at(pts)[:, 0]
        return _chiral_pair(1j * n * np.conj(w), -1j * n * w)

    return FirstOrderOperator(
        chart="sphere-upper", dim=2, fiber_dim=2, coeff=(coeff(1), coeff(2)), zeroth=zeroth
    )


def quotient_reduced_operator(m: int) -> FirstOrderOperator:
    """The weight-m operator on the quotient hemisphere, obtained from the
    substitution d_alpha -> -d_theta - i m."""

    def a_theta(pts):
        theta, phi = pts[:, 0], pts[:, 1]
        val = -1j * np.exp(1j * theta) / np.sin(phi)
        return _chiral_pair(-np.conj(val), val)

    def a_phi(pts):
        val = -np.exp(1j * pts[:, 0])
        return _chiral_pair(-np.conj(val), val)

    def zeroth(pts):
        theta, phi = pts[:, 0], pts[:, 1]
        val = -m * np.exp(1j * theta) * (1.0 / np.tan(phi) - 1.0 / np.sin(phi))
        # the (1,2) entry picks up conj(val), not -conj(val): the d_alpha
        # substitution happens after the chiral conjugation
        return _chiral_pair(np.conj(val), val)

    return FirstOrderOperator(
        chart="quotient-upper", dim=2, fiber_dim=2, coeff=(a_theta, a_phi), zeroth=zeroth
    )


def compare_block_reductions(n, m: int, phi_values=None):
    """Coefficient-level agreement of the two reduction routes.

    Route 1 restricts the quotient operator to frame weight n; route 2 is
    the radial table from the sphere-side reduction. Returns the sup over
    the phi grid of the coefficient discrepancy, across both chiralities:
    a float for an int n, and one value per entry of an integer array n.
    The operator is evaluated once on the whole grid, for every n.
    """
    if phi_values is None:
        phi_values = np.linspace(0.05, 0.5 * np.pi, 201)
    phis = np.atleast_1d(np.asarray(phi_values, dtype=float))
    op = quotient_reduced_operator(m)
    pts = np.column_stack([np.full_like(phis, 0.3), phis])
    a_theta, a_phi = op.coefficients_at(pts)
    b0 = op.zeroth_at(pts)
    batched = np.ndim(n) > 0
    if batched:  # n on the leading axes, the phi grid on the last
        n = np.asarray(n)[..., None]
    k = theta_weight(SphereBlock(n=n, m=m), UPPER)  # of sigma_n sections on the upper chart
    worst = 0.0
    for chirality, (row, col) in (("+", (1, 0)), ("-", (0, 1))):
        table_r = reduce_block(SphereBlock(n=n, m=m, chirality=chirality), UPPER).r
        r1 = -(a_theta[:, row, col] * 1j * k + b0[:, row, col]) / a_phi[:, row, col]
        worst = np.maximum(worst, np.max(np.abs(r1 - table_r(phis)), axis=-1))
    return worst if batched else float(worst)


def reduction_gaps(n_max: int, m_max: int) -> dict:
    """compare_block_reductions over the blocks |n| <= n_max, |m| <= m_max,
    keyed by (n, m) in row-major order; an empty range is an error, and so are
    a bound of 2**62 or more, where n - m could leave int64, and a range of
    more than MAX_BLOCKS blocks. Each m takes one call per chunk of n values."""
    if n_max < 0 or m_max < 0:
        raise SphereModelError("empty block range: n_max and m_max must be >= 0")
    if max(n_max, m_max) >= 2 ** 62:
        raise SphereModelError("n_max and m_max must be < 2**62, got %d and %d" % (n_max, m_max))
    count = (2 * n_max + 1) * (2 * m_max + 1)
    if count > MAX_BLOCKS:
        raise SphereModelError("n_max = %d and m_max = %d span %d blocks, more than the %d allowed"
                               % (n_max, m_max, count, MAX_BLOCKS))
    n_values, m_values = range(-n_max, n_max + 1), range(-m_max, m_max + 1)
    columns = [np.concatenate([
        compare_block_reductions(np.arange(start, min(start + CHUNK, n_max + 1)), m)
        for start in n_values[::CHUNK]]).tolist() for m in m_values]
    return {(n, m): column[i] for i, n in enumerate(n_values)
            for m, column in zip(m_values, columns)}
