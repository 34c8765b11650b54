"""Circle action on the two-sphere via its oriented frame bundle SO(3).

The frame bundle is charted by two hemisphere charts (theta, phi, alpha);
the horizontal fields V_1, V_2 and the orbit field T are left translates of
fixed so(3) elements. Sections are doubly reduced by the weight n of the
fiberwise SO(2) rotation and the weight m of the lifted circle action,
which collapses each chirality component to a radial ODE
d_phi psi = r(phi) psi on (0, pi/2].
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
    """Isotypic label: frame-rotation weight n, lifted-rotation weight m."""

    n: int
    m: int
    chirality: str = "+"

    def __post_init__(self):
        if self.chirality not in CHIRALITIES:
            raise SphereModelError("chirality must be '+' or '-'")


@dataclass(frozen=True)
class RadialODE:
    """d_phi psi = r(phi) psi with r(phi) = (p - q cos phi) / sin phi; the
    indicial exponent at the pole phi = 0 is p - q."""

    block: SphereBlock
    chart: str
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


def _stack_last(entries) -> np.ndarray:
    """Broadcast real entries against each other and stack them on a new last axis."""
    out = np.empty(np.broadcast_shapes(*[np.shape(v) for v in entries]) + (len(entries),))
    for i, v in enumerate(entries):
        out[..., i] = v
    return out


def _mat3(rows) -> np.ndarray:
    """Stack a 3x3 nested list of broadcastable entries into (..., 3, 3)."""
    flat = _stack_last([v for row in rows for v in row])
    return flat.reshape(flat.shape[:-1] + (3, 3))


def _t(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _rz(t) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return _mat3([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _drz(t) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return _mat3([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])


def _ry(t) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return _mat3([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _dry(t) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return _mat3([[-s, 0.0, c], [0.0, 0.0, 0.0], [-c, 0.0, -s]])


def _lmat(a) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return _mat3([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def _dlmat(a) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return _mat3([[0.0, 0.0, 0.0], [0.0, -s, c], [0.0, -c, -s]])


# columns (e3, e1, e2): parallel transport of these gives the rows
# (point, X, Y) of the frame matrix
_BASIS_UPPER = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
_BASIS_LOWER = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
_FLIP = np.diag([1.0, 1.0, -1.0])


def _transport(theta, phi) -> np.ndarray:
    return _rz(theta) @ _ry(phi) @ _rz(-theta)


def _transport_dtheta(theta, phi) -> np.ndarray:
    return _drz(theta) @ _ry(phi) @ _rz(-theta) - _rz(theta) @ _ry(phi) @ _drz(-theta)


def _transport_dphi(theta, phi) -> np.ndarray:
    return _rz(theta) @ _dry(phi) @ _rz(-theta)


def chart_matrix(chart: str, theta, phi, alpha=0.0) -> np.ndarray:
    """The SO(3) element of the hemisphere chart at (theta, phi, alpha)."""
    _check_chart(chart)
    p = _transport(theta, phi)
    if chart == UPPER:
        return _lmat(alpha) @ _t(p @ _BASIS_UPPER)
    return _lmat(alpha) @ _t(p @ _BASIS_LOWER) @ _FLIP


def _chart_partials(chart: str, theta, phi, alpha):
    basis = _BASIS_UPPER if chart == UPPER else _BASIS_LOWER
    post = np.eye(3) if chart == UPPER else _FLIP
    m = _t(_transport(theta, phi) @ basis) @ post
    la = _lmat(alpha)
    d_alpha = _dlmat(alpha) @ m
    d_theta = la @ _t(_transport_dtheta(theta, phi) @ basis) @ post
    d_phi = la @ _t(_transport_dphi(theta, phi) @ basis) @ post
    return la @ m, (d_alpha, d_theta, d_phi)


def _vec_skew(w: np.ndarray) -> np.ndarray:
    return np.stack([w[..., 0, 1], w[..., 0, 2], w[..., 1, 2]], axis=-1)


def pushforward_components(chart: str, theta, phi, generator: np.ndarray,
                           alpha=0.0) -> np.ndarray:
    """Components of the left-invariant field A -> A*generator in the chart
    coordinate basis (d_alpha, d_theta, d_phi), shape (..., 3) over the
    broadcast shape of the angles; one batched solve of the (..., 3, 3)
    pushforward systems."""
    _check_chart(chart)
    u, partials = _chart_partials(chart, theta, phi, alpha)
    cols = np.stack([_vec_skew(_t(u) @ d) for d in partials], axis=-1)
    rhs = np.broadcast_to(_vec_skew(generator), cols.shape[:-1])
    try:
        return np.linalg.solve(cols, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        worst = np.argmin(np.abs(np.linalg.det(cols)).ravel())
        bad_phi = np.broadcast_to(phi, cols.shape[:-2]).ravel()[worst]
        raise SingularPointError("chart degenerate at phi=%g" % bad_phi) from err


def lifted_vector_fields(chart: str, theta, phi):
    """Component triples of V_1, V_2 in (d_alpha, d_theta, d_phi), each of
    shape (..., 3) over the broadcast shape of theta and phi.

    The upper-chart components are in closed form; the lower chart is
    derived from the chart definition by solving the pushforward system.
    """
    _check_chart(chart)
    sp = np.sin(phi)
    pole = np.abs(sp) < 1e-12
    if np.any(pole):
        raise SingularPointError("coordinate pole at phi=%g" % np.asarray(phi, dtype=float)[pole][0])
    if chart == UPPER:
        st, ct, cp = np.sin(theta), np.cos(theta), np.cos(phi)
        v1 = _stack_last([st * (cp - 1.0) / sp, st * cp / sp, -ct])
        v2 = _stack_last([ct * (1.0 - cp) / sp, -ct * cp / sp, -st])
        return v1, v2
    return (
        pushforward_components(chart, theta, phi, E1),
        pushforward_components(chart, theta, phi, E2),
    )


def orbit_field_components(chart: str, theta, phi) -> np.ndarray:
    return pushforward_components(chart, theta, phi, ET)


# ---------------------------------------------------------------------------
# isotypic reduction to radial ODEs


def _n_eff(n: int, chart: str) -> int:
    # the lower chart sees the frame weight with flipped sign (clutching)
    return n if chart == UPPER else -n


def theta_weight(block: SphereBlock, chart: str) -> int:
    """Angular weight k with psi(theta, phi) = e^{i k theta} psi(0, phi)."""
    return _n_eff(block.n, chart) - block.m


def reduce_block(block: SphereBlock, chart: str) -> RadialODE:
    """Radial reduction d_phi psi = r(phi) psi of the kernel equation."""
    _check_chart(chart)
    ne, m = _n_eff(block.n, chart), block.m
    sign = 1 if block.chirality == "+" else -1
    return RadialODE(block=block, chart=chart, p=sign * ne, q=sign * m,
                     exponent=sign * (ne - m))


def closed_form_kernel_section(block: SphereBlock, chart: str) -> Callable:
    """Closed-form kernel solution (C = 1); may be unbounded at the pole."""
    _check_chart(chart)
    ne, m = _n_eff(block.n, chart), block.m
    k = ne - m

    if block.chirality == "+":
        def section(theta, phi):
            return np.sin(phi) ** (ne - m) / (np.cos(phi) + 1.0) ** ne * np.exp(1j * k * theta)
    else:
        def section(theta, phi):
            return (np.cos(phi) + 1.0) ** ne * np.sin(phi) ** (m - ne) * np.exp(1j * k * theta)

    return section


# ---------------------------------------------------------------------------
# full chartwise operator and residual diagnostics


def _w_plus(chart: str, theta, phi) -> np.ndarray:
    v1, v2 = lifted_vector_fields(chart, theta, phi)
    return v1 + 1j * v2


def apply_chart_operator(n: int, chart: str, chirality: str, section: Callable,
                         theta, phi, step: float = 1e-4):
    """Apply the chartwise kernel operator to a weight-n section at the
    broadcast (theta, phi) points.

    Chirality '+' applies V_1 + i V_2, chirality '-' applies
    -conj(V_1 + i V_2); d_alpha acts as multiplication by -i n and the
    remaining derivatives are 4th-order finite differences. The section
    must accept array arguments.
    """
    w = _w_plus(chart, theta, phi)
    if chirality == "-":
        w = -np.conj(w)
    elif chirality != "+":
        raise SphereModelError("chirality must be '+' or '-'")

    def d4(f, x0, h):
        return (-f(x0 + 2 * h) + 8 * f(x0 + h) - 8 * f(x0 - h) + f(x0 - 2 * h)) / (12.0 * h)

    d_theta = d4(lambda t: section(t, phi), theta, step)
    d_phi = d4(lambda p: section(theta, p), phi, step)
    return w[..., 0] * (-1j * n) * section(theta, phi) + w[..., 1] * d_theta + w[..., 2] * d_phi


def pde_residual(block: SphereBlock, chart: str, phi_values, theta_values=None) -> float:
    """Max relative residual of the closed-form section under the full
    chartwise operator on a (theta, phi) mesh away from the poles."""
    phi_values = np.atleast_1d(np.asarray(phi_values, dtype=float))
    if np.min(phi_values) < POLE_EPS:
        raise SphereModelError("grid touches the coordinate pole")
    if theta_values is None:
        theta_values = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    theta = np.atleast_1d(np.asarray(theta_values, dtype=float))[:, None]
    phi = phi_values[None, :]
    section = closed_form_kernel_section(block, chart)
    # an overflowing section is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = apply_chart_operator(block.n, chart, block.chirality, section, theta, phi)
        residual = np.abs(out) / np.maximum(np.abs(section(theta, phi)), 1e-300)
    if not np.all(np.isfinite(residual)):
        raise SphereModelError("non-finite PDE residual: the closed-form section overflows "
                               "on the grid for block (%d, %d)" % (block.n, block.m))
    return float(np.max(residual))


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
    """Kernel sections on both charts scaled to agree at the equator."""
    upper = closed_form_kernel_section(block, UPPER)
    lower = closed_form_kernel_section(block, LOWER)
    half_pi = 0.5 * np.pi
    ratio = upper(0.0, half_pi) / lower(0.0, half_pi)
    return upper, lambda theta, phi: ratio * lower(theta, phi)


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


def compare_block_reductions(n: int, m: int, phi_values=None) -> float:
    """Coefficient-level agreement of the two reduction routes.

    Route 1 restricts the quotient operator to frame weight n; route 2 is
    the radial table from the sphere-side reduction. Returns the sup over
    the phi grid of the coefficient discrepancy, across both chiralities.
    The operator is evaluated once on the whole grid.
    """
    if phi_values is None:
        phi_values = np.linspace(0.05, 0.5 * np.pi, 201)
    phis = np.atleast_1d(np.asarray(phi_values, dtype=float))
    op = quotient_reduced_operator(m)
    pts = np.column_stack([np.full_like(phis, 0.3), phis])
    a_theta, a_phi = op.coefficients_at(pts)
    b0 = op.zeroth_at(pts)
    k = n - m  # theta weight of sigma_n sections on the upper chart
    worst = 0.0
    for chirality, (row, col) in (("+", (1, 0)), ("-", (0, 1))):
        table_r = reduce_block(SphereBlock(n=n, m=m, chirality=chirality), UPPER).r
        r1 = -(a_theta[:, row, col] * 1j * k + b0[:, row, col]) / a_phi[:, row, col]
        worst = max(worst, float(np.max(np.abs(r1 - table_r(phis)))))
    return worst


def reduction_gaps(n_max: int, m_max: int) -> dict:
    """compare_block_reductions over the blocks |n| <= n_max, |m| <= m_max,
    keyed by (n, m) in row-major order; an empty range is an error."""
    if n_max < 0 or m_max < 0:
        raise SphereModelError("empty block range: n_max and m_max must be >= 0")
    return {(n, m): compare_block_reductions(n, m)
            for n in range(-n_max, n_max + 1) for m in range(-m_max, m_max + 1)}
