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
_CHUNK = 128  # n values per compare_block_reductions call in reduction_gaps

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
    return RadialODE(block=block, chart=chart, p=sign * ne, q=sign * m,
                     exponent=sign * (ne - m))


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


def apply_chart_operator(n: int, chart: str, chirality: str, value, d_theta, d_phi, theta, phi):
    """Apply the chartwise kernel operator to a weight-n section with the given
    value and partial derivatives d_theta, d_phi at the broadcast (theta, phi).

    Chirality '+' applies V_1 + i V_2, chirality '-' applies
    -conj(V_1 + i V_2); d_alpha acts as multiplication by -i n.
    """
    w = _w_plus(chart, theta, phi)
    if chirality == "-":
        w = -np.conj(w)
    elif chirality != "+":
        raise SphereModelError("chirality must be '+' or '-'")
    return w[..., 0] * (-1j * n) * value + w[..., 1] * d_theta + w[..., 2] * d_phi


def pde_residual(block: SphereBlock, chart: str, phi_values):
    """Max relative residual |Ds|/|s| of the closed-form section s under the
    full chartwise operator on the mesh of six thetas by the given phis, away
    from the poles; D acts on s/s = 1 with the exact log-derivatives of s, so
    s (which can overflow) is never formed. A float for int labels; for a
    batch, the per-block maxima in the labels' shape, from one evaluation of
    the chart fields."""
    phi_values = np.atleast_1d(np.asarray(phi_values, dtype=float))
    if phi_values.size == 0:
        raise SphereModelError("empty phi grid")
    if np.min(phi_values) < POLE_EPS:
        raise SphereModelError("grid touches the coordinate pole")
    batched = np.ndim(block.n) > 0 or np.ndim(block.m) > 0
    if batched:  # labels on leading axes, the (theta, phi) mesh on the last two
        block = SphereBlock(n=np.asarray(block.n)[..., None, None],
                            m=np.asarray(block.m)[..., None, None], chirality=block.chirality)
    theta = np.linspace(0.0, 2.0 * np.pi, 7)[:-1, None]
    phi = phi_values[None, :]
    log_d_theta, log_d_phi = closed_form_kernel_section(block, chart).log_derivatives(phi)
    out = apply_chart_operator(block.n, chart, block.chirality, 1.0, log_d_theta, log_d_phi,
                               theta, phi)
    worst = np.max(np.abs(out), axis=(-2, -1))
    return worst if batched else float(worst)


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
    keyed by (n, m) in row-major order; an empty range is an error, and so is
    a bound of 2**62 or more, where n - m could leave int64. Each m takes
    one call per chunk of n values."""
    if n_max < 0 or m_max < 0:
        raise SphereModelError("empty block range: n_max and m_max must be >= 0")
    if max(n_max, m_max) >= 2 ** 62:
        raise SphereModelError("n_max and m_max must be < 2**62, got %d and %d" % (n_max, m_max))
    n_values, m_values = range(-n_max, n_max + 1), range(-m_max, m_max + 1)
    columns = [np.concatenate([
        compare_block_reductions(np.arange(start, min(start + _CHUNK, n_max + 1)), m)
        for start in n_values[::_CHUNK]]).tolist() for m in m_values]
    return {(n, m): column[i] for i, n in enumerate(n_values)
            for m, column in zip(m_values, columns)}
