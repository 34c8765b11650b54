"""Circle action on the two-sphere via its oriented frame bundle SO(3).

The frame bundle is charted by two hemisphere charts (theta, phi, alpha);
the horizontal fields V_1, V_2 and the orbit field T are left translates of
the so(3) elements E1, E2 and ET. Through its constant (basis, flip, sign)
record, each chart reads its Maurer-Cartan columns off P ET P^T and Rz E1
Rz^T, for the transport P from the pole, so both charts' field components
come from one transport and one solve, the generators its right-hand
sides. The chartwise kernel operator applies w = V_1 + i V_2 (chirality
'+') and -conj(w) (chirality '-'), so one field evaluation serves both
chiralities and both charts.

Sections are doubly reduced by the weight n of the fiberwise SO(2) rotation
and the weight m of the lifted circle action, which collapses each chirality
component to a radial ODE d_phi psi = r(phi) psi on (0, pi/2], the block's one
closed form, solved by its kernel sections; the quotient gives r linear in
the labels, so the two reductions are compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from transdirac.transverse_operator import FirstOrderOperator, SingularPointError, restrict_to_mode

UPPER = "upper"
LOWER = "lower"
CHARTS = (UPPER, LOWER)
# each chart's sign on the frame weight n, in the order of CHARTS (clutching)
CHART_SIGNS = np.array([1, -1])
CHART_SIGNS.flags.writeable = False
CHIRALITIES = ("+", "-")
# each chirality's sign on the radial table (p, q), in the order of CHIRALITIES
CHIRAL_SIGNS = np.array([1, -1])
CHIRAL_SIGNS.flags.writeable = False
# the (row, column) entry of the 2x2 chart operator that holds each
# chirality's field, in the order of CHIRALITIES: '+' below the diagonal
PAIR_SLOTS = ((1, 0), (0, 1))

POLE_EPS = 1e-3
# the most blocks one index table or gap report may span. Peak memory grows
# by about 0.24 kB per block: on a 2-core host the 511 x 511 blocks within
# the bound peak at 92 MB for a closed-form table (0.15 s) and 93 MB for a
# numeric one (0.2 s), and at 96 MB for compare-quotient (0.4 s, mostly
# rendering); the CLI writes the document in slices, not one encoded copy
MAX_BLOCKS = 2 ** 18
# the phi mesh and the pass threshold of the kernel PDE residual checks
RESIDUAL_PHIS = np.linspace(0.05, 0.5 * np.pi, 25)
RESIDUAL_PHIS.flags.writeable = False
RESIDUAL_TOL = 1e-6
# the theta and the phi grid on which _quotient_fits reads the quotient operator
QUOTIENT_THETA = 0.3
QUOTIENT_PHIS = np.linspace(0.05, 0.5 * np.pi, 201)
QUOTIENT_PHIS.flags.writeable = False

# so(3) generators of the two horizontal directions and the orbit direction
E1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
E2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
ET = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


class SphereModelError(ValueError):
    pass


def check_tol(tol: float) -> float:
    """tol, if it is a positive finite pass threshold: an infinite one passes
    every check vacuously, and NaN or a non-positive one none."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number, got %r" % tol)
    return tol


def _check_chart(chart: str) -> str:
    if chart not in CHARTS:
        raise SphereModelError("unknown chart %r" % chart)
    return chart


@dataclass(frozen=True)
class RadialODE:
    """d_phi psi = r(phi) psi with r(phi) = (p - q cos phi) / sin phi, a
    block's closed form: its solution sin(phi)^(p - q) (1 + cos(phi))^(-p)
    e^{i theta_weight theta} (C = 1) is the kernel section, which may be
    unbounded at the pole, and the indicial exponent at phi = 0 is p - q. p
    and q are int64 arrays of the labels' shape and last axes (chart,
    chirality); theta and phi broadcast against both."""

    p: np.ndarray
    q: np.ndarray

    @property
    def exponent(self):
        return self.p - self.q

    @property
    def theta_weight(self):
        return CHIRAL_SIGNS * self.exponent

    def r(self, phi):
        return (self.p - self.q * np.cos(phi)) / np.sin(phi)

    def __call__(self, theta, phi):
        return (np.sin(phi) ** self.exponent * (np.cos(phi) + 1.0) ** -self.p
                * np.exp(1j * self.theta_weight * theta))

    def log_derivatives(self, phi):
        """(d_theta s / s, d_phi s / s) of the section s at phi, exact and free of overflow."""
        return (1j * self.theta_weight,
                self.exponent / np.tan(phi) + self.p * np.sin(phi) / (1.0 + np.cos(phi)))


# ---------------------------------------------------------------------------
# charts of SO(3) and pushforward of the invariant fields
#
# Angles may be scalars or broadcastable arrays; matrices come back as
# (..., 3, 3) stacks over the broadcast shape. The chart-field functions take
# one chart, or a sequence of charts (CHARTS) that puts a leading chart axis
# on their result.


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


# per chart: basis B (transport carries its columns (e3, e1, e2) to the frame
# rows (point, X, Y)), flip F = diag(f) and the sign s of B E2 B^T = s ET;
# written out, as @ at import costs 0.1-0.4 MB of RSS in OpenBLAS pages
_CHART_FRAMES = {
    UPPER: (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.ones(3), 1.0),
    LOWER: (np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
            np.array([1.0, 1.0, -1.0]), -1.0),
}


def _transport(theta, phi):
    """Parallel transport P = Rz(theta) Ry(phi) Rz(-theta) from the pole, with
    Rz(t) = exp(-t ET) and Ry(t) = exp(t E1), and Rz(theta). P's partials
    need not be formed: d_theta P = P ET - ET P gives P d_theta P^T = ET -
    P ET P^T, and as Ry commutes with E1, P d_phi P^T = -Rz E1 Rz^T."""
    rz = _rotation(-ET, theta)
    return rz @ _rotation(E1, phi) @ _t(rz), rz


def chart_matrix(chart: str, theta, phi, alpha=0.0) -> np.ndarray:
    """The SO(3) element U = exp(alpha E2) B^T P^T F of the hemisphere chart
    at (theta, phi, alpha)."""
    basis, flip, _ = _CHART_FRAMES[_check_chart(chart)]
    return _rotation(E2, alpha) @ (_t(_transport(theta, phi)[0] @ basis) * flip)


def _vec_skew(w: np.ndarray) -> np.ndarray:
    return np.stack([w[..., 0, 1], w[..., 0, 2], w[..., 1, 2]], axis=-1)


def pushforward_components(chart, theta, phi, generator: np.ndarray) -> np.ndarray:
    """Components c of the left-invariant field A -> A*generator in the chart
    coordinate basis (d_alpha, d_theta, d_phi), shape (..., 3) over the
    broadcast shape of the angles; a (k, 3, 3) stack of generators gives
    (..., 3, k), one column per generator. c solves U^T dU c = generator in
    so(3), where exp(alpha E2) cancels, so c does not depend on alpha: U^T dU
    is F X F, with X = P B E2 B^T P^T = s P ET P^T along alpha and X = P dP^T
    along theta and phi, so one batched solve serves every chart and generator.
    The theta column of U^T dU vanishes with sin(phi), so a phi at either
    pole (|sin phi| < 1e-12) raises SingularPointError."""
    pole = np.abs(np.sin(phi)) < 1e-12
    if np.any(pole):
        raise SingularPointError("coordinate pole at phi=%g" % np.asarray(phi, dtype=float)[pole][0])
    charts = (chart,) if isinstance(chart, str) else chart
    _, flips, k_signs = map(np.array, zip(*(_CHART_FRAMES[_check_chart(c)] for c in charts)))
    p, rz = _transport(theta, phi)
    spin = _vec_skew(p @ ET @ _t(p))
    # the chart axis ahead of the angles' axes and the skew entries
    lead = (slice(None),) + (None,) * (p.ndim - 2)
    cols = np.stack(np.broadcast_arrays(k_signs[lead][..., None] * spin, _vec_skew(ET) - spin,
                                        -_vec_skew(rz @ E1 @ _t(rz))), axis=-1)
    # F's signs f_i f_j on the skew entries (0, 1), (0, 2), (1, 2) of every column
    cols *= (flips[:, [0, 0, 1]] * flips[:, [1, 2, 2]])[lead][..., None]
    generator = np.asarray(generator, dtype=float)
    rhs = _vec_skew(generator.reshape(-1, 3, 3)).T
    out = np.linalg.solve(cols, np.broadcast_to(rhs, cols.shape[:-1] + rhs.shape[-1:]))
    out = out[..., 0] if generator.ndim == 2 else out
    return out[0] if isinstance(chart, str) else out


def lifted_vector_fields(chart, theta, phi):
    """Component triples of V_1, V_2 in (d_alpha, d_theta, d_phi), each of
    shape (..., 3) over the broadcast shape of theta and phi: on every chart,
    one pushforward solve with E1 and E2 as its two right-hand sides.
    """
    fields = pushforward_components(chart, theta, phi, np.stack([E1, E2]))
    return fields[..., 0], fields[..., 1]


# ---------------------------------------------------------------------------
# isotypic reduction to radial ODEs


def _weights(n, m):
    """(n_eff, m), int64 arrays of the labels' broadcast shape and a last axis
    over CHARTS: n_eff is n signed by CHART_SIGNS. Ints and arrays alike must
    be int64 inside (-2**62, 2**62), where n_eff - m and all negatives fit
    int64, else SphereModelError names the first pair that is not."""
    n, m = np.broadcast_arrays(np.asarray(n), np.asarray(m))
    bad = ~((-2 ** 62 < n) & (n < 2 ** 62) & (-2 ** 62 < m) & (m < 2 ** 62)
            & (n.dtype == m.dtype == np.int64))
    if np.any(bad):
        at = np.argmax(bad)
        raise SphereModelError("label pair (n, m) = (%s, %s) is not an int64 pair inside "
                               "(-2**62, 2**62)" % (n.flat[at], m.flat[at]))
    return np.broadcast_arrays(CHART_SIGNS * n[..., None], m[..., None])


def theta_weight(n, m):
    """Angular weight k of both chiralities' e^{i k theta}, on a last axis over CHARTS."""
    ne, m = _weights(n, m)
    return ne - m


def reduce_block(n, m) -> RadialODE:
    """Radial reduction d_phi psi = r(phi) psi of the kernel equation, per chart and chirality."""
    ne, m = _weights(n, m)
    return RadialODE(p=CHIRAL_SIGNS * ne[..., None], q=CHIRAL_SIGNS * m[..., None])


# ---------------------------------------------------------------------------
# full chartwise operator and residual diagnostics


def chiral_pair(v1, v2) -> np.ndarray:
    """The fields (w, -conj(w)), w = V_1 + i V_2, that chiralities '+' and
    '-' apply, from V_1's and V_2's components, on a new last axis in the
    order of CHIRALITIES."""
    w = v1 + 1j * v2
    return np.stack([w, -np.conj(w)], axis=-1)


def apply_chart_operator(n, chart, value, d_theta, d_phi, theta, phi):
    """Apply the chartwise kernel operator of both chiralities to a weight-n
    section with the given value and partial derivatives d_theta, d_phi at the
    broadcast (theta, phi), from one evaluation of the chart fields.

    Chirality '+' applies w = V_1 + i V_2, chirality '-' applies -conj(w)
    (chiral_pair); d_alpha acts as multiplication by -i n. The result carries
    the chiralities, in the order of CHIRALITIES, on a new last axis (and a
    sequence of charts on a leading one), and n, value, d_theta and d_phi
    broadcast against it: a scalar serves both, a trailing axis of length 2
    gives each chirality its own input.
    """
    w = chiral_pair(*lifted_vector_fields(chart, theta, phi))
    # one contraction with (d_alpha, d_theta, d_phi): no full-size product per term
    coefs = np.stack(np.broadcast_arrays(*np.atleast_1d(-1j * n * value, d_theta, d_phi)), axis=-2)
    return np.einsum("...kc,...kc->...c", w, coefs)


def pde_residual(n, m, chart, phi_values) -> np.ndarray:
    """Max relative residual |Ds|/|s| of the kernel sections s of the blocks
    (n, m), reduce_block's solutions, under the full chartwise operator on the
    mesh of six thetas by the given phis, off both poles; D acts on s/s = 1
    with the exact log-derivatives of s, so s (which can overflow) is never formed.

    n and m are ints or integer arrays of one broadcast shape; the result has
    shape (len(CHIRALITIES),) + that shape after the chart axis, if any: both
    chiralities of every block on every chart from one field evaluation.
    """
    charts = (chart,) if isinstance(chart, str) else chart
    rows = [CHARTS.index(_check_chart(c)) for c in charts]
    phi_values = np.atleast_1d(np.asarray(phi_values, dtype=float))
    if phi_values.size == 0:
        raise SphereModelError("empty phi grid")
    # NaN lies in no interval, so it fails this as well
    if not np.all((POLE_EPS <= phi_values) & (phi_values <= np.pi - POLE_EPS)):
        raise SphereModelError("grid touches the coordinate pole")
    # the labels, the (theta, phi) mesh, then the reduction's (chart, chirality)
    n, m = np.broadcast_arrays(np.asarray(n)[..., None, None], np.asarray(m)[..., None, None])
    theta = np.linspace(0.0, 2.0 * np.pi, 7)[:-1, None][(None,) * (n.ndim - 2)]
    phi = phi_values[None, :]
    # the requested charts' rows, moved ahead as apply_chart_operator's chart axis
    d_theta, d_phi = (np.moveaxis(d[..., rows, :], -2, 0)
                      for d in reduce_block(n, m).log_derivatives(phi[..., None, None]))
    out = apply_chart_operator(n[..., None], charts, 1.0, d_theta, d_phi, theta, phi)
    out = np.moveaxis(np.max(np.abs(out), axis=(-3, -2)), -1, 1)
    return out[0] if isinstance(chart, str) else out


def clutching_check(n: int, section: Callable) -> float:
    """Worst relative gap |psi1 - e^{2 i n theta} psi2| / max |psi1| of the
    equator matching at phi = pi/2 and 16 thetas, per chirality, of a section
    psi with last axes (chart, chirality): psi1 and psi2 are its chart rows."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 17)[:-1, None]
    upper, lower = np.moveaxis(section(thetas[..., None], 0.5 * np.pi), -2, 0)
    gap = np.abs(upper - np.exp(2j * n * thetas) * lower)
    return float(np.max(gap / np.maximum(np.max(np.abs(upper), axis=0), 1e-300)))


# ---------------------------------------------------------------------------
# 2x2 operators on the hemisphere


def _pair_operator(fields: Callable) -> FirstOrderOperator:
    """The 2x2 first-order operator in (alpha, theta, phi) with each
    chirality's field in its PAIR_SLOTS entry, without zeroth-order term,
    where fields(theta, phi) gives the (npts, 3, 2) coefficients of the chiral
    pair."""

    def terms(pts):
        pair = np.moveaxis(fields(pts[:, 1], pts[:, 2]), 1, 0)
        out = np.zeros(pair.shape[:-1] + (2, 2), dtype=complex)
        rows, columns = zip(*PAIR_SLOTS)
        out[..., rows, columns] = pair
        return out, np.zeros((len(pts), 2, 2), dtype=complex)

    return FirstOrderOperator(dim=3, fiber_dim=2, terms=terms)


def chart_operator(chart: str) -> FirstOrderOperator:
    """The chartwise kernel operator of both chiralities: _pair_operator of
    the chiral pair of V_1 and V_2. The fields do not depend on alpha, along
    which the frame rotation acts, so restrict_to_mode(op, 0, n) is its
    weight-n reduction in (theta, phi)."""
    _check_chart(chart)
    return _pair_operator(lambda theta, phi: chiral_pair(*lifted_vector_fields(chart, theta, phi)))


def quotient_operator(chart: str, m: int) -> FirstOrderOperator:
    """The weight-m operator on the quotient hemisphere, in (theta, phi):
    chart_operator(chart) with d_alpha = (T - T_theta d_theta - T_phi d_phi) /
    T_alpha, T = (1, 1, 0) in (alpha, theta, phi) upper and (-1, 1, 0) lower,
    from one pushforward solve of V_1, V_2 and T at alpha = 0, applied to the
    chiral pair (T is real, so it commutes with -conj); then restrict_to_mode
    sets T to -i m."""
    _check_chart(chart)

    def fields(theta, phi):
        pushed = pushforward_components(chart, theta, phi, np.stack([E1, E2, ET]))
        pair, t = chiral_pair(pushed[..., 0], pushed[..., 1]), pushed[..., 2:]
        along_t = pair[..., :1, :] / t[..., :1, :]
        return np.concatenate([along_t, pair[..., 1:, :] - along_t * t[..., 1:, :]], axis=-2)

    return restrict_to_mode(_pair_operator(fields), 0, m)


def _quotient_fits(chart: str):
    """On a block's sections the quotient reads d_phi psi = (k P_k + m P_m) psi,
    P_k = -i C_theta / C_phi and P_m = -Z / C_phi off quotient_operator(chart,
    1) at QUOTIENT_THETA on QUOTIENT_PHIS. Returns the int64 integers ((a_k, a_m), (b_k,
    b_m)) of sin(phi) P = a - b cos(phi), chiralities last, and the largest fit residual."""
    phi = QUOTIENT_PHIS
    (c_theta, c_phi), zeroth = quotient_operator(chart, 1).coefficients_at(
        np.column_stack([np.full_like(phi, QUOTIENT_THETA), phi]), with_zeroth=True)
    # each chirality reads its PAIR_SLOTS entry
    rows, columns = zip(*PAIR_SLOTS)
    c_theta, c_phi, zeroth = (mats[:, rows, columns] for mats in (c_theta, c_phi, zeroth))
    sin_p = np.sin(phi)[:, None, None] * np.stack([-1j * c_theta, -zeroth], -1) / c_phi[..., None]
    design = np.column_stack([np.ones_like(phi), -np.cos(phi)])
    fit = np.rint(np.linalg.lstsq(design, sin_p.real.reshape(-1, 4), rcond=None)[0])
    residual = float(np.max(np.abs(sin_p.reshape(-1, 4) - design @ fit)))
    return fit.reshape(2, 2, 2).transpose(0, 2, 1).astype(np.int64), residual


def compare_block_reductions(n, m):
    """Exact agreement of the two reduction routes on both charts. Route 1,
    the quotient, gives sin(phi) r = p_1 - q_1 cos(phi) with p_1 = a_k k +
    a_m m and q_1 = b_k k + b_m m (k = theta_weight; a, b from _quotient_fits);
    route 2 is reduce_block's (p, q). A block's discrepancy is the fit
    residual plus the largest |p_1 - p| + |q_1 - q| over charts and
    chiralities: a float for int n and m, else an array of their shape. Sums
    are int64: labels or fits that could wrap them raise SphereModelError."""
    shape = np.broadcast_shapes(np.shape(n), np.shape(m))
    n, m = (np.broadcast_to(v, shape).ravel() for v in (n, m))
    fits = [_quotient_fits(chart) for chart in CHARTS]
    # ((a_k, a_m), (b_k, b_m)) with last axes (chart, chirality), as the reduction's
    ints = np.stack([chart_ints for chart_ints, _ in fits], axis=-2)
    ode, k, m = reduce_block(n, m), theta_weight(n, m)[..., None], m[:, None, None]
    size = max(int(np.max(np.abs(v), initial=1)) for v in (k, m, ode.p, ode.q))
    weight = int(np.max(np.sum(np.abs(ints), axis=(0, 1)))) + 2
    if weight * size >= 2 ** 63:
        raise SphereModelError("labels up to %d with fitted integers summing to %d leave "
                               "int64 in the reduction comparison" % (size, weight - 2))
    (a_k, a_m), (b_k, b_m) = ints
    gap = np.max(np.abs(a_k * k + a_m * m - ode.p) + np.abs(b_k * k + b_m * m - ode.q),
                 axis=(-2, -1))
    worst = np.asarray(max(residual for _, residual in fits) + gap, dtype=float)
    return worst.reshape(shape) if shape else float(worst[0])


def reduction_gaps(n_max: int, m_max: int) -> tuple:
    """compare_block_reductions over the blocks |n| <= n_max, |m| <= m_max,
    from one call, as the row-major columns (n, m, gap): int64, int64 and
    float64 arrays. An empty range is an error, and so is a range of more
    than MAX_BLOCKS blocks, which also keeps n - m well inside int64."""
    if n_max < 0 or m_max < 0:
        raise SphereModelError("empty block range: n_max and m_max must be >= 0")
    count = (2 * n_max + 1) * (2 * m_max + 1)
    if count > MAX_BLOCKS:
        raise SphereModelError("n_max = %d and m_max = %d span %d blocks, more than the %d allowed"
                               % (n_max, m_max, count, MAX_BLOCKS))
    n = np.arange(-n_max, n_max + 1, dtype=np.int64).repeat(2 * m_max + 1)
    m = np.tile(np.arange(-m_max, m_max + 1, dtype=np.int64), 2 * n_max + 1)
    return n, m, compare_block_reductions(n, m)
