import re

import numpy as np
import pytest

from transdirac.sphere_model import (
    CHARTS,
    CHIRALITIES,
    LOWER,
    MAX_BLOCKS,
    UPPER,
    RadialODE,
    SphereModelError,
    apply_chart_operator,
    chart_matrix,
    chart_operator,
    closed_form_kernel_section,
    clutching_check,
    compare_block_reductions,
    lifted_vector_fields,
    pde_residual,
    pushforward_components,
    quotient_operator,
    reduce_block,
    reduction_gaps,
    theta_weight,
)
from transdirac import sphere_model
from transdirac.sphere_model import E1, E2, ET
from transdirac.transverse_operator import (
    FirstOrderOperator,
    SingularPointError,
    principal_symbol,
    restrict_to_mode,
    symbol_smallest_singular_value,
)
from transdirac.verification import BRANCH_BLOCKS


# ---------------------------------------------------------------------------
# charts


def test_charts_land_in_rotation_group():
    rng = np.random.default_rng(0)
    for chart in CHARTS:
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0.1, np.pi / 2)
            alpha = rng.uniform(0, 2 * np.pi)
            u = chart_matrix(chart, theta, phi, alpha)
            assert np.max(np.abs(u.T @ u - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_charts_cover_their_hemispheres():
    # the base-point height is +cos(phi) on one chart and -cos(phi) on the
    # other: phi measures the distance from the respective pole
    u = chart_matrix(UPPER, 0.4, 0.3)
    assert abs(u[0, 2] - np.cos(0.3)) < 1e-12
    d = chart_matrix(LOWER, 0.4, 0.3)
    assert abs(d[0, 2] + np.cos(0.3)) < 1e-12


def test_chart_transition_at_equator():
    # U1(theta, pi/2, alpha) = U2(theta, pi/2, alpha - 2 theta)
    for theta in np.linspace(0, 2 * np.pi, 9):
        for alpha in (0.0, 0.7):
            gap = np.max(np.abs(chart_matrix(UPPER, theta, np.pi / 2, alpha)
                                - chart_matrix(LOWER, theta, np.pi / 2, alpha - 2 * theta)))
            assert gap < 1e-12


# ---------------------------------------------------------------------------
# lifted vector fields


def test_upper_chart_fields_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi)
        phi = rng.uniform(0.05, np.pi / 2)
        v1, v2 = lifted_vector_fields(UPPER, theta, phi)
        s, c = np.sin(phi), np.cos(phi)
        expect1 = np.array([np.sin(theta) * (c - 1) / s, np.sin(theta) * c / s, -np.cos(theta)])
        expect2 = np.array([np.cos(theta) * (1 - c) / s, -np.cos(theta) * c / s, -np.sin(theta)])
        assert np.max(np.abs(v1 - expect1)) < 1e-10
        assert np.max(np.abs(v2 - expect2)) < 1e-10


def test_fields_agree_with_pushforward():
    rng = np.random.default_rng(2)
    for chart in CHARTS:
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0.05, np.pi / 2)
            v1, v2 = lifted_vector_fields(chart, theta, phi)
            assert np.max(np.abs(v1 - pushforward_components(chart, theta, phi, E1))) < 1e-10
            assert np.max(np.abs(v2 - pushforward_components(chart, theta, phi, E2))) < 1e-10


def test_batched_fields_match_per_point():
    rng = np.random.default_rng(4)
    theta = rng.uniform(0, 2 * np.pi, size=(5, 8))
    phi = rng.uniform(0.05, np.pi / 2, size=(5, 8))
    for chart in CHARTS:
        v1, v2 = lifted_vector_fields(chart, theta, phi)
        pushed = pushforward_components(chart, theta, phi, E1)
        assert v1.shape == v2.shape == pushed.shape == (5, 8, 3)
        for i, j in np.ndindex(theta.shape):
            p1, p2 = lifted_vector_fields(chart, theta[i, j], phi[i, j])
            assert np.max(np.abs(v1[i, j] - p1)) < 1e-12
            assert np.max(np.abs(v2[i, j] - p2)) < 1e-12
            single = pushforward_components(chart, theta[i, j], phi[i, j], E1)
            assert np.max(np.abs(pushed[i, j] - single)) < 1e-12
    # a sequence of charts leads with a chart axis, from one solve
    fields = np.stack(lifted_vector_fields(CHARTS, theta, phi), axis=1)
    assert fields.shape == (len(CHARTS), 2, 5, 8, 3)
    for chart, both in zip(CHARTS, fields):
        assert np.max(np.abs(both - np.stack(lifted_vector_fields(chart, theta, phi)))) < 1e-14


def test_batched_chart_operator_matches_per_point():
    thetas = np.linspace(0.0, 2 * np.pi, 5)[:-1]
    phis = np.array([0.3, 0.9, 1.4])
    for chart in CHARTS:
        section = closed_form_kernel_section(2, -3, chart)

        def apply(theta, phi):
            # the angles broadcast against the section's chirality axis
            theta, phi = np.asarray(theta)[..., None], np.asarray(phi)[..., None]
            value = section(theta, phi)
            log_d_theta, log_d_phi = section.log_derivatives(phi)
            return apply_chart_operator(2, chart, value, log_d_theta * value,
                                        log_d_phi * value, theta[..., 0], phi[..., 0])

        mesh = apply(thetas[:, None], phis[None, :])
        assert mesh.shape == (4, 3, len(CHIRALITIES))
        for i, j in np.ndindex(mesh.shape[:2]):
            single = apply(thetas[i], phis[j])
            assert np.all(np.abs(mesh[i, j] - single) < 1e-12 * np.maximum(np.abs(single), 1.0))


def test_pushforward_recombines_chart_partials():
    # sum_i c_i d_i U = U G for the components c of pushforward_components,
    # with the partials d_i U of chart_matrix in (alpha, theta, phi) taken by
    # central differences: chart_matrix and the solve describe one map. The
    # components take no alpha, so this holds at every alpha with the same c
    rng = np.random.default_rng(5)
    h = 1e-6
    generic = 0.3 * E1 - 1.1 * E2 + 0.7 * ET
    for chart in CHARTS:
        for _ in range(5):
            alpha, theta = rng.uniform(0, 2 * np.pi, 2)
            phi = rng.uniform(0.1, np.pi / 2)
            at = np.array([alpha, theta, phi])
            partials = []
            for i in range(3):
                step = h * np.eye(3)[i]
                plus, minus = at + step, at - step
                partials.append((chart_matrix(chart, plus[1], plus[2], plus[0])
                                 - chart_matrix(chart, minus[1], minus[2], minus[0])) / (2 * h))
            u = chart_matrix(chart, theta, phi, alpha)
            stacked = pushforward_components(chart, theta, phi, np.stack([E1, E2, ET, generic]))
            assert stacked.shape == (3, 4)
            for col, generator in enumerate((E1, E2, ET, generic)):
                c = pushforward_components(chart, theta, phi, generator)
                assert np.max(np.abs(c - stacked[:, col])) < 1e-12
                recombined = sum(c[i] * partials[i] for i in range(3))
                assert np.max(np.abs(recombined - u @ generator)) < 1e-8


def test_fields_singular_at_pole():
    with pytest.raises(SingularPointError):
        lifted_vector_fields(UPPER, 0.3, 0.0)


@pytest.mark.parametrize("chart", [UPPER, LOWER, CHARTS])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, 2.5])
def test_pushforward_solve_detects_the_pole(chart, theta):
    # pushforward_components' own check, not lifted_vector_fields': at phi = 0 the
    # theta column of U^T dU vanishes exactly, alone and beside regular points
    for phi in (0.0, np.array([0.7, 0.0, 1.2])):
        with pytest.raises(SingularPointError, match="phi=0"):
            pushforward_components(chart, theta, phi, np.stack([E1, E2]))


@pytest.mark.parametrize("chart", CHARTS)
@pytest.mark.parametrize("generator", [E1, ET], ids=["E1", "ET"])
def test_pushforward_detects_the_far_pole(chart, generator):
    # at phi = pi the theta column is only rounded to about 1e-16, so the
    # solve succeeds with components near 1e15 unless the pole is checked
    for phi in (np.pi, np.array([0.7, np.pi])):
        with pytest.raises(SingularPointError, match="phi=3.14159"):
            pushforward_components(chart, 0.3, phi, generator)


def test_orbit_field_is_alpha_plus_theta():
    # the rotation action moves alpha and theta together; the alpha component
    # flips sign on the lower chart (orientation of the chart pole)
    t = pushforward_components(UPPER, 0.7, 0.9, ET)
    assert np.max(np.abs(t - np.array([1.0, 1.0, 0.0]))) < 1e-12
    t = pushforward_components(LOWER, 0.7, 0.9, ET)
    assert np.max(np.abs(t - np.array([-1.0, 1.0, 0.0]))) < 1e-12


# ---------------------------------------------------------------------------
# radial reduction and closed forms


def test_radial_table_upper():
    # chirality +: r = n csc(phi) - m cot(phi), indicial exponent n - m; the
    # negatives for chirality -, on the last axis in the order of CHIRALITIES
    ode = reduce_block(2, 3, UPPER)
    phi = 0.8
    plus, minus = CHIRALITIES.index("+"), CHIRALITIES.index("-")
    assert ode.p.shape == ode.q.shape == ode.exponent.shape == (len(CHIRALITIES),)
    assert abs(ode.r(phi)[plus] - (2 / np.sin(phi) - 3 / np.tan(phi))) < 1e-12
    assert ode.exponent[plus] == -1
    assert abs(ode.r(phi)[minus] - (3 / np.tan(phi) - 2 / np.sin(phi))) < 1e-12
    assert ode.exponent[minus] == 1


def test_lower_exponents_flip_n():
    # the clutching weight flip: lower-chart table is the upper one at -n
    for n in range(-3, 4):
        for m in range(-3, 4):
            lower, flipped = reduce_block(n, m, LOWER), reduce_block(-n, m, UPPER)
            assert lower.exponent.tolist() == flipped.exponent.tolist()
            assert np.max(np.abs(lower.r(0.6) - flipped.r(0.6))) < 1e-12


def test_theta_weight():
    assert theta_weight(2, 3, UPPER) == -1
    assert theta_weight(2, 3, LOWER) == -5
    # the sections of both chiralities carry it
    for chart in CHARTS:
        section = closed_form_kernel_section(2, 3, chart)
        assert section.theta_weight.tolist() == [theta_weight(2, 3, chart)] * len(CHIRALITIES)


def test_closed_forms_solve_radial_ode():
    h = 1e-6
    for n, m in ((0, 0), (2, 3), (1, -2), (3, 1)):
        for chart in CHARTS:
            section, ode = closed_form_kernel_section(n, m, chart), reduce_block(n, m, chart)
            for phi in (0.4, 1.0, 1.5):
                deriv = (section(0.0, phi + h) - section(0.0, phi - h)) / (2 * h)
                expect = ode.r(phi) * section(0.0, phi)
                assert deriv.shape == expect.shape == (len(CHIRALITIES),)
                assert np.all(np.abs(deriv - expect) < 1e-6 * np.maximum(np.abs(expect), 1.0))


def test_closed_forms_satisfy_full_pde():
    phis = np.linspace(0.05, np.pi / 2, 25)
    for n, m in ((0, 0), (2, 3), (1, -2), (3, 1), (2, -2), (1, 1)):
        for chart in CHARTS:
            assert np.all(pde_residual(n, m, chart, phis) < 1e-6)


def test_mode_reduction_consistency():
    # applying the full operator to e^{ik theta} f(phi) and stripping the
    # angular factor reproduces the radial operator
    for n, m in ((1, 2), (2, -1)):
        for chart in CHARTS:
            k = theta_weight(n, m, chart)
            r = reduce_block(n, m, chart).r(0.7)[CHIRALITIES.index("+")]
            theta, phi = 0.9, 0.7
            f = np.exp(np.sin(phi))  # arbitrary smooth radial profile
            df = np.cos(phi) * f
            angular = np.exp(1j * k * theta)
            out = apply_chart_operator(n, chart, angular * f, 1j * k * angular * f,
                                       angular * df, theta, phi)[CHIRALITIES.index("+")]
            # the operator output carries one extra unit of theta-weight and
            # an overall chart-dependent sign
            radial = out / np.exp(1j * (k + 1) * theta)
            sign = -1.0 if chart == UPPER else 1.0
            expect = sign * (df - r * f)
            assert abs(radial - expect) < 1e-12 * max(abs(expect), 1.0)


def test_residual_exact_at_large_weights():
    # sin(phi)^{-403} would overflow near the pole; the residual never forms it
    phis = np.linspace(0.05, np.pi / 2, 25)
    with np.errstate(all="raise"):
        for n, m in ((5, 3), (60, 3), (400, 3), (-400, 17)):
            for chart in CHARTS:
                residual = pde_residual(n, m, chart, phis)
                assert residual.shape == (len(CHIRALITIES),)
                assert np.all(residual < 1e-11)


def test_section_log_derivatives_match_the_section():
    h = 1e-6
    for n, m in ((0, 0), (2, 3), (1, -2), (3, 1)):
        for chart in CHARTS:
            section = closed_form_kernel_section(n, m, chart)
            for theta, phi in ((0.3, 0.4), (2.0, 1.0), (5.0, 1.5)):
                value = section(theta, phi)
                d_theta = (section(theta + h, phi) - section(theta - h, phi)) / (2 * h)
                d_phi = (section(theta, phi + h) - section(theta, phi - h)) / (2 * h)
                log_d_theta, log_d_phi = section.log_derivatives(phi)
                scale = np.maximum(np.abs(value), 1.0)
                assert np.all(np.abs(d_theta - log_d_theta * value) < 1e-6 * scale)
                assert np.all(np.abs(d_phi - log_d_phi * value) < 1e-6 * scale)


def test_residual_grid_must_avoid_pole():
    with pytest.raises(SphereModelError):
        pde_residual(1, 1, UPPER, [1e-5, 0.3])
    with pytest.raises(SphereModelError, match="empty phi grid"):
        pde_residual(1, 1, UPPER, [])


def test_batched_residual_matches_per_block():
    blocks = BRANCH_BLOCKS + ((400, 3), (-40, 7))
    n, m = np.array(blocks).T
    phis = np.linspace(0.05, np.pi / 2, 25)
    for chart in CHARTS:
        batch = pde_residual(n, m, chart, phis)
        single = [pde_residual(*block, chart, phis) for block in blocks]
        assert single[0].shape == (len(CHIRALITIES),)
        assert batch.shape == (len(CHIRALITIES), len(blocks))
        assert batch.T.tolist() == [row.tolist() for row in single]  # bit for bit


def test_residual_rows_follow_chiralities():
    # row c of pde_residual is the residual of chirality c's section under
    # w = V_1 + i V_2 for '+' and -conj(w) for '-', built here from the fields
    thetas = np.linspace(0.0, 2 * np.pi, 7)[:-1, None]
    phis = np.linspace(0.05, np.pi / 2, 25)
    for n, m in ((2, 3), (1, -2), (-3, 0)):
        for chart in CHARTS:
            v1, v2 = lifted_vector_fields(chart, thetas, phis[None, :])
            rows = pde_residual(n, m, chart, phis)
            log_d_theta, log_d_phi = closed_form_kernel_section(n, m, chart).log_derivatives(
                phis[None, :, None])
            for c, (chirality, row) in enumerate(zip(CHIRALITIES, rows)):
                w = v1 + 1j * v2 if chirality == "+" else -np.conj(v1 + 1j * v2)
                out = (w[..., 0] * (-1j * n) + w[..., 1] * log_d_theta[..., c]
                       + w[..., 2] * log_d_phi[..., c])
                assert abs(np.max(np.abs(out)) - row) < 1e-13


def test_residual_evaluates_chart_fields_once(monkeypatch):
    # both chiralities of every block come from one pushforward solve per
    # call, for one chart and for both
    charts = []
    original = sphere_model.pushforward_components
    monkeypatch.setattr(sphere_model, "pushforward_components",
                        lambda chart, *args, **kwargs: charts.append(chart)
                        or original(chart, *args, **kwargs))
    n, m = np.array(BRANCH_BLOCKS).T
    for chart in CHARTS:
        pde_residual(n, m, chart, np.linspace(0.05, np.pi / 2, 25))
        pde_residual(2, 3, chart, [0.4, 1.2])
    assert charts == [(chart,) for chart in CHARTS for _ in range(2)]
    charts.clear()
    pde_residual(n, m, CHARTS, np.linspace(0.05, np.pi / 2, 25))
    assert charts == [CHARTS]


def test_residual_over_charts_stacks_the_per_chart_calls():
    blocks = BRANCH_BLOCKS + ((400, 3), (-40, 7))
    n, m = np.array(blocks).T
    phis = np.linspace(0.05, np.pi / 2, 25)
    both = pde_residual(n, m, CHARTS, phis)
    per_chart = np.stack([pde_residual(n, m, chart, phis) for chart in CHARTS])
    assert both.shape == per_chart.shape == (len(CHARTS), len(CHIRALITIES), len(blocks))
    assert np.max(np.abs(both - per_chart)) < 1e-13
    assert pde_residual(2, 3, CHARTS, phis).shape == (len(CHARTS), len(CHIRALITIES))


def test_labels_must_fit_int64():
    # one rule for ints and batches: int64 labels inside (-2**62, 2**62). An
    # object array, a label at +-2**62, a float array and Python ints past
    # int64 (which become uint64 or object arrays) each raise, naming the
    # first such pair
    big = 2 ** 62
    for n, m, pair in ((np.array([1, 2], dtype=object), np.array([3, 4]), "(1, 3)"),
                       (np.array([0, big]), np.array([0, -5]), "(%d, -5)" % big),
                       (np.array([0, 7]), np.array([0, -big]), "(7, %d)" % -big),
                       (np.array([0.0, 1.0]), np.array([2, 3]), "(0.0, 2)"),
                       (big, 0, "(%d, 0)" % big), (3, -big, "(3, %d)" % -big),
                       (2 ** 63, 1, "(%d, 1)" % 2 ** 63), (2 ** 64, 1, "(%d, 1)" % 2 ** 64),
                       (0, -2 ** 63 - 1, "(0, %d)" % (-2 ** 63 - 1))):
        for fn in (reduce_block, closed_form_kernel_section, theta_weight):
            for chart in CHARTS:
                with pytest.raises(SphereModelError, match=re.escape("(n, m) = " + pair)):
                    fn(n, m, chart)
    # just inside the bound, a batch gets the weights of the same labels one by one
    labels = [(0, 0), (big - 1, 1 - big), (1 - big, big - 1), (big - 1, big - 1), (7, -2)]
    n, m = np.array(labels).T
    for chart in CHARTS:
        batch = reduce_block(n, m, chart)
        singles = [reduce_block(a, b, chart) for a, b in labels]
        for name in ("p", "q", "exponent"):
            column = getattr(batch, name)
            assert column.dtype == np.int64 and column.shape == (len(labels), len(CHIRALITIES))
            assert column.tolist() == [getattr(single, name).tolist() for single in singles]
        assert theta_weight(n, m, chart).tolist() == [
            theta_weight(a, b, chart) for a, b in labels]


# ---------------------------------------------------------------------------
# clutching


def test_matched_sections_clutch():
    # the worst relative gap over 16 thetas and both chiralities is rounding
    for n, m in ((0, 0), (1, 1), (2, 3), (2, -3), (3, -3)):
        upper, lower = (closed_form_kernel_section(n, m, chart) for chart in CHARTS)
        assert 0 <= clutching_check(n, upper, lower) <= 1e-14


def test_clutching_detects_mismatch():
    upper, lower = (closed_form_kernel_section(2, 0, chart) for chart in CHARTS)
    # a wrong weight leaves a gap of order 1 on both chiralities
    assert clutching_check(3, upper, lower) > 1.0
    for c in range(len(CHIRALITIES)):
        one = [lambda theta, phi, s=s: s(theta, phi)[..., c] for s in (upper, lower)]
        assert clutching_check(3, *one) > 1.0
    # a gap on one chirality alone is reported
    skewed = lambda theta, phi: lower(theta, phi) * np.array([1.0, 1.0 + 1e-6])
    assert 0.9e-6 < clutching_check(2, upper, skewed) < 1.1e-6


# ---------------------------------------------------------------------------
# reduced 2x2 operators


def test_restricted_chart_operator_closed_form():
    # d_alpha acts as -i n: w = V_1 + i V_2 below the diagonal and -conj(w)
    # above it, in (theta, phi), with the d_alpha coefficients times -i n as
    # the zeroth-order term
    theta, phi = np.linspace(0.0, 6.0, 9), np.linspace(0.05, 1.5, 9)
    pts = np.column_stack([theta, phi])
    for chart in CHARTS:
        v1, v2 = lifted_vector_fields(chart, theta, phi)
        w = v1 + 1j * v2
        for n in (0, 2, -5, 400):
            op = restrict_to_mode(chart_operator(chart), 0, n)
            coeffs, zeroth = op.coefficients_at(pts), op.zeroth_at(pts)
            assert coeffs.shape == (2, 9, 2, 2)
            for k in (1, 2):
                assert np.array_equal(coeffs[k - 1, :, 0, 1], -np.conj(w[:, k]))
                assert np.array_equal(coeffs[k - 1, :, 1, 0], w[:, k])
            assert np.array_equal(zeroth[:, 0, 1], 1j * n * np.conj(w[:, 0]))
            assert np.array_equal(zeroth[:, 1, 0], -1j * n * w[:, 0])
            for mats in (coeffs, zeroth):
                assert not np.any(np.diagonal(mats, axis1=-2, axis2=-1))


def test_sigma_operator_fails_ellipticity_at_equator():
    op = restrict_to_mode(chart_operator(UPPER), 0, 2)
    x = [0.3, np.pi / 2]
    assert symbol_smallest_singular_value(op, x, [1.0, 0.0]) < 1e-10
    for phi in (np.pi / 2 - 0.1, np.pi / 2 + 0.1):
        assert symbol_smallest_singular_value(op, [0.3, phi], [1.0, 0.0]) > 1e-2


def test_sigma_operator_elliptic_in_phi_direction():
    op = restrict_to_mode(chart_operator(UPPER), 0, 2)
    assert symbol_smallest_singular_value(op, [0.3, np.pi / 2], [0.0, 1.0]) > 0.5


def test_quotient_operator_elliptic_inside_hemisphere():
    for chart in CHARTS:
        rng = np.random.default_rng(3)
        op = quotient_operator(chart, 1)
        for _ in range(100):
            x = [rng.uniform(0, 2 * np.pi), rng.uniform(0.05, np.pi / 2 - 0.01)]
            xi = rng.standard_normal(2)
            xi /= np.linalg.norm(xi)
            assert symbol_smallest_singular_value(op, x, xi) > 0.5


@pytest.mark.parametrize("chart", CHARTS)
def test_chart_operator_symbol_is_skew_and_squares_to_minus_w_squared(chart):
    # sigma(xi) = [[0, -conj(w(xi))], [w(xi), 0]], w(xi) = sum_k xi_k (V_1 + i V_2)_k,
    # is skew-Hermitian with sigma^2 = -|w(xi)|^2 I; kernels and residuals do
    # not change when the '-' chirality's field changes sign, but this does
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(0, 2 * np.pi, (2, 200)).T,
                           rng.uniform(0.05, np.pi / 2, 200)])
    v1, v2 = lifted_vector_fields(chart, pts[:, 1], pts[:, 2])
    for xi in rng.standard_normal((5, 3)):
        sigma = principal_symbol(chart_operator(chart), pts, xi)
        w_squared = np.abs((v1 + 1j * v2) @ xi) ** 2
        assert np.max(np.abs(sigma + np.conj(np.swapaxes(sigma, -1, -2)))) < 1e-12
        square_gap = np.abs(sigma @ sigma + w_squared[:, None, None] * np.eye(2))
        assert np.max(square_gap / (1.0 + w_squared[:, None, None])) < 1e-12


def test_upper_quotient_closed_form():
    # d_alpha -> -i m - d_theta on the upper chart, where T = (1, 1, 0): the
    # coefficients of d_theta and d_phi are -i e^{i theta}/sin(phi) and
    # -e^{i theta} below the diagonal, minus their conjugates above it; the
    # zeroth-order term is -m e^{i theta} (cot(phi) - csc(phi)) below the
    # diagonal and its conjugate, without the minus sign, above it, since
    # d_alpha acts as -i m after the chiral conjugation
    rng = np.random.default_rng(5)
    theta, phi = rng.uniform(0, 2 * np.pi, 500), rng.uniform(0.05, np.pi / 2, 500)
    pts = np.column_stack([theta, phi])
    rotation = np.exp(1j * theta)
    a_theta, a_phi = -1j * rotation / np.sin(phi), -rotation
    for m in (-3, 0, 1, 4):
        op = quotient_operator(UPPER, m)
        coeffs, zeroth = op.coefficients_at(pts), op.zeroth_at(pts)
        b0 = -m * rotation * (1.0 / np.tan(phi) - 1.0 / np.sin(phi))
        for mats, upper, lower in ((coeffs[0], -np.conj(a_theta), a_theta),
                                   (coeffs[1], -np.conj(a_phi), a_phi),
                                   (zeroth, np.conj(b0), b0)):
            assert np.max(np.abs(mats[:, 0, 1] - upper)) < 1e-13
            assert np.max(np.abs(mats[:, 1, 0] - lower)) < 1e-13
            assert not np.any(np.diagonal(mats, axis1=-2, axis2=-1))


def test_quotient_is_the_chart_operator_with_d_alpha_substituted():
    # A_theta - A_alpha T_theta / T_alpha, A_phi - A_alpha T_phi / T_alpha and
    # -i m A_alpha / T_alpha, from chart_operator and the pushforward of ET
    rng = np.random.default_rng(6)
    theta, phi = rng.uniform(0, 2 * np.pi, 50), rng.uniform(0.05, np.pi / 2, 50)
    pts = np.column_stack([theta, phi])
    for chart, orbit in ((UPPER, [1.0, 1.0, 0.0]), (LOWER, [-1.0, 1.0, 0.0])):
        t = pushforward_components(chart, theta, phi, ET)
        assert np.max(np.abs(t - orbit)) < 1e-14
        a = chart_operator(chart).coefficients_at(np.column_stack([np.zeros(50), pts]))
        along_t = a[0] / t[:, :1, None]
        for m in (-2, 3):
            op = quotient_operator(chart, m)
            expected = a[1:] - along_t * np.moveaxis(t[:, 1:], 1, 0)[..., None, None]
            assert np.max(np.abs(op.coefficients_at(pts) - expected)) < 1e-13
            assert np.max(np.abs(op.zeroth_at(pts) - (-1j * m) * along_t)) < 1e-13


def test_reductions_agree_blockwise():
    for n in range(-6, 7):
        for m in range(-6, 7):
            assert compare_block_reductions(n, m) < 1e-12


def test_batched_reductions_match_per_n():
    for m in range(-6, 7):
        batch = compare_block_reductions(np.arange(-6, 7), m)
        assert batch.tolist() == [compare_block_reductions(n, m) for n in range(-6, 7)]


def test_reduction_gaps_row_major_over_chunks():
    ns, ms, gaps = reduction_gaps(3, 2)
    assert (ns.dtype, ms.dtype, gaps.dtype) == (np.int64, np.int64, np.float64)
    assert list(zip(ns.tolist(), ms.tolist())) == [
        (n, m) for n in range(-3, 4) for m in range(-2, 3)]
    # each of 1203 gaps is the one its row of n values gives
    ns, ms, gaps = reduction_gaps(200, 1)
    assert list(zip(ns.tolist(), ms.tolist())) == [
        (n, m) for n in range(-200, 201) for m in range(-1, 2)]
    for m in range(-1, 2):
        row = compare_block_reductions(np.arange(-200, 201), m)
        assert gaps[ms == m].tolist() == row.tolist()


def test_reductions_checked_on_the_lower_chart(monkeypatch):
    # a radial table that is wrong only on the lower chart must fail the comparison
    real = sphere_model.reduce_block

    def shifted(n, m, chart):
        ode = real(n, m, chart)
        return RadialODE(ode.p + 1, ode.q, ode.exponent) if chart == LOWER else ode

    monkeypatch.setattr(sphere_model, "reduce_block", shifted)
    assert min(reduction_gaps(2, 2)[2]) > 1e-12
    assert compare_block_reductions(0, 0) > 1e-12
    # p + 1 is as visible at 2**59 and 10**15, where one ulp of the float r is far above 1
    assert compare_block_reductions(2 ** 59, 1) >= 1
    assert compare_block_reductions(10 ** 15, 10 ** 15) >= 1
    with pytest.raises(SphereModelError, match="leave int64"):
        compare_block_reductions(2 ** 61, 1)


def test_reductions_agree_at_large_labels():
    # the gap of a float r grew with |n|: 1.54e-11 at |n| = 2000, 1.7e4 at 2**61
    for n, m in ((2 ** 59, 3), (-2 ** 59, -7), (10 ** 15, 10 ** 15)):
        assert compare_block_reductions(n, m) <= 1e-12
    gaps = compare_block_reductions(np.array([2 ** 59, -2 ** 59, 10 ** 15, 5]),
                                    np.array([3, -7, 10 ** 15, -2]))
    assert np.all(gaps <= 1e-12)
    # at 2**61 the sums (|a_k| + |a_m| + |b_k| + |b_m| + 2) 2**61 could wrap int64
    for n, m in ((2 ** 61, 3), (-2 ** 61, -7), (np.array([5, 2 ** 61]), np.array([-2, 3]))):
        with pytest.raises(SphereModelError, match="leave int64"):
            compare_block_reductions(n, m)


def test_reductions_refuse_fitted_integers_that_could_wrap(monkeypatch):
    # a fitted integer of 2**62 times a label of 3 wraps int64; the comparison
    # must raise rather than report the wrapped sum
    real = sphere_model._quotient_fits

    def huge(chart):
        rows, residual = real(chart)
        return [[[2 ** 62, a_m], b] for (_, a_m), b in rows], residual

    monkeypatch.setattr(sphere_model, "_quotient_fits", huge)
    for n, m in ((1, 2), (np.arange(-3, 4), 0)):
        with pytest.raises(SphereModelError, match="leave int64"):
            compare_block_reductions(n, m)


def test_quotient_fits_are_integers_on_both_charts():
    # sin(phi) P_k = 1 and sin(phi) P_m = 1 - cos(phi) for '+', their negatives
    # for '-': (p, q) = +-(k + m, m), which reduce_block gives as +-(n_eff, m)
    for chart in CHARTS:
        ints, residual = sphere_model._quotient_fits(chart)
        assert ints == [[[1, 1], [0, 1]], [[-1, -1], [0, -1]]]
        assert residual <= 1e-12


def test_comparison_evaluates_the_quotient_once_per_chart(monkeypatch):
    real = sphere_model.quotient_operator
    calls = []

    def counted(chart, m):
        op = real(chart, m)

        def terms(pts):
            calls.append((chart, m, pts.shape))
            return op.terms(pts)

        return FirstOrderOperator(dim=op.dim, fiber_dim=op.fiber_dim, terms=terms)

    def closed_form_forbidden(*args):
        raise AssertionError("the comparison read the closed form")

    monkeypatch.setattr(sphere_model, "quotient_operator", counted)
    monkeypatch.setattr(sphere_model, "closed_form_kernel_section", closed_form_forbidden)
    for n, m in ((3, -2), (np.arange(-200, 201)[:, None], np.arange(-1, 2))):
        calls.clear()
        assert np.all(compare_block_reductions(n, m) <= 1e-12)
        assert calls == [(chart, 1, (201, 2)) for chart in CHARTS]


def test_reduction_gaps_reject_empty_range():
    ns, ms, _ = reduction_gaps(1, 2)
    assert list(zip(ns.tolist(), ms.tolist())) == [
        (n, m) for n in range(-1, 2) for m in range(-2, 3)]
    for n_max, m_max in ((-1, 0), (0, -1)):
        with pytest.raises(SphereModelError):
            reduction_gaps(n_max, m_max)
    # from 2**62 on, n - m could leave int64; every such range is over the block bound
    for n_max, m_max in ((2 ** 62, 0), (0, 2 ** 62), (2 ** 63, 0)):
        with pytest.raises(SphereModelError, match="more than the %d allowed" % MAX_BLOCKS):
            reduction_gaps(n_max, m_max)


def test_reduction_gaps_block_count_is_bounded(monkeypatch):
    monkeypatch.setattr(sphere_model, "MAX_BLOCKS", 15)
    assert [len(column) for column in reduction_gaps(2, 1)] == [15] * 3
    for n_max, m_max in ((2, 2), (8, 0), (2 ** 62 - 1, 0)):
        with pytest.raises(SphereModelError, match="more than the 15 allowed"):
            reduction_gaps(n_max, m_max)
