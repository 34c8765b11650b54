import numpy as np
import pytest

from transdirac.clifford import build_standard_module
from transdirac.spectral import fourier_derivative, fourier_diff_matrix, periodic_grid
from transdirac.sphere_model import UPPER, chart_operator
from transdirac.torus_model import (
    TorusGeometry,
    full_chart_frames,
    mode_grid,
    operator_AQ_full,
    operator_D_full,
)
from transdirac.transverse_operator import (
    FirstOrderOperator,
    FrameField,
    OperatorError,
    SingularPointError,
    assemble_AQ,
    discretize_diagonal,
    discretize_hermitian,
    hermitian_discretization_defect,
    principal_symbol,
    restrict_to_mode,
    symbol_smallest_singular_value,
)


def test_assemble_aq_torus_coefficients():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    op = operator_AQ_full(geom)
    y = 0.8
    a_x, a_y = op.coefficients_at([0.1, y])
    # c(f_1) acts as multiplication by i; f_1 = e^{-g} d_x
    assert np.allclose(a_x, [[1j * np.exp(-0.3 * np.sin(y))]], atol=1e-14)
    assert np.allclose(a_y, [[0.0]], atol=1e-14)


def test_frame_orthonormality_enforced():
    def components(x):
        return np.array([[2.0, 0.0]])  # not unit length for the flat metric

    frames = FrameField(dim=2, q=1,
                        components=components,
                        coframe=lambda x: np.eye(2),
                        samples=[np.zeros(2)])
    with pytest.raises(OperatorError):
        assemble_AQ(frames, build_standard_module(1))


def test_principal_symbol_is_clifford_contraction():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    op = operator_AQ_full(geom)
    x = [0.0, 1.2]
    xi = [0.7, -0.4]
    expected = 0.7 * np.exp(-0.3 * np.sin(1.2)) * 1j
    assert np.allclose(principal_symbol(op, x, xi), [[expected]], atol=1e-14)
    # symbol vanishes on covectors conormal to Q
    assert symbol_smallest_singular_value(op, x, [0.0, 1.0]) < 1e-14


def test_symbol_squares_to_minus_q_norm():
    # c(xi)^2 = -|pi xi|^2 for the full-rank frame
    def components(x):
        return np.eye(2)

    frames = FrameField(dim=2, q=2,
                        components=components,
                        coframe=lambda x: np.eye(2),
                        samples=[np.zeros(2)])
    op = assemble_AQ(frames, build_standard_module(2))
    xi = np.array([0.6, -1.1])
    sym = principal_symbol(op, [0.0, 0.0], xi)
    assert np.allclose(sym @ sym, -np.dot(xi, xi) * np.eye(2), atol=1e-12)


def test_multiplication_operator_discretizes_to_real_diagonal():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    grid = mode_grid(geom, 32)
    mat = discretize_hermitian(restrict_to_mode(operator_D_full(geom, "Q"), 0, 3), grid)
    assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0
    assert np.max(np.abs(mat.imag)) == 0.0
    assert np.allclose(np.diag(mat).real, 3.0 * np.exp(-geom.g(grid.points)), atol=1e-14)


def test_corrected_operator_is_hermitian():
    geom = TorusGeometry(sin_coeffs=(0.3,), cos_coeffs=(0.1,))
    grid = mode_grid(geom, 64)
    d_l = restrict_to_mode(operator_D_full(geom, "L"), 0, 0)
    assert hermitian_discretization_defect(d_l, grid) < 1e-10


def test_missing_correction_breaks_hermiticity_by_half_ch():
    # A_L = i d_y alone is not self-adjoint for the weighted measure: the
    # defect equals |c(H^Q)/2| = |g'|/2 pointwise, also under strong warping
    for amplitude, n_points in ((0.3, 64), (10.0, 64), (10.0, 512), (30.0, 64), (30.0, 512),
                                (400.0, 64), (400.0, 512)):
        geom = TorusGeometry(sin_coeffs=(amplitude,))
        grid = mode_grid(geom, n_points)
        a_l = restrict_to_mode(operator_AQ_full(geom, "L"), 0, 0)
        defect = hermitian_discretization_defect(a_l, grid)
        assert defect > 1e-3
        assert abs(defect - 0.5 * np.max(np.abs(geom.g_prime(grid.points)))) < 1e-10


def test_discretization_consistent_on_smooth_mode():
    # i(d_y + g'/2) applied to a resolved Fourier mode
    geom = TorusGeometry(sin_coeffs=(0.3,))
    n = 128
    grid = mode_grid(geom, n)
    mat = discretize_hermitian(restrict_to_mode(operator_D_full(geom, "L"), 0, 0), grid)
    y = grid.points
    # the matrix acts on sqrt(density) * psi samples (flat-measure picture)
    psi = np.exp(2j * y)
    d_psi = 1j * (2j * psi + 0.5 * geom.g_prime(y) * psi)
    half_density = np.exp(geom.g(y) / 2)
    assert np.max(np.abs(mat @ (half_density * psi) - half_density * d_psi)) < 1e-10


def test_singular_coefficient_raises():
    def inverse(x):
        out = np.full((len(x), 1, 1), np.inf)
        nonzero = x[:, 0] != 0.0
        out[nonzero, 0, 0] = 1.0 / x[nonzero, 0]
        return out

    op = FirstOrderOperator(
        dim=1, fiber_dim=1,
        terms=lambda x: (inverse(x)[None], np.zeros((len(x), 1, 1))),
    )
    with pytest.raises(SingularPointError):
        op.coefficients_at([0.0])


def test_singular_point_named_in_a_stack():
    op = FirstOrderOperator(
        dim=1, fiber_dim=1,
        terms=lambda x: (np.where(x < 0.0, np.inf, 1.0)[None, :, :, None],
                         np.zeros((len(x), 1, 1))),
    )
    stack = np.array([[0.5], [2.0], [-1.0], [-3.0]])
    assert op.coefficients_at(stack[:2]).shape == (1, 2, 1, 1)
    with pytest.raises(SingularPointError, match=r"coefficient singular at \[-1\.\]"):
        op.coefficients_at(stack)


def test_coefficients_on_a_stack_match_single_points():
    geom = TorusGeometry(sin_coeffs=(0.3,), cos_coeffs=(-0.2,))
    op = operator_D_full(geom, along="L")
    pts = np.column_stack([np.linspace(0.0, 1.0, 6), np.linspace(0.0, 6.0, 6)])
    coeffs, zeroth = op.coefficients_at(pts), op.zeroth_at(pts)
    assert coeffs.shape == (2, 6, 1, 1) and zeroth.shape == (6, 1, 1)
    for i, x in enumerate(pts):
        assert np.array_equal(coeffs[:, i], op.coefficients_at(x))
        assert np.array_equal(zeroth[i], op.zeroth_at(x))


def test_coefficient_shape_contract_enforced():
    op = FirstOrderOperator(dim=1, fiber_dim=1,
                            terms=lambda x: (np.ones((1, 1)), np.zeros((len(x), 1, 1))))
    with pytest.raises(OperatorError):
        op.coefficients_at(np.zeros((3, 1)))
    with pytest.raises(OperatorError):
        op.zeroth_at(np.zeros((3, 2)))
    op = FirstOrderOperator(dim=1, fiber_dim=1,
                            terms=lambda x: (np.ones((1, len(x), 1, 1)), np.zeros((1, 1))))
    with pytest.raises(OperatorError, match="zeroth-order term returned shape"):
        op.zeroth_at(np.zeros((3, 1)))


def test_discretization_evaluates_each_coefficient_once_per_grid():
    # one evaluation of the unrestricted operator per grid, for the
    # coefficients and the zeroth-order term together, through restrict_to_mode
    geom = TorusGeometry(sin_coeffs=(0.3,))
    grid = mode_grid(geom, 32)
    for along, discretize in (("L", discretize_hermitian), ("Q", discretize_diagonal)):
        full = operator_D_full(geom, along)
        calls = []

        def terms(pts, full=full):
            calls.append(pts.shape)
            return full.terms(pts)

        counted = FirstOrderOperator(dim=2, fiber_dim=1, terms=terms)
        op, base = (restrict_to_mode(o, 0, 3) for o in (counted, full))
        assert np.array_equal(discretize(op, grid), discretize(base, grid))
        assert calls == [(32, 2)]


def test_discretization_with_fiber_dim_two_matches_blockwise_split_form():
    # block (j, l) is 0.5 (A_j + A_l) D_jl, plus the pointwise remainder
    # B - A'/2 - A w'/(2w) on the diagonal, bit for bit
    def terms(pts):
        y = pts[:, 0]
        a = np.stack([np.stack([1j + 0.3j * np.sin(y), 0.2 * np.exp(1j * y)]),
                      np.stack([-0.2 * np.exp(-1j * y), 0.5j * np.cos(2 * y)])])
        b = np.stack([np.stack([0.1 * np.cos(y), 0.4j * np.sin(y)]),
                      np.stack([0.7 + 0.0 * y, -0.3 * np.sin(3 * y)])])
        return np.moveaxis(a, 2, 0)[None], np.moveaxis(b, 2, 0).astype(complex)

    n, d = 16, 2
    op = FirstOrderOperator(dim=1, fiber_dim=d, terms=terms)
    grid = periodic_grid(n, 0.2 * np.cos(2.0 * np.pi * np.arange(n) / n))
    a, b = op.coefficients_at(grid.points[:, None], with_zeroth=True)
    a = a[0]
    rem = b - 0.5 * fourier_derivative(a) - 0.5 * grid.log_weight_prime[:, None, None] * a
    diff = fourier_diff_matrix(n)
    expected = np.zeros((n * d, n * d), dtype=complex)
    for j in range(n):
        for l in range(n):
            block = 0.5 * (a[j] + a[l]) * diff[j, l]
            expected[j * d:(j + 1) * d, l * d:(l + 1) * d] = block + rem[j] if j == l else block
    mat = discretize_hermitian(op, grid)
    assert mat.tobytes() == expected.tobytes()


def test_diagonal_discretization_refuses_a_derivative_part():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    grid = mode_grid(geom, 32)
    with pytest.raises(OperatorError, match="derivative part"):
        discretize_diagonal(restrict_to_mode(operator_D_full(geom, "L"), 0, 0), grid)
    op = restrict_to_mode(operator_D_full(geom, "Q"), 0, 2)
    assert np.array_equal(discretize_diagonal(op, grid)[:, 0, 0],
                          np.diag(discretize_hermitian(op, grid)))


def test_dimension_mismatch_rejected():
    # one derivative coefficient for a 2-dimensional operator: no check can see
    # what the callable returns before it runs, so the first evaluation raises
    op = FirstOrderOperator(dim=2, fiber_dim=1,
                            terms=lambda x: (np.ones((1, len(x), 1, 1)), np.zeros((1, 1))))
    with pytest.raises(OperatorError):
        op.coefficients_at(np.zeros(2))
    geom = TorusGeometry()
    op = restrict_to_mode(operator_D_full(geom, "L"), 0, 0)
    with pytest.raises(OperatorError):
        principal_symbol(op, [0.0], [1.0, 0.0])


def test_only_1d_discretization():
    geom = TorusGeometry()
    op = operator_AQ_full(geom)
    with pytest.raises(OperatorError):
        discretize_hermitian(op, periodic_grid(16))


def test_frame_rank_must_match_module():
    geom = TorusGeometry()
    frames = full_chart_frames(geom)
    with pytest.raises(OperatorError):
        assemble_AQ(frames, build_standard_module(2))


def test_frame_checked_where_finite():
    # e^{800} leaves float64 at the second sample, which is skipped; a frame
    # finite nowhere cannot be checked at all
    def coframe(pts):
        return np.stack([np.diag([np.exp(800.0 * p[0]), 1.0]) for p in pts])

    def components(pts):
        return np.stack([[[np.exp(-800.0 * p[0]), 0.0]] for p in pts])

    samples = [np.zeros(2), np.ones(2)]
    frames = FrameField(dim=2, q=1, components=components,
                        coframe=coframe, samples=samples)
    assemble_AQ(frames, build_standard_module(1))
    frames = FrameField(dim=2, q=1, components=lambda pts: 2.0 * components(pts),
                        coframe=coframe, samples=samples)
    with pytest.raises(OperatorError, match=r"not orthonormal at \[0\. 0\.\]"):
        assemble_AQ(frames, build_standard_module(1))
    frames = FrameField(dim=2, q=1, components=components,
                        coframe=coframe, samples=samples[1:])
    with pytest.raises(OperatorError, match="not finite at any sample"):
        assemble_AQ(frames, build_standard_module(1))


def test_restricted_torus_operators_closed_forms():
    # d_x acts as -i n: D_L = i(d_y + g'/2) and A_L = i d_y do not see the
    # mode, and D_Q = i e^{-g} d_x becomes multiplication by n e^{-g}
    geom = TorusGeometry(const=0.1, sin_coeffs=(0.3,), cos_coeffs=(0.0, 0.2))
    y = mode_grid(geom, 64).points
    pts = y[:, None]
    for n in (0, 3, -7, 2 ** 63 - 1):
        d_l = restrict_to_mode(operator_D_full(geom, "L"), 0, n)
        a_l = restrict_to_mode(operator_AQ_full(geom, "L"), 0, n)
        d_q = restrict_to_mode(operator_D_full(geom, "Q"), 0, n)
        for op in (d_l, a_l, d_q):
            assert (op.dim, op.fiber_dim) == (1, 1)
        assert np.array_equal(d_l.coefficients_at(pts)[0, :, 0, 0], np.full(64, 1j))
        assert np.array_equal(d_l.zeroth_at(pts)[:, 0, 0], 0.5j * geom.g_prime(y))
        assert np.array_equal(a_l.coefficients_at(pts)[0, :, 0, 0], np.full(64, 1j))
        assert np.array_equal(a_l.zeroth_at(pts), np.zeros((64, 1, 1)))
        assert np.array_equal(d_q.coefficients_at(pts), np.zeros((1, 64, 1, 1)))
        zeroth = d_q.zeroth_at(pts)[:, 0, 0]
        assert np.array_equal(zeroth.imag, np.zeros(64))
        assert np.array_equal(zeroth.real, n * np.exp(-geom.g(y)))


def test_restriction_rejects_bad_axes():
    geom = TorusGeometry(sin_coeffs=(0.3,))
    op = operator_D_full(geom, "L")
    for axis in (-1, 2, 5):
        with pytest.raises(OperatorError, match="cannot restrict"):
            restrict_to_mode(op, axis, 1)
    with pytest.raises(OperatorError, match="1-dimensional"):
        restrict_to_mode(restrict_to_mode(op, 0, 1), 0, 1)


def test_symbol_smallest_singular_value_on_a_stack_is_the_least():
    # one call on a stack of points gives the least of the per-point values
    rng = np.random.default_rng(5)
    torus = operator_AQ_full(TorusGeometry(sin_coeffs=(0.3,), cos_coeffs=(0.1,)))
    sphere = chart_operator(UPPER)
    cases = ((torus, rng.uniform(0.0, 2 * np.pi, (5, 2)), [0.7, -0.4]),
             (sphere, np.column_stack([rng.uniform(0.0, 2 * np.pi, (5, 2)),
                                       rng.uniform(0.05, 1.5, 5)]), [0.2, 1.0, -0.5]))
    for op, pts, xi in cases:
        per_point = [symbol_smallest_singular_value(op, x, xi) for x in pts]
        assert len(set(per_point)) > 1
        # vectorised sin and exp may round a stack and a single point 1 ulp apart
        assert symbol_smallest_singular_value(op, pts, xi) == pytest.approx(min(per_point),
                                                                             rel=1e-13)
        assert symbol_smallest_singular_value(op, pts[2:3], xi) == pytest.approx(per_point[2],
                                                                                  rel=1e-13)
