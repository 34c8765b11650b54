import numpy as np
import pytest

from transdirac.clifford import build_standard_module
from transdirac.frame_geometry import (
    FrameDataError,
    LocalFrameData,
    compute_BX_Lframe,
    compute_BX_Qframe,
    compute_BX_rotated_eframe,
    mean_curvature_L,
    random_frame_data,
    rotate_L_frame,
    torus_frame_data,
    verify_compatibility,
)


def frame_connection_from_metric(metric, frame, point, h=1e-6):
    """Finite-difference oracle for the frame connection coefficients.

    Gamma_a[b][c] = <nabla_{u_a} u_b, u_c> is assembled from numerically
    differentiated frame components and Christoffel symbols of the metric.
    """
    point = np.asarray(point, dtype=float)
    dim = len(point)

    def d(fun, i):
        e = np.zeros(dim)
        e[i] = h
        return (np.asarray(fun(point + e)) - np.asarray(fun(point - e))) / (2 * h)

    g = np.asarray(metric(point))
    g_inv = np.linalg.inv(g)
    dg = np.stack([d(metric, i) for i in range(dim)])  # dg[i, j, k] = d_i g_jk
    # christoffel[k, m, l]: coefficient of d_l in nabla_{d_k} d_m
    lowered = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg  # [j, k, m]
    christoffel = 0.5 * np.einsum("lj,jkm->kml", g_inv, lowered)
    u = np.asarray(frame(point))  # rows are frame vectors in coordinates
    du = np.stack([d(frame, i) for i in range(dim)])  # du[i, b, j]
    n = u.shape[0]
    gamma = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            nabla = u[a] @ du[:, b, :] + np.einsum("k,m,kml->l", u[a], u[b], christoffel)
            gamma[a, b] = u @ g @ nabla
    return gamma


def test_torus_frame_data_matches_christoffel_oracle():
    g0, k = 0.3, 1.0  # warping 0.3 sin(y)
    y0 = 0.7

    def metric(pt):
        return np.diag([np.exp(2 * g0 * np.sin(k * pt[1])), 1.0])

    def frame(pt):
        return np.array([[np.exp(-g0 * np.sin(k * pt[1])), 0.0], [0.0, 1.0]])

    oracle = frame_connection_from_metric(metric, frame, [0.2, y0])
    data = torus_frame_data(g0 * k * np.cos(k * y0))
    assert np.max(np.abs(oracle - data.conn)) < 1e-8


def test_torus_frame_data_swapped_roles():
    data = torus_frame_data(0.4, swap=True)
    # with Q = span(d_y) the mean curvature of L = span(e^{-g} d_x) is -g' f_1
    assert np.allclose(mean_curvature_L(data), [-0.4], atol=1e-14)
    assert np.allclose(mean_curvature_L(torus_frame_data(0.4)), [0.0], atol=1e-14)


def test_both_bx_formulas_agree():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        data = random_frame_data(p, q, rng)
        mod = build_standard_module(p + q)
        for x in range(q):
            b_l = compute_BX_Lframe(data, mod, x)
            b_q = compute_BX_Qframe(data, mod, x)
            assert np.max(np.abs(b_l - b_q)) < 1e-12


def test_bx_skew_hermitian():
    rng = np.random.default_rng(1)
    for _ in range(50):
        data = random_frame_data(2, 2, rng)
        mod = build_standard_module(4)
        b = compute_BX_Lframe(data, mod, 0)
        assert np.max(np.abs(b + b.conj().T)) < 1e-12


def test_compatibility_identity():
    # c((1-pi) nabla_X Y) = [c(Y), B_X] for Y tangent to Q
    rng = np.random.default_rng(2)
    for _ in range(100):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        data = random_frame_data(p, q, rng)
        mod = build_standard_module(p + q)
        y = np.zeros(p + q)
        y[:q] = rng.standard_normal(q)
        assert verify_compatibility(data, mod, 0, y) < 1e-10


def test_bx_independent_of_l_frame_choice():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        data = random_frame_data(p, q, rng)
        mod = build_standard_module(p + q)
        rot = np.linalg.qr(rng.standard_normal((p, p)))[0]
        b = compute_BX_Lframe(data, mod, 0)
        b_rot = compute_BX_rotated_eframe(data, mod, 0, rot)
        assert np.max(np.abs(b - b_rot)) < 1e-12


def test_bx_linear_in_x():
    rng = np.random.default_rng(4)
    data = random_frame_data(2, 2, rng)
    mod = build_standard_module(4)
    summed = np.array(data.conn)
    summed[0] = data.conn[0] + data.conn[1]
    data_sum = LocalFrameData(p=2, q=2, conn=summed)
    combined = compute_BX_Lframe(data, mod, 0) + compute_BX_Lframe(data, mod, 1)
    assert np.max(np.abs(compute_BX_Lframe(data_sum, mod, 0) - combined)) < 1e-12


def test_mean_curvature_sums_l_directions():
    conn = np.zeros((3, 3, 3))
    conn[1, 1, 0], conn[1, 0, 1] = 0.7, -0.7
    conn[2, 2, 0], conn[2, 0, 2] = -0.2, 0.2
    data = LocalFrameData(p=2, q=1, conn=conn)
    assert np.allclose(mean_curvature_L(data), [0.5], atol=1e-14)


def test_rotate_l_frame_is_orthogonal_change():
    rng = np.random.default_rng(5)
    data = random_frame_data(3, 2, rng)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rotated = rotate_L_frame(data, rot)
    # still a metric connection, and rotating back recovers the data
    assert np.max(np.abs(rotate_L_frame(rotated, rot.T).conn - data.conn)) < 1e-12
    with pytest.raises(FrameDataError):
        rotate_L_frame(data, np.ones((3, 3)))
    with pytest.raises(FrameDataError):
        compute_BX_rotated_eframe(data, build_standard_module(5), 0, np.ones((3, 3)))


def test_non_metric_connection_rejected():
    conn = np.zeros((2, 2, 2))
    conn[0, 0, 0] = 1.0  # symmetric part forbidden
    with pytest.raises(FrameDataError):
        LocalFrameData(p=1, q=1, conn=conn)


def test_compatibility_requires_q_tangent():
    rng = np.random.default_rng(6)
    data = random_frame_data(2, 2, rng)
    mod = build_standard_module(4)
    with pytest.raises(FrameDataError):
        verify_compatibility(data, mod, 0, np.array([0.0, 0.0, 1.0, 0.0]))


@pytest.mark.parametrize("p", (1, 2, 3))
@pytest.mark.parametrize("q", (1, 2, 3))
def test_stacked_functions_match_per_frame(p, q):
    rng = np.random.default_rng(10 * p + q)
    k, n = 5, p + q
    data = LocalFrameData(p=p, q=q, conn=np.stack([random_frame_data(p, q, rng).conn
                                                   for _ in range(k)]))
    mod = build_standard_module(n)
    frames = [LocalFrameData(p=p, q=q, conn=c) for c in data.conn]
    y = np.zeros((k, n))
    y[:, :q] = rng.standard_normal((k, q))
    rot = np.linalg.qr(rng.standard_normal((k, p, p)))[0]
    gap = lambda stacked, single: np.max(np.abs(stacked - np.stack(single)))
    for x in list(range(q)) + [rng.integers(0, q, size=k)]:
        xs = np.broadcast_to(x, (k,))
        for fn in (compute_BX_Lframe, compute_BX_Qframe):
            assert gap(fn(data, mod, x), [fn(f, mod, i) for f, i in zip(frames, xs)]) <= 1e-15
        assert gap(verify_compatibility(data, mod, x, y),
                   [verify_compatibility(f, mod, i, yi) for f, i, yi in zip(frames, xs, y)]) <= 1e-15
        assert gap(compute_BX_rotated_eframe(data, mod, x, rot),
                   [compute_BX_rotated_eframe(f, mod, i, r)
                    for f, i, r in zip(frames, xs, rot)]) <= 1e-15
    assert gap(mean_curvature_L(data), [mean_curvature_L(f) for f in frames]) <= 1e-15
    assert gap(rotate_L_frame(data, rot).conn,
               [rotate_L_frame(f, r).conn for f, r in zip(frames, rot)]) <= 1e-15
    # one frame keeps the unstacked shapes, and the residual stays a float
    assert compute_BX_Lframe(frames[0], mod, 0).shape == (mod.fiber_dim,) * 2
    assert isinstance(verify_compatibility(frames[0], mod, 0, y[0]), float)
    assert mean_curvature_L(frames[0]).shape == (q,)
    assert rotate_L_frame(frames[0], rot[0]).conn.shape == (n, n, n)


def test_stack_names_its_non_metric_item():
    rng = np.random.default_rng(8)
    conn = np.stack([random_frame_data(2, 1, rng).conn for _ in range(6)])
    conn[4, 1, 2, 2] = 0.5  # a diagonal entry breaks skewness in item 4 only
    with pytest.raises(FrameDataError, match="at item 4:"):
        LocalFrameData(p=2, q=1, conn=conn)
    with pytest.raises(FrameDataError, match="at item 1, 1:"):
        LocalFrameData(p=2, q=1, conn=conn.reshape(2, 3, 3, 3, 3))
    with pytest.raises(FrameDataError, match="connection not metric: skew"):
        LocalFrameData(p=2, q=1, conn=conn[4])
