"""Pointwise frame/connection data for a splitting TM = Q (+) L.

The combined orthonormal frame is ordered (f_1..f_q, e_1..e_p), Q first.
Connection coefficients Gamma_a[b][c] mean nabla_{u_a} u_b = sum_c
Gamma_a[b][c] u_c and must be skew in (b, c) (metric connection).

Stack contract: LocalFrameData holds one frame or a stack of frames of one
(p, q), with conn of shape (..., n, n, n). The functions below act on every
frame of the stack at once; x_index, y and rotation broadcast over it. One
frame gives one result, with the stack axes absent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from transdirac.clifford import CliffordModule, clifford_matrix

METRIC_TOL = 1e-12


class FrameDataError(ValueError):
    pass


@dataclass(frozen=True)
class LocalFrameData:
    p: int
    q: int
    conn: np.ndarray  # shape (..., p+q, p+q, p+q), conn[..., a, b, c] = Gamma_a[b][c]

    def __post_init__(self):
        n = self.p + self.q
        conn = np.asarray(self.conn, dtype=float)
        if conn.shape[-3:] != (n, n, n):
            raise FrameDataError("connection array must be (..., %d,%d,%d)" % (n, n, n))
        skew = np.max(np.abs(conn + np.swapaxes(conn, -1, -2)), axis=(-3, -2, -1))
        bad = skew > METRIC_TOL
        if np.any(bad):
            item = np.unravel_index(np.argmax(bad), bad.shape)
            where = " at item %s" % ", ".join(map(str, item)) if item else ""
            raise FrameDataError("connection not metric%s: skew defect %.3e"
                                 % (where, skew[item]))
        object.__setattr__(self, "conn", conn)

    @property
    def rank(self) -> int:
        return self.p + self.q


def _check_module(data: LocalFrameData, mod: CliffordModule):
    if mod.q != data.rank:
        raise FrameDataError("Clifford module rank %d does not match frame rank %d" % (mod.q, data.rank))


def _x_slot(data: LocalFrameData, x_index) -> np.ndarray:
    """Gamma_X = conn[..., x, :, :] for each frame, x_index broadcast over the stack."""
    stack = data.conn.shape[:-3]
    return data.conn[np.indices(stack, sparse=True) + (np.broadcast_to(x_index, stack),)]


def _frame_sum(mod: CliffordModule, nabla: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """1/2 sum_m c(nabla_m) c(frame_m) over the second-to-last axis of both."""
    return 0.5 * np.sum(clifford_matrix(mod, nabla) @ clifford_matrix(mod, frame), axis=-3)


def compute_BX_Lframe(data: LocalFrameData, mod: CliffordModule, x_index) -> np.ndarray:
    """Connection correction B_X = 1/2 sum_m c(pi nabla_X e_m) c(e_m)."""
    _check_module(data, mod)
    nabla_e = _x_slot(data, x_index)[..., data.q:, :].copy()  # row m is nabla_X e_m
    nabla_e[..., data.q:] = 0.0  # pi keeps the Q-block
    return _frame_sum(mod, nabla_e, np.eye(data.rank)[data.q:])


def compute_BX_Qframe(data: LocalFrameData, mod: CliffordModule, x_index) -> np.ndarray:
    """Equivalent form B_X = 1/2 sum_j c((1-pi) nabla_X f_j) c(f_j)."""
    _check_module(data, mod)
    nabla_f = _x_slot(data, x_index)[..., : data.q, :].copy()  # row j is nabla_X f_j
    nabla_f[..., : data.q] = 0.0  # 1 - pi keeps the L-block
    return _frame_sum(mod, nabla_f, np.eye(data.rank)[: data.q])


def verify_compatibility(data: LocalFrameData, mod: CliffordModule, x_index, y):
    """Residual of c((1-pi) nabla_X Y) = [c(Y), B_X] for Y in the Q-span:
    a float for one frame, an array over a stack."""
    _check_module(data, mod)
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (data.rank,) or np.max(np.abs(y[..., data.q:])) > 0:
        raise FrameDataError("Y must be given in full frame coordinates with zero L-block")
    nabla_y = np.einsum("...b,...bc->...c", y, _x_slot(data, x_index))
    nabla_y[..., : data.q] = 0.0  # 1 - pi keeps the L-block
    lhs = clifford_matrix(mod, nabla_y)
    bx = compute_BX_Lframe(data, mod, x_index)
    cy = clifford_matrix(mod, y)
    residual = np.max(np.abs(lhs - (cy @ bx - bx @ cy)), axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual


def mean_curvature_L(data: LocalFrameData) -> np.ndarray:
    """Coordinates of H^L = pi sum_m nabla_{e_m} e_m in the f-frame."""
    return np.einsum("...mmc->...c", data.conn[..., data.q:, data.q:, : data.q])


def _checked_rotation(data: LocalFrameData, rotation) -> np.ndarray:
    """rotation as a float array of orthogonal p x p matrices."""
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape[-2:] != (data.p, data.p):
        raise FrameDataError("rotation must be p x p")
    if np.max(np.abs(rotation @ np.swapaxes(rotation, -1, -2) - np.eye(data.p))) > 1e-10:
        raise FrameDataError("rotation must be orthogonal")
    return rotation


def rotate_L_frame(data: LocalFrameData, rotation) -> LocalFrameData:
    """Re-express the connection data in an orthogonally rotated e-frame."""
    rotation = _checked_rotation(data, rotation)
    n = data.rank
    stack = np.broadcast_shapes(data.conn.shape[:-3], rotation.shape[:-2])
    t = np.zeros(stack + (n, n))
    t[..., : data.q, : data.q] = np.eye(data.q)
    t[..., data.q:, data.q:] = rotation
    # conn'[a, b, c] = t[a, f] t[b, d] t[c, e] conn[f, d, e], one index at a time
    conn = data.conn @ np.swapaxes(t, -1, -2)[..., None, :, :]
    conn = t[..., None, :, :] @ conn
    conn = (t @ conn.reshape(stack + (n, n * n))).reshape(stack + (n, n, n))
    return LocalFrameData(p=data.p, q=data.q, conn=conn)


def compute_BX_rotated_eframe(data: LocalFrameData, mod: CliffordModule,
                              x_index, rotation) -> np.ndarray:
    """B_X evaluated over the rotated orthonormal L-frame e'_m = sum R_md e_d.

    Coordinates and the Clifford action stay fixed, so the result must agree
    with compute_BX_Lframe exactly: the sum over an orthonormal frame of L is
    frame-independent.
    """
    _check_module(data, mod)
    rotation = _checked_rotation(data, rotation)
    nabla = rotation @ _x_slot(data, x_index)[..., data.q:, :]  # row m is nabla_X e'_m
    nabla[..., data.q:] = 0.0  # pi keeps the Q-block
    e_coords = np.concatenate([np.zeros(rotation.shape[:-1] + (data.q,)), rotation], axis=-1)
    return _frame_sum(mod, nabla, e_coords)


def metric_frame_data(p: int, q: int, raw) -> LocalFrameData:
    """Frame data whose Gamma_a is the part of raw[..., a, :, :] skew in (b, c),
    a metric connection for any (..., n, n, n) array raw."""
    raw = np.asarray(raw, dtype=float)
    return LocalFrameData(p=p, q=q, conn=0.5 * (raw - np.swapaxes(raw, -1, -2)))


def random_frame_data(p: int, q: int, rng: np.random.Generator) -> LocalFrameData:
    """Random metric-connection sample: each Gamma_a skew with entries in [-1, 1]."""
    n = p + q
    return metric_frame_data(p, q, rng.uniform(-1.0, 1.0, size=(n, n, n)))


def torus_frame_data(g_prime: float, swap: bool = False) -> LocalFrameData:
    """Frame data of the warped torus metric e^{2g(y)}dx^2 + dy^2 at a point.

    Frame order (f_1, e_1) = (e^{-g} d_x, d_y); only g'(y) enters. With
    swap=True the roles of Q and L are exchanged, i.e. frame order
    (d_y, e^{-g} d_x).
    """
    conn = np.zeros((2, 2, 2))
    if not swap:
        # nabla_f f = -g' e, nabla_f e = g' f, nabla_e (anything) = 0
        conn[0, 0, 1] = -g_prime
        conn[0, 1, 0] = g_prime
    else:
        conn[1, 1, 0] = -g_prime
        conn[1, 0, 1] = g_prime
    return LocalFrameData(p=1, q=1, conn=conn)
