"""Pointwise frame/connection data for a splitting TM = Q (+) L.

The combined orthonormal frame is ordered (f_1..f_q, e_1..e_p), Q first.
Connection coefficients Gamma_a[b][c] mean nabla_{u_a} u_b = sum_c
Gamma_a[b][c] u_c and must be skew in (b, c) (metric connection).
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
    conn: np.ndarray  # shape (p+q, p+q, p+q), conn[a, b, c] = Gamma_a[b][c]

    def __post_init__(self):
        n = self.p + self.q
        conn = np.asarray(self.conn, dtype=float)
        if conn.shape != (n, n, n):
            raise FrameDataError("connection array must be (%d,%d,%d)" % (n, n, n))
        skew = np.max(np.abs(conn + conn.transpose(0, 2, 1)))
        if skew > METRIC_TOL:
            raise FrameDataError("connection not metric: skew defect %.3e" % skew)

    @property
    def rank(self) -> int:
        return self.p + self.q


def _check_module(data: LocalFrameData, mod: CliffordModule):
    if mod.q != data.rank:
        raise FrameDataError("Clifford module rank %d does not match frame rank %d" % (mod.q, data.rank))


def compute_BX_Lframe(data: LocalFrameData, mod: CliffordModule, x_index: int) -> np.ndarray:
    """Connection correction B_X = 1/2 sum_m c(pi nabla_X e_m) c(e_m)."""
    _check_module(data, mod)
    nabla_e = data.conn[x_index, data.q:].copy()  # row m is nabla_X e_m
    nabla_e[:, data.q:] = 0.0  # pi keeps the Q-block
    b = np.zeros((mod.fiber_dim, mod.fiber_dim), dtype=complex)
    for m in range(data.p):
        b += 0.5 * clifford_matrix(mod, nabla_e[m]) @ mod.generators[data.q + m]
    return b


def compute_BX_Qframe(data: LocalFrameData, mod: CliffordModule, x_index: int) -> np.ndarray:
    """Equivalent form B_X = 1/2 sum_j c((1-pi) nabla_X f_j) c(f_j)."""
    _check_module(data, mod)
    nabla_f = data.conn[x_index, : data.q].copy()  # row j is nabla_X f_j
    nabla_f[:, : data.q] = 0.0  # 1 - pi keeps the L-block
    b = np.zeros((mod.fiber_dim, mod.fiber_dim), dtype=complex)
    for j in range(data.q):
        b += 0.5 * clifford_matrix(mod, nabla_f[j]) @ mod.generators[j]
    return b


def verify_compatibility(data: LocalFrameData, mod: CliffordModule, x_index: int, y) -> float:
    """Residual of c((1-pi) nabla_X Y) = [c(Y), B_X] for Y in the Q-span."""
    _check_module(data, mod)
    y = np.asarray(y, dtype=float)
    if y.shape != (data.rank,) or np.max(np.abs(y[data.q:])) > 0:
        raise FrameDataError("Y must be given in full frame coordinates with zero L-block")
    nabla_y = np.tensordot(y, data.conn[x_index], axes=(0, 0))
    nabla_y[: data.q] = 0.0  # 1 - pi keeps the L-block
    lhs = clifford_matrix(mod, nabla_y)
    bx = compute_BX_Lframe(data, mod, x_index)
    cy = clifford_matrix(mod, y)
    rhs = cy @ bx - bx @ cy
    return float(np.max(np.abs(lhs - rhs)))


def mean_curvature_L(data: LocalFrameData) -> np.ndarray:
    """Coordinates of H^L = pi sum_m nabla_{e_m} e_m in the f-frame."""
    h = np.zeros(data.q)
    for m in range(data.p):
        a = data.q + m
        h += data.conn[a, a, : data.q]
    return h


def _checked_rotation(data: LocalFrameData, rotation) -> np.ndarray:
    """rotation as a float array, checked to be an orthogonal p x p matrix."""
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (data.p, data.p):
        raise FrameDataError("rotation must be p x p")
    if np.max(np.abs(rotation @ rotation.T - np.eye(data.p))) > 1e-10:
        raise FrameDataError("rotation must be orthogonal")
    return rotation


def rotate_L_frame(data: LocalFrameData, rotation: np.ndarray) -> LocalFrameData:
    """Re-express the connection data in an orthogonally rotated e-frame."""
    rotation = _checked_rotation(data, rotation)
    t = np.eye(data.rank)
    t[data.q:, data.q:] = rotation
    conn = np.einsum("af,bd,ce,fde->abc", t, t, t, data.conn)
    return LocalFrameData(p=data.p, q=data.q, conn=conn)


def compute_BX_rotated_eframe(data: LocalFrameData, mod: CliffordModule,
                              x_index: int, rotation: np.ndarray) -> np.ndarray:
    """B_X evaluated over the rotated orthonormal L-frame e'_m = sum R_md e_d.

    Coordinates and the Clifford action stay fixed, so the result must agree
    with compute_BX_Lframe exactly: the sum over an orthonormal frame of L is
    frame-independent.
    """
    _check_module(data, mod)
    rotation = _checked_rotation(data, rotation)
    b = np.zeros((mod.fiber_dim, mod.fiber_dim), dtype=complex)
    for m in range(data.p):
        nabla = rotation[m] @ data.conn[x_index, data.q:, :]
        nabla[data.q:] = 0.0  # pi keeps the Q-block
        e_coords = np.zeros(data.rank)
        e_coords[data.q:] = rotation[m]
        b += 0.5 * clifford_matrix(mod, nabla) @ clifford_matrix(mod, e_coords)
    return b


def random_frame_data(p: int, q: int, rng: np.random.Generator) -> LocalFrameData:
    """Random metric-connection sample: each Gamma_a skew with entries in [-1, 1]."""
    n = p + q
    raw = rng.uniform(-1.0, 1.0, size=(n, n, n))
    conn = 0.5 * (raw - raw.transpose(0, 2, 1))
    return LocalFrameData(p=p, q=q, conn=conn)


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
