"""Complex Clifford-module representations.

Generators satisfy c_i c_j + c_j c_i = -2 delta_ij and c_i^dagger = -c_i,
so c(v)^2 = -|v|^2 for real v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ALGEBRA_TOL = 1e-12

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_MINUS_SIGMA_Y = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class CliffordError(ValueError):
    pass


@dataclass(frozen=True)
class CliffordModule:
    """A complex Cl(q)-module given by explicit generator matrices."""

    q: int
    fiber_dim: int
    generators: tuple = field(repr=False)

    def __post_init__(self):
        if self.q < 1:
            raise CliffordError("rank must be positive")
        if len(self.generators) != self.q:
            raise CliffordError("expected %d generators" % self.q)
        for g in self.generators:
            if g.shape != (self.fiber_dim, self.fiber_dim):
                raise CliffordError("generator shape mismatch")
        err = max(anticommutation_defect(self), skew_adjointness_defect(self))
        if err > ALGEBRA_TOL:
            raise CliffordError("generator algebra violated, defect %.3e" % err)


def anticommutation_defect(mod: CliffordModule) -> float:
    """Max-norm violation of c_i c_j + c_j c_i = -2 delta_ij."""
    eye = np.eye(mod.fiber_dim)
    worst = 0.0
    for i, ci in enumerate(mod.generators):
        for j, cj in enumerate(mod.generators):
            target = -2.0 * eye if i == j else 0.0
            worst = max(worst, np.max(np.abs(ci @ cj + cj @ ci - target)))
    return worst


def skew_adjointness_defect(mod: CliffordModule) -> float:
    return max(np.max(np.abs(g.conj().T + g)) for g in mod.generators)


def _gamma_matrices(q: int) -> list:
    # Jordan-Wigner ladder on k = floor(q/2) tensor factors; the pair order
    # (-sigma_y, sigma_x) makes c_j = i*gamma_j reproduce the q=2 generators
    # [[0,-1],[1,0]] and [[0,i],[i,0]].
    k = q // 2
    if q == 1:
        return [np.array([[1.0 + 0j]])]
    gammas = []
    for j in range(1, k + 1):
        pre = [_SIGMA_Z] * (j - 1)
        post = [np.eye(2, dtype=complex)] * (k - j)
        for core in (_MINUS_SIGMA_Y, _SIGMA_X):
            mat = np.array([[1.0 + 0j]])
            for factor in pre + [core] + post:
                mat = np.kron(mat, factor)
            gammas.append(mat)
    if q % 2 == 1:
        mat = np.array([[1.0 + 0j]])
        for _ in range(k):
            mat = np.kron(mat, _SIGMA_Z)
        gammas.append(mat)
    return gammas


def build_standard_module(q: int) -> CliffordModule:
    """Standard Cl(q)-module on a fiber of dimension 2**(q//2)."""
    if q < 1:
        raise CliffordError("rank must be positive")
    generators = tuple(1j * g for g in _gamma_matrices(q))
    return CliffordModule(q=q, fiber_dim=2 ** (q // 2), generators=generators)


def clifford_matrix(mod: CliffordModule, v) -> np.ndarray:
    """Matrix of c(v) for a frame-coordinate vector v."""
    v = np.asarray(v)
    if v.shape != (mod.q,):
        raise CliffordError("vector length %s does not match rank %d" % (v.shape, mod.q))
    out = np.zeros((mod.fiber_dim, mod.fiber_dim), dtype=complex)
    for vj, cj in zip(v, mod.generators):
        out += vj * cj
    return out

