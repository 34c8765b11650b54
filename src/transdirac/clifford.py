"""Complex Clifford-module representations.

Generators satisfy c_i c_j + c_j c_i = -2 delta_ij and c_i^dagger = -c_i,
so c(v)^2 = -|v|^2 for real v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

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

    @cached_property
    def stacked(self) -> np.ndarray:
        """The generators as one read-only (q, d, d) array."""
        out = np.stack(self.generators)
        out.flags.writeable = False
        return out


def anticommutation_defect(mod: CliffordModule) -> float:
    """Max-norm violation of c_i c_j + c_j c_i = -2 delta_ij."""
    g = mod.stacked
    anti = g[:, None] @ g[None] + g[None] @ g[:, None]  # [i, j] = c_i c_j + c_j c_i
    target = -2.0 * np.eye(mod.q)[:, :, None, None] * np.eye(mod.fiber_dim)
    return float(np.max(np.abs(anti - target)))


def skew_adjointness_defect(mod: CliffordModule) -> float:
    g = mod.stacked
    return float(np.max(np.abs(np.swapaxes(g, 1, 2).conj() + g)))


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


@cache
def build_standard_module(q: int) -> CliffordModule:
    """Standard Cl(q)-module on a fiber of dimension 2**(q//2), built once per
    rank and process; its generators are read-only, since every caller shares them."""
    generators = tuple(1j * g for g in _gamma_matrices(q))
    for g in generators:
        g.flags.writeable = False
    return CliffordModule(q=q, fiber_dim=2 ** (q // 2), generators=generators)


def clifford_matrix(mod: CliffordModule, v) -> np.ndarray:
    """Matrices c(v) for frame-coordinate vectors: a (..., q) array of
    vectors gives the (..., d, d) stack, one vector one matrix."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (mod.q,):
        raise CliffordError("vector length %s does not match rank %d" % (v.shape, mod.q))
    gens = mod.stacked
    return (v.reshape(-1, mod.q) @ gens.reshape(mod.q, -1)).reshape(v.shape[:-1] + gens.shape[1:])
