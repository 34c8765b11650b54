import numpy as np
import pytest

from transdirac.clifford import (
    CliffordError,
    CliffordModule,
    anticommutation_defect,
    build_standard_module,
    clifford_matrix,
    skew_adjointness_defect,
)

TOL = 1e-12


@pytest.mark.parametrize("q", range(1, 6))
def test_anticommutation_relations(q):
    mod = build_standard_module(q)
    assert anticommutation_defect(mod) <= TOL


@pytest.mark.parametrize("q", range(1, 6))
def test_generators_skew_hermitian(q):
    mod = build_standard_module(q)
    assert skew_adjointness_defect(mod) <= TOL
    for c in mod.generators:
        assert np.max(np.abs(c + c.conj().T)) <= TOL


@pytest.mark.parametrize("q,dim", [(1, 1), (2, 2), (3, 2), (4, 4), (5, 4)])
def test_fiber_dimension(q, dim):
    assert build_standard_module(q).fiber_dim == dim


def test_rank_two_reference_matrices():
    # the standard rank-2 module acts by [[0,-1],[1,0]] and [[0,i],[i,0]]
    mod = build_standard_module(2)
    c1, c2 = mod.generators
    assert np.allclose(c1, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=TOL)
    assert np.allclose(c2, np.array([[0.0, 1j], [1j, 0.0]]), atol=TOL)


def test_clifford_matrix_squares_to_minus_norm():
    rng = np.random.default_rng(3)
    for q in (1, 2, 3, 4):
        mod = build_standard_module(q)
        v = rng.standard_normal(q)
        cv = clifford_matrix(mod, v)
        assert np.allclose(cv @ cv, -np.dot(v, v) * np.eye(mod.fiber_dim), atol=1e-10)


def test_pairing_skewness():
    # <c(v)s, t> = -<s, c(v)t> for real v
    rng = np.random.default_rng(11)
    mod = build_standard_module(4)
    for _ in range(50):
        v = rng.standard_normal(4)
        s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        t = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cv = clifford_matrix(mod, v)
        assert abs(np.vdot(t, cv @ s) + np.vdot(cv @ t, s)) < 1e-10


def test_invalid_rank_rejected():
    with pytest.raises(CliffordError):
        build_standard_module(0)
    with pytest.raises(CliffordError):
        build_standard_module(-2)


def test_module_validates_generators():
    bad = (np.eye(2, dtype=complex), 1j * np.eye(2, dtype=complex))
    with pytest.raises(CliffordError):
        CliffordModule(q=2, fiber_dim=2, generators=bad)


def test_wrong_vector_length_rejected():
    mod = build_standard_module(2)
    with pytest.raises(CliffordError):
        clifford_matrix(mod, [1.0, 0.0, 0.0])


def test_clifford_matrix_stacks():
    # a (..., q) array of vectors gives the (..., d, d) stack of matrices
    rng = np.random.default_rng(4)
    for q in (1, 2, 3, 4, 5):
        mod = build_standard_module(q)
        v = rng.standard_normal((3, 2, q))
        stacked = clifford_matrix(mod, v)
        assert stacked.shape == (3, 2, mod.fiber_dim, mod.fiber_dim)
        for idx in np.ndindex(3, 2):
            single = sum(vj * cj for vj, cj in zip(v[idx], mod.generators))
            assert np.max(np.abs(stacked[idx] - single)) <= 1e-15
    with pytest.raises(CliffordError):
        clifford_matrix(build_standard_module(2), np.zeros((4, 3)))
    with pytest.raises(CliffordError):
        clifford_matrix(build_standard_module(1), 1.0)


def test_standard_module_built_once_and_read_only():
    mod = build_standard_module(3)
    assert build_standard_module(3) is mod
    with pytest.raises(ValueError):
        mod.generators[0][0, 0] = 0.0
    with pytest.raises(ValueError):
        mod.stacked[0, 0, 0] = 0.0
