import dataclasses

import numpy as np
import pytest

from transdirac import index_engine
from transdirac.index_engine import (
    IndexError_,
    IndexTable,
    build_index_table,
    index_closed_form,
    index_numerical,
    kernel_dims_closed_form,
)
from transdirac.spectral import fit_exponent, integrate_log_ode, simpson_abscissas
from transdirac.sphere_model import CHARTS, CHIRALITIES, SphereBlock, reduce_block
from transdirac.verification import BRANCH_BLOCKS


def reference_index(n, m):
    """The published index values, branch by branch."""
    if m > abs(n) or (m == abs(n) and n != 0):
        return -1
    if -abs(n) < m < abs(n) or (m == 0 and n == 0):
        return 0
    return 1  # m < -|n|, or m = -|n| with n != 0


def reference_kernel_total(n, m):
    """The published kernel-dimension table."""
    if n == 0 and m == 0:
        return 2
    if abs(n) <= abs(m) and m != 0:
        return 1
    return 0


def test_kernel_dims_examples():
    assert kernel_dims_closed_form(0, 0) == (1, 1)
    assert kernel_dims_closed_form(2, 3) == (0, 1)
    assert kernel_dims_closed_form(3, 1) == (0, 0)


def test_index_examples():
    assert index_closed_form(2, 3) == -1
    assert index_closed_form(0, 0) == 0
    assert index_closed_form(2, -2) == 1


def test_closed_form_matches_reference_branches():
    for n in range(-5, 6):
        for m in range(-6, 7):
            assert index_closed_form(n, m) == reference_index(n, m)
            d_plus, d_minus = kernel_dims_closed_form(n, m)
            assert d_plus + d_minus == reference_kernel_total(n, m)


def test_numerical_block_2_3():
    res = index_numerical(2, 3)
    assert res["estimated_exponents"] == {
        ("upper", "+"): -1, ("lower", "+"): -5,
        ("upper", "-"): 1, ("lower", "-"): 5,
    }
    assert (res["d_plus"], res["d_minus"], res["index"]) == (0, 1, -1)


def test_numerical_block_0_0():
    res = index_numerical(0, 0)
    assert all(k == 0 for k in res["estimated_exponents"].values())
    assert (res["d_plus"], res["d_minus"], res["index"]) == (1, 1, 0)


def test_numerical_route_matches_closed_form_sweep():
    for n in range(-5, 6):
        for m in range(-6, 7):
            res = index_numerical(n, m)
            assert res["index"] == index_closed_form(n, m)
            assert (res["d_plus"], res["d_minus"]) == kernel_dims_closed_form(n, m)


def test_oracle_never_reads_the_closed_form(monkeypatch):
    expected = {(n, m): index_numerical(n, m)["estimated_exponents"] for n, m in BRANCH_BLOCKS}
    reduced = []

    def wrong_exponent(block, chart):
        reduced.append((block, chart))
        ode = reduce_block(block, chart)
        return dataclasses.replace(ode, exponent=ode.exponent + 7)

    def closed_form_forbidden(n, m):
        raise AssertionError("the oracle consulted the closed form")

    monkeypatch.setattr(index_engine, "reduce_block", wrong_exponent)
    monkeypatch.setattr(index_engine, "kernel_dims_closed_form", closed_form_forbidden)
    for n, m in BRANCH_BLOCKS:
        assert index_numerical(n, m)["estimated_exponents"] == expected[(n, m)]
    assert len(reduced) == 4 * len(BRANCH_BLOCKS)


def test_shared_grid_slopes_match_callable_integration():
    # reference: each ODE's r(phi) evaluated as a callable over the full span
    eps, steps = 1e-3, 10000
    blocks = BRANCH_BLOCKS + ((40, 7), (40, -7), (-40, 7), (-40, -7), (50, 49), (-50, 50))
    for n, m in blocks:
        slopes = index_numerical(n, m, eps=eps, steps=steps)["slopes"]
        for chart in CHARTS:
            for chirality in CHIRALITIES:
                ode = reduce_block(SphereBlock(n=n, m=m, chirality=chirality), chart)
                phis = simpson_abscissas(0.25 * np.pi, eps, steps)[0::2]
                log_psi = integrate_log_ode(ode.r, 0.25 * np.pi, eps, steps)
                window = phis <= 10.0 * eps
                reference = fit_exponent(np.log(np.sin(phis[window])), log_psi[window])
                assert abs(slopes[(chart, chirality)] - reference) <= 1e-9, (n, m, chart)
                assert abs(reference - ode.exponent) < 0.1


def test_numerical_batch_matches_single_blocks():
    n, m = np.meshgrid(np.arange(-6, 7), np.arange(-6, 7), indexing="ij")
    batch = index_numerical(n, m)
    assert batch["d_plus"].shape == n.shape
    for i, j in np.ndindex(n.shape):
        single = index_numerical(int(n[i, j]), int(m[i, j]))
        for name in ("d_plus", "d_minus", "index"):
            assert np.ndim(single[name]) == 0 and not isinstance(single[name], np.ndarray)
            assert batch[name][i, j] == single[name]
        for key in single["slopes"]:
            assert batch["estimated_exponents"][key][i, j] == single["estimated_exponents"][key]
            assert abs(batch["slopes"][key][i, j] - single["slopes"][key]) <= 1e-12


def test_numerical_parameter_validation():
    with pytest.raises(IndexError_):
        index_numerical(1, 1, eps=1e-5)
    with pytest.raises(IndexError_):
        index_numerical(1, 1, steps=100)


def test_table_row_n2():
    table = build_index_table(range(2, 3), range(-6, 7))
    row = [table.index(2, m) for m in range(-6, 7)]
    assert row == [1, 1, 1, 1, 1, 0, 0, 0, -1, -1, -1, -1, -1]


def test_table_column_m0():
    table = build_index_table(range(-5, 6), range(0, 1))
    for n in range(-5, 6):
        assert table.total_kernel(n, 0) == (2 if n == 0 else 0)


def test_table_symmetries():
    table = build_index_table(range(-4, 5), range(-4, 5))
    for n in range(-4, 5):
        for m in range(-4, 5):
            assert table.index(n, m) == table.index(-n, m)
            if m != 0:
                assert table.index(n, -m) == -table.index(n, m)


def test_table_structural_bounds():
    # for fixed n every large |m| contributes +-1; for fixed m the kernel
    # support in n is exactly {|n| <= |m|}
    table = build_index_table(range(-3, 4), range(-6, 7))
    for n in range(-3, 4):
        cutoff = max(abs(n), 1)
        for m in range(-6, 7):
            if m >= cutoff:
                assert table.index(n, m) == -1
            if m <= -cutoff:
                assert table.index(n, m) == 1
    for m in range(-6, 7):
        support = [n for n in range(-3, 4) if table.total_kernel(n, m) > 0]
        expected = [n for n in range(-3, 4) if abs(n) <= abs(m) and m != 0]
        if m == 0:
            expected = [0]
        assert support == expected


def test_method_both_enforces_agreement():
    table = build_index_table(range(-2, 3), range(-2, 3), method="both")
    assert table.index(2, 2) == -1


def test_table_invariant_validation():
    with pytest.raises(IndexError_):
        IndexTable(entries={(0, 0): {"dim_ker_plus": 1, "dim_ker_minus": 0, "index": 0}})
    with pytest.raises(IndexError_):
        build_index_table([], range(0, 1))
    with pytest.raises(IndexError_):
        build_index_table(range(0, 1), range(0, 1), method="fancy")


def test_numeric_table_matches_closed_form_small_blocks():
    table = build_index_table(range(-1, 2), range(-1, 2), method="numeric")
    for n in range(-1, 2):
        for m in range(-1, 2):
            assert table.index(n, m) == index_closed_form(n, m)


def test_table_block_count_is_bounded(monkeypatch):
    monkeypatch.setattr(index_engine, "MAX_BLOCKS", 6)
    assert len(build_index_table(range(3), range(-1, 1)).entries) == 6
    for n_range, m_range in ((range(7), range(1)), (range(3), range(-1, 2)),
                             (range(-10 ** 9, 10 ** 9 + 1), range(0, 1))):
        with pytest.raises(IndexError_, match="more than the 6 allowed"):
            build_index_table(n_range, m_range, method="numeric")
