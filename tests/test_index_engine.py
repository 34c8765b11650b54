import dataclasses
import re

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
from transdirac.sphere_model import CHARTS, CHIRALITIES, RadialODE, reduce_block
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


def test_kernel_dims_arrays_match_ints():
    # int64 where every label fits, exact Python ints beyond: 2**63 as uint64
    # or -2**63 would wrap under -|n| in int64
    big = 2 ** 63
    for labels in (range(-6, 7), [-big, 1 - big, big - 1, big, 10 ** 20, -10 ** 20, 0, 1, -1]):
        labels = list(labels)
        n, m = np.array(labels, dtype=object)[:, None], np.array(labels, dtype=object)[None, :]
        expected = [[kernel_dims_closed_form(a, b) for b in labels] for a in labels]
        for d, dims in enumerate(kernel_dims_closed_form(n, m)):
            assert dims.dtype == np.int64
            assert dims.tolist() == [[pair[d] for pair in row] for row in expected]
    for n in (np.array([big, big + 1], dtype=np.uint64), [big, -1]):
        assert kernel_dims_closed_form(n, [0, 0])[0].tolist() == [0, 0]
        assert kernel_dims_closed_form(n, [-big, -big - 2])[0].tolist() == [1, 1]
    assert kernel_dims_closed_form(np.arange(-2, 3), np.int64(2))[1].tolist() == [1, 1, 1, 1, 1]
    assert kernel_dims_closed_form(big, big) == (0, 1)
    assert kernel_dims_closed_form(-big, -big) == (1, 0)


def test_closed_table_beyond_int64_is_exact():
    big = 2 ** 63
    for n_range, m_range in ((range(big, big + 2), range(-1, 2)),
                             (range(-big, -big + 1), range(big - 1, big + 1)),
                             (range(-1, 2), range(10 ** 20, 10 ** 20 + 1))):
        table = build_index_table(n_range, m_range)
        for row, (n, m) in enumerate(zip(table.n, table.m)):
            assert type(n) is int and type(m) is int
            assert table.indices[row] == index_closed_form(n, m) == reference_index(n, m)


def test_index_table_label_columns():
    # int64 labels when every label of the table fits; as soon as one label of
    # either range has |label| >= 2**63, both columns hold exact Python ints
    big = 2 ** 63
    table = build_index_table(range(-3, 4), range(big - 3, big - 1))
    assert table.n.dtype == table.m.dtype == np.int64
    assert table.n.tolist() == [n for n in range(-3, 4) for _ in range(2)]
    assert table.m.tolist() == [big - 3, big - 2] * 7
    ranges = ((range(big - 1, big + 1), range(-1, 1)), (range(-1, 1), range(big - 1, big + 1)),
              (range(-big, 2 - big), range(0, 2)), (range(-2, 0), range(-10 ** 20, 2 - 10 ** 20)))
    for n_range, m_range in ranges:
        table = build_index_table(n_range, m_range)
        assert table.n.dtype == table.m.dtype == object
        assert {type(label) for label in [*table.n, *table.m]} == {int}
        assert table.n.tolist() == [n for n in n_range for _ in m_range]
        assert table.m.tolist() == list(m_range) * len(n_range)
        blocks = list(zip(table.n.tolist(), table.m.tolist()))
        assert table.indices.tolist() == [reference_index(n, m) for n, m in blocks]
        assert (table.dim_ker_plus + table.dim_ker_minus).tolist() == [
            sum(kernel_dims_closed_form(n, m)) for n, m in blocks]


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
    # rows over CHARTS (upper, lower), columns over CHIRALITIES ('+', '-')
    assert res["estimated_exponents"].tolist() == [[-1, 1], [-5, 5]]
    assert (res["d_plus"], res["d_minus"], res["index"]) == (0, 1, -1)


def test_numerical_block_0_0():
    res = index_numerical(0, 0)
    assert res["estimated_exponents"].shape == (len(CHARTS), len(CHIRALITIES))
    assert not np.any(res["estimated_exponents"])
    assert (res["d_plus"], res["d_minus"], res["index"]) == (1, 1, 0)


def test_numerical_route_matches_closed_form_sweep():
    for n in range(-5, 6):
        for m in range(-6, 7):
            res = index_numerical(n, m)
            assert res["index"] == index_closed_form(n, m)
            assert (res["d_plus"], res["d_minus"]) == kernel_dims_closed_form(n, m)


def test_oracle_never_reads_the_closed_form(monkeypatch):
    expected = {(n, m): index_numerical(n, m)["estimated_exponents"].tolist()
                for n, m in BRANCH_BLOCKS}
    reduced = []

    class OnlyPQ(RadialODE):
        # the closed form's derived fields: the oracle integrates r from p and q
        @property
        def exponent(self):
            raise AssertionError("the oracle read the indicial exponent")

        @property
        def theta_weight(self):
            raise AssertionError("the oracle read the theta weight")

    def only_pq(n, m):
        reduced.append((n, m))
        ode = reduce_block(n, m)
        return OnlyPQ(ode.p, ode.q)

    def closed_form_forbidden(n, m):
        raise AssertionError("the oracle consulted the closed form")

    monkeypatch.setattr(index_engine, "reduce_block", only_pq)
    monkeypatch.setattr(index_engine, "kernel_dims_closed_form", closed_form_forbidden)
    for n, m in BRANCH_BLOCKS:
        assert index_numerical(n, m)["estimated_exponents"].tolist() == expected[(n, m)]
    # one reduction carries both charts and both chiralities
    assert len(reduced) == len(BRANCH_BLOCKS)


def callable_slopes(n, m):
    """Reference slopes and the indicial exponents, on the axes (chart,
    chirality): each ODE's r(phi) integrated on its own as a callable over
    the full span, and fitted on the oracle's window."""
    eps, steps = index_engine.ORACLE_EPS, index_engine.ORACLE_STEPS
    phis = simpson_abscissas(0.25 * np.pi, eps, steps)[0::2]
    window = phis <= 10.0 * eps
    ode = reduce_block(n, m)
    slopes = np.empty(ode.p.shape)
    for entry in np.ndindex(slopes.shape):
        log_psi = integrate_log_ode(lambda phi: ode.r(phi[..., None, None])[(...,) + entry],
                                    0.25 * np.pi, eps, steps)
        slopes[entry] = fit_exponent(np.log(np.sin(phis[window])), log_psi[window])
    return slopes, ode.exponent


def test_shared_grid_slopes_match_callable_integration():
    blocks = BRANCH_BLOCKS + ((40, 7), (40, -7), (-40, 7), (-40, -7), (50, 49), (-50, 50))
    for n, m in blocks:
        slopes = index_numerical(n, m)["slopes"]
        reference, exponents = callable_slopes(n, m)
        assert slopes.shape == (len(CHARTS), len(CHIRALITIES))
        assert np.all(np.abs(slopes - reference) <= 1e-9), (n, m)
        assert np.all(np.abs(reference - exponents) < 0.1)


def test_numerical_batch_matches_single_blocks():
    n, m = np.meshgrid(np.arange(-6, 7), np.arange(-6, 7), indexing="ij")
    batch = index_numerical(n, m)
    assert batch["d_plus"].shape == n.shape
    for i, j in np.ndindex(n.shape):
        single = index_numerical(int(n[i, j]), int(m[i, j]))
        for name in ("d_plus", "d_minus", "index"):
            assert np.ndim(single[name]) == 0 and not isinstance(single[name], np.ndarray)
            assert batch[name][i, j] == single[name]
        assert batch["estimated_exponents"].shape == batch["slopes"].shape == n.shape + (2, 2)
        assert batch["estimated_exponents"][i, j].tolist() == single["estimated_exponents"].tolist()
        assert np.all(np.abs(batch["slopes"][i, j] - single["slopes"]) <= 1e-12)


def test_table_row_n2():
    table = build_index_table(range(2, 3), range(-6, 7))
    assert table.indices.tolist() == [1, 1, 1, 1, 1, 0, 0, 0, -1, -1, -1, -1, -1]


def test_table_column_m0():
    table = build_index_table(range(-5, 6), range(0, 1))
    total = table.dim_ker_plus + table.dim_ker_minus
    assert total.tolist() == [2 if n == 0 else 0 for n in range(-5, 6)]


def test_table_symmetries():
    # the index on the (n, m) grid is even in n and, off m = 0, odd in m
    grid = build_index_table(range(-4, 5), range(-4, 5)).indices.reshape(9, 9)
    assert np.array_equal(grid, grid[::-1])
    flipped = -grid[:, ::-1]
    flipped[:, 4] = grid[:, 4]
    assert np.array_equal(grid, flipped)


def test_table_structural_bounds():
    # for fixed n every large |m| contributes +-1; for fixed m the kernel
    # support in n is exactly {|n| <= |m|}
    table = build_index_table(range(-3, 4), range(-6, 7))
    n, m, index = (column.reshape(7, 13) for column in (table.n, table.m, table.indices))
    cutoff = np.maximum(abs(n), 1)
    assert np.all(index[m >= cutoff] == -1) and np.all(index[m <= -cutoff] == 1)
    support = (table.dim_ker_plus + table.dim_ker_minus).reshape(7, 13) > 0
    assert np.array_equal(support, (abs(n) <= abs(m)) & (m != 0) | (n == 0) & (m == 0))


def test_method_both_enforces_agreement():
    table = build_index_table(range(-2, 3), range(-2, 3), method="both")
    assert table.indices.tolist() == [reference_index(n, m) for n in range(-2, 3)
                                      for m in range(-2, 3)]


def test_method_both_names_the_first_disagreement(monkeypatch):
    real = index_engine.index_numerical
    flipped = {(-1, 2), (1, -2)}  # in row-major order over n, then m, (-1, 2) comes first

    def flip(n, m):
        res = dict(real(n, m))
        for i, key in enumerate(zip(n, m)):
            if key in flipped:
                res["d_plus"][i] = 1 - res["d_plus"][i]
        return res

    monkeypatch.setattr(index_engine, "index_numerical", flip)
    message = ("route disagreement at (-1, 2): {'dim_ker_plus': 0, 'dim_ker_minus': 1, "
               "'index': -1} vs {'dim_ker_plus': 1, 'dim_ker_minus': 1, 'index': 0}")
    with pytest.raises(IndexError_) as info:
        build_index_table(range(-2, 3), range(-2, 3), method="both")
    assert str(info.value) == message
    # the numeric route alone takes its own word for it
    table = build_index_table(range(-2, 3), range(-2, 3), method="numeric")
    assert table.indices.tolist() == [0 if (n, m) in flipped else reference_index(n, m)
                                      for n in range(-2, 3) for m in range(-2, 3)]


def test_table_invariant_validation():
    # a plain record: build_index_table alone fills it, with columns of one
    # length, kernel dimensions in {0, 1} and indices = dim_ker_plus - dim_ker_minus
    assert [f.name for f in dataclasses.fields(IndexTable)] == [
        "n", "m", "dim_ker_plus", "dim_ker_minus", "indices"]
    for method in ("closed", "numeric", "both"):
        table = build_index_table(range(-3, 4), range(-4, 5), method=method)
        columns = (table.n, table.m, table.dim_ker_plus, table.dim_ker_minus, table.indices)
        assert [(len(c), c.dtype) for c in columns] == [(63, np.int64)] * 5
        assert set(table.dim_ker_plus.tolist() + table.dim_ker_minus.tolist()) == {0, 1}
        assert np.array_equal(table.indices, table.dim_ker_plus - table.dim_ker_minus)
    with pytest.raises(IndexError_):
        build_index_table([], range(0, 1))
    with pytest.raises(IndexError_):
        build_index_table(range(0, 1), range(0, 1), method="fancy")


def test_numeric_table_matches_closed_form_small_blocks():
    table = build_index_table(range(-1, 2), range(-1, 2), method="numeric")
    assert table.indices.tolist() == [index_closed_form(n, m) for n in range(-1, 2)
                                      for m in range(-1, 2)]


def test_table_block_count_is_bounded(monkeypatch):
    monkeypatch.setattr(index_engine, "MAX_BLOCKS", 6)
    table = build_index_table(range(3), range(-1, 1))
    assert len(table.n) == len(table.m) == len(table.indices) == 6
    for n_range, m_range in ((range(7), range(1)), (range(3), range(-1, 2)),
                             (range(-10 ** 9, 10 ** 9 + 1), range(0, 1))):
        with pytest.raises(IndexError_, match="more than the 6 allowed"):
            build_index_table(n_range, m_range, method="numeric")


def test_superposed_slopes_match_callable_integration_at_large_labels():
    # the superposed slope p s_csc - q s_cot carries the relative rounding of p s_csc
    for n, m in ((3200, -3200), (9000, -9000)):
        slopes, (reference, _) = index_numerical(n, m)["slopes"], callable_slopes(n, m)
        scale = np.maximum(1.0, np.abs(reference))
        assert np.all(np.abs(slopes - reference) <= 1e-9 * scale), (n, m)


def test_oracle_range_limit_is_unchanged():
    # the slope's Frobenius bias grows with the labels; from L = 9500 on it
    # exceeds the 0.1 snapping tolerance, as it did before the superposition
    message = "slope 19000.1035 too far from an integer for block (9500, -9500)"
    with pytest.raises(index_engine.ExponentFitError) as info:
        index_numerical(9500, -9500)
    assert str(info.value) == message


def test_numeric_table_integrates_once(monkeypatch):
    calls = {"index_numerical": 0, "integrate_log_ode": 0, "fit_exponent": 0}

    def counted(name):
        real = getattr(index_engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(index_engine, name, counted(name))
    table = build_index_table(range(-10, 11), range(-10, 11), method="numeric")
    assert len(table.n) == 441
    assert calls == {"index_numerical": 1, "integrate_log_ode": 1, "fit_exponent": 1}


def test_numeric_labels_are_bounded_before_any_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(index_engine, "simpson_abscissas", no_grid)
    bound = index_engine.MAX_LABEL
    # past the bound by one, in either label and either sign, at int64 and beyond it
    for n, m in ((bound + 1, 0), (0, -bound - 1), (-bound - 1, bound), (10 ** 400, 3),
                 (84103, -84103)):
        message = ("block (%d, %d) is past the oracle's label bound |n|, |m| <= MAX_LABEL = %d"
                   % (n, m, bound))
        with pytest.raises(IndexError_, match="^%s$" % re.escape(message)):
            index_numerical(n, m)
    with pytest.raises(IndexError_, match=re.escape("block (%d, 0) is past" % (bound + 1))):
        build_index_table(range(bound - 1, bound + 2), range(0, 1), method="numeric")


def test_oracle_is_right_or_refuses_up_to_the_bound():
    # along (L, +-L), (L, 0) and (0, L) every block within MAX_LABEL gets the
    # closed form's dimensions or an ExponentFitError, never a wrong table
    refused = 0
    for size in range(0, index_engine.MAX_LABEL + 1, 1024):
        for n, m in ((size, -size), (-size, size), (size, size), (size, 0), (0, size)):
            try:
                res = index_numerical(n, m)
            except index_engine.ExponentFitError:
                refused += 1
                continue
            assert (res["d_plus"], res["d_minus"]) == kernel_dims_closed_form(n, m), (n, m)
    assert refused > 0


def test_both_routes_agree_on_a_wide_table():
    # 40,401 blocks in one oracle call; 'both' insists on the closed form
    table = build_index_table(range(-100, 101), range(-100, 101), method="both")
    assert len(table.n) == 201 * 201
    assert table.indices.tolist() == [reference_index(n, m) for n, m in zip(table.n, table.m)]
    assert (table.dim_ker_plus + table.dim_ker_minus).tolist() == [
        reference_kernel_total(n, m) for n, m in zip(table.n, table.m)]


def test_empty_range_is_rejected_before_the_other_range_is_built():
    # an empty range makes the block count 0, under MAX_BLOCKS: the check
    # must come before list() of the other range, here 10**18 labels long
    for ranges in ((range(10 ** 18), range(0)), (range(0), range(10 ** 18))):
        with pytest.raises(IndexError_, match="^empty block range$"):
            build_index_table(*ranges)

