"""Kernel dimensions and the equivariant index per (n, m) block.

Two independent routes: integer arithmetic on the indicial exponents of the
radial kernel ODEs, and a numerical oracle that integrates the ODEs toward
the pole and estimates the exponents from log-log slopes. A table of blocks
is held as columns, one entry per block in row-major order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from transdirac import DEFAULT_EPS, DEFAULT_STEPS
from transdirac.spectral import fit_exponent, integrate_log_ode, simpson_abscissas
from transdirac.sphere_model import (
    CHARTS,
    CHIRALITIES,
    MAX_BLOCKS,
    SphereBlock,
    reduce_block,
)


class IndexError_(ValueError):
    pass


class ExponentFitError(IndexError_):
    """The log-log slope did not land near an integer (grid too coarse)."""


def _exact_labels(values):
    """Integer labels (a sequence or an integer array) as an array on which
    -|label| is exact: int64 when every label satisfies |label| < 2**63,
    otherwise an object array of Python ints."""
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=object)
    fits = values.size == 0 or -2 ** 63 < int(values.min()) and int(values.max()) < 2 ** 63
    return values.astype(np.int64 if fits else object, copy=False)


def kernel_dims_closed_form(n, m):
    """(dim ker+, dim ker-): a chirality contributes iff its radial solution
    is regular at both poles, i.e. both indicial exponents are >= 0 (n - m
    and -n - m for '+', their negatives for '-'), that is iff m <= -|n| for
    '+' and m >= |n| for '-'. Ints give ints; integer arrays (broadcast
    against each other) give int64 arrays of their broadcast shape. Exact for
    labels of any size."""
    if np.ndim(n) == 0 and np.ndim(m) == 0:
        n, m = operator.index(n), operator.index(m)
        return int(m <= -abs(n)), int(m >= abs(n))
    n, m = _exact_labels(n), _exact_labels(m)
    return (m <= -abs(n)).astype(np.int64), (m >= abs(n)).astype(np.int64)


def index_closed_form(n: int, m: int) -> int:
    d_plus, d_minus = kernel_dims_closed_form(n, m)
    return d_plus - d_minus


# the most integration steps index_numerical accepts: its fit window costs up
# to about 13 bytes per step (at eps = 1e-2, where it spans 12 % of the grid),
# so on a 2-core host a call at the bound peaks near 80 MB and takes 0.08 s
MAX_STEPS = 4 * 10 ** 6


def _check_oracle(eps: float, steps: int):
    if not (1e-4 <= eps <= 1e-2):
        raise IndexError_("eps must lie in [1e-4, 1e-2]")
    if not DEFAULT_STEPS <= steps <= MAX_STEPS:
        raise IndexError_("steps = %d must lie in [%d, %d]" % (steps, DEFAULT_STEPS, MAX_STEPS))


def index_numerical(n, m, eps: float = DEFAULT_EPS, steps: int = DEFAULT_STEPS) -> dict:
    """ODE oracle for one block (int labels) or a batch (integer arrays of
    one shape): integrate each radial equation toward the pole, snap the
    log-log slope to an integer exponent, and count a kernel dimension for a
    chirality iff it is regular in both charts. The raw slopes are returned
    alongside the snapped exponents; each value has the labels' shape.

    A least-squares slope ignores an additive constant, so only the fit
    window phi <= 10 eps of the Simpson grid of [pi/4, eps] is built and
    integrated. Simpson's sums and the slope are linear in r = p csc - q cot,
    so the two label-free samples csc and cot are integrated and fitted once,
    and every ODE's slope is p s_csc - q s_cot, with p and q from reduce_block.
    """
    _check_oracle(eps, steps)
    shape = np.shape(n)
    if np.shape(m) != shape:
        raise IndexError_("n and m must have one shape")
    labels = {"n": _exact_labels(n), "m": _exact_labels(m)}
    for name, values in labels.items():
        if values.dtype == object:  # some |label| >= 2**63; below it, -label fits int64
            value = next(v for v in values.ravel().tolist() if not -2 ** 63 < v < 2 ** 63)
            raise IndexError_("label %s = %d must satisfy |%s| < 2**63" % (name, value, name))
    n, m = labels["n"].ravel(), labels["m"].ravel()
    h = (eps - 0.25 * np.pi) / steps  # node j of the grid is pi/4 + j h
    first = int(np.ceil((10.0 * eps - 0.25 * np.pi) / h))  # the first node <= 10 eps
    window = simpson_abscissas(0.25 * np.pi + first * h, eps, steps - first)
    sin = np.sin(window)
    basis = integrate_log_ode(np.stack([1.0 / sin, np.cos(window) / sin]),
                              window[0], eps, steps - first)
    s_csc, s_cot = fit_exponent(np.log(sin[0::2]), basis)
    keys = [(chart, chirality) for chirality in CHIRALITIES for chart in CHARTS]
    slopes = np.empty((len(keys), len(n)))
    for row, (chart, chirality) in enumerate(keys):
        ode = reduce_block(SphereBlock(n=n, m=m, chirality=chirality), chart)
        slopes[row] = ode.p * s_csc - ode.q * s_cot
    snapped = np.round(slopes)
    near = np.abs(slopes - snapped) <= 0.1
    # from 2**49 on the float spacing (>= 0.125) exceeds the tolerance: nearness means nothing
    bad = ~near | (np.abs(slopes) >= 2.0 ** 49)
    if np.any(bad):
        block = int(np.argmax(np.any(bad, axis=0)))
        row = int(np.argmax(bad[:, block]))
        raise ExponentFitError("slope %.4f %s an integer for block (%d, %d)" % (
            slopes[row, block], "too large to resolve" if near[row, block] else "too far from",
            n[block], m[block]))
    exponents = snapped.astype(np.int64)
    regular = (exponents >= 0).reshape(len(CHIRALITIES), len(CHARTS), -1).all(axis=1)
    d_plus, d_minus = regular.astype(np.int64)
    out = lambda values: values.reshape(shape)[()]
    return {
        "d_plus": out(d_plus),
        "d_minus": out(d_minus),
        "index": out(d_plus - d_minus),
        "estimated_exponents": {key: out(e) for key, e in zip(keys, exponents)},
        "slopes": {key: out(s) for key, s in zip(keys, slopes)},
    }


@dataclass(frozen=True, eq=False)
class IndexTable:
    """The blocks of a table as row-major columns: block i is (n[i], m[i]),
    with int arrays of its kernel dimensions; `indices` = dim_ker_plus -
    dim_ker_minus is derived from them. The label columns are int64 arrays
    when every label has |label| < 2**63, otherwise both are object arrays
    of exact Python ints."""
    n: np.ndarray
    m: np.ndarray
    dim_ker_plus: np.ndarray
    dim_ker_minus: np.ndarray
    indices: np.ndarray = field(init=False)

    def __post_init__(self):
        n, m = _exact_labels(self.n), _exact_labels(self.m)
        if n.dtype != m.dtype:  # one column leaves int64: both hold Python ints
            n, m = n.astype(object), m.astype(object)
        d_plus = np.asarray(self.dim_ker_plus, dtype=np.int64)
        d_minus = np.asarray(self.dim_ker_minus, dtype=np.int64)
        if not len(n) == len(m) == len(d_plus) == len(d_minus):
            raise IndexError_("columns of unequal length")
        for name, dims in (("dim_ker_plus", d_plus), ("dim_ker_minus", d_minus)):
            bad = (dims != 0) & (dims != 1)
            if np.any(bad):
                row = int(np.argmax(bad))
                raise IndexError_("%s out of range at (%d, %d)" % (name, n[row], m[row]))
        # both dimensions in {0, 1}: every index lies in {-1, 0, 1}
        for name, column in (("n", n), ("m", m), ("dim_ker_plus", d_plus),
                             ("dim_ker_minus", d_minus), ("indices", d_plus - d_minus)):
            object.__setattr__(self, name, column)

    def _row(self, n: int, m: int) -> int:
        try:
            # as Python ints: numpy 1.24 compares int64 with 2**63 as floats
            return list(zip(self.n.tolist(), self.m.tolist())).index((n, m))
        except ValueError:
            raise KeyError((n, m)) from None

    def index(self, n: int, m: int) -> int:
        return int(self.indices[self._row(n, m)])

    def total_kernel(self, n: int, m: int) -> int:
        row = self._row(n, m)
        return int(self.dim_ker_plus[row] + self.dim_ker_minus[row])


def build_index_table(n_range, m_range, method: str = "closed",
                      eps: float = DEFAULT_EPS, steps: int = DEFAULT_STEPS) -> IndexTable:
    """Index table over finite ranges of at most MAX_BLOCKS blocks; method
    'closed', 'numeric' or 'both' ('both' insists the two routes agree on
    every block). Each route takes one call for the whole table."""
    try:
        count = len(n_range) * len(m_range)
    except OverflowError as exc:  # a range longer than sys.maxsize
        raise IndexError_("block range too long: %s by %s" % (n_range, m_range)) from exc
    if count == 0:  # before list(): the other range may be long
        raise IndexError_("empty block range")
    if count > MAX_BLOCKS:
        raise IndexError_("block range %s by %s spans %d blocks, more than the %d allowed"
                          % (n_range, m_range, count, MAX_BLOCKS))
    n_values, m_values = list(n_range), list(m_range)
    if method not in ("closed", "numeric", "both"):
        raise IndexError_("unknown method %r" % method)
    _check_oracle(eps, steps)  # for every method, though only the oracle uses them

    n_column = np.repeat(_exact_labels(n_values), len(m_values))
    m_column = np.tile(_exact_labels(m_values), len(n_values))
    if method != "numeric":
        closed = kernel_dims_closed_form(n_column, m_column)
    if method != "closed":
        res = index_numerical(n_column, m_column, eps, steps)
        numeric = [res["d_plus"], res["d_minus"]]
    if method == "both":
        differ = (closed[0] != numeric[0]) | (closed[1] != numeric[1])
        if np.any(differ):
            row = int(np.argmax(differ))  # the first disagreement in row-major order
            entry = lambda d: {"dim_ker_plus": int(d[0][row]), "dim_ker_minus": int(d[1][row]),
                               "index": int(d[0][row] - d[1][row])}
            raise IndexError_("route disagreement at (%d, %d): %s vs %s"
                              % (n_column[row], m_column[row], entry(closed), entry(numeric)))
    dims = numeric if method == "numeric" else closed
    return IndexTable(n=n_column, m=m_column, dim_ker_plus=dims[0], dim_ker_minus=dims[1])
