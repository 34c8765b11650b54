"""Kernel dimensions and the equivariant index per (n, m) block.

Two independent routes: integer arithmetic on the indicial exponents of the
radial kernel ODEs, and a numerical oracle that integrates the ODEs toward
the pole and estimates the exponents from log-log slopes. A table of blocks
is held as columns, one entry per block in row-major order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from transdirac.spectral import fit_exponent, integrate_log_ode, simpson_abscissas
from transdirac.sphere_model import (
    CHARTS,
    CHIRALITIES,
    MAX_BLOCKS,
    reduce_block,
)


class IndexError_(ValueError):
    pass


class ExponentFitError(IndexError_):
    """The log-log slope did not land within 0.1 of an integer: below
    MAX_LABEL, the slope's bias passes the tolerance from |n| of about 9,200."""


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


# the oracle integrates each radial ODE from pi/4 down to the pole cutoff
# ORACLE_EPS in ORACLE_STEPS Simpson steps, and fits its slope on phi <= 10 ORACLE_EPS
ORACLE_EPS = 1e-3
ORACLE_STEPS = 10000
# the largest |n| and |m| the oracle accepts. Its slopes carry a bias of
# about 1.09e-5 |n| + 1.2e-8 |m| (measured along (L, +-L), (L, 0) and (0, L)),
# which snaps a slope to the wrong integer from |n| of about 82,700 on (bias
# 0.9); at the bound it is about 0.36, so a block within it gets the right
# exponents or an ExponentFitError, never a wrong table, and every slope is
# far below 2**49, where the float spacing would pass the 0.1 tolerance
MAX_LABEL = 2 ** 15


def index_numerical(n, m) -> dict:
    """ODE oracle for one block (int labels) or a batch (integer arrays of
    one shape): integrate each radial equation toward the pole, snap the
    log-log slope to an integer exponent, and count a kernel dimension for a
    chirality iff it is regular in both charts. The raw slopes are returned
    alongside the snapped exponents; each value has the labels' shape. A
    label with |label| > MAX_LABEL is an error, raised before any integration.

    A least-squares slope ignores an additive constant, so only the fit
    window phi <= 10 ORACLE_EPS of the Simpson grid of [pi/4, ORACLE_EPS] is
    built and integrated. Simpson's sums and the slope are linear in r = p csc
    - q cot, so the two label-free samples csc and cot are integrated and
    fitted once, and every ODE's slope is p s_csc - q s_cot, with p and q from
    reduce_block.
    """
    shape = np.shape(n)
    if np.shape(m) != shape:
        raise IndexError_("n and m must have one shape")
    n, m = _exact_labels(n).ravel(), _exact_labels(m).ravel()
    past = (abs(n) > MAX_LABEL) | (abs(m) > MAX_LABEL)
    if np.any(past):
        block = int(np.argmax(past))
        raise IndexError_("block (%d, %d) is past the oracle's label bound |n|, |m| <= "
                          "MAX_LABEL = %d" % (n[block], m[block], MAX_LABEL))
    h = (ORACLE_EPS - 0.25 * np.pi) / ORACLE_STEPS  # node j of the grid is pi/4 + j h
    first = int(np.ceil((10.0 * ORACLE_EPS - 0.25 * np.pi) / h))  # the first node <= 10 eps
    window = simpson_abscissas(0.25 * np.pi + first * h, ORACLE_EPS, ORACLE_STEPS - first)
    sin = np.sin(window)
    basis = integrate_log_ode(np.stack([1.0 / sin, np.cos(window) / sin]),
                              window[0], ORACLE_EPS, ORACLE_STEPS - first)
    s_csc, s_cot = fit_exponent(np.log(sin[0::2]), basis)
    keys = [(chart, chirality) for chirality in CHIRALITIES for chart in CHARTS]
    # one reduction per chart, both chiralities on its last axis; rows in the order of keys
    slopes = np.stack([ode.p * s_csc - ode.q * s_cot for ode in (
        reduce_block(n, m, chart) for chart in CHARTS)], axis=1).T.reshape(len(keys), -1)
    snapped = np.round(slopes)
    bad = ~(np.abs(slopes - snapped) <= 0.1)
    if np.any(bad):
        block = int(np.argmax(np.any(bad, axis=0)))
        row = int(np.argmax(bad[:, block]))
        raise ExponentFitError("slope %.4f too far from an integer for block (%d, %d)"
                               % (slopes[row, block], n[block], m[block]))
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
    """build_index_table's blocks as row-major columns: block i is (n[i],
    m[i]); its kernel dimensions and indices = dim_ker_plus - dim_ker_minus
    are int64, its labels int64 when every |label| < 2**63, else both label
    columns hold exact Python ints."""
    n: np.ndarray
    m: np.ndarray
    dim_ker_plus: np.ndarray
    dim_ker_minus: np.ndarray
    indices: np.ndarray


def build_index_table(n_range, m_range, method: str = "closed") -> IndexTable:
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

    n_column = np.repeat(_exact_labels(n_values), len(m_values))
    m_column = np.tile(_exact_labels(m_values), len(n_values))
    if n_column.dtype != m_column.dtype:  # one column leaves int64: both hold Python ints
        n_column, m_column = n_column.astype(object), m_column.astype(object)
    if method != "numeric":
        closed = kernel_dims_closed_form(n_column, m_column)
    if method != "closed":
        res = index_numerical(n_column, m_column)
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
    return IndexTable(n_column, m_column, *dims, dims[0] - dims[1])
