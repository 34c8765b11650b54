"""Kernel dimensions and the equivariant index per (n, m) block.

Two independent routes: integer arithmetic on the indicial exponents of the
radial kernel ODEs, and a numerical oracle that integrates the ODEs toward
the pole and estimates the exponents from log-log slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from transdirac.spectral import fit_exponent, integrate_log_ode, simpson_abscissas
from transdirac.sphere_model import (
    CHARTS,
    CHIRALITIES,
    CHUNK,
    MAX_BLOCKS,
    SphereBlock,
    reduce_block,
)


class IndexError_(ValueError):
    pass


class ExponentFitError(IndexError_):
    """The log-log slope did not land near an integer (grid too coarse)."""


def kernel_dims_closed_form(n: int, m: int):
    """(dim ker+, dim ker-): a chirality contributes iff its radial solution
    is regular at both poles, i.e. both indicial exponents are >= 0."""
    d_plus = 1 if (n - m >= 0 and -n - m >= 0) else 0
    d_minus = 1 if (m - n >= 0 and m + n >= 0) else 0
    return d_plus, d_minus


def index_closed_form(n: int, m: int) -> int:
    d_plus, d_minus = kernel_dims_closed_form(n, m)
    return d_plus - d_minus


def index_numerical(n, m, eps: float = 1e-3, steps: int = 10000) -> dict:
    """ODE oracle for one block (int labels) or a batch (integer arrays of
    one shape): integrate each radial equation toward the pole, snap the
    log-log slope to an integer exponent, and count a kernel dimension for a
    chirality iff it is regular in both charts. The raw slopes are returned
    alongside the snapped exponents; each value has the labels' shape.

    A least-squares slope ignores an additive constant, so only the fit
    window phi <= 10 eps of the Simpson grid of [pi/4, eps] is integrated.
    """
    if not (1e-4 <= eps <= 1e-2):
        raise IndexError_("eps must lie in [1e-4, 1e-2]")
    if steps < 10000:
        raise IndexError_("need at least 1e4 integration steps")
    shape = np.shape(n)
    if np.shape(m) != shape:
        raise IndexError_("n and m must have one shape")
    for name, values in (("n", n), ("m", m)):
        for value in np.ravel(np.asarray(values, dtype=object)).tolist():
            if not -2 ** 63 < value < 2 ** 63:  # then -value fits int64 as well
                raise IndexError_("label %s = %d must satisfy |%s| < 2**63"
                                  % (name, value, name))
    n, m = np.ravel(np.asarray(n, dtype=np.int64)), np.ravel(np.asarray(m, dtype=np.int64))
    points = simpson_abscissas(0.25 * np.pi, eps, steps)
    first = int(np.argmax(points[0::2] <= 10.0 * eps))
    window = points[2 * first:]
    sin = np.sin(window)
    csc, cot, log_sin = 1.0 / sin, np.cos(window) / sin, np.log(sin[0::2])
    keys = [(chart, chirality) for chirality in CHIRALITIES for chart in CHARTS]
    slopes = np.empty((len(keys), len(n)))
    for row, (chart, chirality) in enumerate(keys):
        ode = reduce_block(SphereBlock(n=n, m=m, chirality=chirality), chart)
        log_psi = integrate_log_ode(ode.p[:, None] * csc - ode.q[:, None] * cot,
                                    window[0], eps, steps - first)
        slopes[row] = fit_exponent(log_sin, log_psi)
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


@dataclass(frozen=True)
class IndexTable:
    entries: dict  # (n, m) -> {"dim_ker_plus", "dim_ker_minus", "index"}

    def __post_init__(self):
        for key, entry in self.entries.items():
            if entry["index"] != entry["dim_ker_plus"] - entry["dim_ker_minus"]:
                raise IndexError_("inconsistent entry at %s" % (key,))
            if entry["index"] not in (-1, 0, 1):
                raise IndexError_("index out of range at %s" % (key,))

    def index(self, n: int, m: int) -> int:
        return self.entries[(n, m)]["index"]

    def total_kernel(self, n: int, m: int) -> int:
        entry = self.entries[(n, m)]
        return entry["dim_ker_plus"] + entry["dim_ker_minus"]


def build_index_table(n_range, m_range, method: str = "closed",
                      eps: float = 1e-3, steps: int = 10000) -> IndexTable:
    """Index table over finite ranges of at most MAX_BLOCKS blocks; method
    'closed', 'numeric' or 'both' ('both' insists the two routes agree on
    every block)."""
    try:
        count = len(n_range) * len(m_range)
    except OverflowError as exc:  # a range longer than sys.maxsize
        raise IndexError_("block range too long: %s by %s" % (n_range, m_range)) from exc
    if count > MAX_BLOCKS:
        raise IndexError_("block range %s by %s spans %d blocks, more than the %d allowed"
                          % (n_range, m_range, count, MAX_BLOCKS))
    n_values, m_values = list(n_range), list(m_range)
    if not n_values or not m_values:
        raise IndexError_("ranges must be nonempty")
    if method not in ("closed", "numeric", "both"):
        raise IndexError_("unknown method %r" % method)

    keys = [(n, m) for n in n_values for m in m_values]
    numeric = {}
    if method != "closed":
        for start in range(0, len(keys), CHUNK):
            chunk = keys[start:start + CHUNK]
            res = index_numerical([n for n, _ in chunk], [m for _, m in chunk], eps, steps)
            numeric.update(zip(chunk, zip(res["d_plus"].tolist(), res["d_minus"].tolist())))
    entry = lambda d: {"dim_ker_plus": d[0], "dim_ker_minus": d[1], "index": d[0] - d[1]}
    entries = {}
    for key in keys:
        dims = numeric[key] if method == "numeric" else kernel_dims_closed_form(*key)
        entries[key] = entry(dims)
        if method == "both" and entry(numeric[key]) != entries[key]:
            raise IndexError_("route disagreement at (%d, %d): %s vs %s"
                              % (key + (entries[key], entry(numeric[key]))))
    return IndexTable(entries=entries)
