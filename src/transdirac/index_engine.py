"""Kernel dimensions and the equivariant index per (n, m) block.

Two independent routes: integer arithmetic on the indicial exponents of the
radial kernel ODEs, and a numerical oracle that integrates the ODEs toward
the pole and estimates the exponents from log-log slopes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from transdirac.spectral import fit_exponent, integrate_log_ode, simpson_abscissas
from transdirac.sphere_model import CHARTS, CHIRALITIES, SphereBlock, reduce_block


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


@functools.lru_cache(maxsize=1)
def _oracle_grid(eps: float, steps: int):
    """csc and cot on the Simpson abscissas of [pi/4, eps], the fit window
    phi <= 10 eps on the nodes, and log sin on the window nodes; read-only,
    shared by every block integrated with the same (eps, steps)."""
    points = simpson_abscissas(0.25 * np.pi, eps, steps)
    sin = np.sin(points)
    csc = 1.0 / sin
    cot = np.cos(points) / sin
    window = points[0::2] <= 10.0 * eps
    log_sin = np.log(sin[0::2][window])
    for array in (csc, cot, window, log_sin):
        array.flags.writeable = False
    return csc, cot, window, log_sin


def _estimate_exponent(block: SphereBlock, chart: str, eps: float, steps: int):
    """(snapped exponent, raw log-log slope) of the radial solution,
    integrated toward the pole with r sampled as p csc - q cot on the
    shared grid."""
    ode = reduce_block(block, chart)
    csc, cot, window, log_sin = _oracle_grid(eps, steps)
    _, log_psi = integrate_log_ode(ode.p * csc - ode.q * cot, 0.25 * np.pi, eps, steps)
    slope = fit_exponent(log_sin, log_psi[window])
    snapped = round(slope)
    if abs(slope - snapped) > 0.1:
        raise ExponentFitError(
            "slope %.4f too far from an integer for block (%d, %d)" % (slope, block.n, block.m)
        )
    return int(snapped), slope


def index_numerical(n: int, m: int, eps: float = 1e-3, steps: int = 10000) -> dict:
    """ODE oracle for one block: integrate each radial equation toward the
    pole, snap the log-log slope to an integer exponent, and count a kernel
    dimension for a chirality iff it is regular in both charts. The raw
    slopes are returned alongside the snapped exponents."""
    if not (1e-4 <= eps <= 1e-2):
        raise IndexError_("eps must lie in [1e-4, 1e-2]")
    if steps < 10000:
        raise IndexError_("need at least 1e4 integration steps")
    exponents = {}
    slopes = {}
    dims = {}
    for chirality in CHIRALITIES:
        regular = True
        for chart in CHARTS:
            key = (chart, chirality)
            exponents[key], slopes[key] = _estimate_exponent(
                SphereBlock(n=n, m=m, chirality=chirality), chart, eps, steps)
            regular = regular and exponents[key] >= 0
        dims[chirality] = 1 if regular else 0
    return {
        "d_plus": dims["+"],
        "d_minus": dims["-"],
        "index": dims["+"] - dims["-"],
        "estimated_exponents": exponents,
        "slopes": slopes,
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
    """Index table over finite ranges; method 'closed', 'numeric' or 'both'
    ('both' insists the two routes agree on every block)."""
    n_values = list(n_range)
    m_values = list(m_range)
    if not n_values or not m_values:
        raise IndexError_("ranges must be nonempty")
    if method not in ("closed", "numeric", "both"):
        raise IndexError_("unknown method %r" % method)

    def closed_entry(n, m):
        d_plus, d_minus = kernel_dims_closed_form(n, m)
        return {"dim_ker_plus": d_plus, "dim_ker_minus": d_minus, "index": d_plus - d_minus}

    def numeric_entry(n, m):
        res = index_numerical(n, m, eps=eps, steps=steps)
        return {"dim_ker_plus": res["d_plus"], "dim_ker_minus": res["d_minus"], "index": res["index"]}

    def entry(n, m):
        if method == "closed":
            return closed_entry(n, m)
        if method == "numeric":
            return numeric_entry(n, m)
        closed = closed_entry(n, m)
        numeric = numeric_entry(n, m)
        if closed != numeric:
            raise IndexError_("route disagreement at (%d, %d): %s vs %s" % (n, m, closed, numeric))
        return closed

    return IndexTable(entries={(n, m): entry(n, m) for n in n_values for m in m_values})
