"""Input checks of the library's entry points, each by the error class and
message it raises on one malformed argument."""

import re

import numpy as np
import pytest

from transdirac.clifford import CliffordError, CliffordModule, build_standard_module
from transdirac.frame_geometry import (
    FrameDataError,
    LocalFrameData,
    compute_BX_Lframe,
    rotate_L_frame,
)
from transdirac.index_engine import (
    IndexError_,
    build_index_table,
    index_numerical,
    kernel_dims_closed_form,
)
from transdirac.spectral import (
    Grid1D,
    SpectralError,
    fit_exponent,
    integrate_log_ode,
    simpson_abscissas,
)
from transdirac.sphere_model import CHARTS, SphereModelError, chart_operator, pde_residual
from transdirac.torus_model import TorusError, TorusGeometry, full_chart_frames
from transdirac.verification import run_suite

FLAT = LocalFrameData(p=1, q=1, conn=np.zeros((2, 2, 2)))

CASES = {
    "clifford generator count": (
        lambda: CliffordModule(q=2, fiber_dim=2, generators=(np.zeros((2, 2)),)),
        CliffordError, "expected 2 generators"),
    "clifford generator shape": (
        lambda: CliffordModule(q=1, fiber_dim=2, generators=(np.zeros((1, 1)),)),
        CliffordError, "generator shape mismatch"),
    "frame connection shape": (
        lambda: LocalFrameData(p=1, q=1, conn=np.zeros((2, 2, 3))),
        FrameDataError, "connection array must be (..., 2,2,2)"),
    "frame module rank": (
        lambda: compute_BX_Lframe(FLAT, build_standard_module(3), 0),
        FrameDataError, "Clifford module rank 3 does not match frame rank 2"),
    "frame rotation shape": (
        lambda: rotate_L_frame(FLAT, np.eye(2)),
        FrameDataError, "rotation must be p x p"),
    "index label shapes": (
        lambda: index_numerical(np.array([1, 2]), np.array([1])),
        IndexError_, "n and m must have one shape"),
    "index label bound": (
        lambda: index_numerical(np.array([0, -40000]), np.array([0, 5])),
        IndexError_, "block (-40000, 5) is past the oracle's label bound |n|, |m| <= "
                     "MAX_LABEL = 32768"),
    # a float label was once truncated to an int64 one, reading another block
    "index table float label": (
        lambda: build_index_table(range(1), [1.5, -2.7]),
        IndexError_, "label 1.5 is a float, not an integer"),
    "index oracle float label": (
        lambda: index_numerical(np.array([1.5]), np.array([2])),
        IndexError_, "label 1.5 is a float64, not an integer"),
    "index closed form float label": (
        lambda: kernel_dims_closed_form(np.array([0, 1]), np.array([2.0, -2.7])),
        IndexError_, "label 2.0 is a float64, not an integer"),
    "index closed form scalar float label": (
        lambda: kernel_dims_closed_form(1.5, 2),
        IndexError_, "label 1.5 is a float, not an integer"),
    "grid shapes": (
        lambda: Grid1D(points=np.arange(3.0), log_weight_prime=np.zeros(2)),
        SpectralError, "points/log_weight_prime shape mismatch"),
    "grid order": (
        lambda: Grid1D(points=np.array([0.0, 0.0, 1.0]), log_weight_prime=np.zeros(3)),
        SpectralError, "grid points must be strictly increasing"),
    "grid weight": (
        lambda: Grid1D(points=np.arange(3.0), log_weight_prime=np.array([0.0, np.nan, 0.0])),
        SpectralError, "log-weight derivative must be finite"),
    "simpson steps": (
        lambda: simpson_abscissas(0.0, 1.0, 0),
        SpectralError, "need at least one step"),
    "log-ODE steps": (
        lambda: integrate_log_ode(np.zeros(1), 0.0, 1.0, 0),
        SpectralError, "need at least one step"),
    "fit abscissas": (
        lambda: fit_exponent(np.zeros(10), np.zeros(10)),
        SpectralError, "degenerate abscissas"),
    "sphere chart": (
        lambda: chart_operator("middle"),
        SphereModelError, "unknown chart 'middle'"),
    "sphere residual far pole": (
        lambda: pde_residual(2, 3, "upper", [0.3, np.pi - 1e-9]),
        SphereModelError, "grid touches the coordinate pole"),
    # every comparison with NaN is False: the grid must lie inside the
    # interval, not merely not outside it
    "sphere residual NaN grid": (
        lambda: pde_residual(1, 2, CHARTS, [np.nan]),
        SphereModelError, "grid touches the coordinate pole"),
    "torus frame": (
        lambda: full_chart_frames(TorusGeometry(), along="X"),
        TorusError, "along must be 'Q' or 'L'"),
    "verification suite": (
        lambda: run_suite("bogus"),
        ValueError, "unknown suite 'bogus'"),
}


@pytest.mark.parametrize("name", CASES)
def test_each_check_raises_its_error(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match="^%s$" % re.escape(message)) as info:
        call()
    assert type(info.value) is error
