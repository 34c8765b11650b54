"""Transverse Dirac-type operators from frame/connection data.

Subpackages cover the pointwise Clifford/connection algebra, chartwise
first-order operator assembly, two worked geometries (a warped torus and
the frame bundle of the two-sphere), and an equivariant index engine with
an independent numerical oracle.
"""

from transdirac.clifford import CliffordModule, build_standard_module
from transdirac.frame_geometry import (
    LocalFrameData,
    compute_BX_Lframe,
    compute_BX_Qframe,
    mean_curvature_L,
    verify_compatibility,
)
from transdirac.index_engine import (
    IndexTable,
    build_index_table,
    index_closed_form,
    index_numerical,
    kernel_dims_closed_form,
)
from transdirac.sphere_model import SphereBlock, RadialODE
from transdirac.torus_model import TorusGeometry, spectrum_DL, spectrum_DQ_band
from transdirac.transverse_operator import FirstOrderOperator, FrameField

__all__ = [
    "CliffordModule",
    "build_standard_module",
    "LocalFrameData",
    "compute_BX_Lframe",
    "compute_BX_Qframe",
    "mean_curvature_L",
    "verify_compatibility",
    "IndexTable",
    "build_index_table",
    "index_closed_form",
    "index_numerical",
    "kernel_dims_closed_form",
    "SphereBlock",
    "RadialODE",
    "TorusGeometry",
    "spectrum_DL",
    "spectrum_DQ_band",
    "FirstOrderOperator",
    "FrameField",
]
