"""Transverse Dirac-type operators from frame/connection data.

Its modules cover the pointwise Clifford/connection algebra, chartwise
first-order operator assembly, two worked geometries (a warped torus and
the frame bundle of the two-sphere), and an equivariant index engine with
an independent numerical oracle. Import each name from its module, as in
``from transdirac.cli import main``; importing the package loads none of them.

The three constants below are defined here, not in the modules that use
them, so that the CLI can build its parser without loading a module:
index_engine and verification import them from here.
"""

# the index oracle's defaults (index_engine): the pole cutoff eps and the
# integration steps, the fewest that index_numerical accepts
DEFAULT_EPS = 1e-3
DEFAULT_STEPS = 10000
# the self-check suites that run_suite runs (verification), in report order
SUITES = ("clifford", "connection", "clutching", "residual", "quotient")
