"""Transverse Dirac-type operators from frame/connection data.

Its modules cover the pointwise Clifford/connection algebra, chartwise
first-order operator assembly, two worked geometries (a warped torus and
the frame bundle of the two-sphere), and an equivariant index engine with
an independent numerical oracle. Import each name from its module, as in
``from transdirac.cli import main``; importing the package loads none of them.

The constant below is defined here, not in the module that uses it, so
that the CLI can build its parser without loading a module: verification
imports it from here.
"""

# the self-check suites that run_suite runs (verification), in report order
SUITES = ("clifford", "connection", "clutching", "residual", "quotient")
