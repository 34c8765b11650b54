"""Per-layer metrics of a traced pass, derived from the tracer's spans.

The layers are the package modules. Which end-to-end metric each layer
metric should move, and on which workload, is tabled in README.md;
EXPECT_POSITIVE and EXPECT_ZERO below are the machine-checked part of that
table (see selftest.py).
"""

from __future__ import annotations

from tracer import Stats, module_of
from workloads import VERIFY_SUITES as SUITES

PACKAGE = "transdirac"
MODULES = (
    "cli", "index_engine", "spectral", "transverse_operator", "torus_model",
    "sphere_model", "frame_geometry", "clifford", "verification",
)
COEFF_METHODS = (
    ("transverse_operator", "FirstOrderOperator", "coefficients_at"),
    ("transverse_operator", "FirstOrderOperator", "zeroth_at"),
)


def _steps(args, kwargs):
    return args[3] if len(args) > 3 else kwargs["steps"]


# size measures recorded on a span, computed from arguments or result
SIZES = {
    "spectral.hermitian_eigensolve": lambda args, kwargs, result: len(args[0]) ** 3,
    "spectral.integrate_log_ode": lambda args, kwargs, result: _steps(args, kwargs) + 1,
    "cli.render_json": lambda args, kwargs, result: len(result),
}

# metric suffixes reported per traced function
_FUNCTION_METRICS = (
    ("spectral.hermitian_eigensolve", ("self_s", "calls", "n3_sum")),
    ("transverse_operator.discretize_hermitian", ("self_s", "calls")),
    ("spectral.fourier_diff_matrix", ("self_s", "calls")),
    ("spectral.integrate_log_ode", ("self_s", "calls", "nodes")),
    ("spectral.fit_exponent", ("self_s", "calls")),
    ("index_engine.index_numerical", ("self_s", "calls")),
    ("sphere_model.reduce_block", ("calls",)),
    ("index_engine.build_index_table", ("self_s",)),
    ("index_engine.kernel_dims_closed_form", ("calls",)),
    ("cli.render_json", ("self_s", "bytes")),
    ("sphere_model.pde_residual", ("self_s", "incl_s", "calls")),
    ("sphere_model.apply_chart_operator", ("self_s", "calls")),
    ("sphere_model.lifted_vector_fields", ("self_s", "calls")),
    ("sphere_model.pushforward_components", ("self_s", "calls")),
    ("sphere_model.compare_block_reductions", ("self_s", "incl_s", "calls")),
)
# the Stats field behind each suffix; the size measures come from SIZES
_FIELDS = {"self_s": "self_s", "incl_s": "incl_s", "calls": "calls",
           "n3_sum": "size", "nodes": "size", "bytes": "size"}
_UNITS = {"self_s": "s", "incl_s": "s", "calls": "count", "n3_sum": "count",
          "nodes": "count", "bytes": "bytes"}

# every per-layer metric, in report order, with its unit
METRICS = (
    [("%s.%s" % (label, suffix), _UNITS[suffix])
     for label, suffixes in _FUNCTION_METRICS for suffix in suffixes]
    + [("transverse_operator.coeff_evals", "count"),
       ("transverse_operator.coeff_eval.self_s", "s")]
    + [("%s.%s" % (module, suffix), _UNITS[suffix])
       for module in MODULES for suffix in ("self_s", "calls")]
    + [("verification.suite.%s.s" % suite, "s") for suite in SUITES]
    + [("%s.errors" % module, "count") for module in MODULES]
    + [("traced_wall_s", "s"), ("trace_overhead_frac", "frac"),
       ("predicted_layer_share", "frac")]
)

# the layer(s) each workload is predicted to spend most of its time in
PREDICTED = {
    "torus_spectra": ("spectral.hermitian_eigensolve.self_s",),
    "index_sweep": ("spectral.integrate_log_ode.self_s", "spectral.fit_exponent.self_s"),
    "verify_suites": ("sphere_model.pde_residual.incl_s",
                      "sphere_model.compare_block_reductions.incl_s"),
}

# metrics that must be non-zero on a workload, and those that must be zero
EXPECT_POSITIVE = {
    "torus_spectra": (
        "spectral.hermitian_eigensolve.self_s", "spectral.hermitian_eigensolve.calls",
        "spectral.hermitian_eigensolve.n3_sum",
        "transverse_operator.discretize_hermitian.self_s",
        "transverse_operator.discretize_hermitian.calls",
        "transverse_operator.coeff_evals", "transverse_operator.coeff_eval.self_s",
        "spectral.fourier_diff_matrix.self_s", "torus_model.self_s",
    ),
    "index_sweep": (
        "spectral.integrate_log_ode.self_s", "spectral.integrate_log_ode.calls",
        "spectral.integrate_log_ode.nodes", "spectral.fit_exponent.self_s",
        "index_engine.index_numerical.self_s", "index_engine.index_numerical.calls",
        "sphere_model.reduce_block.calls", "index_engine.build_index_table.self_s",
        "index_engine.kernel_dims_closed_form.calls", "cli.render_json.self_s",
        "cli.render_json.bytes",
    ),
    "verify_suites": (
        "transverse_operator.coeff_evals", "transverse_operator.coeff_eval.self_s",
        "sphere_model.pde_residual.self_s", "sphere_model.pde_residual.calls",
        "sphere_model.apply_chart_operator.calls", "sphere_model.lifted_vector_fields.self_s",
        "sphere_model.lifted_vector_fields.calls", "sphere_model.pushforward_components.calls",
        "sphere_model.compare_block_reductions.self_s",
        "sphere_model.compare_block_reductions.calls",
        "frame_geometry.self_s", "frame_geometry.calls", "clifford.self_s", "clifford.calls",
    ) + tuple("verification.suite.%s.s" % suite for suite in SUITES),
}
EXPECT_ZERO = {
    "index_sweep": ("spectral.hermitian_eigensolve.calls",),
    "verify_suites": ("spectral.hermitian_eigensolve.calls",),
}


def layer_metrics(stats: dict, traced_wall_s: float, untraced_wall_s: float,
                  workload: str) -> dict:
    """Every metric in METRICS for one traced pass."""
    get = lambda label: stats.get(label) or Stats()
    out = {}
    for label, suffixes in _FUNCTION_METRICS:
        for suffix in suffixes:
            out["%s.%s" % (label, suffix)] = getattr(get(label), _FIELDS[suffix])
    coeff = [get("%s.%s.%s" % triple) for triple in COEFF_METHODS]
    out["transverse_operator.coeff_evals"] = sum(s.calls for s in coeff)
    out["transverse_operator.coeff_eval.self_s"] = sum(s.self_s for s in coeff)
    for module in MODULES:
        mine = [s for label, s in stats.items() if module_of(label) == module]
        out["%s.self_s" % module] = sum(s.self_s for s in mine)
        out["%s.calls" % module] = sum(s.calls for s in mine)
        out["%s.errors" % module] = sum(s.errors_out for s in mine)
    for suite in SUITES:
        out["verification.suite.%s.s" % suite] = get("verification.suite_%s" % suite).incl_s
    out["traced_wall_s"] = traced_wall_s
    out["trace_overhead_frac"] = (traced_wall_s - untraced_wall_s) / untraced_wall_s
    out["predicted_layer_share"] = sum(out[m] for m in PREDICTED[workload]) / traced_wall_s
    return out
