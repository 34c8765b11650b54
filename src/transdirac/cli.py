"""Batch command-line front-end.

Subcommands: torus-spectrum, sphere-index, sphere-kernel, compare-quotient,
verify.  Output is deterministic JSON (fixed field order, floats rendered
with 17 significant digits) or, for the index table, optional CSV.  One
type-dispatched renderer writes the JSON of every command: a scalar's
formatter is found by one lookup on its exact type, and strings and keys are
escaped as RFC 8259 requires.

Exit codes: 0 all requested checks pass, 1 a check failed (a machine-readable
failure report is still emitted), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring

import numpy as np

from transdirac.index_engine import build_index_table, index_numerical
from transdirac.sphere_model import (
    CHARTS,
    CHIRALITIES,
    RESIDUAL_PHIS,
    RESIDUAL_TOL,
    SphereBlock,
    closed_form_kernel_section,
    pde_residual,
    reduce_block,
    reduction_gaps,
)
from transdirac.torus_model import TorusGeometry, spectrum_DL, spectrum_DQ_band
from transdirac.verification import SUITES, check_tol, run_suite

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic serialization


def _render_bool(value) -> str:
    return "true" if value else "false"


def _render_int(value) -> str:
    return str(int(value))


def _render_float(value) -> str:
    if not math.isfinite(value):
        raise ValueError("cannot render the non-finite value %r as JSON" % float(value))
    return format(float(value), ".17g")


# formatter of each scalar type, found by one lookup on the exact type
_SCALARS = {
    str: encode_basestring,
    int: str,
    float: _render_float,
    bool: _render_bool,
    type(None): lambda _: "null",
    np.int64: _render_int,
    np.bool_: _render_bool,
}


def _json_render(obj, pad="") -> str:
    """obj as JSON; the lines inside a container are indented by pad plus
    two spaces. Scalar children are formatted in place, not by recursion."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    get, inner = _SCALARS.get, pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # the list of lines is freed when join returns and the body is copied
        # once, so no more than two copies of a large body are alive at a time
        body = (",\n" + inner).join([
            encode_basestring(str(key)) + ": "
            + (fmt(value) if (fmt := get(type(value))) else _json_render(value, inner))
            for key, value in obj.items()
        ])
        return "{\n%s%s\n%s}" % (inner, body, pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = (",\n" + inner).join([
            fmt(value) if (fmt := get(type(value))) else _json_render(value, inner)
            for value in obj
        ])
        return "[\n%s%s\n%s]" % (inner, body, pad)
    # subclasses and other numpy scalars: the same rules by isinstance
    if isinstance(obj, (bool, np.bool_)):
        return _render_bool(obj)
    if isinstance(obj, (int, np.integer)):
        return _render_int(obj)
    if isinstance(obj, (float, np.floating)):
        return _render_float(obj)
    return encode_basestring(str(obj))


def render_json(obj) -> str:
    """obj as 2-space indented JSON with a final newline: RFC 8259 string
    escaping, floats to 17 significant digits, ValueError on inf or nan."""
    return _json_render(obj) + "\n"


def _emit(text: str, out: str):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def parse_g_spec(shorthand: str, coeffs: str) -> TorusGeometry:
    """Warping from '--g 0.3sin,0.1cos' shorthand or '--g-coeffs c,a1,...;b1,...'."""
    if shorthand and coeffs:
        raise ValueError("give either --g or --g-coeffs, not both")
    if coeffs:
        parts = coeffs.split(";")
        const = float(parts[0])
        sins = tuple(float(v) for v in parts[1].split(",")) if len(parts) > 1 and parts[1] else ()
        coss = tuple(float(v) for v in parts[2].split(",")) if len(parts) > 2 and parts[2] else ()
        return TorusGeometry(const=const, sin_coeffs=sins, cos_coeffs=coss)
    if not shorthand:
        return TorusGeometry()
    sins, coss = [], []
    for term in shorthand.split(","):
        term = term.strip()
        if term.endswith("sin"):
            sins.append(float(term[:-3]))
        elif term.endswith("cos"):
            coss.append(float(term[:-3]))
        else:
            raise ValueError("term %r must end in 'sin' or 'cos'" % term)
    return TorusGeometry(sin_coeffs=tuple(sins), cos_coeffs=tuple(coss))


def cmd_torus_spectrum(args) -> int:
    if not -2 ** 63 < args.mode < 2 ** 63:
        raise ValueError("--mode = %d must satisfy |mode| < 2**63" % args.mode)
    geom = parse_g_spec(args.g, args.g_coeffs)
    if args.op == "DL":
        eigenvalues = spectrum_DL(geom, args.mode, args.N)
    else:
        eigenvalues = spectrum_DQ_band(geom, args.mode, args.N)
    report = {
        "schema_version": SCHEMA_VERSION,
        "g_coeffs": geom.coefficient_list(),
        "op": args.op,
        "mode": args.mode,
        "N": args.N,
        "eigenvalues": [float(v) for v in eigenvalues],
    }
    _emit(render_json(report), args.out)
    return 0


def cmd_sphere_index(args) -> int:
    if args.n_min > args.n_max or args.m_min > args.m_max:
        raise ValueError("empty block range")
    table = build_index_table(
        range(args.n_min, args.n_max + 1),
        range(args.m_min, args.m_max + 1),
        method=args.method,
        eps=args.eps,
        steps=args.steps,
    )
    blocks = [{"n": n, "m": m, **entry, "method": args.method}
              for (n, m), entry in table.entries.items()]
    if args.format == "csv":
        lines = ["n,m,dim_ker_plus,dim_ker_minus,index,method"]
        lines += ["%d,%d,%d,%d,%d,%s" % (b["n"], b["m"], b["dim_ker_plus"],
                                         b["dim_ker_minus"], b["index"], b["method"])
                  for b in blocks]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        report = {"schema_version": SCHEMA_VERSION, "method": args.method, "blocks": blocks}
        _emit(render_json(report), args.out)
    return 0


def cmd_sphere_kernel(args) -> int:
    numeric = index_numerical(args.n, args.m)
    charts = []
    for chart in CHARTS:
        residuals = pde_residual(args.n, args.m, chart, RESIDUAL_PHIS)
        for chirality, residual in zip(CHIRALITIES, residuals.tolist()):
            block = SphereBlock(n=args.n, m=args.m, chirality=chirality)
            section = closed_form_kernel_section(block, chart)
            charts.append({
                "chart": chart,
                "chirality": chirality,
                "theta_weight": section.theta_weight,
                "sin_power": section.sin_power,
                "one_plus_cos_power": section.cos_power,
                "indicial_exponent": reduce_block(block, chart).exponent,
                "estimated_exponent": numeric["estimated_exponents"][(chart, chirality)],
                "pde_residual": residual,
            })
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "m": args.m,
        "dim_ker_plus": numeric["d_plus"],
        "dim_ker_minus": numeric["d_minus"],
        "index": numeric["index"],
        "sections": charts,
    }
    _emit(render_json(report), args.out)
    ok = all(c["indicial_exponent"] == c["estimated_exponent"] for c in charts)
    ok = ok and all(c["pde_residual"] < RESIDUAL_TOL for c in charts)
    return 0 if ok else 1


def cmd_compare_quotient(args) -> int:
    check_tol(args.tol)
    gaps = reduction_gaps(args.n_max, args.m_max)
    blocks = [{"n": n, "m": m, "discrepancy": gap} for (n, m), gap in gaps.items()]
    worst = max(gaps.values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "tol": args.tol,
        "max_discrepancy": worst,
        "passed": bool(worst < args.tol),
        "blocks": blocks,
    }
    _emit(render_json(report), args.out)
    return 0 if worst < args.tol else 1


def cmd_verify(args) -> int:
    report = run_suite(args.suite, trials=args.trials, seed=args.seed, tol=args.tol)
    out = {"schema_version": SCHEMA_VERSION}
    out.update(report)
    _emit(render_json(out), args.out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transdirac",
        description="Transverse Dirac operator computations: torus spectra, "
                    "sphere kernel sections, and equivariant index tables.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    torus = sub.add_parser("torus-spectrum", help="per-mode spectrum on the warped torus")
    torus.add_argument("--op", choices=("DL", "DQ"), required=True)
    torus.add_argument("--g", default="", help="warping shorthand, e.g. '0.3sin,0.1cos'")
    torus.add_argument("--g-coeffs", default="", help="explicit 'const;sin1,sin2;cos1,...'")
    torus.add_argument("--N", type=int, required=True, help="grid size (even)")
    torus.add_argument("--mode", type=int, default=0, help="x-Fourier mode, |mode| < 2**63")
    torus.add_argument("--out", default=None)
    torus.set_defaults(func=cmd_torus_spectrum)

    index = sub.add_parser("sphere-index", help="equivariant index table over (n, m) blocks")
    index.add_argument("--n-min", type=int, required=True)
    index.add_argument("--n-max", type=int, required=True)
    index.add_argument("--m-min", type=int, required=True)
    index.add_argument("--m-max", type=int, required=True)
    index.add_argument("--method", choices=("closed", "numeric", "both"), default="closed")
    index.add_argument("--eps", type=float, default=1e-3)
    index.add_argument("--steps", type=int, default=10000)
    index.add_argument("--format", choices=("json", "csv"), default="json")
    index.add_argument("--out", default=None)
    index.set_defaults(func=cmd_sphere_index)

    kernel = sub.add_parser("sphere-kernel", help="kernel sections and exponents for one block")
    kernel.add_argument("--n", type=int, required=True)
    kernel.add_argument("--m", type=int, required=True)
    kernel.add_argument("--out", default=None)
    kernel.set_defaults(func=cmd_sphere_kernel)

    quotient = sub.add_parser("compare-quotient",
                              help="compare per-block reductions of the two operators")
    quotient.add_argument("--n-max", type=int, default=4)
    quotient.add_argument("--m-max", type=int, default=4)
    quotient.add_argument("--tol", type=float, default=1e-12)
    quotient.add_argument("--out", default=None)
    quotient.set_defaults(func=cmd_compare_quotient)

    verify = sub.add_parser("verify", help="run a self-check suite")
    verify.add_argument("--suite", choices=SUITES + ("all",), required=True)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--tol", type=float, default=None,
                        help="override the suite pass threshold")
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # built once per process: a parser is a web of reference cycles, and
    # one per call would pile up until a rare full garbage collection
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        report = {"schema_version": SCHEMA_VERSION, "error": str(exc)}
        sys.stderr.write(render_json(report))
        return 1


if __name__ == "__main__":
    sys.exit(main())
