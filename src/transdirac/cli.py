"""Batch command-line front-end.

Subcommands: torus-spectrum, sphere-index, sphere-kernel, compare-quotient,
verify.  Output is deterministic JSON (fixed field order, floats rendered
with 17 significant digits) or, for the index table, optional CSV.  One
type-dispatched renderer writes the JSON of every command: a scalar's
formatter is found by one lookup on its exact type, and strings and keys are
escaped as RFC 8259 requires.  It appends the whole document to one list of
pieces, joined once.  Per-block tables (sphere-index and compare-quotient)
are handed to it as Records, columns under shared keys, and rendered as a
JSON array of objects: a row is one piece per key, and each column fills
its pieces by one strided slice assignment.  A column, and a list that opens
with a scalar, is rendered value by value, except that a broadcast array of
one value is rendered once, an int64 array whose values span fewer integers
than its length is read off a table of that span, and floats are formatted
by one prefixed "%.17g" template.

Each command returns its document and its verdict; main alone puts
schema_version first, writes the document and then turns the verdict into
the exit code: 0 all requested checks pass, 1 a check failed (the document
is still written in full), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from json.encoder import encode_basestring

import numpy as np

# the suite choices, defined with the package, not in the module that uses
# them: each command imports its modules where it runs, so importing cli and
# building its parser loads no other transdirac module
from transdirac import SUITES

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


class Records:
    """A JSON array of objects that share their keys, held as columns:
    columns[i] (a sequence or a numpy array) holds keys[i]'s value in every
    object, in order."""

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        if len(keys) != len(columns) or len({len(c) for c in columns}) > 1:
            raise ValueError("records need one column per key, all of one length")
        self.keys, self.columns = tuple(keys), tuple(columns)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def lists(self) -> list:
        """The columns as lists of Python values."""
        return [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in self.columns]


def _render_column(values, pad, prefix="") -> list:
    """Each value of a list or Records column as JSON after prefix, value by
    value. An array that holds one value along the column (a stride-0
    broadcast) renders it once; an int64 array whose values span fewer
    integers than its length renders prefix + value once per integer of the
    span; a column of floats is formatted by one prefixed "%.17g" template
    and checked finite once."""
    if isinstance(values, np.ndarray):
        if values.strides == (0,) and len(values):
            return ["".join(_write(values.item(0), pad, [prefix]))] * len(values)
        if values.dtype == np.int64 and len(values):
            low, high = int(values.min()), int(values.max())
            # a table of every value from low to high, no longer than the
            # column; np.unique would sort, and first touching numpy's sort
            # code raises the peak RSS of a short run by about 0.3 MB
            if high - low < len(values):
                rendered = np.array([prefix + str(value) for value in range(low, high + 1)],
                                    dtype=object)
                return rendered[values - low].tolist()
        values = values.tolist()
    if set(map(type, values)) == {float}:
        # joined by NUL: a prefix holds newlines, and no escaped key holds a NUL
        text = "\0".join([prefix.replace("%", "%%") + "%.17g"] * len(values)) % tuple(values)
        # %.17g spells inf and nan with an n, and no finite float
        if text.count("n") > prefix.count("n") * len(values):
            _render_float(next(value for value in values if not math.isfinite(value)))
        return text.split("\0")
    get = _SCALARS.get
    return [prefix + fmt(value) if (fmt := get(type(value)))
            else "".join(_write(value, pad, [prefix])) for value in values]


def _write_records(records: Records, pad, out: list):
    rows = len(records)
    if not rows:
        return out.append("[]")
    inner, field = pad + "  ", pad + "    "
    # a head before each column's value; the first head closes the row before
    # and opens its own, and the array's "[" replaces the close in the first row
    close = "\n%s}" % inner
    heads = ["\n%s%s: " % (field, encode_basestring(str(key))) for key in records.keys]
    heads = ["%s,\n%s{%s" % (close, inner, heads[0])] + ["," + head for head in heads[1:]]
    width, start = len(heads), len(out)
    out += [None] * (rows * width)
    for j, (head, values) in enumerate(zip(heads, records.columns)):
        out[start + j::width] = _render_column(values, field, head)
    out[start] = "[" + out[start][len(close) + 1:]
    out.append("%s\n%s]" % (close, pad))


def _write(obj, pad, out: list) -> list:
    """Append the pieces of obj's JSON to out and return out; the lines
    inside a container are indented by pad plus two spaces. Each entry of a
    container opens with ",", which the container's bracket replaces in the
    first; scalar entries are formatted in place, not by recursion, and a
    list that opens with a scalar is rendered as one column."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
    elif type(obj) is Records:
        _write_records(obj, pad, out)
    elif isinstance(obj, (dict, list, tuple)):
        inner, start, brackets = pad + "  ", len(out), "{}" if isinstance(obj, dict) else "[]"
        sep = ",\n" + inner
        if brackets == "{}":
            heads, values = [sep + encode_basestring(str(key)) + ": " for key in obj], obj.values()
        elif obj and type(obj[0]) in _SCALARS:
            heads = values = ()
            out += _render_column(obj, inner, sep)
        else:
            heads, values = [sep] * len(obj), obj
        get = _SCALARS.get
        for head, value in zip(heads, values):
            if fmt := get(type(value)):
                out.append(head + fmt(value))
            else:
                out.append(head)
                _write(value, inner, out)
        if len(out) == start:
            out.append(brackets)
        else:
            out[start] = brackets[0] + out[start][1:]
            out.append("\n" + pad + brackets[1])
    # subclasses and other numpy scalars: the same rules by isinstance
    elif isinstance(obj, (int, np.integer)):
        out.append(_render_int(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(_render_float(obj))
    else:
        out.append(encode_basestring(str(obj)))
    return out


def render_json(obj) -> str:
    """obj as 2-space indented JSON with a final newline: RFC 8259 string
    escaping, floats to 17 significant digits, ValueError on inf or nan.
    The document's pieces are joined once."""
    out = _write(obj, "", [])
    out.append("\n")
    return "".join(out)


# characters per write: the text layer encodes each write into a copy of its
# own, so writing in slices bounds that copy by the slice, not the document;
# a document of up to 4 Mi characters is still one write
WRITE_SLICE = 4 * 2 ** 20


def _emit(text: str, out: str):
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as handle:
        for start in range(0, len(text), WRITE_SLICE):
            handle.write(text[start:start + WRITE_SLICE])


# ---------------------------------------------------------------------------
# subcommands


def _number(text: str, option: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError("%s: %r is not a number" % (option, text)) from None


def parse_g_spec(shorthand: str, coeffs: str):
    """Warping, a torus_model.TorusGeometry, from '--g 0.3sin,0.1cos'
    shorthand or '--g-coeffs c;a1,...;b1,...'."""
    from transdirac.torus_model import TorusGeometry

    if shorthand and coeffs:
        raise ValueError("give either --g or --g-coeffs, not both")
    if coeffs:
        parts = coeffs.split(";")
        if len(parts) > 3:
            raise ValueError("--g-coeffs: %r has %d ';'-separated parts, more than the 3 of "
                             "c;a1,...;b1,..." % (coeffs, len(parts)))
        const, sins, coss = parts + [""] * (3 - len(parts))
        const = _number(const, "--g-coeffs")
        sins, coss = (tuple(_number(v, "--g-coeffs") for v in part.split(",")) if part else ()
                      for part in (sins, coss))
        return TorusGeometry(const=const, sin_coeffs=sins, cos_coeffs=coss)
    if not shorthand:
        return TorusGeometry()
    terms = {"sin": [], "cos": []}
    for term in shorthand.split(","):
        term = term.strip()
        if term[-3:] not in terms:
            raise ValueError("--g: term %r must end in 'sin' or 'cos'" % term)
        terms[term[-3:]].append(_number(term[:-3], "--g"))
    return TorusGeometry(sin_coeffs=tuple(terms["sin"]), cos_coeffs=tuple(terms["cos"]))


def cmd_torus_spectrum(args):
    from transdirac.torus_model import spectrum_DL, spectrum_DQ_band

    if not -2 ** 63 < args.mode < 2 ** 63:
        raise ValueError("--mode = %d must satisfy |mode| < 2**63" % args.mode)
    geom = parse_g_spec(args.g, args.g_coeffs)
    if args.op == "DL":
        eigenvalues = spectrum_DL(geom, args.mode, args.N)
    else:
        eigenvalues = spectrum_DQ_band(geom, args.mode, args.N)
    return {
        "g_coeffs": geom.coefficient_list(),
        "op": args.op,
        "mode": args.mode,
        "N": args.N,
        "eigenvalues": eigenvalues.tolist(),
    }, True


def cmd_sphere_index(args):
    from transdirac.index_engine import build_index_table

    table = build_index_table(range(args.n_min, args.n_max + 1), range(args.m_min, args.m_max + 1),
                              method=args.method)
    # the method is one value broadcast along the table, rendered once
    blocks = Records(("n", "m", "dim_ker_plus", "dim_ker_minus", "index", "method"),
                     (table.n, table.m, table.dim_ker_plus, table.dim_ker_minus, table.indices,
                      np.broadcast_to(np.array(args.method), len(table.n))))
    if args.format == "csv":
        # labels, dimensions and the method name need no CSV quoting
        template = ",".join(["%s"] * len(blocks.keys))
        lines = [",".join(blocks.keys)] + [template % row for row in zip(*blocks.lists())]
        return "\n".join(lines) + "\n", True
    return {"method": args.method, "blocks": blocks}, True


def cmd_sphere_kernel(args):
    from transdirac.index_engine import index_numerical
    from transdirac.sphere_model import (
        CHARTS,
        CHIRALITIES,
        RESIDUAL_PHIS,
        RESIDUAL_TOL,
        pde_residual,
        reduce_block,
    )

    numeric = index_numerical(args.n, args.m)
    ode = reduce_block(args.n, args.m)
    residuals = pde_residual(args.n, args.m, CHARTS, RESIDUAL_PHIS)
    # one section per (chart, chirality) entry of the reduction, charts outermost
    charts, chiralities = np.broadcast_arrays(np.array(CHARTS)[:, None], np.array(CHIRALITIES))
    exponents, estimated = ode.exponent.ravel(), numeric["estimated_exponents"].ravel()
    sections = Records(("chart", "chirality", "theta_weight", "sin_power", "one_plus_cos_power",
                        "indicial_exponent", "estimated_exponent", "pde_residual"),
                       (charts.ravel(), chiralities.ravel(), ode.theta_weight.ravel(), exponents,
                        -ode.p.ravel(), exponents, estimated, residuals.ravel()))
    passed = bool(np.all(exponents == estimated) and np.all(residuals < RESIDUAL_TOL))
    return {
        "n": args.n,
        "m": args.m,
        "dim_ker_plus": numeric["d_plus"],
        "dim_ker_minus": numeric["d_minus"],
        "index": numeric["index"],
        "sections": sections,
    }, passed


def cmd_compare_quotient(args):
    from transdirac.sphere_model import check_tol, reduction_gaps

    check_tol(args.tol)
    n, m, gaps = reduction_gaps(args.n_max, args.m_max)
    worst = float(gaps.max())
    passed = bool(worst < args.tol)
    return {
        "tol": args.tol,
        "max_discrepancy": worst,
        "passed": passed,
        "blocks": Records(("n", "m", "discrepancy"), (n, m, gaps)),
    }, passed


def cmd_verify(args):
    from transdirac.verification import run_suite

    report = run_suite(args.suite, trials=args.trials, seed=args.seed, tol=args.tol)
    return report, report["passed"]


def __getattr__(name):
    # cli.build_index_table, which perfbench/selftest.py reads, is looked up
    # in index_engine at each read, loading it then: cli imports no module
    # of the package at its top
    if name == "build_index_table":
        from transdirac.index_engine import build_index_table

        return build_index_table
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


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
    torus.add_argument("--g", default="", help="warping shorthand, e.g. '0.3sin,0.1cos'; "
                       "a negative first term needs '=': --g=-0.3sin")
    torus.add_argument("--g-coeffs", default="", help="explicit 'const;sin1,sin2;cos1,...'; "
                       "a leading '-' needs '=': --g-coeffs=-0.5;0.3;")
    torus.add_argument("--N", type=int, required=True, help="grid size (even)")
    torus.add_argument("--mode", type=int, default=0, help="x-Fourier mode, |mode| < 2**63")
    torus.set_defaults(func=cmd_torus_spectrum)

    index = sub.add_parser("sphere-index", help="equivariant index table over (n, m) blocks")
    index.add_argument("--n-min", type=int, required=True)
    index.add_argument("--n-max", type=int, required=True)
    index.add_argument("--m-min", type=int, required=True)
    index.add_argument("--m-max", type=int, required=True)
    index.add_argument("--method", choices=("closed", "numeric", "both"), default="closed")
    index.add_argument("--format", choices=("json", "csv"), default="json")
    index.set_defaults(func=cmd_sphere_index)

    kernel = sub.add_parser("sphere-kernel", help="kernel sections and exponents for one block")
    kernel.add_argument("--n", type=int, required=True)
    kernel.add_argument("--m", type=int, required=True)
    kernel.set_defaults(func=cmd_sphere_kernel)

    quotient = sub.add_parser("compare-quotient",
                              help="compare per-block reductions of the two operators")
    quotient.add_argument("--n-max", type=int, default=4)
    quotient.add_argument("--m-max", type=int, default=4)
    quotient.add_argument("--tol", type=float, default=1e-12)
    quotient.set_defaults(func=cmd_compare_quotient)

    verify = sub.add_parser("verify", help="run a self-check suite")
    verify.add_argument("--suite", choices=SUITES + ("all",), required=True)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--tol", type=float, default=None,
                        help="override the suite pass threshold")
    verify.set_defaults(func=cmd_verify)

    for command in (torus, index, kernel, quotient, verify):
        command.add_argument("--out", default=None)
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # built once per process: a parser is a web of reference cycles, and
    # one per call would pile up until a rare full garbage collection
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        document, passed = args.func(args)
        if not isinstance(document, str):
            document = render_json({"schema_version": SCHEMA_VERSION, **document})
        _emit(document, args.out)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        sys.stderr.write(render_json({"schema_version": SCHEMA_VERSION, "error": str(exc)}))
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
