"""Self-check suites covering the algebraic and analytic invariants.

Each suite returns a report dict with a fixed field order:
{"suite": name, "passed": bool, "checks": [{"name", "value", "tol", "passed"}]}.
The suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from transdirac import SUITES
from transdirac.clifford import (
    anticommutation_defect,
    build_standard_module,
    clifford_matrix,
    skew_adjointness_defect,
)
from transdirac.frame_geometry import (
    LocalFrameData,
    _compatibility_residual,
    compute_BX_Lframe,
    compute_BX_Qframe,
    compute_BX_rotated_eframe,
    mean_curvature_L,
    metric_frame_data,
    rotate_L_frame,
)
from transdirac.sphere_model import (
    CHARTS,
    CHIRALITIES,
    LOWER,
    RESIDUAL_PHIS,
    RESIDUAL_TOL,
    UPPER,
    SphereBlock,
    chart_matrix,
    clutching_check,
    matched_global_section,
    pde_residual,
    reduction_gaps,
)

# frames of one (p, q) per batched check in suite_connection; a fixed stack
# size keeps the suite's memory the same for any number of trials
FRAME_BATCH = 16
# trials of one rank per stack in suite_clifford, which bounds its memory
CLIFFORD_BATCH = 128
# the most trials run_suite accepts: the connection suite's memory does not
# grow with them, its time does, by about 60 us a trial on a 2-core host, so
# `verify --suite all` at the bound takes about 9 s
MAX_TRIALS = 10 ** 5

# blocks spanning every branch of the index formula and kernel table
BRANCH_BLOCKS = (
    (0, 0), (2, 3), (3, 1), (1, 1), (1, -1),
    (2, -3), (0, 2), (0, -2), (2, 2), (3, -3),
)


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tol": float(tol),
            "passed": bool(value <= tol)}


def _report(suite: str, checks: list) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


def suite_clifford(trials: int = 20, seed: int = 7, tol: float = 1e-12) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    for q in range(1, 6):
        mod = build_standard_module(q)
        d = mod.fiber_dim
        checks.append(_check("anticommutation q=%d" % q, anticommutation_defect(mod), tol))
        checks.append(_check("skew-adjointness q=%d" % q, skew_adjointness_defect(mod), tol))
        worst = 0.0
        for start in range(0, trials, CLIFFORD_BATCH):
            # per trial: v, then the real and imaginary parts of s and of t
            size = min(CLIFFORD_BATCH, trials - start)
            v, s_re, s_im, t_re, t_im = np.split(rng.standard_normal((size, q + 4 * d)),
                                                 np.cumsum([q, d, d, d]), axis=1)
            s, t = (s_re + 1j * s_im)[..., None], (t_re + 1j * t_im)[..., None]
            cv = clifford_matrix(mod, v)
            pairing = np.sum(t.conj() * (cv @ s) + (cv @ t).conj() * s, axis=(1, 2))
            worst = max(worst, np.max(np.abs(pairing)))
        checks.append(_check("pairing skewness q=%d" % q, worst, 1e-10))
    return _report("clifford", checks)


def _connection_gaps(p: int, q: int, raw, x, y_q, rot_raw, mod) -> dict:
    """The connection suite's gaps over one stack of draws of rank (p, q)."""
    data = metric_frame_data(p, q, raw)
    y = np.concatenate([y_q, np.zeros((len(x), p))], axis=1)
    rot = np.linalg.qr(rot_raw)[0]
    b_l = compute_BX_Lframe(data, mod, x)
    gaps = {
        "form": np.max(np.abs(b_l - compute_BX_Qframe(data, mod, x))),
        "skew": np.max(np.abs(b_l + np.swapaxes(b_l, 1, 2).conj())),
        "residual": np.max(_compatibility_residual(data, mod, x, y, b_l)),
        "rot": np.max(np.abs(compute_BX_rotated_eframe(data, mod, x, rot) - b_l)),
        "mean": np.max(np.abs(mean_curvature_L(rotate_L_frame(data, rot))
                              - mean_curvature_L(data))),
    }
    # B is linear in X: compare against a second Q-direction if present
    if q > 1:
        x2 = (x + 1) % q
        combined = b_l + compute_BX_Lframe(data, mod, x2)
        # rebuild with conn[x] := conn[x] + conn[x2] in the X slot
        summed = data.conn.copy()
        items = np.arange(len(x))
        summed[items, x] += data.conn[items, x2]
        data_sum = LocalFrameData(p=p, q=q, conn=summed)
        gaps["lin"] = np.max(np.abs(compute_BX_Lframe(data_sum, mod, x) - combined))
    return gaps


def suite_connection(trials: int = 100, seed: int = 7, tol: float = 1e-10) -> dict:
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("form", "skew", "residual", "rot", "lin", "mean"), 0.0)
    # per (p, q): arrays for FRAME_BATCH draws (conn, X, Q-block of Y, rotation),
    # reused for every stack, and the number drawn into them so far
    stacks, filled = {}, {}

    def check(p, q):
        count = filled.pop((p, q))
        gaps = _connection_gaps(p, q, *(a[:count] for a in stacks[p, q]),
                                build_standard_module(p + q))
        for key, gap in gaps.items():
            worst[key] = max(worst[key], gap)

    # draw in per-trial order (p, q, conn, x, y, rotation), the connection as
    # random_frame_data draws it, and check each (p, q) in stacks of FRAME_BATCH
    for _ in range(trials):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if (p, q) not in stacks:
            stacks[p, q] = (np.empty((FRAME_BATCH,) + (p + q,) * 3), np.empty(FRAME_BATCH, int),
                            np.empty((FRAME_BATCH, q)), np.empty((FRAME_BATCH, p, p)))
        raw, x, y_q, rot_raw = stacks[p, q]
        i = filled.get((p, q), 0)
        raw[i] = rng.uniform(-1.0, 1.0, size=(p + q,) * 3)
        x[i] = rng.integers(0, q)  # X tangent to Q
        y_q[i] = rng.standard_normal(q)
        rot_raw[i] = rng.standard_normal((p, p))  # its QR factor rotates the L-frame
        filled[p, q] = i + 1
        if i + 1 == FRAME_BATCH:
            check(p, q)
    for p, q in list(filled):
        check(p, q)
    checks = [
        _check("two B_X formulas agree", worst["form"], 1e-12),
        _check("B_X skew-Hermitian", worst["skew"], 1e-12),
        _check("compatibility residual", worst["residual"], tol),
        _check("L-frame rotation invariance", worst["rot"], 1e-12),
        _check("linearity in X", worst["lin"], 1e-12),
        _check("mean curvature L-frame invariance", worst["mean"], 1e-12),
    ]
    return _report("connection", checks)


def suite_clutching(tol: float = 1e-10) -> dict:
    checks = []
    thetas = np.linspace(0.0, 2.0 * np.pi, 13)[:-1, None]
    alphas = np.array([0.0, 0.4, 1.7])
    worst = np.max(np.abs(chart_matrix(UPPER, thetas, 0.5 * np.pi, alphas)
                          - chart_matrix(LOWER, thetas, 0.5 * np.pi, alphas - 2.0 * thetas)))
    checks.append(_check("chart equator matching", worst, 1e-12))
    for n, m in ((0, 0), (1, 1), (2, 3), (2, -3), (3, -3)):
        ok = True
        for chirality in CHIRALITIES:
            block = SphereBlock(n=n, m=m, chirality=chirality)
            upper, lower = matched_global_section(block)
            ok = ok and clutching_check(n, upper, lower, tol=tol)
        checks.append(_check("section clutching (n=%d, m=%d)" % (n, m), 0.0 if ok else 1.0, 0.5))
    return _report("clutching", checks)


def suite_residual(tol: float = RESIDUAL_TOL) -> dict:
    n, m = np.array(BRANCH_BLOCKS).T
    worst = pde_residual(n, m, CHARTS, RESIDUAL_PHIS).max(axis=(0, 1))
    checks = [_check("kernel PDE residual (n=%d, m=%d)" % nm, value, tol)
              for nm, value in zip(BRANCH_BLOCKS, worst)]
    return _report("residual", checks)


def suite_quotient(n_max: int = 4, m_max: int = 4, tol: float = 1e-12) -> dict:
    worst = reduction_gaps(n_max, m_max)[2].max()
    checks = [_check("reduced-operator coefficient gap (|n|<=%d, |m|<=%d)" % (n_max, m_max),
                     worst, tol)]
    return _report("quotient", checks)


def check_tol(tol: float) -> float:
    """tol, if it is a positive finite pass threshold: an infinite one passes
    every check vacuously, and NaN or a non-positive one none."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number, got %r" % tol)
    return tol


def run_suite(name: str, trials: int = 100, seed: int = 7, tol: float = None) -> dict:
    """Run one named suite (or 'all'); tol overrides the pass threshold.
    trials must be positive, so that no randomized check passes vacuously,
    and at most MAX_TRIALS; both are checked before any suite runs."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError("trials = %d must lie in [1, %d]" % (trials, MAX_TRIALS))
    kwargs = {} if tol is None else {"tol": check_tol(tol)}
    if name == "all":
        reports = [run_suite(s, trials=trials, seed=seed, tol=tol) for s in SUITES]
        return {"suite": "all", "passed": all(r["passed"] for r in reports), "suites": reports}
    suite = {"clifford": suite_clifford, "connection": suite_connection, "clutching": suite_clutching,
             "residual": suite_residual, "quotient": suite_quotient}.get(name)
    if suite is None:
        raise ValueError("unknown suite %r" % name)
    if suite in (suite_clifford, suite_connection):
        kwargs.update(trials=trials, seed=seed)
    return suite(**kwargs)
