"""Self-check suites covering the algebraic and analytic invariants.

Each suite returns a report dict with a fixed field order:
{"suite": name, "passed": bool, "checks": [{"name", "value", "tol", "passed"}]}.
The suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from transdirac.clifford import (
    anticommutation_defect,
    build_standard_module,
    skew_adjointness_defect,
)
from transdirac.frame_geometry import (
    compute_BX_Lframe,
    compute_BX_Qframe,
    compute_BX_rotated_eframe,
    mean_curvature_L,
    random_frame_data,
    verify_compatibility,
)
from transdirac.sphere_model import (
    CHARTS,
    CHIRALITIES,
    LOWER,
    UPPER,
    SphereBlock,
    chart_matrix,
    clutching_check,
    matched_global_section,
    pde_residual,
    reduction_gaps,
)

SUITES = ("clifford", "connection", "clutching", "residual", "quotient")

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
        checks.append(_check("anticommutation q=%d" % q, anticommutation_defect(mod), tol))
        checks.append(_check("skew-adjointness q=%d" % q, skew_adjointness_defect(mod), tol))
        worst = 0.0
        for _ in range(trials):
            v = rng.standard_normal(q)
            s = rng.standard_normal(mod.fiber_dim) + 1j * rng.standard_normal(mod.fiber_dim)
            t = rng.standard_normal(mod.fiber_dim) + 1j * rng.standard_normal(mod.fiber_dim)
            cv = sum(v[j] * mod.generators[j] for j in range(q))
            worst = max(worst, abs(np.vdot(t, cv @ s) + np.vdot(cv @ t, s)))
        checks.append(_check("pairing skewness q=%d" % q, worst, 1e-10))
    return _report("clifford", checks)


def suite_connection(trials: int = 100, seed: int = 7, tol: float = 1e-10) -> dict:
    rng = np.random.default_rng(seed)
    modules = {rank: build_standard_module(rank) for rank in range(2, 7)}  # p + q for p, q in 1..3
    form_gap = skew = residual = rot_gap = lin_gap = 0.0
    for _ in range(trials):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        data = random_frame_data(p, q, rng)
        mod = modules[p + q]
        x = int(rng.integers(0, q))  # X tangent to Q
        b_l = compute_BX_Lframe(data, mod, x)
        b_q = compute_BX_Qframe(data, mod, x)
        form_gap = max(form_gap, np.max(np.abs(b_l - b_q)))
        skew = max(skew, np.max(np.abs(b_l + b_l.conj().T)))
        y = np.zeros(p + q)
        y[:q] = rng.standard_normal(q)
        residual = max(residual, verify_compatibility(data, mod, x, y))
        rot = np.linalg.qr(rng.standard_normal((p, p)))[0]
        b_rot = compute_BX_rotated_eframe(data, mod, x, rot)
        rot_gap = max(rot_gap, np.max(np.abs(b_rot - b_l)))
        # B is linear in X: compare against a second Q-direction if present
        if q > 1:
            x2 = (x + 1) % q
            combined = compute_BX_Lframe(data, mod, x) + compute_BX_Lframe(data, mod, x2)
            # rebuild with conn[x] := conn[x] + conn[x2] in the X slot
            summed = np.array(data.conn)
            summed[x] = data.conn[x] + data.conn[x2]
            data_sum = type(data)(p=p, q=q, conn=summed)
            lin_gap = max(lin_gap, np.max(np.abs(compute_BX_Lframe(data_sum, mod, x) - combined)))
        # mean curvature stays finite and q-dimensional
        if mean_curvature_L(data).shape != (q,):
            raise AssertionError("mean curvature shape")
    checks = [
        _check("two B_X formulas agree", form_gap, 1e-12),
        _check("B_X skew-Hermitian", skew, 1e-12),
        _check("compatibility residual", residual, tol),
        _check("L-frame rotation invariance", rot_gap, 1e-12),
        _check("linearity in X", lin_gap, 1e-12),
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


def suite_residual(tol: float = 1e-6) -> dict:
    phis = np.linspace(0.05, 0.5 * np.pi, 25)
    n, m = np.array(BRANCH_BLOCKS).T
    worst = np.zeros(len(BRANCH_BLOCKS))
    for chart in CHARTS:
        for chirality in CHIRALITIES:
            block = SphereBlock(n=n, m=m, chirality=chirality)
            worst = np.maximum(worst, pde_residual(block, chart, phis))
    checks = [_check("kernel PDE residual (n=%d, m=%d)" % nm, value, tol)
              for nm, value in zip(BRANCH_BLOCKS, worst)]
    return _report("residual", checks)


def suite_quotient(n_max: int = 4, m_max: int = 4, tol: float = 1e-12) -> dict:
    worst = max(reduction_gaps(n_max, m_max).values())
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
    trials must be positive, so that no randomized check passes vacuously."""
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    kwargs = {} if tol is None else {"tol": check_tol(tol)}
    if name == "clifford":
        return suite_clifford(trials=min(trials, 100), seed=seed, **kwargs)
    if name == "connection":
        return suite_connection(trials=trials, seed=seed, **kwargs)
    if name == "clutching":
        return suite_clutching(**kwargs)
    if name == "residual":
        return suite_residual(**kwargs)
    if name == "quotient":
        return suite_quotient(**kwargs)
    if name == "all":
        reports = [run_suite(s, trials=trials, seed=seed, tol=tol) for s in SUITES]
        return {"suite": "all", "passed": all(r["passed"] for r in reports), "suites": reports}
    raise ValueError("unknown suite %r" % name)
