"""The batched connection and Clifford suites against per-trial reference
loops, the mean-curvature check against a mutant, the clutching checks'
reported gap, and the suites' memory."""

import tracemalloc

import numpy as np
import pytest

from transdirac import verification
from transdirac.clifford import build_standard_module
from transdirac.frame_geometry import (
    LocalFrameData,
    compute_BX_Lframe,
    compute_BX_Qframe,
    compute_BX_rotated_eframe,
    mean_curvature_L,
    random_frame_data,
    rotate_L_frame,
    torus_frame_data,
    verify_compatibility,
)
from transdirac.sphere_model import CHARTS, LOWER, RadialODE
from transdirac.verification import suite_clifford, suite_connection

SEEDS = (5, 11, 826482643)


def reference_connection(trials, seed):
    """The connection suite's values, one frame at a time, in check order."""
    rng = np.random.default_rng(seed)
    form = skew = residual = rot_gap = lin_gap = mean_gap = 0.0
    for _ in range(trials):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        data = random_frame_data(p, q, rng)
        mod = build_standard_module(p + q)
        x = int(rng.integers(0, q))
        b_l = compute_BX_Lframe(data, mod, x)
        form = max(form, np.max(np.abs(b_l - compute_BX_Qframe(data, mod, x))))
        skew = max(skew, np.max(np.abs(b_l + b_l.conj().T)))
        y = np.zeros(p + q)
        y[:q] = rng.standard_normal(q)
        residual = max(residual, verify_compatibility(data, mod, x, y))
        rot = np.linalg.qr(rng.standard_normal((p, p)))[0]
        rot_gap = max(rot_gap, np.max(np.abs(compute_BX_rotated_eframe(data, mod, x, rot) - b_l)))
        mean_gap = max(mean_gap, np.max(np.abs(mean_curvature_L(rotate_L_frame(data, rot))
                                               - mean_curvature_L(data))))
        if q > 1:
            x2 = (x + 1) % q
            summed = data.conn.copy()
            summed[x] += data.conn[x2]
            combined = b_l + compute_BX_Lframe(data, mod, x2)
            lin_gap = max(lin_gap, np.max(np.abs(
                compute_BX_Lframe(LocalFrameData(p=p, q=q, conn=summed), mod, x) - combined)))
    # after the trials, four torus slopes g': H^L = -g' swapped, 0 unswapped
    torus = 0.0
    for g_prime in rng.uniform(-2.0, 2.0, 4):
        torus = max(torus, abs(mean_curvature_L(torus_frame_data(g_prime, swap=True))[0] + g_prime),
                    abs(mean_curvature_L(torus_frame_data(g_prime))[0]))
    return [form, skew, residual, rot_gap, lin_gap, mean_gap, torus]


def reference_pairing(trials, seed):
    """The Clifford suite's pairing-skewness values, one vector at a time."""
    rng = np.random.default_rng(seed)
    values = []
    for q in range(1, 6):
        mod = build_standard_module(q)
        d = mod.fiber_dim
        worst = 0.0
        for _ in range(trials):
            v = rng.standard_normal(q)
            s = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            t = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            cv = sum(vj * cj for vj, cj in zip(v, mod.generators))
            worst = max(worst, abs(np.vdot(t, cv @ s) + np.vdot(cv @ t, s)))
        values.append(worst)
    return values


def values(report):
    return [check["value"] for check in report["checks"]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", (100, 300))
def test_connection_suite_matches_per_trial_loop(seed, trials):
    report = suite_connection(trials=trials, seed=seed)
    assert report["passed"]
    assert [c["name"] for c in report["checks"]][-2:] == [
        "mean curvature L-frame invariance", "torus mean curvature H = -g'"]
    assert np.max(np.abs(np.subtract(values(report), reference_connection(trials, seed)))) <= 1e-14


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", (20, 150))
def test_clifford_suite_matches_per_trial_loop(seed, trials):
    report = suite_clifford(trials=trials, seed=seed)
    assert report["passed"]
    pairing = [c["value"] for c in report["checks"] if c["name"].startswith("pairing")]
    assert np.max(np.abs(np.subtract(pairing, reference_pairing(trials, seed)))) <= 1e-14


@pytest.mark.parametrize("seed", (5, 11, 826482643))
def test_run_suite_runs_every_clifford_trial(seed):
    assert verification.run_suite("clifford", trials=150, seed=seed) == suite_clifford(
        trials=150, seed=seed)


def test_mean_curvature_check_catches_one_direction_mutant(monkeypatch):
    # H^L from the first L direction alone is not invariant under L-frame rotations
    monkeypatch.setattr(verification, "mean_curvature_L",
                        lambda data: data.conn[..., data.q, data.q, : data.q])
    report = suite_connection(trials=100, seed=7)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert not report["passed"] and failed == ["mean curvature L-frame invariance"]


@pytest.mark.parametrize("seed", (1, 3, 7))
def test_torus_mean_curvature_check_catches_halved_mean_curvature(monkeypatch, seed):
    # half of H^L is still invariant under L-frame rotations; only the torus
    # closed form H^Q = -g' sees it
    real = verification.mean_curvature_L
    monkeypatch.setattr(verification, "mean_curvature_L", lambda data: 0.5 * real(data))
    report = verification.run_suite("connection", trials=100, seed=seed)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert not report["passed"] and failed == ["torus mean curvature H = -g'"]


def test_clutching_checks_report_their_gap_against_the_suite_tol():
    for tol, gate in ((None, 1e-10), (1e-13, 1e-13)):
        checks = verification.run_suite("clutching", tol=tol)["checks"]
        sections = [c for c in checks if c["name"].startswith("section clutching")]
        assert len(sections) == 5
        assert all(c["tol"] == gate and 0 <= c["value"] <= gate and c["passed"] for c in sections)
    # below the rounding gaps, exactly the checks with a non-zero gap fail
    sections = verification.run_suite("clutching", tol=1e-30)["checks"][1:]
    assert [c["passed"] for c in sections] == [c["value"] == 0 for c in sections]
    assert not all(c["passed"] for c in sections)


def test_clutching_checks_catch_a_wrong_lower_weight(monkeypatch):
    # the lower chart's sections of n + 1: a gap of order 1 on every block
    real = verification.reduce_block
    lower = (np.array(CHARTS) == LOWER)[:, None]

    def shifted(n, m):
        ode, next_n = real(n, m), real(n + 1, m)
        return RadialODE(np.where(lower, next_n.p, ode.p), np.where(lower, next_n.q, ode.q))

    monkeypatch.setattr(verification, "reduce_block", shifted)
    report = verification.run_suite("clutching")
    assert [c["passed"] for c in report["checks"]] == [True] + [False] * 5
    assert all(c["value"] > 0.5 for c in report["checks"][1:])


def test_connection_suite_memory_does_not_grow_with_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            suite_connection(trials=trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    suite_connection(trials=10, seed=3)  # first-call set-up outside the measurement
    assert peak(2000) <= 1.1 * peak(200)
