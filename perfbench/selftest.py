"""Self-tests of the benchmark itself.

usage: python3 perfbench/selftest.py   (from the root of a source checkout)

The layer test runs every workload once traced, about a minute in all.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=-1, error=False, outer=True):
    return [name, start, end, parent, error, outer, 0]


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            _span("a.root", 0.0, 10.0),
            _span("b.child", 1.0, 4.0, parent=0),
            _span("c.grandchild", 2.0, 3.0, parent=1),
            _span("b.child", 5.0, 6.0, parent=0),
        ]
        stats = tracer.summarize(spans)
        self.assertAlmostEqual(stats["a.root"].self_s, 6.0)
        self.assertAlmostEqual(stats["b.child"].self_s, 3.0)
        self.assertAlmostEqual(stats["c.grandchild"].self_s, 1.0)
        self.assertEqual(stats["b.child"].calls, 2)
        self.assertAlmostEqual(stats["b.child"].incl_s, 4.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [_span("a.x", 0.0, 10.0), _span("a.y", 1.0, 5.0, parent=0),
                 _span("a.z", 3.0, 7.0, parent=0)]
        self.assertAlmostEqual(tracer.summarize(spans)["a.x"].self_s, 4.0)

    def test_recursion_is_inclusive_once(self):
        spans = [_span("a.f", 0.0, 4.0), _span("a.f", 1.0, 3.0, parent=0, outer=False)]
        stats = tracer.summarize(spans)
        self.assertAlmostEqual(stats["a.f"].incl_s, 4.0)
        self.assertAlmostEqual(stats["a.f"].self_s, 4.0)

    def test_tracer_records_spans_and_errors_leaving_a_module(self):
        ticks = iter(range(100))
        spans = tracer.Tracer(clock=lambda: float(next(ticks)))

        def fail():
            raise ValueError("boom")

        inner = spans.wrap("m1.inner", fail)

        def outer_fn():
            try:
                inner()
            except ValueError:
                pass

        spans.wrap("m2.outer", outer_fn)()
        stats = tracer.summarize(spans.spans)
        self.assertEqual(stats["m1.inner"].errors_out, 1)
        self.assertEqual(stats["m2.outer"].errors_out, 0)
        self.assertAlmostEqual(stats["m2.outer"].self_s, 2.0)
        self.assertAlmostEqual(stats["m1.inner"].self_s, 1.0)

    def test_installed_wraps_every_import_site_and_restores(self):
        from transdirac import cli, index_engine, spectral, torus_model, transverse_operator

        originals = (cli.build_index_table, index_engine.integrate_log_ode,
                     torus_model.hermitian_eigensolve, spectral.hermitian_eigensolve,
                     transverse_operator.FirstOrderOperator.coefficients_at)
        spans = tracer.Tracer()
        with tracer.installed(spans, layers.PACKAGE, layers.MODULES, layers.COEFF_METHODS):
            wrapped = (cli.build_index_table, index_engine.integrate_log_ode,
                       torus_model.hermitian_eigensolve, spectral.hermitian_eigensolve,
                       transverse_operator.FirstOrderOperator.coefficients_at)
            for before, after in zip(originals, wrapped):
                self.assertIsNot(before, after)
                self.assertIs(after.__wrapped__, before)
            self.assertIs(torus_model.hermitian_eigensolve, spectral.hermitian_eigensolve)
        self.assertEqual(originals, (cli.build_index_table, index_engine.integrate_log_ode,
                                     torus_model.hermitian_eigensolve,
                                     spectral.hermitian_eigensolve,
                                     transverse_operator.FirstOrderOperator.coefficients_at))


def _run_cli(argv):
    from transdirac import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class ReferenceCheckTest(unittest.TestCase):
    """Each check accepts the program's real output and rejects a perturbed one."""

    def assert_check(self, argv, perturbations):
        code, out = _run_cli(argv)
        self.assertIsNone(workloads.check_output(argv, code, out))
        self.assertIsNotNone(workloads.check_output(argv, 1, out))
        for perturb in perturbations:
            report = json.loads(out)
            perturb(report)
            self.assertIsNotNone(workloads.check_output(argv, 0, json.dumps(report)), perturb)

    def test_torus_dl(self):
        def shift(r):
            r["eigenvalues"][5] += 1e-6

        def drop(r):
            r["eigenvalues"].pop()

        self.assert_check(["torus-spectrum", "--op", "DL", "--g-coeffs", "0;0.3,-0.2;0.1",
                           "--N", "64", "--mode", "1"], [shift, drop])

    def test_torus_dq(self):
        def scale(r):
            r["eigenvalues"][0] *= 1.0 + 1e-9

        def echo(r):
            r["g_coeffs"][1][0] = 0.31

        self.assert_check(["torus-spectrum", "--op", "DQ", "--g-coeffs", "0;0.3,-0.2;0.1",
                           "--N", "256", "--mode", "3"], [scale, echo])

    def test_sphere_index(self):
        def flip(r):
            block = r["blocks"][0]
            block["dim_ker_plus"] = 1 - block["dim_ker_plus"]
            block["index"] = block["dim_ker_plus"] - block["dim_ker_minus"]

        def drop(r):
            r["blocks"].pop()

        self.assert_check(["sphere-index", "--n-min", "-2", "--n-max", "2", "--m-min", "-3",
                           "--m-max", "3", "--method", "both"], [flip, drop])

    def test_verify(self):
        def fail_suite(r):
            r["suites"][3]["passed"] = False

        def over_tol(r):
            r["suites"][1]["checks"][0]["value"] = 1.0

        def missing_suite(r):
            r["suites"].pop()

        self.assert_check(["verify", "--suite", "all", "--trials", "5", "--seed", "3"],
                          [fail_suite, over_tol, missing_suite])

    def test_compare_quotient(self):
        def fail(r):
            r["passed"] = False

        def gap(r):
            r["blocks"][2]["discrepancy"] = 1.0

        self.assert_check(["compare-quotient", "--n-max", "1", "--m-max", "1"], [fail, gap])

    def test_sphere_kernel(self):
        def residual(r):
            r["sections"][2]["pde_residual"] = 1e-3

        def exponent(r):
            r["sections"][0]["estimated_exponent"] += 1

        def dims(r):
            r["dim_ker_plus"], r["dim_ker_minus"] = r["dim_ker_minus"], r["dim_ker_plus"]

        self.assert_check(["sphere-kernel", "--n", "2", "--m", "-3"], [residual, exponent, dims])


class HostSpeedTest(unittest.TestCase):
    def test_scaled_time(self):
        ref = hostspeed.REFERENCE_S
        self.assertAlmostEqual(hostspeed.scaled(3.0, [ref, ref]), 3.0)
        self.assertAlmostEqual(hostspeed.scaled(3.0, [2 * ref] * 3), 1.5)
        self.assertAlmostEqual(hostspeed.scaled(3.0, [ref, 2 * ref, 3 * ref]), 1.5)

    def test_kernel_is_timed(self):
        hostspeed.warm_up(1)
        self.assertGreater(hostspeed.kernel(), 0.0)


class ArgvTest(unittest.TestCase):
    def test_same_seed_same_argvs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.make_argvs(name, 11), workloads.make_argvs(name, 11))
        for name in ("torus_spectra", "verify_suites"):
            self.assertNotEqual(workloads.make_argvs(name, 11), workloads.make_argvs(name, 12))

    def test_warping_amplitude(self):
        for seed in range(50):
            for argv in workloads.make_argvs("torus_spectra", seed):
                _, sins, coss = workloads._parse_g_coeffs(argv[4])
                self.assertTrue(1 <= len(sins) == len(coss) <= 3)
                self.assertLessEqual(sum(abs(v) for v in sins + coss), 1.0 + 1e-5)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], layers.METRICS)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "index_sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


class LayerTest(unittest.TestCase):
    """Each mapped layer metric is non-zero on its workload (one traced pass)."""

    @classmethod
    def setUpClass(cls):
        cls.results = {}
        for name in workloads.WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, timeout=180, check=True)
            cls.results[name] = json.loads(done.stdout.decode().splitlines()[-1])

    def test_outputs_correct(self):
        for name, result in self.results.items():
            self.assertTrue(result["correct"], name)
            self.assertEqual(result["failed"], 0, name)
            self.assertEqual(set(result["metrics"]), {m for m, _ in layers.METRICS})

    def test_mapped_metrics_are_positive(self):
        for name, metrics in layers.EXPECT_POSITIVE.items():
            values = self.results[name]["metrics"]
            for metric in metrics:
                self.assertGreater(values[metric]["value"], 0, "%s on %s" % (metric, name))

    def test_no_eigensolve_off_torus(self):
        for name, metrics in layers.EXPECT_ZERO.items():
            for metric in metrics:
                self.assertEqual(self.results[name]["metrics"][metric]["value"], 0,
                                 "%s on %s" % (metric, name))

    def test_no_errors_leave_a_module(self):
        for name, result in self.results.items():
            for module in layers.MODULES:
                self.assertEqual(result["metrics"]["%s.errors" % module]["value"], 0)


if __name__ == "__main__":
    unittest.main()
