"""Run one workload's passes in this process and print a JSON summary as the
last line of standard output.

usage: python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

run.py starts this in a child process with the thread-count variables
already pinned and PYTHONPATH pointing at the checkout's src/. Each pass
calls transdirac.cli.main once per invocation of the workload and checks
every output. Passes repeat while another one fits in --seconds (at least
one). The host-speed kernel of hostspeed.py runs before every invocation
and after the last of a pass; run.py scales the mean untraced pass by the
mean kernel time. With --trace 1, untraced and traced passes alternate,
and the summary carries the median per-layer metrics of the traced passes;
the untraced ones are the base of the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import hostspeed
import layers
import tracer
import workloads


def run_pass(main, argvs):
    """(seconds spent inside main, [host-speed kernel times], [failure
    reasons]) for one pass. The kernel runs before each invocation and after
    the last."""
    busy, failures = 0.0, []
    kernel_times = [hostspeed.kernel()]
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash counts as a failed invocation
                code = "exception: " + traceback.format_exc(limit=3)
            busy += time.perf_counter() - start
        kernel_times.append(hostspeed.kernel())
        reason = workloads.check_output(argv, code, out.getvalue())
        if reason is not None:
            failures.append("%s: %s %s" % (" ".join(argv), reason, err.getvalue()[-500:]))
    return busy, kernel_times, failures


def _counted_pass(main, argvs, summary):
    """Run one pass, count it into `summary` and return its time and the
    kernel times measured around its invocations."""
    busy, kernel_times, failures = run_pass(main, argvs)
    summary["attempted"] += len(argvs)
    summary["failed"] += len(failures)
    summary["failures"].extend(failures[:5 - len(summary["failures"])])
    return busy, kernel_times


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas_info.get("name"), blas_info.get("version"))
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from transdirac import cli

    argvs = workloads.make_argvs(args.workload, args.seed)
    summary = {"attempted": 0, "failed": 0, "failures": [], "passes": [],
               "kernel_s": [], "traced_passes": [], "layers": {}}
    hostspeed.warm_up()
    started = time.perf_counter()
    if not args.trace:
        while True:
            round_start = time.perf_counter()
            busy, kernel_times = _counted_pass(cli.main, argvs, summary)
            summary["passes"].append(busy)
            summary["kernel_s"].extend(kernel_times)
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break
    else:
        spans = tracer.Tracer()
        traced_stats = []
        while True:
            round_start = time.perf_counter()
            summary["passes"].append(_counted_pass(cli.main, argvs, summary)[0])
            with tracer.installed(spans, layers.PACKAGE, layers.MODULES, layers.COEFF_METHODS,
                                  layers.SIZES):
                summary["traced_passes"].append(_counted_pass(cli.main, argvs, summary)[0])
            traced_stats.append(tracer.summarize(spans.spans))
            spans.clear()
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break
        untraced = statistics.median(summary["passes"])
        per_pass = [layers.layer_metrics(stats, busy, untraced, args.workload)
                    for stats, busy in zip(traced_stats, summary["traced_passes"])]
        summary["layers"] = {name: statistics.median(p[name] for p in per_pass)
                             for name, _ in layers.METRICS}
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary["environment"] = environment()
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
