"""transdirac benchmark: one workload of CLI invocations, end to end or traced.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 the last line of standard output reports the end-to-end
metrics setup_s, wall_s and peak_rss_mb, the two times scaled to the
reference host speed of hostspeed.py; with --trace 1 it reports the
per-layer metrics of layers.py. The line before it records the environment
(nproc, Python, numpy and BLAS versions, git commit) and the raw samples.
Every output is checked against an independent reference; `failed` counts
the invocations that raised, exited non-zero or failed their check.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy, in this process and
# in every child, so that a run measures the algorithm, not BLAS threading.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TRANSDIRAC_WORKERS", None)

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402  (after the environment is pinned)
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 10
SETUP_CODE = "import transdirac.cli as cli; cli.build_parser()"
TIME_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(samples: int = SETUP_SAMPLES):
    """Wall times of fresh interpreters that import transdirac.cli and build
    its parser, after one unmeasured start that fills the bytecode cache,
    and the host-speed kernel times before, between and after them."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, kernel_times = [], []
    hostspeed.warm_up()
    for attempt in range(samples + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError("setup failed: %s" % done.stderr.decode(errors="replace")[-2000:])
        kernel_times.append(hostspeed.kernel())
        if attempt:
            times.append(elapsed)
    return times, kernel_times


def run_worker(args, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded %.0f s" % timeout) from exc
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("worker exited %d: %s"
                         % (done.returncode, done.stderr.decode(errors="replace")[-2000:]))
    return json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "transdirac" / "cli.py").is_file():
        sys.stderr.write("run.py: no transdirac sources under %s\n" % SRC)
        return 2
    try:
        setup, setup_kernel = ([], []) if args.trace else measure_setup()
        summary = run_worker(args, TIME_LIMIT_S - (time.perf_counter() - started))
    except BenchError as exc:
        sys.stderr.write("run.py: %s\n" % exc)
        return 1

    if args.trace:
        units = dict(layers.METRICS)
        values = summary["layers"]
    else:
        units = END_TO_END
        values = {"setup_s": hostspeed.scaled(statistics.median(setup), setup_kernel),
                  "wall_s": hostspeed.scaled(statistics.mean(summary["passes"]),
                                             summary["kernel_s"]),
                  "peak_rss_mb": summary["peak_rss_kb"] / 1024.0}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "environment": summary["environment"],
        "samples": {"setup_s": setup, "setup_kernel_s": setup_kernel,
                    "passes": summary["passes"], "kernel_s": summary["kernel_s"],
                    "traced_wall_s": summary["traced_passes"]},
        "failures": summary["failures"],
    }
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    sys.stdout.write(json.dumps(info) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
