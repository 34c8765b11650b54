"""Run the benchmark over several seeds and summarise each metric.

usage: python3 perfbench/collect.py --workloads W [W ...] --seeds 1 2 3 ...
           [--seconds S] [--trace 0|1] [--out summary.json]

For each workload and metric this prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and their distance as a share
of the median, next to the metric's bound from BENCHMARK.json. Run it on a
parent and a child commit with the same seeds to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d:\n%s"
                         % (workload, seed, done.stderr.decode(errors="replace")))
    info, result = done.stdout.decode().splitlines()[-2:]
    return {"info": json.loads(info), "result": json.loads(result)}


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        metrics = {}
        for name, unit in ((k, v["unit"]) for k, v in runs[0]["result"]["metrics"].items()):
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"] = unit
            metrics[name] = stats
            if args.trace == 0 or name in ("traced_wall_s", "trace_overhead_frac",
                                           "predicted_layer_share"):
                spread = "n/a" if stats["spread"] is None else "%.4f" % stats["spread"]
                print("%-14s %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s bound %s"
                      % (workload, name, stats["median"], stats["q1"], stats["q3"], spread,
                         bounds.get(name)))
        print("%-14s failed %d of %d attempted" % (workload, failed, attempted))
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                             "failed": failed, "attempted": attempted,
                             "environment": runs[0]["info"]["environment"],
                             "git_commit": runs[0]["info"]["git_commit"], "metrics": metrics,
                             "samples": [r["info"]["samples"] for r in runs]}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
