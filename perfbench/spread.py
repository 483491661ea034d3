"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads verify_all,cli_mix]
                                [--traced] [--out perfbench/out/spread.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json.  Seeds are 1..runs.  With --traced it
also makes one traced run per workload (seed 1) and keeps its per-layer
metrics and design shares.  The summary, with every run's metrics and
environment, is written as JSON; `perfbench/baseline.json` is one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    """(metric values, full record) of one run; stops on a wrong result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d trace %d is not correct"
                         % (workload, seed, trace))
    record = json.loads((HERE / "out" / ("%s-seed%d-trace%d.json"
                                         % (workload, seed, trace))).read_text())
    return {n: m["value"] for n, m in result["metrics"].items()}, record


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=str(HERE / "out" / "spread.json"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            result, record = run(workload, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "metrics": result, "env": record["env"]})
        stats = {}
        for name in bounds:
            values = [r["metrics"][name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            stats[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median, "bound": bounds[name]}
            print("%-14s %-15s median %12.6g  spread %.4f  bound %.2f"
                  % (workload, name, median, stats[name]["spread"], bounds[name]))
        summary["workloads"][workload] = {"metrics": stats, "runs": runs}
        if args.traced:
            result, record = run(workload, 1, bench["run_seconds"], 1)
            summary["workloads"][workload]["traced_seed1"] = {
                "design_shares": record["design_shares"],
                "spans_per_pass": record["spans_per_pass"], "metrics": result}
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
