"""Benchmark for flagchow: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 35 --trace 0

Runs from the root of a flagchow checkout and imports the package from its
`src/`.  The workload's job list runs in passes from one client thread (a
closed loop) for about --seconds; only whole passes count.  Every job is
checked against a reference computed without flagchow.  A calibration
kernel runs beside every pass and every set-up, and each time is scaled by
it to reference speed (`calibrate.py`).

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run, which times the same passes untraced and then traced, for half of
--seconds each.  Timings are medians over every pass, call or set-up of the
run.  After the timed loop an untimed contract probe runs each usage-error
input once (`workloads.contract_probe_calls`).  Earlier lines give the same
numbers for people, the unscaled times, the run's environment and every
probe input that broke the exit-code contract.  A full record goes to
perfbench/out/.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import metrics
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 16
FLAGCHOW_MODULES = ("ring", "groebner", "symclass", "catalog", "chow",
                    "torsion", "steenrod", "serialize", "verify", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap jobs of each kind, for the self-test")
    return parser.parse_args(argv)


def environment():
    """Python version, platform, CPU count and the source revision."""
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "flagchow").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16]}


def setup_probe(workload, seed, tiny):
    """(set-up seconds, kernel seconds) of the workload in one fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload,
           str(seed)] + (["tiny"] if tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return tuple(map(float, done.stdout.split()))


def run_job(job, sampler):
    """(seconds without the kernel's, result, exception) of one call."""
    spent = sampler.spent
    start = time.perf_counter()
    try:
        result, error = job.call(), None
    except Exception as exc:  # an escaping exception is an outcome to check
        result, error = None, exc
    return time.perf_counter() - start - (sampler.spent - spent), result, error


def check_job(job, result, error):
    try:
        return job.check(result, error)
    except Exception as exc:  # a malformed payload is a wrong result
        return "check raised %s: %s" % (type(exc).__name__, exc)


class Tally:
    """Pass times, job times and check outcomes of a closed loop.

    `kernel_s[i]` is the median time of the calibration kernel over pass i:
    one sample at its start, and on untraced passes one every
    `calibrate.INTERVAL` seconds during it.  Traced passes sample only at
    their start, so that no kernel runs inside a span.
    """

    def __init__(self):
        self.kernel_s = []
        self.pass_s = []
        self.job_s = []
        self.attempted = 0
        self.wrong = {}

    def run(self, jobs, seconds, tracer=None):
        start = time.perf_counter()
        with calibrate.Sampler(None if tracer else calibrate.INTERVAL) as sampler:
            while True:
                first = len(sampler.kernels)
                sampler.sample()
                spent = sampler.spent
                outcomes = []
                pass_start = time.perf_counter()
                for i, job in enumerate(jobs):
                    if tracer is not None:
                        tracer.job = (len(self.pass_s), i)
                    outcomes.append(run_job(job, sampler))
                self.pass_s.append(time.perf_counter() - pass_start
                                   - (sampler.spent - spent))
                self.kernel_s.append(statistics.median(sampler.kernels[first:]))
                self.job_s.append([elapsed for elapsed, _, _ in outcomes])
                for job, (_, result, error) in zip(jobs, outcomes):
                    self._record(job, result, error)
                # stop before a pass that would end after `seconds`
                if time.perf_counter() - start + self.pass_s[-1] > seconds:
                    return

    def _record(self, job, result, error):
        self.attempted += 1
        wrong = check_job(job, result, error)
        if wrong is not None:
            self.wrong.setdefault(job.label, [wrong, 0])[1] += 1

    def merge_outcomes(self, other):
        self.attempted += other.attempted
        for label, (why, n) in other.wrong.items():
            self.wrong.setdefault(label, [why, 0])[1] += n

    @property
    def failed(self):
        return sum(n for _, n in self.wrong.values())

    @property
    def scales(self):
        return [calibrate.scale(k) for k in self.kernel_s]

    def ref_pass_s(self):
        """Pass times at reference speed."""
        return [p * k for p, k in zip(self.pass_s, self.scales)]


def contract_probe(cli):
    """Run each probe input once, untimed: (share that kept the contract,
    {argv: outcome} of those that broke it)."""
    breaks = {}
    jobs = workloads.contract_probe(cli)
    for job in jobs:
        _, result, error = run_job(job, calibrate.Sampler(None))
        wrong = check_job(job, result, error)
        if wrong is not None:
            breaks[job.label] = wrong
    return (len(jobs) - len(breaks)) / len(jobs), breaks


def end_to_end(tally):
    """The metrics of the timed loop; set-up and the probe come apart."""
    # every call of every pass, pooled, at reference speed
    job_ms = [1000 * s * k for times, k in zip(tally.job_s, tally.scales)
              for s in times]
    p90 = (statistics.quantiles(job_ms, n=10, method="inclusive")[8]
           if len(job_ms) > 1 else job_ms[0])
    return {
        "wall_s": statistics.median(tally.ref_pass_s()),
        "latency_p50_ms": statistics.median(job_ms),
        "latency_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def import_flagchow():
    sys.path.insert(0, str(SRC))
    import flagchow
    if Path(flagchow.__file__).resolve().parent != SRC / "flagchow":
        raise SystemExit("flagchow imported from %s, not from %s"
                         % (flagchow.__file__, SRC))
    return {name: importlib.import_module("flagchow." + name)
            for name in FLAGCHOW_MODULES}


def traced_run(jobs, seconds, fc, tally, record):
    """Untraced passes, then traced ones; returns the per-layer metrics."""
    tally.run(jobs, seconds / 2)
    traced = Tally()
    tracer = Tracer()
    tracer.install(fc)
    try:
        traced.run(jobs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tally.merge_outcomes(traced)
    values = metrics.layer_metrics(tracer.spans, tracer.counts, traced.scales)
    values["trace.wall_s"] = statistics.median(traced.ref_pass_s())
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(tally.ref_pass_s()))
    record["design_shares"] = metrics.design_shares(values)
    record.update(traced_pass_s=traced.pass_s, traced_kernel_s=traced.kernel_s)
    record["spans_per_pass"] = len(tracer.spans) / len(traced.pass_s)
    tracer.write(OUT / ("%s.spans.jsonl" % record["stem"]))
    return values


def run(args):
    stem = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-tiny" if args.tiny else "")
    record = {"workload": args.workload, "seed": args.seed, "stem": stem,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment()}
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        # half the set-ups before the loop and half after; the first fills
        # the bytecode cache and is dropped.  Each is (set-up, kernel) s.
        setup_probe(args.workload, args.seed, args.tiny)
        setup_s = [setup_probe(args.workload, args.seed, args.tiny)
                   for _ in range(SETUP_PROBES // 2)]
    fc = import_flagchow()
    jobs = workloads.build(args.workload, args.seed, fc, args.tiny)
    record["jobs"] = [job.label for job in jobs]
    tally = Tally()
    if args.trace:
        values = traced_run(jobs, args.seconds, fc, tally, record)
        units = dict(metrics.PER_LAYER)
    else:
        tally.run(jobs, args.seconds)
        values = end_to_end(tally)
        setup_s += [setup_probe(args.workload, args.seed, args.tiny)
                    for _ in range(SETUP_PROBES // 2)]
        values["setup_s"] = statistics.median(
            setup * calibrate.scale(kernel) for setup, kernel in setup_s)
        units = dict(metrics.END_TO_END)
        record["setup_s"] = setup_s
    # after the timed loop, so that it changes no timing
    values["ok_ratio"], record["contract_breaks"] = contract_probe(fc["cli"])
    record.update(kernel_s=tally.kernel_s, pass_s=tally.pass_s,
                  job_s=tally.job_s, wrong=tally.wrong)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    (OUT / ("%s.json" % stem)).write_text(json.dumps(record, indent=1))
    report(record)
    print(json.dumps(result))


def report(record):
    env = record["env"]
    print("flagchow benchmark: workload %s, seed %d, trace %d: %d passes of "
          "%d jobs; timings are medians over every sample, at reference speed"
          % (record["workload"], record["seed"], record["trace"],
             len(record["pass_s"]) + len(record.get("traced_pass_s", ())),
             len(record["jobs"])))
    print("env: python %s, %s, nproc %s, git %s, src sha256 %s"
          % (env["python"], env["platform"], env["nproc"], env["git_sha"],
             env["src_sha256"]))
    for name, m in record["result"]["metrics"].items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("unscaled: median pass %.6g s; median calibration kernel %.6g s "
          "(%.6g s at reference speed)" % (
              statistics.median(record["pass_s"]),
              statistics.median(record["kernel_s"]), calibrate.K_REF))
    for name, share in record.get("design_shares", {}).items():
        print("  share %-40s %14.4f" % (name, share))
    if record["contract_breaks"]:
        print("contract probe inputs that broke the exit-code contract (0 pass, "
              "1 failed verification, 2 usage or data error):")
        for label, outcome in sorted(record["contract_breaks"].items()):
            print("  flagchow %s: %s" % (label, outcome))
    for label, (why, n) in sorted(record["wrong"].items()):
        print("WRONG %s: %s (%d times)" % (label, why, n))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "flagchow" / "__init__.py").is_file():
        sys.stderr.write("error: no flagchow sources at %s; run from the root "
                         "of a flagchow checkout\n" % (SRC,))
        return 2
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
