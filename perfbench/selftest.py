"""Fast self-test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on synthetic nested spans and a traced toy
module, that BENCHMARK.json names the metrics run.py prints, that the
reference series agree with brute-force counts, that the checks catch
wrong values and contract breaks, and runs tiny versions of
every workload with and without tracing, expecting every metric by name with
its unit.  Finally it runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark, where it must fail without a result.
"""

import itertools
import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import calibrate
import metrics
import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(cond, what):
    if not cond:
        raise SystemExit("selftest FAILED: %s" % what)
    print("ok  %s" % what)


def test_self_times():
    # a [0, 10] holds b [1, 4] and d [5, 7]; b holds c [2, 3]
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 7.0, 0, 0]]
    check(tracer.self_times(spans) == [5.0, 2.0, 1.0, 2.0],
          "self time is duration minus the children's cover")
    # children that overlap are covered once
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 3.0, 6.0, 0, 0]]
    check(tracer.self_times(spans)[0] == 5.0, "overlapping children count once")


def test_tracer_on_toy_module():
    toy = types.ModuleType("toy")
    exec("def leaf(x):\n    return x + 1\n"
         "def inner(x):\n    return leaf(x) + leaf(x)\n"
         "def outer(x):\n    return inner(x) * 2\n", toy.__dict__)
    user = types.ModuleType("user")
    user.inner = toy.inner  # imported by name, as flagchow modules do
    t = tracer.Tracer()
    for name in ("leaf", "inner", "outer"):
        t._replace_everywhere([toy, user], getattr(toy, name),
                              t.wrap("toy." + name, getattr(toy, name)))
    check(toy.outer(1) == 8 and user.inner(1) == 4, "wrapped functions return")
    t.uninstall()
    check(toy.leaf.__name__ == "leaf" and not hasattr(user.inner, "__wrapped__"),
          "uninstall restores every namespace")
    names = [s[0] for s in t.spans]
    check(names == ["toy.outer", "toy.inner", "toy.leaf", "toy.leaf",
                    "toy.inner", "toy.leaf", "toy.leaf"],
          "spans recorded through both namespaces, in call order")
    check([s[3] for s in t.spans] == [-1, 0, 1, 1, -1, 4, 4], "parent links")
    own = tracer.self_times(t.spans)
    check(abs(sum(own[:4]) - (t.spans[0][2] - t.spans[0][1])) < 1e-12,
          "self times of a tree add up to its root's duration")


def test_sampler():
    with calibrate.Sampler(0.01) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
    elapsed = time.perf_counter() - start
    check(len(sampler.kernels) >= 5 and 0 < sampler.spent < elapsed,
          "the sampler times the kernel from its timer, and counts its time")
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) is signal.SIG_DFL,
          "the sampler stops its timer and restores the handler")
    check(calibrate.scale(2 * calibrate.K_REF) == 0.5,
          "a kernel twice as slow as the reference halves every time")


def test_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]]
          == list(metrics.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"]) for m in bench["per_layer"]]
          == list(metrics.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS[1:]),
          "BENCHMARK.json declares the workloads run.py runs, but verify_all")


def test_reference_series():
    # brute force: count monomials in l variables of topdeg 2 modulo the
    # monomial ideal of leading terms of e_i^k, which is regular with the
    # same degrees as the relations; here t_i^(i*k) for a direct check
    for l, k, maxdeg in ((3, 1, 14), (3, 2, 26), (2, 2, 16)):
        dims = [0] * (maxdeg + 1)
        for exps in itertools.product(range(maxdeg // 2 + 1), repeat=l):
            deg = 2 * sum(exps)
            if deg <= maxdeg and all(e < i * k for i, e in zip(range(1, l + 1), exps)):
                dims[deg] += 1
        degs = [2 * i * k for i in range(1, l + 1)]
        check(reference.regular_series(degs, l, maxdeg) == dims,
              "regular_series(%r) counts a monomial complete intersection" % degs)
    check(sum(reference.hilbert_reference("PU", 4, 5, 60)) == 5 * 24,
          "PU(5) series totals p * (p-1)!")
    check(reference.rost_degrees(2, 5) == [0, 12, 4, 24, 16, 36, 28, 48, 40],
          "rost degrees match README criterion 5 for (2, 5)")


def test_checks_catch_wrong_values():
    good = reference.hilbert_reference("U", 3, 2, 12)
    bad = good[:-2] + [good[-2] + 1, good[-1]]
    check(workloads._hilbert_payload("U", 3, 2, 12)({"dims_by_topdeg": good})
          is None and workloads._hilbert_payload("U", 3, 2, 12)(
              {"dims_by_topdeg": bad}) is not None, "a wrong series is caught")
    check(workloads._torsion_payload(8, "EXACT")(
        {"value": 4, "verification": "EXACT"}) is not None,
        "a wrong torsion index is caught")
    check(workloads._rost_payload(2, 3)({"count": 5, "basis": [
        {"topdeg": d} for d in (0, 8, 4, 16, 14)]}) is not None,
        "a wrong summand degree is caught")
    cli_check = workloads._cli_check(2)
    check(cli_check(None, ZeroDivisionError()) is not None
          and cli_check((0, ""), None) is not None
          and cli_check((2, ""), None) is None,
          "exit codes are held to the contract; an escaping exception breaks it")
    timed = {argv for argv, _, _ in workloads.cli_mix_calls()}
    check(not timed & {argv for argv, _, _ in workloads.CONTRACT_BREAKS},
          "inputs known to break the contract are probed, not timed")


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_tiny_workloads():
    for workload in workloads.WORKLOADS:
        for trace, specs in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            done = run_bench(workload, trace)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 else {}
            check(done.returncode == 0 and sorted(result) ==
                  ["attempted", "correct", "failed", "metrics"]
                  and result["correct"] and result["attempted"] >= 1,
                  "tiny %s trace %d runs correctly" % (workload, trace))
            got = [(n, m["unit"]) for n, m in result["metrics"].items()
                   if isinstance(m["value"], (int, float))]
            check(got == list(specs), "tiny %s trace %d prints every metric "
                  "with its unit" % (workload, trace))
            printed = "\n".join(lines[:-1])
            check(all(n in printed for n, _ in specs),
                  "tiny %s trace %d shows every metric by name" % (workload, trace))
            check("verify --case nope: raised KeyError" in printed,
                  "tiny %s trace %d lists the contract-breaking inputs"
                  % (workload, trace))


def test_fails_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_bench("cli_mix", 0, cwd=bare)
    shutil.rmtree(bare)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "fails without a result where there are no flagchow sources")


def main():
    test_self_times()
    test_tracer_on_toy_module()
    test_sampler()
    test_benchmark_json()
    test_reference_series()
    test_checks_catch_wrong_values()
    test_tiny_workloads()
    test_fails_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
