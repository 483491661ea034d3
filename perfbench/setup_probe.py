"""Time one workload's set-up in a fresh process.

Set-up is importing the flagchow modules the workload calls and building
its job list through public constructors; interpreter start-up and the
benchmark's own imports come before the clock starts.  Prints the set-up
time and the calibration kernel's median time just before it, in seconds.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> [tiny]
"""

import statistics
import sys
import time


def main():
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import calibrate
    import workloads
    calibrate.kernel_s()  # the first call warms up the kernel's code
    kernel = statistics.median(calibrate.kernel_s() for _ in range(5))
    start = time.perf_counter()
    modules = workloads.import_modules(workload)
    workloads.build(workload, seed, modules, tiny=sys.argv[4:] == ["tiny"])
    print(repr(time.perf_counter() - start), repr(kernel))


if __name__ == "__main__":
    main()
