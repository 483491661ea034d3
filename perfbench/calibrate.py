"""A fixed pure-Python kernel that measures the machine's speed right now.

The benchmark shares a 2-vCPU VM with other tenants, and they slow it by up
to half, in stretches of seconds to minutes.  `Sampler` times the kernel
at the start of every pass and, from a SIGALRM timer, every `INTERVAL`
seconds during the pass.  Each time of the pass is then scaled by
K_REF / (median kernel time in that pass), the time it would have taken at
reference speed; the seconds spent in the kernel are taken out of the
timings first.  The kernel does what flagchow's hot loops do: a product of
sparse polynomials held as dicts of exponent tuples, and a recursive count
of monomials not divisible by a set of leading monomials.  It never imports
flagchow, so a change to the program cannot move it.
"""

import itertools
import signal
import time

# the kernel's time in seconds on an uncontended 2-vCPU x86-64 VM with
# Python 3.11; it only sets the scale, so scaled times read like seconds
K_REF = 0.0014
INTERVAL = 0.1

_A, _B = {}, {}
for _i, _e in enumerate(itertools.product(range(4), repeat=4)):
    if _i % 7 == 0:
        _A[_e] = _i % 7 + 1
    if _i % 9 == 1:
        _B[_e] = _i % 11 - 5
_LEADING = [(3, 0, 0, 0, 0), (0, 2, 1, 0, 0), (1, 0, 0, 2, 0),
            (0, 0, 0, 1, 3), (0, 1, 0, 0, 2)]


def _poly_product():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def _count_standard(maxdeg=8):
    nvars = len(_LEADING[0])
    dims = [0] * (maxdeg + 1)
    exps = [0] * nvars

    def rec(i, deg):
        if i == nvars:
            for m in _LEADING:
                if all(x <= y for x, y in zip(m, exps)):
                    return
            dims[deg] += 1
            return
        e = 0
        while deg + 2 * e <= maxdeg:
            exps[i] = e
            rec(i + 1, deg + 2 * e)
            e += 1
        exps[i] = 0

    rec(0, 0)
    return dims


def kernel_s():
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _poly_product()
    _count_standard()
    return time.perf_counter() - start


def scale(kernel):
    """Factor that turns a time taken beside this kernel time into
    reference time."""
    return K_REF / kernel


class Sampler:
    """Kernel times of a timed loop, and the seconds they took.

    While entered, and `interval` is not None, a SIGALRM timer samples the
    kernel every `interval` seconds of wall time, between two bytecodes of
    whatever runs.  `sample` may also be called directly.  `spent` only
    grows; a timing takes the growth over its interval out of itself.
    """

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.kernels = []
        self.spent = 0.0
        self._old = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        self.kernels.append(kernel_s())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.interval is not None:
            self._old = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
