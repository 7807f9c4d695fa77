"""Benchmark the polynomial kernel: each of its algorithms, and one macro run.

Micro benchmarks time the dense F_p[x] primitives at operand size n:
``mul`` multiplies two length-n polynomials, ``mul2x`` a length-2 one by a
length-n one, ``divmod`` divides a length 2n-1 polynomial by a length-n one
(quotient and divisor both of length n), ``gcd`` takes two random
polynomials of lengths n and n-1.  The ``op/algorithm`` rows time each
algorithm on its own, forced by setting the module's size limits for the
duration of the row; the ``op/python`` rows use the limits as shipped.  The
size limits in ``_purepoly`` (``KRONECKER_MIN``, ``NEWTON_MIN``,
``ROW_MIN``) are the crossovers in this table.

The ``long divisor`` table times ``divmod`` of a length n+k-1 polynomial by
a length-n one (quotient of length k) for a long divisor and a short
quotient, with the row loop and Newton forced: the region the second
Newton gate (``NEWTON_LONG_DIVISOR``, ``NEWTON_SHORT_QUOTIENT``) covers.

The macro benchmark times 40 Carlitz heights and a short verify run in a
fresh interpreter.

Run:  python benchmarks/bench_backends.py
"""

import random
import subprocess
import sys
import time

SIZES = (8, 16, 32, 64, 256, 1024, 4096)
PRIMES = (3, 65521)
# divisor lengths (rows) and quotient lengths (columns) of the long-divisor
# table
LONG_DIVISORS = (64, 96, 128, 192, 256, 512, 1024)
SHORT_QUOTIENTS = (2, 4, 5, 6, 8, 12, 16, 24, 31)

# size limits that force one pure-Python algorithm
NEVER = 1 << 62
ALGORITHMS = (
    ("mul", "schoolbook", {"KRONECKER_MIN": NEVER}),
    ("mul", "kronecker", {"KRONECKER_MIN": 1}),
    ("mul2x", "schoolbook", {"KRONECKER_MIN": NEVER}),
    ("mul2x", "kronecker", {"KRONECKER_MIN": 1}),
    ("divmod", "indexed", {"NEWTON_MIN": NEVER, "NEWTON_LONG_DIVISOR": NEVER,
                           "ROW_MIN": NEVER}),
    ("divmod", "rows", {"NEWTON_MIN": NEVER, "NEWTON_LONG_DIVISOR": NEVER,
                        "ROW_MIN": 0}),
    ("divmod", "newton", {"NEWTON_MIN": 1}),
)
# the long-divisor table forces the row loop or Newton through both gates
LONG_ALGORITHMS = (
    ("rows", {"NEWTON_MIN": NEVER, "NEWTON_LONG_DIVISOR": NEVER, "ROW_MIN": 0}),
    ("newton", {"NEWTON_MIN": 1}),
)


def timeit(fn, repeat=5, budget=5.0):
    """Best of `repeat` timings, each the mean of >= 1 ms of calls.

    Stops early once `budget` seconds are spent, so slow cells take one timing.
    """
    t0 = time.perf_counter()
    fn()
    spent = time.perf_counter() - t0
    number = max(1, int(1e-3 / max(spent, 1e-7)))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        dt = time.perf_counter() - t0
        best = min(best, dt / number)
        spent += dt
        if spent > budget:
            break
    return best


# operation: (kernel function, operand lengths at size n)
SHAPES = {
    "mul": ("poly_mul", lambda n: (n, n)),
    "mul2x": ("poly_mul", lambda n: (2, n)),
    "divmod": ("poly_divmod", lambda n: (2 * n - 1, n)),
    "gcd": ("poly_gcd", lambda n: (n, n - 1)),
}


class forced:
    """Set size limits of a module for the duration of a with block."""

    def __init__(self, module, limits):
        self.module, self.limits = module, limits

    def __enter__(self):
        self.saved = {name: getattr(self.module, name) for name in self.limits}
        for name, value in self.limits.items():
            setattr(self.module, name, value)

    def __exit__(self, *exc):
        for name, value in self.saved.items():
            setattr(self.module, name, value)


def row(label, impl, op, p):
    rng = random.Random(0)

    def rand(m):
        return [rng.randrange(p) for _ in range(m - 1)] + [rng.randrange(1, p)]
    name, lengths = SHAPES[op]
    fn = getattr(impl, name)
    cols = []
    for n in SIZES:
        a, b = (rand(m) for m in lengths(n))
        cols.append("%.2e" % timeit(lambda: fn(a, b, p)))
    print("%-8s %-18s" % (p, label) + "".join("%10s" % c for c in cols))


def micro():
    from drinheights import _purepoly as pure

    print("seconds per call")
    print("%-8s %-18s" % ("p", "op/algorithm") + "".join("%10s" % ("n=%d" % n) for n in SIZES))
    for p in PRIMES:
        for op, algorithm, limits in ALGORITHMS:
            with forced(pure, limits):
                row("%s/%s" % (op, algorithm), pure, op, p)
        for op in ("mul", "divmod", "gcd"):
            row("%s/python" % op, pure, op, p)
        sys.stdout.flush()


def long_divisor():
    from drinheights import _purepoly as pure

    print()
    print("seconds per divmod call, divisor of length n, quotient of length k")
    print("%-8s %-8s %-10s" % ("p", "n", "algorithm")
          + "".join("%10s" % ("k=%d" % k) for k in SHORT_QUOTIENTS))
    for p in PRIMES:
        rng = random.Random(0)

        def rand(m):
            return ([rng.randrange(p) for _ in range(m - 1)]
                    + [rng.randrange(1, p)])
        for n in LONG_DIVISORS:
            pairs = [(rand(n + k - 1), rand(n)) for k in SHORT_QUOTIENTS]
            for algorithm, limits in LONG_ALGORITHMS + (("python", {}),):
                with forced(pure, limits):
                    cols = ["%.2e" % timeit(lambda: pure.poly_divmod(a, b, p))
                            for a, b in pairs]
                print("%-8s %-8s %-10s" % (p, n, algorithm) + "".join(
                    "%10s" % c for c in cols))
            sys.stdout.flush()


MACRO = r"""
import time
from fractions import Fraction
from drinheights import finite_field, DrinfeldModule
from drinheights.heights import global_height
from drinheights.ratfunc import parse_ratfunc
from drinheights.verify import run_verify

F3 = finite_field(3)
mod = DrinfeldModule(F3, [parse_ratfunc(F3, "t"), parse_ratfunc(F3, "1")])
t0 = time.perf_counter()
for i in range(40):
    x = parse_ratfunc(F3, "(t^3+%d*t+1)/(t^2+%d)" % (i %% 3, (i + 1) %% 3))
    global_height(mod, mod.act(parse_ratfunc(F3, "t^2+t").num, x))
h_time = time.perf_counter() - t0
t0 = time.perf_counter()
run_verify(seed=0, count=60)
v_time = time.perf_counter() - t0
print("heights: %6.2fs   verify(60): %6.2fs" % (h_time, v_time))
"""


def macro():
    print()
    print("macro: 40 canonical heights of phi_{t^2+t}(x) + verify suite")
    sys.stdout.flush()
    subprocess.run([sys.executable, "-c", MACRO.replace("%%", "%")],
                   check=True)


if __name__ == "__main__":
    micro()
    long_divisor()
    macro()
