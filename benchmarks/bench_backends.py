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

# size limits that force one pure-Python algorithm
NEVER = 1 << 62
ALGORITHMS = (
    ("mul", "schoolbook", {"KRONECKER_MIN": NEVER}),
    ("mul", "kronecker", {"KRONECKER_MIN": 1}),
    ("mul2x", "schoolbook", {"KRONECKER_MIN": NEVER}),
    ("mul2x", "kronecker", {"KRONECKER_MIN": 1}),
    ("divmod", "indexed", {"NEWTON_MIN": NEVER, "ROW_MIN": NEVER}),
    ("divmod", "rows", {"NEWTON_MIN": NEVER, "ROW_MIN": 0}),
    ("divmod", "newton", {"NEWTON_MIN": 1}),
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
            saved = {name: getattr(pure, name) for name in limits}
            try:
                for name, value in limits.items():
                    setattr(pure, name, value)
                row("%s/%s" % (op, algorithm), pure, op, p)
            finally:
                for name, value in saved.items():
                    setattr(pure, name, value)
        for op in ("mul", "divmod", "gcd"):
            row("%s/python" % op, pure, op, p)
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
    macro()
