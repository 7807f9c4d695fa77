"""Differential tests of the pure-Python F_p[x] kernel against schoolbook.

Operand lengths sit at each size limit of ``_purepoly`` (one below, at, one
above, four times), so every algorithm and each switch between them runs.
The last tests pin the kernel boundary ``_polycore`` that perfbench's tracer
wraps.
"""

import importlib
import importlib.util
import math
import pathlib
import random

import pytest

import drinheights
from drinheights import _polycore
from drinheights import _purepoly as K
from drinheights.gf import finite_field
from drinheights.ratfunc import Poly

PRIMES = (2, 3, 65521, 2**31 - 1)


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def school_mul(a, b, p):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def school_divmod(a, b, p):
    a, b = trim(a), trim(b)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] * inv % p
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] = (a[k + j] - c * y) % p
    return trim(q), trim(a)


def rand_poly(rng, p, n, top=None):
    """n coefficients; the top one is nonzero unless given."""
    if n == 0:
        return []
    c = [rng.randrange(p) for _ in range(n - 1)]
    return c + [rng.randrange(1, p) if top is None else top]


def around(limit):
    return (limit - 1, limit, limit + 1, 4 * limit)


def shapes_with_product(v):
    """A (1, v) shape and the squarest (d, v // d) shape."""
    d = max(i for i in range(1, math.isqrt(v) + 1) if v % i == 0)
    return [(1, v), (d, v // d)]


MUL_SHAPES = [s for v in around(K.KRONECKER_MIN) for s in shapes_with_product(v)]
# (quotient length, divisor length)
DIV_SHAPES = ([(k, m) for k in around(K.NEWTON_MIN) for m in around(K.NEWTON_MIN)]
              + [(k, m) for m in around(K.ROW_MIN) for k in (1, 2, 3 * K.ROW_MIN)]
              + [(200, 1), (200, 2), (1, 200), (3, 200)])


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("la,lb", MUL_SHAPES)
def test_mul_matches_schoolbook(p, la, lb):
    rng = random.Random(p * 1000 + la * 7 + lb)
    a, b = rand_poly(rng, p, la), rand_poly(rng, p, lb)
    want = school_mul(a, b, p)
    assert K.poly_mul(a, b, p) == want
    assert K.poly_mul(b, a, p) == want
    assert K.poly_mul(a, a, p) == school_mul(a, a, p)


@pytest.mark.parametrize("p,m", [(2, 255), (2, 256), (3, 63), (3, 64),
                                 (251, 16), (257, 16), (65521, 16),
                                 (2**31 - 1, 3), (2**31 - 1, 4)])
def test_mul_all_max_coefficients_at_slot_widths(p, m):
    # every product coefficient of the middle reaches m*(p-1)^2, the most a
    # Kronecker slot has to hold; m is on either side of a slot width change
    for n in (m, 3 * m + 40):
        a, b = [p - 1] * m, [p - 1] * n
        assert K.poly_mul(a, b, p) == school_mul(a, b, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k,m", DIV_SHAPES)
def test_divmod_matches_schoolbook(p, k, m):
    rng = random.Random(p * 1000 + k * 7 + m)
    b = rand_poly(rng, p, m)
    a = rand_poly(rng, p, k + m - 1)
    assert K.poly_divmod(a, b, p) == school_divmod(a, b, p)
    # exact division: the remainder is zero
    c = rand_poly(rng, p, k)
    assert K.poly_divmod(school_mul(b, c, p), b, p) == (c, [])


# (quotient length, divisor length) on both sides of each bound of the
# second Newton gate: a long divisor with a quotient below NEWTON_MIN
LONG_DIVISOR_SHAPES = [(k, m) for k in around(K.NEWTON_SHORT_QUOTIENT)[:3]
                       + (K.NEWTON_MIN - 1,)
                       for m in around(K.NEWTON_LONG_DIVISOR)]


@pytest.mark.parametrize("p", PRIMES)
def test_long_divisor_gate_row_loop_and_newton_agree(p, monkeypatch):
    # the row loop and Newton, each forced, agree with schoolbook and with
    # the shipped gate, which takes Newton exactly where the quotient has
    # NEWTON_SHORT_QUOTIENT coefficients and the divisor NEWTON_LONG_DIVISOR
    rng = random.Random(p)
    taken = []
    real = K._divmod_newton

    def spy(a, b, p):
        taken.append(True)
        return real(a, b, p)
    monkeypatch.setattr(K, "_divmod_newton", spy)
    never = 1 << 62
    for k, m in LONG_DIVISOR_SHAPES:
        b = rand_poly(rng, p, m)
        a = rand_poly(rng, p, k + m - 1)
        del taken[:]
        shipped = K.poly_divmod(a, b, p)
        assert taken == ([True] if k >= K.NEWTON_SHORT_QUOTIENT
                         and m >= K.NEWTON_LONG_DIVISOR else []), (k, m)
        with monkeypatch.context() as forced:
            forced.setattr(K, "NEWTON_MIN", never)
            forced.setattr(K, "NEWTON_LONG_DIVISOR", never)
            rows = K.poly_divmod(a, b, p)
        with monkeypatch.context() as forced:
            forced.setattr(K, "NEWTON_MIN", 1)
            newton = K.poly_divmod(a, b, p)
        assert shipped == rows == newton == school_divmod(a, b, p), (k, m)


@pytest.mark.parametrize("p", PRIMES)
def test_untrimmed_and_zero_operands(p):
    rng = random.Random(p)
    for n in (5, 3 * K.NEWTON_MIN):
        a, b = rand_poly(rng, p, 2 * n), rand_poly(rng, p, n)
        pad = [0] * 3
        assert K.poly_mul(a + pad, b + pad, p) == school_mul(a, b, p)
        assert K.poly_divmod(a + pad, b + pad, p) == school_divmod(a, b, p)
        assert K.poly_gcd(a + pad, b + pad, p) == K.poly_gcd(a, b, p)
        for zero in ([], [0], [0] * n):
            assert K.poly_mul(a, zero, p) == []
            assert K.poly_mul(zero, a, p) == []
            assert K.poly_divmod(zero, b, p) == ([], [])
        # a dividend shorter than the divisor is its own remainder
        assert K.poly_divmod(b + pad, a, p) == ([], b)


@pytest.mark.parametrize("p", PRIMES)
def test_non_monic_and_constant_divisors(p):
    rng = random.Random(p + 1)
    for m in (1, 2, K.ROW_MIN, 2 * K.NEWTON_MIN):
        for lead in (1, p - 1, 2 % p or 1):
            b = rand_poly(rng, p, m, top=lead)
            for k in (1, 2 * K.NEWTON_MIN):
                a = rand_poly(rng, p, k + m - 1)
                assert K.poly_divmod(a, b, p) == school_divmod(a, b, p)
    c = rng.randrange(1, p)
    a = rand_poly(rng, p, 3 * K.NEWTON_MIN)
    inv = pow(c, p - 2, p)
    assert K.poly_divmod(a, [c], p) == ([x * inv % p for x in a], [])


@pytest.mark.parametrize("p", PRIMES)
def test_zero_divisor_raises(p):
    for zero in ([], [0], [0, 0, 0]):
        with pytest.raises(ZeroDivisionError):
            K.poly_divmod([1, 2 % p, 1], zero, p)
        with pytest.raises(ZeroDivisionError):
            K.poly_mod([1], zero, p)


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_is_monic_common_factor(p):
    rng = random.Random(p + 2)
    assert K.poly_gcd([], [], p) == []
    assert K.poly_gcd([0, 0], [0], p) == []
    for n in (3, 2 * K.NEWTON_MIN):
        g = rand_poly(rng, p, n // 2 + 1)
        a = school_mul(g, rand_poly(rng, p, n), p)
        b = school_mul(g, rand_poly(rng, p, n + 5), p)
        d = K.poly_gcd(a, b, p)
        assert d[-1] == 1
        # g divides the gcd, and the gcd divides both
        assert school_divmod(d, g, p)[1] == []
        assert school_divmod(a, d, p)[1] == []
        assert school_divmod(b, d, p)[1] == []
        assert K.poly_gcd(a, [], p) == K.poly_gcd(a, a, p)
        assert K.poly_gcd(a, [], p)[-1] == 1


@pytest.mark.parametrize("p", PRIMES)
def test_powmod_matches_repeated_multiplication(p):
    rng = random.Random(p + 3)
    for m in (3, 2 * K.NEWTON_MIN):
        mod = rand_poly(rng, p, m)
        a = rand_poly(rng, p, 2 * m)
        want = [1]
        for e in range(12):
            assert K.poly_powmod(a, e, mod, p) == want
            want = school_divmod(school_mul(want, a, p), mod, p)[1]
    assert K.poly_powmod(a, 5, [rng.randrange(1, p)], p) == []


def test_mul_by_one_returns_the_other_factor():
    F3 = finite_field(3)
    f = Poly(F3, [2, 0, 1, 1])
    one = Poly.one(F3)
    assert one * f is f
    assert f * one is f
    assert f * Poly(F3, [1, 0, 0]) is f
    assert one * one == one
    assert Poly.zero(F3) * one == Poly.zero(F3)


KERNEL = ("poly_mul", "poly_divmod", "poly_mod", "poly_gcd", "poly_powmod")
TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_polycore_is_purepoly():
    # the benchmark wraps the kernel at _polycore and records backend_name()
    for name in KERNEL:
        assert getattr(_polycore, name) is getattr(K, name)
    assert drinheights.backend_name() == "python"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracer_installs_and_uninstalls():
    # every TARGETS entry of the benchmark's tracer must resolve in the package
    tracing = load_tracing()
    owners = []
    for label, modname, attr, cls_name, _ in tracing.TARGETS:
        owner = importlib.import_module(modname)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        owners.append((label, owner, attr, getattr(owner, attr)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for label, owner, attr, fn in owners:
            assert getattr(owner, attr) is not fn, label
        # a call the kernel makes to itself (gcd -> mod) is not a second call
        assert _polycore.poly_gcd([1, 0, 1], [1, 1], 3) == [1]
        v = tracer.values
        assert v["polycore.poly_gcd.small.calls"] == 1
        assert v["polycore.poly_divmod.small.calls"] == 0
    finally:
        tracer.uninstall()
    for label, owner, attr, fn in owners:
        assert getattr(owner, attr) is fn, label


def test_perfbench_tracer_knows_every_certificate():
    # the traced run counts local heights by certificate, and one it does
    # not know would fail every traced run; the certificates are the
    # module-level strings of heights
    from drinheights import heights
    certificates = {v for k, v in vars(heights).items()
                    if isinstance(v, str) and not k.startswith("_")}
    assert certificates == {heights.ESCAPED, heights.GOOD_REDUCTION,
                            heights.TORSION, heights.EXHAUSTED}
    assert certificates == set(load_tracing().CERTIFICATES)
