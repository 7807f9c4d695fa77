import random

import pytest

from drinheights.gf import finite_field
from drinheights.ratfunc import Poly, RatFunc, parse_ratfunc
from drinheights.skew import SkewPoly, skew_degree

F2 = finite_field(2)
F3 = finite_field(3)


def R(field, s):
    return parse_ratfunc(field, s)


def carlitz(field):
    return SkewPoly(field, (RatFunc.x(field), RatFunc.one(field)))


def test_twist_rule():
    tau = SkewPoly.tau(F3)
    a = SkewPoly.const(F3, R(F3, "t"))
    assert (tau * a).coeffs == (RatFunc.zero(F3), R(F3, "t^3"))


def test_carlitz_squared():
    phi = carlitz(F3)
    sq = phi * phi
    assert sq.coeffs == (R(F3, "t^2"), R(F3, "t^3+t"), RatFunc.one(F3))


def test_one_is_identity():
    rng = random.Random(31)
    one = SkewPoly.one(F3)
    f = SkewPoly(F3, tuple(R(F3, "t^%d+%d" % (rng.randint(0, 2), c))
                           for c in (1, 2, 1)))
    assert one * f == f and f * one == f


def test_eval_examples():
    psi2 = carlitz(F2)
    assert psi2(R(F2, "t")).is_zero()
    car3 = carlitz(F3)
    assert car3(RatFunc.one(F3)) == R(F3, "t+1")
    assert car3(RatFunc.zero(F3)).is_zero()


def test_degree_examples():
    car3 = carlitz(F3)
    assert skew_degree(car3) == (1, 3)
    assert skew_degree(car3 * car3) == (2, 9)
    assert skew_degree(SkewPoly.one(F3)) == (0, 1)
    with pytest.raises(ValueError):
        skew_degree(SkewPoly.zero(F3))


def _rand_skew(rng, field, deg, h=2):
    coeffs = []
    for _ in range(deg + 1):
        num = Poly(field, [rng.randrange(field.order)
                           for _ in range(rng.randint(1, h + 1))])
        den = Poly(field, [rng.randrange(field.order)
                           for _ in range(rng.randint(1, h))] + [1])
        coeffs.append(RatFunc(num, den))
    return SkewPoly(field, coeffs)


def test_ring_laws_random():
    rng = random.Random(32)
    for _ in range(25):
        f = _rand_skew(rng, F3, rng.randint(0, 2), 1)
        g = _rand_skew(rng, F3, rng.randint(0, 2), 1)
        h = _rand_skew(rng, F3, rng.randint(0, 2), 1)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_eval_is_composition_homomorphism():
    rng = random.Random(33)
    for _ in range(25):
        f = _rand_skew(rng, F2, rng.randint(0, 2), 1)
        g = _rand_skew(rng, F2, rng.randint(0, 2), 1)
        y = RatFunc(Poly(F2, [rng.randrange(2) for _ in range(3)]),
                    Poly(F2, [rng.randrange(2), 1]))
        assert (f * g)(y) == f(g(y))


def test_eval_additivity():
    rng = random.Random(34)
    for _ in range(25):
        f = _rand_skew(rng, F3, rng.randint(0, 2), 1)
        y = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                    Poly(F3, [rng.randrange(3), 1]))
        z = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                    Poly(F3, [rng.randrange(3), 1]))
        assert f(y + z) == f(y) + f(z)


def test_degree_multiplicative():
    rng = random.Random(35)
    for _ in range(20):
        f = _rand_skew(rng, F3, rng.randint(0, 3), 1)
        g = _rand_skew(rng, F3, rng.randint(0, 3), 1)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).tau_degree == f.tau_degree + g.tau_degree
