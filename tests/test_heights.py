import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import decimal_unlimited, kept_keys, make_module
from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import (BudgetExhaustedError, InputError,
                                NonMonicError)
from drinheights.gf import finite_field
from drinheights.heights import (DEGREE_CAP, HeightValue, check_t2mwg, frac,
                                 global_height, global_height_breakdown,
                                 height_sum, height_via_embedding,
                                 lehmer_bounds, local_height)
from drinheights.perfect import insep_level
from drinheights.places import (FinitePlace, InfinitePlace,
                                SubstitutionEmbedding, poles, support)
from drinheights.ratfunc import (Poly, RatFunc, factor, irreducible_monics,
                                 ord_at, parse_poly, parse_ratfunc)
from drinheights.torsion import annihilator_of, torsion_enumerate
from drinheights.verify import (module_pool, rand_nonzero_ratfunc,
                                rand_ratfunc)


def R(field, s, var="t"):
    return parse_ratfunc(field, s, var=var)


def oracle_local(mod, v, x, n):
    """Independent check: -d(v) min{0, v(phi_{t^n}(x))} / q^(rn)."""
    y = x
    for _ in range(n):
        y = mod.phi_t(y)
    val = v.valuation(y)
    tilde = min(0, val) if val != float("inf") else 0
    return Fraction(-tilde) * v.degree / mod.q**(mod.r * n)


def test_carlitz_local_height_of_one(car3, F3):
    h = local_height(car3, InfinitePlace(F3), RatFunc.one(F3))
    assert h.is_exact and h.value == Fraction(1, 3)
    assert h.certificate == "Escaped" and h.step == 1
    # oracle: the limit quotient is already exact for n = 1..5
    for n in range(1, 6):
        assert oracle_local(car3, InfinitePlace(F3), RatFunc.one(F3), n) == \
            Fraction(1, 3)


def test_good_place_pole_is_weil_mass(car3, F3):
    v = FinitePlace(parse_poly(F3, "t"))
    h = local_height(car3, v, R(F3, "1/t^2"))
    assert h.is_exact and h.value == 2


def test_psi2_torsion_certified(psi2, F2):
    h = local_height(psi2, InfinitePlace(F2), RatFunc.x(F2))
    assert h.is_exact and h.value == 0
    assert h.certificate == "TorsionCertified"


def test_global_height_examples(car3, psi2, F2, F3):
    assert global_height(car3, RatFunc.one(F3)).value == Fraction(1, 3)
    assert global_height(car3, RatFunc.x(F3)).value == 1
    assert global_height(psi2, RatFunc.x(F2)).value == 0
    tau3 = make_module(F3, "0", "1")
    assert global_height(tau3, R(F3, "(t^2+1)/t^3")).value == 3
    assert global_height(car3, RatFunc.zero(F3)).value == 0


def test_nonmonic_rejected(F3):
    m = make_module(F3, "t", "t")
    with pytest.raises(NonMonicError):
        global_height(m, RatFunc.one(F3))
    # the bounds are kept per module, and a refused module keeps nothing
    for _ in range(2):
        with pytest.raises(NonMonicError):
            lehmer_bounds(m)
    assert m._kept == {}
    mod = make_module(F3, "t", "1")
    assert lehmer_bounds(mod) is lehmer_bounds(mod)
    assert kept_keys(mod, lehmer_bounds) == [()]


@pytest.mark.parametrize("x", [
    Fraction(0), Fraction(-7, 3), Fraction(10**600), Fraction(10**600 - 1),
    Fraction(-1, 10**1200), Fraction(3**14550 + 1, 2**20000),
    Fraction(-(10**4400 + 12345)), 0, 7,
    pytest.param(10**4400 + 1, id="int-4401-digits"),
])
def test_frac_prints_any_exact_fraction(x):
    num, den = x.numerator, x.denominator
    expect = decimal_unlimited(num)
    if den != 1:
        expect += "/" + decimal_unlimited(den)
    assert frac(x) == expect


def test_bounds_and_heights_of_any_size_print_in_full(F3):
    # S = {v[t], v[t+1], v_inf}: the perfect-closure floor is 1/3^14550,
    # past str()'s digit limit
    mod = make_module(F3, "t", "1/t", "1/(t+1)", *["0"] * 7, "1")
    bounds = lehmer_bounds(mod)
    floor = "1/" + decimal_unlimited(3**14550)
    assert ", lehper=%s, " % floor in repr(bounds)
    h = HeightValue.exact(bounds.lehper, "Floor")
    assert str(h) == floor
    assert repr(h) == "HeightValue(%s, Floor)" % floor
    wide = HeightValue(bounds.lehper, 1, "Interval")
    assert str(wide) == "[%s, 1]" % floor
    with pytest.raises(BudgetExhaustedError, match="lie in \\[%s, 1\\]" % floor):
        wide.value


def test_lehmer_bounds_examples(car3, psi2, tau2):
    b = lehmer_bounds(car3)
    assert b.sharp == Fraction(1, 27)
    assert b.weak == Fraction(1, 81)
    assert b.lehper == Fraction(1, 3**19)
    assert b.torsion_degree == 1

    b = lehmer_bounds(psi2)
    assert b.sharp == b.weak == Fraction(1, 16)
    assert b.torsion_degree == 2

    b = lehmer_bounds(tau2)
    assert b.lehper is None and b.torsion_degree == 0
    assert b.sharp >= b.weak


def test_check_t2mwg_witness(car3, F3):
    cert = check_t2mwg(car3, RatFunc.one(F3))
    assert cert.kind == "witness"
    assert cert.place == InfinitePlace(F3)
    assert cert.local == Fraction(1, 3) and cert.bound == Fraction(1, 27)


def test_check_t2mwg_torsion(psi2, F2):
    cert = check_t2mwg(psi2, RatFunc.x(F2))
    assert cert.kind == "torsion"
    assert cert.annihilator == parse_poly(F2, "t")


def test_check_t2mwg_good_reduction(tau2, F2):
    cert = check_t2mwg(tau2, RatFunc.x(F2))
    assert cert.kind == "witness"
    assert cert.local == 1 and cert.bound == 1  # hhat_v(x) >= d(v) met
    assert check_t2mwg(tau2, RatFunc.one(F2)).kind == "constant"


def test_height_via_embedding_examples(car3, F3):
    emb = SubstitutionEmbedding(R(F3, "u^3", var="u"))
    assert height_via_embedding(car3, emb, RatFunc.x(F3)).value == 1
    assert height_via_embedding(car3, emb, RatFunc.one(F3)).value == \
        Fraction(1, 3)
    ident = SubstitutionEmbedding(R(F3, "u", var="u"))
    for s in ("t", "1", "(t^2+1)/t", "t^2+2"):
        x = R(F3, s)
        assert height_via_embedding(car3, ident, x) == global_height(car3, x)


def test_heights_read_the_index_off_the_module(car3, F3):
    # [L:K] lives on the module: the pushed module alone gives the coherent
    # heights, and an index passed as before is refused, not read as v(x)
    psi, u, v = insep_level(car3, 1), R(F3, "u", "u"), InfinitePlace(F3)
    assert (car3.index, psi.index) == (1, 3) and insep_level(car3, 0) is car3
    assert global_height(psi, u).value == Fraction(4, 9)
    assert global_height(insep_level(car3, 1), u).value == Fraction(4, 9)
    assert local_height(psi, v, u).value == Fraction(4, 9)
    assert _fields(local_height(psi, v, u, val=-1)) == \
        _fields(local_height(psi, v, u))
    with pytest.raises(TypeError):
        local_height(psi, v, u, 9)
    with pytest.raises(TypeError):
        global_height_breakdown(psi, u, 3)
    with pytest.raises(TypeError):
        global_height(psi, u, 3)


@pytest.mark.parametrize("image", ["u^2", "u^3", "u^2+u", "u^3+2*u+1",
                                   "(u^2+1)/u", "1/u^2"])
def test_height_via_embedding_pushes_the_degree(car3, F3, image):
    # verify's six coherence images: the module pushed along t -> f(u)
    # carries index emb.degree, so its height is the oracle breakdown at
    # that index, and equals the height over K
    emb = SubstitutionEmbedding(R(F3, image, "u"))
    plain = DrinfeldModule(F3, [emb.apply(a) for a in car3.coeffs])
    rng = random.Random(3100 + emb.degree)
    for _ in range(6):
        x = rand_ratfunc(rng, F3, 3)
        h = height_via_embedding(car3, emb, x)
        want = height_sum(breakdown_oracle(plain, emb.apply(x), emb.degree))
        assert _agrees(h, want), (image, x)
        assert h == global_height(car3, x), (image, x)
    assert plain.index == 1


def test_substitution_push_refused_before_pushing(car3, F3, monkeypatch):
    # the library runs the push rule too: h(u^300) * h(t^1000) passes
    # MAX_DEGREE, so nothing is pushed along the substitution
    from drinheights import places

    def substitute(self, y):
        raise AssertionError("pushed along the substitution")
    emb = SubstitutionEmbedding(R(F3, "u^300", "u"))
    monkeypatch.setattr(places.SubstitutionEmbedding, "apply", substitute)
    with pytest.raises(InputError) as exc:
        height_via_embedding(car3, emb, R(F3, "t^1000"))
    assert str(exc.value) == ("substitution t -> 'u^300' (degrees times 300) "
                              "takes degree 1000 past the cap MAX_DEGREE = "
                              "100000")


def test_t2mwg_bound_scales_with_the_index(car3, tau2, F2, F3):
    # on a pushed module both sides of the gap scale by 1/[L:K]: the
    # local height off local_height, the bound sharp d(v) / p
    psi, u, v = insep_level(car3, 1), R(F3, "u", "u"), InfinitePlace(F3)
    cert = check_t2mwg(psi, u)
    assert (cert.kind, cert.place) == ("witness", v)
    assert cert.local == local_height(psi, v, u).value == Fraction(4, 9)
    assert cert.bound == lehmer_bounds(psi).sharp * Fraction(v.degree, 3)
    # S empty: hhat_v(x) >= d(v) / [L:K] at a pole
    psi, u, v = insep_level(tau2, 1), R(F2, "u", "u"), InfinitePlace(F2)
    cert = check_t2mwg(psi, u)
    assert (cert.kind, cert.place) == ("witness", v)
    assert cert.local == local_height(psi, v, u).value == Fraction(1, 2)
    assert cert.bound == Fraction(1, 2)


def test_multiplicativity(car3, F3):
    rng = random.Random(51)
    for _ in range(50):
        x = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                    Poly(F3, [rng.randrange(3), 1]))
        b = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 3))])
        if b.is_zero():
            continue
        h1 = global_height(car3, x)
        h2 = global_height(car3, car3.act(b, x))
        if h1.is_exact and h2.is_exact:
            assert h2.value == car3.q**(car3.r * b.degree) * h1.value


def test_local_ultrametric_bound(car3, F3):
    rng = random.Random(52)
    v = InfinitePlace(F3)
    for _ in range(50):
        x = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                    Poly(F3, [rng.randrange(3), 1]))
        y = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                    Poly(F3, [rng.randrange(3), 1]))
        hx = local_height(car3, v, x)
        hy = local_height(car3, v, y)
        hsum = local_height(car3, v, x + y)
        hdiff = local_height(car3, v, x - y)
        if hx.is_exact and hy.is_exact:
            cap = max(hx.value, hy.value)
            for h in (hsum, hdiff):
                if h.is_exact:
                    assert h.value <= cap


def test_global_triangle_inequality(car3, F3):
    rng = random.Random(53)
    for _ in range(30):
        x = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                    Poly(F3, [rng.randrange(3), 1]))
        y = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                    Poly(F3, [rng.randrange(3), 1]))
        hx = global_height(car3, x)
        hy = global_height(car3, y)
        hs = global_height(car3, x + y)
        if hx.is_exact and hy.is_exact and hs.is_exact:
            assert hs.value <= hx.value + hy.value


def test_torsion_points_have_zero_height(psi2):
    for x in torsion_enumerate(psi2):
        h = global_height(psi2, x)
        assert h.is_exact and h.value == 0


def test_exact_agrees_with_oracle(car3, F3):
    rng = random.Random(54)
    v = InfinitePlace(F3)
    for _ in range(20):
        x = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(2)]),
                    Poly(F3, [rng.randrange(3), 1]))
        h = local_height(car3, v, x)
        if h.is_exact and h.certificate == "Escaped" and h.step <= 4:
            for n in (4, 5):
                assert oracle_local(car3, v, x, n) == h.value


def test_good_reduction_gap(tau2, F2):
    rng = random.Random(55)
    for _ in range(30):
        x = RatFunc(Poly(F2, [rng.randrange(2) for _ in range(4)]),
                    Poly(F2, [rng.randrange(2), rng.randrange(2), 1]))
        if x.is_zero() or x.is_constant():
            continue
        h = global_height(tau2, x)
        assert h.is_exact and h.value >= 1


def test_interval_on_non_escaping_orbit(psi2, car3, F2, F3):
    # t/(t+1) stays bounded at v_inf without escaping or being torsion: its
    # valuation 0 lies in the stable ball v(y) >= -1, so the height is 0
    x = R(F2, "t/(t+1)")
    v = InfinitePlace(F2)
    h = local_height(psi2, v, x)
    assert h.is_exact and h.value == 0
    assert h.certificate == "GoodReductionIntegral" and h.step == 0
    # independently, the orbit never drops below -1 there
    y = x
    for _ in range(13):
        assert v.valuation(y) >= -1
        y = psi2.phi_t(y)
    # globally the pole at t+1 gives the whole height
    assert global_height(psi2, x) == 1
    # Carlitz q=3 has no stable ball at v_inf; along the orbit of 1/t^7 the
    # valuation falls by one a step, read off the valuation law, to -1 at
    # step 8, where the walk of the iterates met DEGREE_CAP at step 7 with
    # the interval [0, 1/4374]
    w = InfinitePlace(F3)
    h1 = local_height(car3, w, R(F3, "1/t^7"))
    assert _fields(h1) == (Fraction(1, 3**8), Fraction(1, 3**8), "Escaped", 8)
    h2 = local_height(car3, w, R(F3, "1/t"))
    assert h2.is_exact and h2.value == Fraction(1, 9)
    # an orbit cut off by DEGREE_CAP still gets a sound interval: at the
    # tie of 2 t^2 + tau, where the iterates decide, the next iterate of
    # 1/t would pass the cap at step 9, before any escape
    tie = make_module(F3, "2*t^2", "1")
    h3 = local_height(tie, w, R(F3, "1/t"))
    assert _fields(h3) == (0, Fraction(1, 19683), "IterationBudgetExhausted",
                           9)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_carlitz_inverse_powers_in_closed_form(p):
    # at v_inf, v(1/t^k) = k and g(k) = min(k - 1, q k): the valuation
    # falls by one a step, below lambda = -1/(q-1) at step k + 1 when q > 2,
    # so hhat = 1/q^(k+1); over F_2, lambda = -1 and the ball v >= -1 is
    # phi_t-stable, so the height is 0 at step 0 (1 is torsion there)
    # the walk takes each run of index 0 in one step: it must end where
    # the walk of one step of g at a time ends
    field = finite_field(p)
    mod = make_module(field, "t", "1")
    v = InfinitePlace(field)
    for k in list(range(21)) + [20000, 100000]:
        x = R(field, "1/t^%d" % k)
        h = local_height(mod, v, x)
        assert _step_walk(mod, v, x) == (-1, k + 1), k
        if p > 2:
            value = Fraction(1, p**(k + 1))
            assert _fields(h) == (value, value, "Escaped", k + 1), k
        elif k:
            # the tie at v = -1 cancels, ac(a_0) + ac(a_1) = 1 + 1 = 0
            assert _fields(h) == (0, 0, "GoodReductionIntegral", 0), k


def _step_walk(module, place, x):
    """(v(y_n), n) where the walk of one step of the valuation law g at a
    time leaves [lambda, +inf), meets a tie or reaches g(v) >= v."""
    rd = module.reduction_data(place)
    val, n = place.valuation(x), 0
    while val >= rd.lam:
        g, ids = rd.valuation_law(val)
        if len(ids) > 1 or g >= val:
            break
        val, n = g, n + 1
    return val, n


def _iterate_oracle(module, place, x, index=1, steps=8):
    """(hhat_v(x), step) off the global iterates, built without DEGREE_CAP,
    for an orbit that escapes within `steps` steps."""
    lam = module.reduction_data(place).lam
    y = x
    for n in range(steps + 1):
        val = place.valuation(y)
        if val < lam:
            return (Fraction(place.degree, index)
                    * Fraction(-val, module.q**(module.r * n)), n)
        y = module.phi_t(y)
    raise AssertionError("no escape within %d steps" % steps)


def _laurent_oracle(module, x, steps, below=40):
    """v_inf(phi_t^n(x)) for n <= steps, for x and a_i Laurent polynomials
    in t, off phi_t on Laurent polynomials cut below an exponent.  A term
    t^j cut off (j < cut) reaches only exponents below the next cut,
    max_i (deg a_i + q^i (cut - 1)) + 1, so every exponent kept is exact,
    and no iterate is built in full.  Each coefficient lies in F_q, so
    y^(q^i) only spreads the exponents of y."""
    field, q = module.field, module.q

    def laurent(y):
        assert y.den == Poly.x(field)**y.den.degree
        return {j - y.den.degree: c for j, c in enumerate(y.num.coeffs) if c}
    coeffs = [laurent(a) for a in module.coeffs]
    y = laurent(x)
    cut, vals = max(y) - below, []
    for _ in range(steps + 1):
        vals.append(-max(y))
        image = {}
        for i, a in enumerate(coeffs):
            for ja, ca in a.items():
                for jy, cy in y.items():
                    j = ja + q**i * jy
                    image[j] = field.add(image.get(j, 0), field.mul(ca, cy))
        cut = max(max(a) + q**i * (cut - 1)
                  for i, a in enumerate(coeffs) if a) + 1
        y = {j: c for j, c in image.items() if c and j >= cut}
    return vals


# ((p, k), coefficients, level, point, hhat at v_inf, step): each walk meets
# a tie whose leading terms do not cancel; at the F_3 and F_5 points the
# walk of the iterates meets DEGREE_CAP first
_TIE_CASES = [
    ((3, 1), ("t", "1/t", "t+1", "1"), 0, "1/t^2", Fraction(1, 3**9), 3),
    ((3, 1), ("t", "1/t", "t+1", "1"), 0, "1/t^7", Fraction(1, 3**24), 8),
    ((2, 2), ("2*t^3", "1"), 0, "1/t^8", Fraction(1, 4**3), 4),
    ((3, 2), ("3*t^8", "1"), 0, "1/t^15", Fraction(1, 9**2), 3),
    ((5, 1), ("t", "3*t+4", "0", "1"), 1, "1/u^5", Fraction(1, 5**6), 2),
    ((3, 1), ("t", "1/t", "t+1", "1"), 1, "1/u^6", Fraction(1, 3**9), 3),
]


@pytest.mark.parametrize("pk, coeffs, n, point, value, step", _TIE_CASES,
                         ids=["%s-level%d" % (c[3], c[2]) for c in _TIE_CASES])
def test_non_cancelling_ties_match_iterates(pk, coeffs, n, point, value,
                                            step):
    # past a tie, v(y_(n+1)) = g and ac(y_(n+1)) is the leading residue
    field = finite_field(*pk)
    psi = insep_level(make_module(field, *coeffs), n)
    v, x = InfinitePlace(field), R(field, point, "u" if n else "t")
    h = local_height(psi, v, x)
    assert _fields(h) == (value, value, "Escaped", step)
    assert _agrees(h, walk_oracle(psi, v, x, psi.index))
    vals = _laurent_oracle(psi, x, step)
    lam = psi.reduction_data(v).lam
    assert min(vals[:-1]) >= lam > vals[-1]
    assert value == Fraction(-vals[-1], psi.index * psi.q**(psi.r * step))
    if step < 8:  # the iterates of 1/t^7 pass degree 10^10 by step 7
        assert _iterate_oracle(psi, v, x, psi.index) == (value, step)


# (p, coefficients, P, point): ties at v[P], deg P = 2, where whether the
# leading terms cancel depends on ac(y) in F_(q^2), not only on the ac(a_i)
_RESIDUE_CASES = [
    # ac(x) = i with i^2 = -1: ac(a_0) i + i^3 = 0, a cancellation
    (3, ("1/(t^2+1)^2", "1"), "t^2+1", "t/(t^2+1)"),
    (3, ("1/(t^2+1)^2", "1"), "t^2+1", "1/(t^2+1)"),
    # two steps of index 0 map ac(x) = 1 + i to ac(a_0)^2 (1 + i), where
    # the tie cancels
    (3, ("t/(t^2+1)^2", "1"), "t^2+1", "(t+1)*(t^2+1)^3"),
    (3, ("t/(t^2+1)^2", "1"), "t^2+1", "(t^2+1)^3"),
    # two ties: the residue 1 of the first one cancels the second
    (2, ("1/(t^2+t+1)^3", "1/(t^2+t+1)^4", "1"), "t^2+t+1", "t*(t^2+t+1)"),
]


@pytest.mark.parametrize("p, coeffs, P, point", _RESIDUE_CASES,
                         ids=[c[3] for c in _RESIDUE_CASES])
def test_ties_at_a_place_of_degree_two_match_iterates(p, coeffs, P, point):
    field = finite_field(p)
    mod = make_module(field, *coeffs)
    v, x = FinitePlace(parse_poly(field, P)), R(field, point)
    h = local_height(mod, v, x)
    want = walk_oracle(mod, v, x)
    assert want.is_exact and _fields(h) == _fields(want), (h, want)
    assert _iterate_oracle(mod, v, x) == (h.value, h.step)


def test_tie_past_the_residue_field_cap_walks_the_iterates(F3):
    # psi_t = -1/P^2 + tau ties at v = -1 at P, the degree-20 factor of
    # t^100+t+2, whose residue field (3^20 elements) is past gf.ORDER_CAP:
    # no leading residue is read there, and the iterates decide
    P = ("t^20+t^18+2*t^17+t^13+2*t^12+2*t^11+t^10+t^9+t^7+2*t^5+t^4+2*t^3"
         "+2*t^2+t+2")
    mod = make_module(F3, "2/(%s)^2" % P, "1")
    v = FinitePlace(parse_poly(F3, P))
    for point, want in (("1/(%s)" % P, (0, 0, "TorsionCertified", None)),
                        ("t/(%s)" % P, (20, 20, "Escaped", 1))):
        x = R(F3, point)
        assert _fields(local_height(mod, v, x)) == want
        assert _fields(walk_oracle(mod, v, x)) == want


def test_height_value_arithmetic():
    a = HeightValue.exact(Fraction(1, 3), "Escaped", 1)
    b = HeightValue(0, Fraction(1, 8), "IterationBudgetExhausted")
    s = a + b
    assert s.lo == Fraction(1, 3) and s.hi == Fraction(1, 3) + Fraction(1, 8)
    assert not s.is_exact
    with pytest.raises(Exception):
        s.value
    # an internal guard, not an input error
    with pytest.raises(AssertionError):
        HeightValue(1, 0, "bad")
    # a float bound is an int / int division somewhere
    with pytest.raises(AssertionError):
        HeightValue(0.5, 0.5, "bad")


def test_height_value_hashes_like_what_it_equals():
    # an exact value equals its number, so sets and dicts find it by either;
    # an interval equals only an interval with the same ends
    third = Fraction(1, 3)
    exact = HeightValue.exact(third, "Escaped", 1)
    zero = HeightValue.exact(0, "GoodReductionIntegral", 0)
    interval = HeightValue(0, third, "IterationBudgetExhausted", 2)
    assert exact == third and hash(exact) == hash(third)
    assert third in {exact} and exact in {third}
    assert {exact: "h"}[third] == "h" and {third: "x"}[exact] == "x"
    for number in (0, Fraction(0)):
        assert number in {zero} and zero in {number}
        assert {zero: "h"}[number] == "h" and {number: "x"}[zero] == "x"
    same = HeightValue(0, third, "Sum")
    assert interval == same and hash(interval) == hash(same)
    assert same in {interval} and {interval: "h"}[same] == "h"
    assert interval not in {0, third, exact}


def test_iterate_height_bound(F2, F3, F5):
    # over the denominator lcm(den a_i) den(y)^(q^r), h(phi_t(y)) is at most
    # q^r h(y) + sum h(a_i), the margin next_iterate_fits leaves past the
    # cap; the largest h(a_i) alone is not enough: here h(phi_t(1)) = 2
    def past_max(mod, y):
        """Check the sum bound; does the iterate pass q^r h(y) + max h(a_i)?"""
        h, base = mod.phi_t(y).weil_height(), mod.q**mod.r * y.weil_height()
        heights = [a.weil_height() for a in mod.coeffs]
        assert h <= base + sum(heights), (mod, y)
        return h > base + max(heights)

    assert past_max(make_module(F3, "1/(t+1)", "1/t", "1"), RatFunc.one(F3))
    rng = random.Random(3000)
    passed = 0
    for field in (F2, F3, F5, finite_field(2, 2), finite_field(3, 2)):
        for _ in range(100):
            coeffs = [rand_ratfunc(rng, field, 2)
                      for _ in range(rng.randint(1, 2))]
            coeffs.append(rand_nonzero_ratfunc(rng, field, 2))
            passed += past_max(DrinfeldModule(field, coeffs),
                               rand_ratfunc(rng, field, 3))
    assert passed > 0  # the pool meets the case the old text missed


def _certificate_fields(cert):
    return (cert.kind, cert.annihilator, cert.place, cert.local, cert.bound)


def test_check_t2mwg_reuses_breakdown(psi2, car3, tau2, F2, F3):
    # a given breakdown must give the certificate check_t2mwg finds alone
    rng = random.Random(41)
    for mod, field in ((psi2, F2), (car3, F3), (tau2, F2)):
        for _ in range(15):
            num = Poly(field, [rng.randrange(field.order) for _ in range(rng.randint(1, 5))])
            den = Poly(field, [rng.randrange(field.order) for _ in range(rng.randint(1, 4))])
            if num.is_zero() or den.is_zero():
                continue
            x = RatFunc(num, den)
            parts = global_height_breakdown(mod, x)
            try:
                alone = _certificate_fields(check_t2mwg(mod, x))
            except Exception as exc:
                with pytest.raises(type(exc)):
                    check_t2mwg(mod, x, parts=parts)
                continue
            assert _certificate_fields(check_t2mwg(mod, x, parts=parts)) == alone
            if mod is tau2 and alone[0] == "witness":
                # S empty: the first pole v carries hhat_v(x) = -v(x) d(v)
                v, m = next((v, m) for v, m in support(x) if m < 0)
                assert alone[2:] == (v, -m * v.degree, v.degree)


def walk_oracle(module, place, x, index=1):
    """local_height as it was before the closed form outside S: the walk at
    every place, reading the reduction data even where it is good."""
    module._require_monic()
    degree = Fraction(place.degree, index)
    rd = module.reduction_data(place)
    lam = min(Fraction(0), rd.M)
    q, r = module.q, module.r
    if rd.in_S and annihilator_of(module, x) is not None:
        return HeightValue.exact(Fraction(0), "TorsionCertified")
    floor = rd.stable_floor
    y, n = x, 0
    while True:
        val = place.valuation(y)
        if floor is not None and val >= floor:
            return HeightValue.exact(Fraction(0), "GoodReductionIntegral", n)
        if val < lam:
            return HeightValue.exact(degree * Fraction(-val, q**(r * n)),
                                     "Escaped", n)
        if y.weil_height() * q**r > DEGREE_CAP:
            break
        y = module.phi_t(y)
        n += 1
    return HeightValue(Fraction(0), degree * Fraction(-lam) / q**(r * n),
                       "IterationBudgetExhausted", n)


def breakdown_oracle(module, x, index=1):
    """The walk at S and at every pole of x, the whole denominator factored."""
    at = set(module.bad_reduction_set()) | {v for v, _ in poles(x)}
    return [(v, walk_oracle(module, v, x, index))
            for v in sorted(at, key=lambda v: v.sort_key())]


def _fields(h):
    return (h.lo, h.hi, h.certificate, h.step)


def _agrees(h, want):
    """h is the oracle's answer `want`, or an exact value inside want's
    interval: the valuation walk needs no budget where the iterates did."""
    if _fields(h) == _fields(want):
        return True
    return not want.is_exact and h.is_exact and want.lo <= h.lo <= want.hi


def _oracle_pool():
    # over F_9 rank 1 only: a rank-2 walk over F_9 runs the schoolbook
    # F_9[x] kernel up to DEGREE_CAP and takes about a minute
    F4, F9 = finite_field(2, 2), finite_field(3, 2)
    return [mod for _, mod in module_pool()] + [
        make_module(F4, "t", "1"),
        make_module(F4, "3*t^2+t", "(2*t+1)/(t^2+3)", "1"),
        make_module(F9, "t", "1"),
        make_module(F9, "5*t+7/(t^2+4)", "1")]


def _oracle_points(rng, module):
    """Seeded points, with poles at places of S and outside it."""
    field = module.field
    S = module.bad_reduction_set()
    # 1/t^7: where the walk of the iterates meets DEGREE_CAP at v_inf for
    # Carlitz and others, the valuation walk escapes
    pts = [RatFunc.zero(field), RatFunc.one(field),
           RatFunc(Poly.one(field), Poly.x(field)**7)]
    pts += [rand_ratfunc(rng, field, 2) for _ in range(5)]
    for v in S:
        if isinstance(v, FinitePlace):
            # a double pole at v, a pole at t+1, and v_inf(x) = 0, which
            # keeps a walk at infinity short
            den = v.P * v.P * (Poly.x(field) + Poly.one(field))
            num = Poly(field, [rng.randrange(field.order)
                               for _ in range(den.degree)] + [1])
            pts.append(RatFunc(num, den))
    return pts


def _oracle_places(module, x):
    """S, the poles of x, a zero of x, one place of degree <= 2 where x is
    a unit, and infinity."""
    field = module.field
    at = set(module.bad_reduction_set()) | {v for v, _ in poles(x)}
    at.add(InfinitePlace(field))
    if not x.is_zero() and x.num.degree > 0:
        at.add(FinitePlace(factor(x.num)[1][0][0]))
    for d in (1, 2):
        P = next((P for P in irreducible_monics(field, d)
                  if x.is_zero() or (ord_at(x.num, P) == 0
                                     and ord_at(x.den, P) == 0)), None)
        if P is not None:
            at.add(FinitePlace(P))
            break
    return sorted(at, key=lambda v: v.sort_key())


@pytest.mark.parametrize("n", [0, 1, 2])
def test_closed_form_matches_walk_oracle(n):
    # at index p^n, through the pushed module of the level; an escape read
    # off the valuation walk takes at most v(x) - ceil(lambda) + 1 steps
    rng = random.Random(2500 + n)
    decided = 0
    for mod in _oracle_pool():
        psi = insep_level(mod, n)
        index = psi.index
        assert index == psi.field.char**n
        S = psi.bad_reduction_set()
        for x in _oracle_points(rng, psi):
            for v in _oracle_places(psi, x):
                h = local_height(psi, v, x)
                want = walk_oracle(psi, v, x, index)
                assert _agrees(h, want), (psi, v, x)
                decided += h.is_exact and not want.is_exact
                if v not in S and index == 1:
                    assert type(h.lo) is int
                if v in S and h.certificate == "Escaped":
                    lam = psi.reduction_data(v).lam
                    assert h.step <= max(0, v.valuation(x) - math.ceil(lam)
                                         + 1), (psi, v, x)
            parts = global_height_breakdown(psi, x)
            want = breakdown_oracle(psi, x, index)
            assert [v for v, _ in parts] == [v for v, _ in want]
            assert all(_agrees(h, w) for (_, h), (_, w) in zip(parts, want)), \
                (psi, x)
            total = global_height(psi, x)
            assert _fields(total) == _fields(height_sum(parts)), (psi, x)
            assert _agrees(total, height_sum(want)), (psi, x)
            for h in (total, height_sum(parts)):
                assert type(h.lo) is Fraction and type(h.hi) is Fraction
            assert _fields(global_height(insep_level(mod, n), x)) == \
                _fields(total)
    # 1/t^7 at level 0: the oracle's budget ends walks that escape later
    assert (decided > 0) == (n == 0)


def t2mwg_oracle(module, x, parts):
    """check_t2mwg as it was before the witness scan came first: the S-empty
    branch, then the torsion decision, then the witness scan, on `parts`,
    the oracle breakdown.  Each d(v) is over module.index, as in the local
    heights.  The certificate's fields, or the name of the error."""
    module._require_monic()
    S = module.bad_reduction_set()
    if not S:
        if x.is_constant():
            return ("constant", None, None, None, None)
        v, h = parts[0]
        return ("witness", None, v, h.value,
                Fraction(v.degree, module.index))
    b = annihilator_of(module, x)
    if b is not None:
        return ("torsion", b, None, None, None)
    sharp = lehmer_bounds(module).sharp
    exhausted = False
    for v, h in parts:
        if not h.is_exact:
            exhausted = True
            continue
        bound = sharp * Fraction(v.degree, module.index)
        if h.value > bound:
            return ("witness", None, v, h.value, bound)
    assert exhausted, "height gap theorem violated"
    return "BudgetExhaustedError"


def _t2_outcome(module, x, parts=None):
    try:
        return _certificate_fields(check_t2mwg(module, x, parts=parts))
    except BudgetExhaustedError:
        return "BudgetExhaustedError"


def _order_cases(n, rng):
    """(pushed module, point) at level n: seeded pool points, the torsion
    points of Carlitz q = 2 and of psi_t = 2 t^2 + tau over F_3 (T(K) =
    F_3 t), the bounded orbits 1/t, 1/(t+1), t/(t+1) of Carlitz q = 2,
    the last two pushed to u, and 1/t of psi, whose walk meets a tie at
    v_inf and then DEGREE_CAP."""
    F2, F3 = finite_field(2), finite_field(3)
    for mod in _oracle_pool():
        psi = insep_level(mod, n)
        for x in _oracle_points(rng, psi):
            yield psi, x
    for mod in (make_module(F2, "t", "1"), make_module(F3, "2*t^2", "1")):
        index = mod.field.char**n
        psi = insep_level(mod, n)
        points = [x.spread(index) for x in torsion_enumerate(mod)]
        if mod.field is F2:
            points += [R(F2, s).spread(index)
                       for s in ("1/t", "1/(t+1)", "t/(t+1)")]
        else:
            points.append(R(F3, "1/t").spread(index))
        for x in points:
            yield psi, x


@pytest.mark.parametrize("n", [0, 1, 2])
def test_certificate_order_matches_oracles(n):
    # step-0 escapes before the torsion decision, and the witness scan
    # before it in check_t2mwg, give the oracles' answers and certificates
    rng = random.Random(2800 + n)
    kinds = set()
    for psi, x in _order_cases(n, rng):
        want = breakdown_oracle(psi, x, psi.index)
        parts = global_height_breakdown(psi, x)
        assert [v for v, _ in parts] == [v for v, _ in want]
        assert all(_agrees(h, w) for (_, h), (_, w) in zip(parts, want)), \
            (psi, x)
        outcome = t2mwg_oracle(psi, x, parts)
        assert _t2_outcome(psi, x) == outcome, (psi, x)
        assert _t2_outcome(psi, x, parts) == outcome, (psi, x)
        kinds.add(outcome[0] if isinstance(outcome, tuple) else outcome)
        kinds.update(h.certificate for _, h in parts)
    # at n > 0 no case lands in a stable ball at a place of S
    assert kinds >= {"constant", "torsion", "witness", "Escaped",
                     "TorsionCertified", "IterationBudgetExhausted"}
    assert ("GoodReductionIntegral" in kinds) == (n == 0)


def test_interval_without_witness_raises_like_the_oracle(F3):
    # 1/t on 2 t^2 + tau meets a tie at v_inf and then DEGREE_CAP; given
    # only that part, no witness is certified and x is not torsion
    mod = make_module(F3, "2*t^2", "1")
    x = R(F3, "1/t")
    v = InfinitePlace(F3)
    h = local_height(mod, v, x)
    assert _fields(h) == _fields(walk_oracle(mod, v, x))
    assert h.certificate == "IterationBudgetExhausted"
    with pytest.raises(BudgetExhaustedError):
        check_t2mwg(mod, x, parts=[(v, h)])
    # with every part, the pole at v[t] is the witness
    assert _t2_outcome(mod, x) == \
        t2mwg_oracle(mod, x, breakdown_oracle(mod, x))
    assert _t2_outcome(mod, x)[2] == FinitePlace(parse_poly(F3, "t"))


def test_escaping_height_job_builds_no_torsion_data(monkeypatch, F2, F3,
                                                    psi2):
    # the point escapes at step 0 at both places of S: each local height
    # there is read off v(x), and the witness needs no torsion decision
    from drinheights import cli, drinfeld, heights, torsion
    seen = []
    lattice_init = torsion.TorsionLattice.__init__

    def spy_lattice(self, module):
        seen.append("TorsionLattice")
        lattice_init(self, module)

    def spy_annihilator(module, x):
        seen.append("annihilator_of")
        return annihilator_of(module, x)

    floor = drinfeld.ReductionData.stable_floor.func

    def spy_floor(self):
        seen.append("stable_floor")
        return floor(self)
    monkeypatch.setattr(torsion.TorsionLattice, "__init__", spy_lattice)
    for namespace in (heights, cli, torsion):
        monkeypatch.setattr(namespace, "annihilator_of", spy_annihilator)
    monkeypatch.setattr(drinfeld.ReductionData, "stable_floor",
                        property(spy_floor))
    job = ('{"field": {"p": 3}, "module": {"coefficients": '
           '["t", "1/(t^2+1)", "1"]}, "point": "t^6/(t^2+1)^2"}')
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(job))
    assert cli.main(["height", "-", "--json"]) == 0
    assert seen == []
    # so does 1/(t^2+1), which escapes at step 3 at v_inf by the valuation
    # walk.  On Carlitz over F_2 the walk of 1/t^3 at v_inf runs down to
    # the tie at v = -1, which cancels; the torsion decision and the floor
    # v >= -1 then decide, at step 0, which reads all three
    mod = make_module(F3, "t", "1/(t^2+1)", "1")
    assert global_height(mod, R(F3, "1/(t^2+1)")).is_exact
    assert seen == []
    h = local_height(psi2, InfinitePlace(F2), R(F2, "1/t^3"))
    assert _fields(h) == (0, 0, "GoodReductionIntegral", 0)
    assert {"TorsionLattice", "annihilator_of", "stable_floor"} <= set(seen)


def test_law_stable_stop_builds_no_floor(monkeypatch, F3):
    # at v[t^2+1], t^2+1 has v = 1 and g(1) = min(0 + 1, -1 + 3, 0 + 9) = 1:
    # the walk has proved the ball v >= 1 stable, so after the torsion
    # decision the height is 0 at step 0 with no stable floor built
    from drinheights import drinfeld, heights
    seen = []
    floor = drinfeld.ReductionData.stable_floor.func

    def spy_annihilator(module, x):
        seen.append("annihilator_of")
        return annihilator_of(module, x)

    def spy_floor(self):
        seen.append("stable_floor")
        return floor(self)
    monkeypatch.setattr(heights, "annihilator_of", spy_annihilator)
    monkeypatch.setattr(drinfeld.ReductionData, "stable_floor",
                        property(spy_floor))
    mod = make_module(F3, "t", "1/(t^2+1)", "1")
    v = FinitePlace(parse_poly(F3, "t^2+1"))
    h = local_height(mod, v, R(F3, "t^2+1"))
    assert _fields(h) == (0, 0, "GoodReductionIntegral", 0)
    assert seen == ["annihilator_of"]


def psi_module(field, g):
    """psi_t = -g^(q-1) + tau: S = {v_inf}, M = -deg g and T(K) = F_q g."""
    a0 = -RatFunc.from_poly(g)**(field.order - 1)
    return DrinfeldModule(field, [a0, RatFunc.one(field)])


# (p, g): every point of degree <= deg g is walked, so deg g stays small
PSI_CASES = [(3, (2, 1, 1)), (5, (1, 0, 1)), (7, (3, 1))]


@pytest.mark.parametrize("p, g", PSI_CASES)
def test_step_ahead_escapes_match_walk_oracle(p, g):
    # at v_inf, v(x) = -k >= -deg g = lambda.  For k < deg g one index
    # attains the valuation law, so x escapes at step 1 with the closed
    # form ((q-1) deg g + k)/q, read without building y_1.  At k = deg g
    # the two indices tie and the walk decides: c g is torsion (phi_t
    # cancels it), and c g + h escapes at step 1 through the walk
    field = finite_field(p)
    mod = psi_module(field, Poly(field, g))
    d = len(g) - 1
    v = InfinitePlace(field)
    seen = set()
    for c in itertools.product(range(p), repeat=d + 1):
        x = RatFunc.from_poly(Poly(field, c))
        h = local_height(mod, v, x)
        assert _fields(h) == _fields(walk_oracle(mod, v, x)), x
        k = x.num.degree
        if 0 <= k < d:
            value = Fraction((p - 1) * d + k, p)
            assert _fields(h) == (value, value, "Escaped", 1), x
        seen.add((h.certificate, h.step, k == d))
    assert seen == {("Escaped", 1, False), ("Escaped", 1, True),
                    ("TorsionCertified", None, True),
                    ("TorsionCertified", None, False)}


def test_escape_past_the_budget_is_exact(F3):
    # at v[t^2+1], t^7000 has v = 0 and the law reads v(y_1) = v(a_1) = -1
    # below lambda = -1/6, although h(x) q^r passes DEGREE_CAP, where the
    # walk of the iterates gives the interval [0, 1/3] at step 0
    mod = make_module(F3, "t", "1/(t^2+1)", "1")
    v = FinitePlace(parse_poly(F3, "t^2+1"))
    x = R(F3, "t^7000")
    h = local_height(mod, v, x)
    assert _fields(h) == (Fraction(2, 9), Fraction(2, 9), "Escaped", 1)
    want = walk_oracle(mod, v, x)
    assert (want.lo, want.hi, want.step) == (0, Fraction(1, 3), 0)
    # over F_9, whose iterates grow until DEGREE_CAP in schoolbook F_9[x]
    # arithmetic: 1/9^6 at step 3 at v_inf, read in well under a second
    F9 = finite_field(3, 2)
    mod = make_module(F9, "t", "1/(t^3+t+2)", "1")
    start = time.perf_counter()
    h = local_height(mod, InfinitePlace(F9), R(F9, "(2*t+8)/(t^3+1)"))
    assert time.perf_counter() - start < 1
    assert _fields(h) == (Fraction(1, 9**6), Fraction(1, 9**6), "Escaped", 3)


def test_non_torsion_psi_point_builds_nothing(monkeypatch):
    # is_torsion at a psi point of degree < deg g: the witness at v_inf is
    # read off the valuation law, so no pole lattice is built, no stable
    # floor is read and phi_t is never evaluated
    from drinheights import drinfeld, skew, torsion
    seen = []
    lattice_init = torsion.TorsionLattice.__init__
    floor = drinfeld.ReductionData.stable_floor.func
    call = skew.SkewPoly.__call__

    def spy_lattice(self, module):
        seen.append("TorsionLattice")
        lattice_init(self, module)

    def spy_floor(self):
        seen.append("stable_floor")
        return floor(self)

    def spy_call(self, y):
        seen.append("phi_t")
        return call(self, y)
    monkeypatch.setattr(torsion.TorsionLattice, "__init__", spy_lattice)
    monkeypatch.setattr(drinfeld.ReductionData, "stable_floor",
                        property(spy_floor))
    monkeypatch.setattr(skew.SkewPoly, "__call__", spy_call)
    F5 = finite_field(5)
    mod = psi_module(F5, parse_poly(F5, "t^2+1"))
    cert = torsion.is_torsion(mod, R(F5, "3*t+1"))
    assert not cert.torsion
    assert (cert.witness.place, cert.witness.local) == \
        (InfinitePlace(F5), Fraction(4 * 2 + 1, 5))
    assert seen == []


def test_total_of_a_long_denominator_factors_nothing():
    # at 1/(t^2000+t+2) the good pole carries 2000, read off the degree of
    # the denominator: no factoring (cubic in the degree); at v_inf in S
    # the valuation 2000 falls by one a step and escapes at step 2001
    code = ("import time\n"
            "from drinheights import DrinfeldModule, finite_field, "
            "global_height, parse_ratfunc\n"
            "F3 = finite_field(3)\n"
            "mod = DrinfeldModule(F3, [parse_ratfunc(F3, 't'), "
            "parse_ratfunc(F3, '1')])\n"
            "x = parse_ratfunc(F3, '1/(t^2000+t+2)')\n"
            "start = time.perf_counter()\n"
            "h = global_height(mod, x)\n"
            "print(time.perf_counter() - start, h.lo, h.hi)\n")
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout
    seconds, lo, hi = out.split()
    assert lo == hi == str(2000 + Fraction(1, 3**2001))
    assert float(seconds) < 2


# (coefficients, P, point, value, step, evaluations) over F_2: a tie at
# v[P] whose leading terms cancel, after which the walk builds the iterates
# up to the cancelled step plus one and goes on by the valuation law
_CANCELLED_CASES = [
    # v(x) = 0, index 0 to v = -2, where indices 0 and 1 tie and cancel:
    # y_1 and y_2 are built, v(y_2) = -1, and index 0 escapes at step 3
    (("1/(t^5+t^4+t^3+1)", "1"), "t+1", "1/t^2", Fraction(3, 8), 3, 2),
    # the tie at v(x) = -1 cancels: y_1 is built, v(y_1) = -1 ties again,
    # and ac(y_1) decides that it does not cancel: v(y_2) = -4 escapes
    (("t", "1/(t^4+t^2+1)", "1"), "t^2+t+1", "1/(t^2+t+1)",
     Fraction(1, 2), 2, 1),
]


@pytest.mark.parametrize("coeffs, P, point, value, step, evaluations",
                         _CANCELLED_CASES,
                         ids=[c[2] for c in _CANCELLED_CASES])
def test_iterates_are_built_only_up_to_the_cancelled_step(
        monkeypatch, F2, coeffs, P, point, value, step, evaluations):
    from drinheights import skew
    mod = make_module(F2, *coeffs)
    v, x = FinitePlace(parse_poly(F2, P)), R(F2, point)
    # the torsion decision and the floor evaluate phi_t too: warm them
    assert annihilator_of(mod, x) is None
    mod.reduction_data(v).stable_floor
    calls = []
    call = skew.SkewPoly.__call__

    def spy_call(self, y):
        calls.append(y)
        return call(self, y)
    monkeypatch.setattr(skew.SkewPoly, "__call__", spy_call)
    h = local_height(mod, v, x)
    assert _fields(h) == (value, value, "Escaped", step)
    assert len(calls) == evaluations


# (p, k, coefficients, point, level, P or None for v_inf, value or None
# for an interval, certificate, step): at that level every case meets a
# cancellation at v[P]
_AFTER_CANCELLATION = [
    (2, 1, ("1/(t^5+t^4+t^3+1)", "1"), "1/t^2", 0, "t+1", Fraction(3, 8),
     "Escaped", 3),
    (2, 1, ("t", "1/(t^4+t^2+1)", "1"), "1/(t^2+t+1)", 0, "t^2+t+1",
     Fraction(1, 2), "Escaped", 2),
    (2, 1, ("t^2+1", "1"), "(t+1)/t", 0, None, Fraction(3, 4), "Escaped", 2),
    # the run of index 0 from v(x) = 3 ends in a tie at v = -1 that
    # cancels; v(x) lies in the stable ball v >= -1: the floor at step 0
    (2, 1, ("t", "1"), "1/t^3", 0, None, 0, "GoodReductionIntegral", 0),
    # six cancellations, and DEGREE_CAP ends the walk at step 13
    (2, 1, ("t^2+1", "1"), "1/t^2", 0, None, None,
     "IterationBudgetExhausted", 13),
    # at level 1, v[u] with v(a_i) = (2, -4, 0) and floor 4: the orbit of
    # u^2+u (v = 1) enters the floor's ball at y_2, built after a
    # cancellation
    (2, 1, ("t", "1/(t^6+t^4+t^2)", "1"), "t^2+t", 1, "t", 0,
     "GoodReductionIntegral", 2),
    # over F_9 at a place of degree 2: ac(a_0) ac(x) + ac(x)^9 = 0 holds
    # for ac(x) = t mod P in F_81, not for every unit
    (3, 2, ("2*t^8/(t^2+t+3)^8", "1"), "1+t/(t^2+t+3)", 0, "t^2+t+3",
     Fraction(16, 9), "Escaped", 1),
]


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize(
    "p, k, coeffs, point, level, P, value, cert, step", _AFTER_CANCELLATION,
    ids=["%d^%d-%s-%s" % (c[0], c[1], c[2][0], c[3])
         for c in _AFTER_CANCELLATION])
def test_answers_after_a_cancellation_match_walk_oracle(
        n, p, k, coeffs, point, level, P, value, cert, step):
    field = finite_field(p, k)
    psi = insep_level(make_module(field, *coeffs), n)
    x = R(field, point.replace("t", "u") if n else point, "u" if n else "t")
    if n == level:
        v = FinitePlace(parse_poly(field, P)) if P else InfinitePlace(field)
        h = local_height(psi, v, x)
        assert (h.certificate, h.step) == (cert, step)
        assert h.value == value if value is not None else not h.is_exact
        # the walk met a cancellation: it read the floor
        assert "stable_floor" in vars(psi.reduction_data(v))
    for v in psi.bad_reduction_set():
        h = local_height(psi, v, x)
        assert _fields(h) == _fields(walk_oracle(psi, v, x, psi.index)), \
            (v, h)
