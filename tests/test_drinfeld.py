import random
from fractions import Fraction

import pytest

from conftest import make_module
from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import MonicizeError, NonMonicError
from drinheights.gf import finite_field
from drinheights.places import (INFINITY, FinitePlace, InfinitePlace, support)
from drinheights.ratfunc import (Poly, RatFunc, irreducible_monics, parse_poly,
                                 parse_ratfunc)
from drinheights.skew import SkewPoly


def test_phi_of_one(car3):
    assert car3.phi_of(parse_poly(car3.field, "1")) == SkewPoly.one(car3.field)
    assert car3.phi_of(Poly.zero(car3.field)).is_zero()


def test_phi_of_psi2_example(psi2, F2):
    b = parse_poly(F2, "t^2+t")
    expect = SkewPoly(F2, (parse_ratfunc(F2, "t^2+t"),
                           parse_ratfunc(F2, "t^2+t+1"),
                           RatFunc.one(F2)))
    assert psi2.phi_of(b) == expect


def test_phi_of_carlitz_t2(car3, F3):
    got = car3.phi_of(parse_poly(F3, "t^2"))
    assert got == car3.phi_t * car3.phi_t


def test_act_agrees_with_phi_of(car3, F3):
    rng = random.Random(41)
    for _ in range(20):
        b = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 4))])
        x = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                    Poly(F3, [rng.randrange(3), 1]))
        assert car3.act(b, x) == car3.phi_of(b)(x)


def test_homomorphism_50_pairs(car3, psi2):
    rng = random.Random(42)
    for i in range(50):
        mod = (car3, psi2)[i % 2]
        field = mod.field
        b1 = Poly(field, [rng.randrange(field.order) for _ in range(rng.randint(1, 4))])
        b2 = Poly(field, [rng.randrange(field.order) for _ in range(rng.randint(1, 4))])
        if b1.is_zero() or b2.is_zero():
            continue
        assert mod.phi_of(b1 * b2) == mod.phi_of(b1) * mod.phi_of(b2)
        assert mod.phi_of(b1) * mod.phi_of(b2) == mod.phi_of(b2) * mod.phi_of(b1)


def test_bad_reduction_examples(car3, tau2, F2):
    assert [v.to_string() for v in car3.bad_reduction_set()] == ["v[inf]"]
    assert tau2.bad_reduction_set() == ()
    m = make_module(F2, "1/t", "1")
    assert [v.to_string() for v in m.bad_reduction_set()] == ["v[t]"]


def test_bad_reduction_needs_monic(F3):
    m = make_module(F3, "t", "t")
    with pytest.raises(NonMonicError):
        m.bad_reduction_set()


def test_integrality_spread(car3, psi2, F2):
    """Coefficients of phi_b are integral outside S; leading one is constant."""
    rng = random.Random(43)
    mods = [car3, psi2, make_module(F2, "1/t", "1")]
    for i in range(30):
        mod = mods[i % len(mods)]
        S = set(mod.bad_reduction_set())
        b = Poly(mod.field, [rng.randrange(mod.field.order)
                             for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        phi_b = mod.phi_of(b)
        assert phi_b.coeffs[-1].is_constant()
        for c in phi_b.coeffs:
            if c.is_zero():
                continue
            for v, m in support(c):
                assert m >= 0 or v in S


def test_reduction_data_psi2_at_infinity(psi2, F2):
    rd = psi2.reduction_data(InfinitePlace(F2))
    assert rd.M == -1 and rd.T == 1
    assert rd.P == (Fraction(-1), Fraction(0))
    assert rd.Pp == (Fraction(1),)
    assert rd.Ppp == ()
    assert rd.Q == (Fraction(-1), Fraction(0), Fraction(1))
    for alpha in rd.Q:
        assert [e.val for e in rd.R[alpha]] == [1]
    assert rd.N_phi == 2


def test_reduction_data_carlitz_q3_at_infinity(car3, F3):
    rd = car3.reduction_data(InfinitePlace(F3))
    assert rd.M == Fraction(-1, 2)
    assert rd.P == (Fraction(-1, 2),)
    assert rd.R[Fraction(-1, 2)] == ()  # X^3 + X has no nonzero roots in F_3
    assert rd.N_phi == 1
    # non-integral alpha: the membership test at integer valuations is vacuous
    assert not rd.pair_in(Fraction(-1), InfinitePlace(F3).residue_field.one)


def test_reduction_data_good_place(car3, F3):
    rd = car3.reduction_data(FinitePlace(parse_poly(F3, "t")))
    assert not rd.in_S
    assert rd.M == Fraction(1, 2)  # min v(a_i)/(q^r - q^i) with v_t(t) = 1
    assert rd.P == ()


def test_mv_iff_bad_place(car3, psi2, F3):
    mods = [car3, psi2, make_module(F3, "t", "1/t", "1")]
    for mod in mods:
        S = set(mod.bad_reduction_set())
        places = list(S) + [FinitePlace(parse_poly(mod.field, "t+1")),
                            InfinitePlace(mod.field)]
        for v in places:
            rd = mod.reduction_data(v)
            assert (rd.M < 0) == (v in S)
            if v in S:
                assert rd.T > 0


def test_rank2_reduction_data(F3):
    mod = make_module(F3, "t", "1/t", "1")
    for v in mod.bad_reduction_set():
        rd = mod.reduction_data(v)
        assert len(rd.P) <= rd.N_phi == 2
        assert len(rd.Q) <= 2 * (mod.r + 1)
        for alpha in rd.P:
            assert len(rd.R[alpha]) <= mod.q**mod.r
        for alpha in rd.Q:
            assert len(rd.R[alpha]) < mod.q**(2 * (mod.r + 1))


def test_degree2_bad_place_reduction(F3):
    mod = make_module(F3, "t", "1/(t^2+1)", "1")
    v = FinitePlace(parse_poly(F3, "t^2+1"))
    assert v in mod.bad_reduction_set()
    rd = mod.reduction_data(v)
    assert rd.in_S and rd.T > 0
    # residue-field elements of the degree-2 place live in F_9
    for alpha in rd.Q:
        for e in rd.R[alpha]:
            assert e.field.order == 9


def _random_monic_modules(rng, count):
    """Monic modules of rank 1 to 3 over F_2, F_3 and F_4 whose coefficients
    have poles and zeros at places of small degree, so that P'_v and P''_v
    occur; every residue field has at most 256 elements."""
    out = []
    for field, maxdeg in ((finite_field(2), 3), (finite_field(3), 2),
                          (finite_field(2, 2), 2)):
        irr = [P for d in range(1, maxdeg + 1)
               for P in irreducible_monics(field, d)]
        for _ in range(count // 3):
            coeffs = []
            for _ in range(rng.randint(1, 3)):
                num = Poly(field, [rng.randrange(field.order)
                                   for _ in range(rng.randint(1, 4))])
                if rng.random() < 0.5:
                    num = num * rng.choice(irr)**rng.randint(1, 3)
                den = Poly.one(field)
                for _ in range(rng.randint(0, 2)):
                    den = den * rng.choice(irr)**rng.randint(1, 3)
                coeffs.append(RatFunc(num, den))
            out.append(DrinfeldModule(field, coeffs + [RatFunc.one(field)]))
    return out


def _brute_force_R(mod, v, rd, alpha):
    """R_v(alpha) by trying every X in k_v: X != 0 is kept when its residual
    image sum_{i minimal at alpha} ac(a_i) X^(q^i) lies in targets(alpha),
    which holds 0 when alpha is in P_v or P''_v and R_v(beta) when alpha is
    in P'_v, beta = min_i(v(a_i) + q^i alpha) in P_v; 1 is added at 0."""
    q = mod.q
    cost = {i: val + q**i * alpha for i, val in enumerate(rd.vals)
            if val is not INFINITY}
    beta = min(cost.values())
    image = [(v.angular_component(mod.coeffs[i]), i)
             for i, c in cost.items() if c == beta]
    k_v = v.residue_field
    targets = set()
    if alpha in rd.P or alpha in rd.Ppp:
        targets.add(k_v.zero)
    if alpha in rd.Pp:
        assert beta in rd.P
        targets.update(rd.R[beta])
    out = []
    for X in (k_v.element(c) for c in k_v.elements()):
        if X.val and sum((c * X**(q**i) for c, i in image), k_v.zero) in targets:
            out.append(X)
    if alpha == 0 and k_v.one not in out:
        out.append(k_v.one)
    return tuple(sorted(out, key=lambda e: e.val))


def test_R_matches_brute_force_over_residue_field():
    from drinheights.verify import module_pool
    mods = ([mod for _, mod in module_pool()]
            + _random_monic_modules(random.Random(8), 60))
    seen = {"places": 0, "P'": 0, "P''": 0, "nonempty P'": 0}
    for mod in mods:
        for v in mod.bad_reduction_set():
            assert v.residue_field.order <= 256
            rd = mod.reduction_data(v)
            assert set(rd.R) == set(rd.Q)
            for alpha in rd.Q:
                assert rd.R[alpha] == _brute_force_R(mod, v, rd, alpha), (
                    mod, v, alpha)
            seen["places"] += 1
            seen["P'"] += len(rd.Pp)
            seen["P''"] += len(rd.Ppp)
            seen["nonempty P'"] += sum(1 for a in rd.Pp if rd.R[a])
    assert seen["places"] >= 100 and seen["P''"] >= 3
    assert seen["nonempty P'"] >= 20


def test_l0_dichotomy_fuzz(psi2, car3, F3):
    from drinheights.verify import rand_with_valuation
    rng = random.Random(44)
    mods = [psi2, car3, make_module(F3, "t", "1/t", "1")]
    for i in range(150):
        mod = mods[i % len(mods)]
        for v in mod.bad_reduction_set():
            rd = mod.reduction_data(v)
            x = rand_with_valuation(rng, v, rng.randint(-3, 0))
            vx = v.valuation(x)
            naive = min(rd.vals[j] + mod.q**j * vx
                        for j in range(mod.r + 1)
                        if rd.vals[j] is not INFINITY)
            if v.valuation(mod.phi_t(x)) > naive:
                assert rd.pair_in(Fraction(vx), v.angular_component(x))


def test_monicize_identity(car3):
    mod, gamma = car3.monicize()
    assert mod is car3 and gamma.is_one()


def test_monicize_carlitz_twist(F3):
    # a_1 = t^-(q-1): gamma = t recovers the Carlitz module
    m = make_module(F3, "t", "1/t^2")
    conj, gamma = m.monicize()
    assert gamma == parse_ratfunc(F3, "t")
    assert conj.coeffs == (parse_ratfunc(F3, "t"), RatFunc.one(F3))


def test_monicize_obstruction(F3):
    m = make_module(F3, "t", "t")
    with pytest.raises(MonicizeError):
        m.monicize()


def test_monicize_preserves_heights(F3):
    from drinheights.heights import global_height
    m = make_module(F3, "t", "1/t^2")
    conj, gamma = m.monicize()
    # hhat_phi(x) = hhat_conj(x / gamma)
    for s in ("1", "t", "t+1", "(t^2+1)/t"):
        x = parse_ratfunc(F3, s)
        h = global_height(conj, x / gamma)
        h2 = global_height(conj, x / gamma)
        assert h == h2  # determinism; conj is the reference monic model


def test_modular_trdeg_examples(car3, tau2, F3):
    assert car3.modular_trdeg() == 1
    assert tau2.modular_trdeg() == 0
    # Carlitz conjugated by gamma = t (non-monic): same answer
    conj = make_module(F3, "t", "t^2")
    assert conj.modular_trdeg() == 1


def test_modular_trdeg_conjugation_invariance(F3):
    rng = random.Random(45)
    base_mods = [make_module(F3, "t", "1"),
                 make_module(F3, "1", "0", "1"),
                 make_module(F3, "t", "t", "1")]
    gammas = [parse_ratfunc(F3, s) for s in ("t", "t+1", "1/t", "t^2+1", "2")]
    for mod in base_mods:
        expected = mod.modular_trdeg()
        for gamma in gammas:
            coeffs = [a * gamma**(mod.q**i - 1)
                      for i, a in enumerate(mod.coeffs)]
            conj = DrinfeldModule(F3, coeffs)
            assert conj.modular_trdeg() == expected


def test_module_validation(F3):
    with pytest.raises(ValueError):
        DrinfeldModule(F3, [parse_ratfunc(F3, "t")])  # no tau part
    with pytest.raises(ValueError):
        DrinfeldModule(F3, [parse_ratfunc(F3, "t"), RatFunc.zero(F3)])


def test_bad_reduction_set_is_the_poles():
    """S is the set of places where some coefficient has a pole (support)."""
    rng = random.Random(61)
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        F = finite_field(p, k)
        for _ in range(20):
            num = Poly(F, [rng.randrange(F.order) for _ in range(rng.randint(1, 6))])
            den = Poly(F, [rng.randrange(F.order) for _ in range(rng.randint(1, 5))])
            if num.is_zero() or den.is_zero():
                continue
            coeffs = [RatFunc(num, den), RatFunc.one(F)]
            if rng.random() < 0.5:
                coeffs.insert(1, RatFunc(den, num))
            mod = DrinfeldModule(F, coeffs)
            want = {v for a in coeffs if not a.is_zero()
                    for v, m in support(a) if m < 0}
            got = mod.bad_reduction_set()
            assert set(got) == want
            assert list(got) == sorted(want, key=lambda v: v.sort_key())


def test_bad_reduction_set_factors_only_denominators(F3, monkeypatch):
    import drinheights.places as places
    seen = []
    real = places.factor

    def spy(f):
        seen.append(f)
        return real(f)

    monkeypatch.setattr(places, "factor", spy)
    a0 = parse_ratfunc(F3, "(t^5+t+2)/(t*(t^2+1))")
    mod = DrinfeldModule(F3, [a0, RatFunc.one(F3)])
    assert [v.to_string() for v in mod.bad_reduction_set()] == [
        "v[t]", "v[t^2+1]", "v[inf]"]
    assert seen == [a0.den]
