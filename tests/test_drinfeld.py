import json
import random
import re
from fractions import Fraction

import pytest

from conftest import MODULE_MEMOS, make_module
from drinheights import cli, drinfeld, gf, places
from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import MonicizeError, NonMonicError
from drinheights.gf import finite_field
from drinheights.places import (INFINITY, FinitePlace, InfinitePlace, support)
from drinheights.ratfunc import (Poly, RatFunc, irreducible_monics, parse_poly,
                                 parse_ratfunc)
from drinheights.skew import SkewPoly


def test_index_is_set_by_the_constructor(car3, F3):
    # [L:K] is a keyword of the constructor, 1 over K itself
    coeffs = car3.coeffs
    assert car3.index == 1
    assert DrinfeldModule(F3, coeffs, index=3).index == 3
    with pytest.raises(TypeError):
        DrinfeldModule(F3, coeffs, 3)


@pytest.mark.parametrize("index", [0, -3, 2.5, True])
def test_index_that_is_not_an_int_of_at_least_one_is_refused(car3, F3,
                                                             index):
    # [L:K] is a positive integer; 0, -3 and 2.5 failed later inside a
    # height (ZeroDivisionError, AssertionError, TypeError), and a bool is
    # not taken for 1
    with pytest.raises(ValueError, match=r"index \(\[L:K\]\) must be an "
                       r"int >= 1, not %s$" % re.escape(repr(index))):
        DrinfeldModule(F3, car3.coeffs, index=index)


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
    # the first obstruction is named: a prime power of a_r's numerator, or
    # one of its denominator, whose exponent prints negative
    for a_r, msg in (("t", "exponent 1 of t"),
                     ("t^2/(t+1)", "exponent -1 of t+1")):
        with pytest.raises(MonicizeError) as err:
            make_module(F3, "t", a_r).monicize()
        assert str(err.value) == msg + (" in a_r is not divisible by "
                                        "q^r-1 = 2")


def test_monicize_leading_unit_obstruction(F3):
    # 2 is not a square in F_3, so no gamma in K makes t + 2 tau monic
    with pytest.raises(MonicizeError) as err:
        make_module(F3, "t", "2").monicize()
    assert str(err.value) == ("leading unit 2 of a_r is not a (q^r-1)-th "
                              "power in F_q (only 1 is)")


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


@pytest.mark.parametrize("coeffs, trdeg", [
    (["1", "2", "1"], 0), (["1", "t", "1"], 1),
    # isotrivial after conjugating by 1/t
    (["1", "t^2", "t^8"], 0), (["1", "t", "t^8"], 1),
    (["2", "0", "1/t", "1"], 1)])
def test_modular_trdeg_constant_a0_rank_2_and_3(F3, coeffs, trdeg):
    # a constant a_0 leaves the divisor identities to decide; the oracle:
    # each of these monicizes to a module over F_q exactly when trdeg is 0
    mod = make_module(F3, *coeffs)
    monic, _ = mod.monicize()
    assert mod.modular_trdeg() == trdeg
    assert all(a.is_constant() for a in monic.coeffs) == (trdeg == 0)


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


@pytest.mark.parametrize("p, k, coeffs, shown", [
    (3, 1, ("t", "1"), "tau + t"),
    (3, 1, ("t", "1/(t^2+1)", "1"), "tau^2 + (1/(t^2+1))*tau + t"),
    (3, 1, ("t+1", "0", "2*t", "1"), "tau^3 + 2*t*tau^2 + (t+1)"),
    (3, 2, ("t", "(4*t+2)/t", "1"), "tau^2 + ((4*t+2)/t)*tau + t"),
    (3, 1, ("0", "1"), "tau"),
])
def test_module_repr_writes_phi_t(p, k, coeffs, shown):
    # highest power first; a coefficient 1 is left out before tau, a zero
    # term is dropped, and a coefficient holding "+" is parenthesized
    # (RatFunc.to_string writes no minus sign)
    mod = make_module(finite_field(p, k), *coeffs)
    assert repr(mod) == "DrinfeldModule(phi_t = %s)" % shown
    assert repr(mod.phi_t) == "SkewPoly(%s)" % shown
    assert SkewPoly.zero(mod.field).to_string() == "0"


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


def _eager_reduction_sets(mod, v):
    """P, P', P'', Q and R at v, built as the one-pass constructor did before
    the residue sets were built on first read; the oracle for them."""
    q, r = mod.q, mod.r
    vals = tuple(v.valuation(a) for a in mod.coeffs)
    in_S = v in mod.bad_reduction_set()
    T = -min(Fraction(vals[i], q**i) for i in range(r + 1)
             if vals[i] is not INFINITY)
    points = [(q**i, vals[i]) for i in range(r + 1) if vals[i] is not INFINITY]
    hull = drinfeld._lower_hull(points)
    slopes = [Fraction(y2 - y1, x2 - x1)
              for (x1, y1), (x2, y2) in zip(hull, hull[1:])]

    def min_indices(alpha):
        best = None
        ids = []
        for i in range(r + 1):
            if vals[i] is INFINITY:
                continue
            c = vals[i] + q**i * alpha
            if best is None or c < best:
                best, ids = c, [i]
            elif c == best:
                ids.append(i)
        return best, ids

    P = sorted({-s for s in slopes if s >= 0})
    if q == 2 and r == 1 and in_S and Fraction(0) not in P:
        P.append(Fraction(0))
        P.sort()
    pp_target = {}
    for alpha1 in P:
        for i in range(r + 1):
            if vals[i] is INFINITY:
                continue
            cand = Fraction(alpha1 - vals[i], q**i)
            if 0 < cand <= T:
                best, _ = min_indices(cand)
                if best == alpha1:
                    pp_target[cand] = alpha1
    Pp = sorted(pp_target)
    Ppp = sorted({-s for s in slopes if 0 < -s <= T})
    k_v = v.residue_field
    Q = sorted(set(P) | set(Pp) | set(Ppp))
    R = {}
    for alpha in Q:
        _, ids = min_indices(alpha)
        image = [(v.angular_component(mod.coeffs[i]), i) for i in ids]
        targets = []
        if alpha in P or alpha in Ppp:
            targets.append(k_v.zero)
        if alpha in pp_target:
            targets.extend(R[pp_target[alpha]])
        sols = {e for target in targets
                for e in gf.additive_preimages(image, target) if e.val != 0}
        if alpha == 0:
            sols.add(k_v.one)
        R[alpha] = tuple(sorted(sols, key=lambda e: e.val))
    return tuple(P), tuple(Pp), tuple(Ppp), tuple(Q), R


def _modules_with_bad_places_of_degree_1_to_3():
    """Rank 1 and 2 modules over F_2, F_3, F_4 and F_9, each with a pole of
    order 1 to 3 at a place of degree 1, 2 and 3."""
    out = []
    for field in (finite_field(2), finite_field(3), finite_field(2, 2),
                  finite_field(3, 2)):
        for d in (1, 2, 3):
            P = next(iter(irreducible_monics(field, d)))
            for e in (1, 2, 3):
                pole = RatFunc(Poly.one(field), P**e)
                t, one = RatFunc.x(field), RatFunc.one(field)
                out.append(DrinfeldModule(field, [t + pole, one]))
                out.append(DrinfeldModule(field, [t, pole, one]))
    return out


def _modules_with_single_index_sets_at_degree_3():
    """Modules over F_4 and F_9 with a pole of order 1, 4 or 8, scaled by 1
    or 2, at a place of degree 3, whose P'_v holds an alpha attained by one
    index with a nonempty R_v(alpha); among them ["t", "2/(t^3+t+5)^8", "1"]
    over F_9, where R_v(71/81) is 8 elements of F_729."""
    out = []
    for field, P in ((finite_field(2, 2), "t^3+t+1"),
                     (finite_field(3, 2), "t^3+t+5")):
        for e in (1, 4, 8):
            for c in ("1", "2"):
                pole = "%s/(%s)^%d" % (c, P, e)
                for coeffs in (["t", pole, "1"], ["t+" + pole, "1"],
                               ["t", "1", pole, "1"], [pole, "t", "1"]):
                    out.append(make_module(field, *coeffs))
    return out


def test_residue_sets_match_eager_oracle():
    from drinheights.verify import module_pool
    mods = ([mod for _, mod in module_pool()]
            + _modules_with_bad_places_of_degree_1_to_3()
            + _modules_with_single_index_sets_at_degree_3())
    degrees, single = set(), set()
    for mod in mods:
        for v in mod.bad_reduction_set():
            rd = mod.reduction_data(v)
            got = (rd.P, rd.Pp, rd.Ppp, rd.Q, rd.R)
            assert got == _eager_reduction_sets(mod, v), (mod, v)
            degrees.add((mod.q, v.degree))
            if any(rd.R[a] and len(rd.valuation_law(a)[1]) == 1
                   for a in rd.Pp):
                single.add((mod.q, v.degree))
    assert {(q, d) for q in (2, 3, 4, 9) for d in (1, 2, 3)} <= degrees
    assert {(4, 3), (9, 3)} <= single


def test_single_index_R_read_off_the_closed_form(monkeypatch):
    # R_v(71/81) at v = t^3+t+5 over F_9: one index attains g, so each of
    # the 8 targets R_v(-1/9) has one preimage in F_729, found without
    # solving; the tie at -1/9 alone goes through additive_preimages
    F9 = finite_field(3, 2)
    mod = make_module(F9, "t", "2/(t^3+t+5)^8", "1")
    v = FinitePlace(parse_poly(F9, "t^3+t+5"))
    images = []
    real = gf.additive_preimages

    def spy(image, target):
        images.append(len(image))
        return real(image, target)
    monkeypatch.setattr(gf, "additive_preimages", spy)
    rd = mod.reduction_data(v)
    tie, alpha = Fraction(-1, 9), Fraction(71, 81)
    assert (rd.P, rd.Pp, rd.Ppp) == ((tie,), (alpha,), ())
    assert v.residue_field.order == 729
    assert len(rd.valuation_law(tie)[1]) == 2
    assert len(rd.valuation_law(alpha)[1]) == 1
    digits = [str(i) for i in range(1, 9)]
    assert [str(e) for e in rd.R[tie]] == digits
    assert [str(e) for e in rd.R[alpha]] == digits
    assert images == [2]


def test_single_index_R_takes_one_inverse(monkeypatch):
    # the 8 targets of R_v(71/81) share the one scale (1/c)^(q^-i): a single
    # inverse in F_729, and none for angular components with residue 1 below
    F9 = finite_field(3, 2)
    mod = make_module(F9, "t", "2/(t^3+t+5)^8", "1")
    v = FinitePlace(parse_poly(F9, "t^3+t+5"))
    rd = mod.reduction_data(v)
    inverted = []
    real = gf.ExtensionField.inv

    def spy(self, a):
        if self is v.residue_field:
            inverted.append(a)
        return real(self, a)
    monkeypatch.setattr(gf.ExtensionField, "inv", spy)
    alpha = Fraction(71, 81)
    assert len(rd.R[alpha]) == 8 and len(rd.valuation_law(alpha)[1]) == 1
    assert len(inverted) <= 1


def _inverse_law_oracle(vals, q, beta):
    """max_i (beta - v(a_i)) / q^i, one Fraction per index."""
    return max(Fraction(beta - a, q**i)
               for i, a in enumerate(vals) if a is not INFINITY)


def test_inverse_law_matches_fraction_oracle(F3):
    # a Fraction for int and Fraction beta alike, and g(g^-1(beta)) = beta,
    # with zero coefficients (v = INFINITY) among them
    mods = (_random_monic_modules(random.Random(14), 30)
            + [make_module(F3, "t", "0", "1/t", "1"),
               make_module(F3, "1/(t^2+1)", "0", "t", "1"),
               make_module(F3, "0", "1/(t^2+1)", "1")])
    kinds, infinite = {int: 0, Fraction: 0}, 0
    for mod in mods:
        for v in list(mod.bad_reduction_set()) + [InfinitePlace(mod.field)]:
            rd = mod.reduction_data(v)
            infinite += INFINITY in rd.vals
            betas = (list(range(-4, 5))
                     + [Fraction(k, d) for k in range(-7, 8) for d in (2, 3, 8)]
                     + [-s for s in rd.newton])
            for beta in betas:
                got = rd.inverse_law(beta)
                assert got == _inverse_law_oracle(rd.vals, mod.q, beta), (
                    mod, v, beta)
                assert type(got) is Fraction, (mod, v, beta)
                assert rd.valuation_law(got)[0] == beta, (mod, v, beta)
                kinds[type(beta)] += 1
    assert min(kinds.values()) >= 30 and infinite >= 3


def _valuation_law_oracle(vals, q, alpha):
    """(g(alpha), the i attaining it) in Fraction arithmetic."""
    finite = [(i, a) for i, a in enumerate(vals) if a is not INFINITY]
    if alpha is INFINITY:
        return INFINITY, [i for i, _ in finite]
    cost = {i: Fraction(a) + q**i * Fraction(alpha) for i, a in finite}
    best = min(cost.values())
    return best, [i for i, c in cost.items() if c == best]


def test_valuation_law_matches_fraction_oracle(F3):
    # an int alpha gives an int, a Fraction (integral ones too) a Fraction,
    # and v(0) = INFINITY gives INFINITY at every i with a_i != 0
    mods = (_random_monic_modules(random.Random(12), 30)
            + [make_module(F3, "t", "0", "1/t", "1"),
               make_module(F3, "1/(t^2+1)", "0", "t", "1")])
    kinds = {int: 0, Fraction: 0, float: 0}
    for mod in mods:
        for v in list(mod.bad_reduction_set()) + [InfinitePlace(mod.field)]:
            rd = mod.reduction_data(v)
            alphas = (list(range(-4, 5)) + [INFINITY]
                      + [Fraction(k, d) for k in range(-7, 8)
                         for d in (1, 2, 3, 8)]
                      + [-s for s in rd.newton])
            for alpha in alphas:
                got = rd.valuation_law(alpha)
                assert got == _valuation_law_oracle(rd.vals, mod.q, alpha), (
                    mod, v, alpha)
                assert type(got[0]) is type(alpha), (mod, v, alpha)
                kinds[type(alpha)] += 1
    assert min(kinds.values()) >= 30


def test_in_S_read_off_the_valuations():
    mods = _random_monic_modules(random.Random(9), 60)
    assert len(mods) == 60
    for mod in mods:
        S = mod.bad_reduction_set()
        good = [InfinitePlace(mod.field)] + [
            FinitePlace(P) for d in (1, 2)
            for P in list(irreducible_monics(mod.field, d))[:2]]
        for v in list(S) + good:
            assert mod.reduction_data(v).in_S == (v in S), (mod, v)


def test_residue_sets_built_on_first_read_and_checked(monkeypatch, F3):
    rd = make_module(F3, "t", "1").reduction_data(InfinitePlace(F3))
    assert rd.M == Fraction(-1, 2)
    with pytest.raises(AttributeError):
        rd.no_such_field
    # a failed cardinality check leaves no set behind and fails again
    calls = []

    def failing_check(self, sets):
        calls.append(self)
        raise RuntimeError("|P_v| exceeds N_phi")
    monkeypatch.setattr(drinfeld.ReductionData, "_check", failing_check)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="exceeds N_phi"):
            rd.R
    assert len(calls) == 2
    monkeypatch.undo()
    assert rd.P == (Fraction(-1, 2),) and set(rd.R) == set(rd.Q)


def test_residue_sets_and_bad_set_built_once(monkeypatch, F3):
    solved = []
    real = gf.additive_preimages

    def spy(image, target):
        solved.append(target)
        return real(image, target)
    monkeypatch.setattr(gf, "additive_preimages", spy)
    mod = make_module(F3, "t", "1/(t^2+1)", "1")
    assert mod.bad_reduction_set() is mod.bad_reduction_set()
    rd = mod.reduction_data(FinitePlace(parse_poly(F3, "t^2+1")))
    R = rd.R
    assert solved
    del solved[:]
    assert rd.R is R and rd.pair_in(rd.P[0], rd.R[rd.P[0]][0])
    assert solved == []


def test_reduction_data_memo_is_bounded(monkeypatch, F3):
    # reduction data is kept for the gf.FIELD_MEMO (module, place) pairs
    # used last, across all modules of the process, the least recently used
    # going first; modules key by identity, and a refused call keeps nothing
    memo = DrinfeldModule.reduction_data
    built = []
    real = drinfeld.ReductionData.__init__

    def spy(self, module, place):
        built.append((module, place))
        real(self, module, place)
    monkeypatch.setattr(drinfeld.ReductionData, "__init__", spy)
    inf = InfinitePlace(F3)
    for _ in range(2):
        with pytest.raises(NonMonicError):
            make_module(F3, "t", "2").reduction_data(inf)
    assert memo.cache_info().currsize == 0
    mods = [make_module(F3, a, "1")
            for a in ("t", "t+1", "t+2", "2*t", "2*t+1", "t^2")]
    places = [inf] + [FinitePlace(P) for d in range(1, 7)
                      for P in irreducible_monics(F3, d)]
    keys = [(mod, v) for mod in mods for v in places][:gf.FIELD_MEMO + 10]
    assert len(keys) == gf.FIELD_MEMO + 10
    for mod, v in keys[:gf.FIELD_MEMO]:
        mod.reduction_data(v)
    rd = mods[0].reduction_data(inf)  # now the most recently used
    for mod, v in keys[gf.FIELD_MEMO:]:
        mod.reduction_data(v)
    assert memo.cache_info().currsize == gf.FIELD_MEMO
    assert built == keys
    del built[:]
    assert mods[0].reduction_data(inf) is rd
    for mod, v in keys[11:]:
        mod.reduction_data(v)
    assert built == []
    for mod, v in keys[1:11]:
        mod.reduction_data(v)
    assert built == keys[1:11]
    assert make_module(F3, "t", "1").reduction_data(inf) is not rd


def test_positive_T_checked_at_construction(monkeypatch, F3):
    monkeypatch.setattr(drinfeld.ReductionData, "inverse_law",
                        lambda self, beta: Fraction(0))
    mod = make_module(F3, "t", "1")
    with pytest.raises(RuntimeError, match="T_v must be positive"):
        mod.reduction_data(InfinitePlace(F3))


# (command, extra job keys) for every CLI job that reads no residue set
_SET_FREE_JOBS = [
    ("height", {"point": "1/(t^2+t+1)"}),
    ("local-height", {"point": "1/(t^2+t+1)", "place": {"kind": "infinity"}}),
    ("insep-height", {"point": "1/(u+1)"}),
    ("dichotomy", {"point": "t+1"}),
    ("torsion", {}),
    ("kernel", {"b": "t"}),
    ("lehmer", {}),
]


def test_only_reduction_builds_the_residue_sets(monkeypatch, tmp_path,
                                                capsys):
    from drinheights.verify import module_pool
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    spy(gf, "additive_preimages")
    # every read of P_v ... R_v(alpha) goes through _residue_sets; the walk
    # of a local height reads ac(x) and ac(a_i) at a tie, which are not
    # residue sets
    real_sets = drinfeld.ReductionData._residue_sets.func
    monkeypatch.setattr(drinfeld.ReductionData, "_residue_sets", property(
        lambda self: calls.append("_residue_sets") or real_sets(self)))

    def run(command, mod, extra):
        job = {"field": {"p": mod.q},
               "module": {"coefficients": [a.to_string() for a in mod.coeffs]}}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(job, **extra)))
        code = cli.main([command, str(path), "--json"])
        capsys.readouterr()
        assert code == 0, (command, mod)

    pool = [mod for _, mod in module_pool()]
    for command, extra in _SET_FREE_JOBS:
        for mod in pool:
            run(command, mod, extra)
    assert calls == []
    for mod in pool:
        run("reduction", mod, {})
    assert "additive_preimages" in calls and "_residue_sets" in calls


def _refusals():
    """(name, call on a module) for every entry point that needs monic
    phi_t; each reaches DrinfeldModule's one monic check."""
    from drinheights.heights import (check_t2mwg, global_height,
                                     height_via_embedding, lehmer_bounds)
    from drinheights.perfect import (insep_level, key_dichotomy_check,
                                     lehper_check)
    from drinheights.places import SubstitutionEmbedding
    from drinheights.torsion import (annihilator_bound, annihilator_of,
                                     kernel_in_K, torsion_enumerate)

    def point(mod):
        return RatFunc.x(mod.field)

    def emb(mod):
        return SubstitutionEmbedding(
            parse_ratfunc(mod.field, "u^2", var="u"))
    return [
        ("lehmer_bounds", lehmer_bounds),
        ("check_t2mwg", lambda mod: check_t2mwg(mod, point(mod))),
        ("annihilator_bound", annihilator_bound),
        ("torsion_enumerate", torsion_enumerate),
        ("kernel_in_K", lambda mod: kernel_in_K(mod, Poly.x(mod.field))),
        ("kernel_in_K-b0", lambda mod: kernel_in_K(mod, Poly.zero(mod.field))),
        ("insep_level-0", lambda mod: insep_level(mod, 0)),
        ("height_via_embedding",
         lambda mod: height_via_embedding(mod, emb(mod), point(mod))),
        ("global_height", lambda mod: global_height(mod, point(mod))),
        ("annihilator_of", lambda mod: annihilator_of(mod, point(mod))),
        ("key_dichotomy_check",
         lambda mod: key_dichotomy_check(mod, point(mod))),
        ("lehper_check", lambda mod: lehper_check(mod, point(mod))),
    ]


@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call in _refusals()])
def test_non_monic_refused_by_the_module_alone(call, F3):
    # every entry point refuses t + t tau with the module's own
    # NonMonicError and message, on every call, and keeps nothing
    mod = make_module(F3, "t", "t")
    with pytest.raises(NonMonicError) as own:
        mod.bad_reduction_set()
    for _ in range(2):
        with pytest.raises(NonMonicError) as refused:
            call(mod)
        assert str(refused.value) == str(own.value)
    assert [memo.cache_info().currsize for memo in MODULE_MEMOS] == [
        0] * len(MODULE_MEMOS)
