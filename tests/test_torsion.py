import itertools
import random

import pytest

from conftest import make_module
from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import InseparableKernelError
from drinheights.gf import finite_field
from drinheights.ratfunc import (Poly, RatFunc, irreducible_monics,
                                 parse_poly, parse_ratfunc)
from drinheights.torsion import (annihilator_bound, annihilator_of,
                                 is_torsion, kernel_in_K, torsion_annihilator,
                                 torsion_enumerate, torsion_lattice)


def R(field, s, var="t"):
    return parse_ratfunc(field, s, var=var)


def psi_p_module(p):
    """The Carlitz module over F_p(u) with t = -u^(p-1)."""
    field = finite_field(p)
    a0 = -RatFunc.x(field)**(p - 1)
    return field, DrinfeldModule(field, [a0, RatFunc.one(field)])


def test_is_torsion_psi2(psi2, F2):
    cert = is_torsion(psi2, RatFunc.x(F2))
    assert cert.torsion and cert.annihilator == parse_poly(F2, "t")

    cert = is_torsion(psi2, RatFunc.one(F2))
    assert cert.torsion and cert.annihilator == parse_poly(F2, "t^2+t")
    # no degree-1 annihilator works for the point 1
    for b in ("t", "t+1", "1"):
        assert not psi2.act(parse_poly(F2, b), RatFunc.one(F2)).is_zero()


def test_is_torsion_carlitz_nontorsion(car3, F3):
    cert = is_torsion(car3, RatFunc.one(F3))
    assert not cert.torsion
    assert cert.witness.kind == "witness"
    assert cert.witness.local > 0


def test_torsion_constants_when_S_empty(tau2, F2):
    assert annihilator_of(tau2, RatFunc.one(F2)) == parse_poly(F2, "t+1")
    assert annihilator_of(tau2, RatFunc.zero(F2)) == Poly.one(F2)
    assert annihilator_of(tau2, RatFunc.x(F2)) is None
    bound = annihilator_bound(tau2)
    assert bound.constants_only


def test_annihilator_bound_psi2(psi2, F2):
    bound = annihilator_bound(psi2)
    assert bound.D == 2
    expect = (parse_poly(F2, "t")**2 * parse_poly(F2, "t+1")**2
              * parse_poly(F2, "t^2+t+1"))
    assert bound.b_lcm == expect and bound.b_lcm.degree == 6


def test_annihilator_bound_carlitz_q3(car3, F3):
    bound = annihilator_bound(car3)
    assert bound.D == 1
    assert bound.b_lcm == parse_poly(F3, "t^3-t")


def test_annihilator_bound_psi_p():
    for p in (3, 5):
        field, mod = psi_p_module(p)
        S = mod.bad_reduction_set()
        assert len(S) == 1
        bound = annihilator_bound(mod)
        assert bound.D == 1
        # lcm of all monic degree <= 1 polynomials is t^p - t
        xp = Poly(field, [0, field.neg(1)] + [0] * (p - 2) + [1])
        assert bound.b_lcm == xp


@pytest.mark.parametrize("p, k, D", [(2, 1, 4), (2, 1, 6), (3, 1, 3),
                                     (3, 1, 4), (5, 1, 3), (2, 2, 3)])
def test_annihilator_bound_matches_lcm_search(p, k, D):
    # phi_t = t + 1/(P_1 ... P_m) + tau has S = {v[P_1], ..., v[P_m], v_inf}
    # and N = 1, except N = 2 for q = 2
    field = finite_field(p, k)
    n_bad = D // 2 if field.order == 2 else D
    places = [P for d in (1, 2) for P in irreducible_monics(field, d)]
    a0 = RatFunc.x(field)
    for P in places[:n_bad - 1]:
        a0 = a0 + RatFunc(Poly.one(field), P)
    mod = DrinfeldModule(field, [a0, RatFunc.one(field)])
    bound = annihilator_bound(mod)
    assert bound.D == D
    # lcm of all monic polynomials of degree <= D: P^floor(D / deg P)
    lcm = Poly.one(field)
    for d in range(1, D + 1):
        for P in irreducible_monics(field, d):
            lcm = lcm * P**(D // d)
    assert bound.b_lcm == lcm


def test_kernel_examples(psi2, car3, F2, F3):
    k = kernel_in_K(psi2, parse_poly(F2, "t"))
    assert [str(x) for x in k] == ["0", "t"]
    k = kernel_in_K(psi2, parse_poly(F2, "t^2+t"))
    assert [str(x) for x in k] == ["0", "1", "t", "t+1"]
    k = kernel_in_K(car3, parse_poly(F3, "t"))
    assert [str(x) for x in k] == ["0"]


def test_kernel_inseparable_rejected(F3):
    # finite characteristic: a_0 = 0 and t | b means b(a_0) = 0
    mod = make_module(F3, "0", "t", "1")
    assert mod.bad_reduction_set()  # S nonempty, so the kernel is meaningful
    with pytest.raises(InseparableKernelError):
        kernel_in_K(mod, parse_poly(F3, "t"))


def test_kernel_is_subspace(psi2, F2):
    pts = kernel_in_K(psi2, parse_poly(F2, "t^2+t"))
    pool = set(pts)
    for x in pts:
        for y in pts:
            assert x + y in pool
        for c in F2.elements():
            assert x.scale(c) in pool
    assert len(pts) == 4 <= F2.order**(psi2.r * 2)


def test_torsion_enumerate_psi2(psi2):
    assert [str(x) for x in torsion_enumerate(psi2)] == ["0", "1", "t", "t+1"]


def test_torsion_enumerate_psi3():
    field, mod = psi_p_module(3)
    pts = torsion_enumerate(mod)
    assert [x.to_string("u") for x in pts] == ["0", "u", "2*u"]
    t_poly = Poly.x(field)
    for x in pts:
        assert mod.act(t_poly, x).is_zero()


def test_torsion_enumerate_psi5():
    field, mod = psi_p_module(5)
    pts = torsion_enumerate(mod)
    assert len(pts) == 5
    assert [x.to_string("u") for x in pts] == ["0", "u", "2*u", "3*u", "4*u"]


def test_torsion_enumerate_carlitz(car3):
    assert [str(x) for x in torsion_enumerate(car3)] == ["0"]


def test_minimal_annihilator_divides_blcm(psi2, F2):
    bound = annihilator_bound(psi2)
    for x in torsion_enumerate(psi2):
        b = annihilator_of(psi2, x)
        assert (bound.b_lcm % b).is_zero()


def test_torsion_decision_matches_blcm_kill(psi2, car3):
    rng = random.Random(61)
    for mod in (psi2, car3):
        bound = annihilator_bound(mod)
        for _ in range(100):
            q = mod.field.order
            x = RatFunc(Poly(mod.field, [rng.randrange(q) for _ in range(4)]),
                        Poly(mod.field, [rng.randrange(q) for _ in range(3)] + [1]))
            assert (annihilator_of(mod, x) is not None) == \
                mod.act(bound.b_lcm, x).is_zero()
        for x in torsion_enumerate(mod):
            assert mod.act(bound.b_lcm, x).is_zero()


def test_torsion_lattice_bounds(psi2, F2):
    Q, m_inf = torsion_lattice(psi2)
    assert Q.is_one() and m_inf == 1
    # every torsion point respects the pole bound
    for x in torsion_enumerate(psi2):
        assert x.den.is_one() and (x.is_zero() or x.num.degree <= 1)


def test_annihilator_degree_within_bound(psi2):
    bound = annihilator_bound(psi2)
    for x in torsion_enumerate(psi2):
        b = annihilator_of(psi2, x)
        assert b.degree <= bound.D


# modules with a finite bad place, so the pole lattice has Q != 1, and the
# largest kernel among the b tried below
LATTICE_MODULES = [
    ((2, 1), ["1/(t^2+t)", "1"], 4),
    ((2, 1), ["t + 1/(t^2+t+1)", "1"], 4),  # m_inf = 1 as well
    ((2, 1), ["t", "1/(t^2+t)^2", "1"], 1),
    ((3, 1), ["-1/(t^2+t)^2", "1"], 3),
    ((3, 1), ["t - 1/(t^2+1)^2", "1"], 1),
    ((2, 2), ["1/(t^2+t)^3", "1"], 4),
    ((2, 2), ["t", "1/t^12", "1"], 1),
]


@pytest.mark.parametrize("fk, coeffs, largest", LATTICE_MODULES)
def test_kernel_matches_lattice_brute_force(fk, coeffs, largest):
    field = finite_field(*fk)
    mod = make_module(field, *coeffs)
    Q, m_inf = torsion_lattice(mod)
    assert not Q.is_one()
    points = [RatFunc(Poly(field, c), Q) for c in
              itertools.product(field.elements(), repeat=Q.degree + m_inf + 1)]
    # every monic b of degree 1 and 2 over F_2, F_3; a sample over F_4
    bs = [Poly(field, list(c) + [1]) for d in (1, 2)
          for c in itertools.product(field.elements(), repeat=d)]
    if field.order == 4:
        bs = random.Random(3).sample(bs, 4) + [Poly.x(field)]
    sizes = []
    for b in bs:
        if b.subs(mod.coeffs[0]).is_zero():
            continue
        expect = [y for y in points if mod.act(b, y).is_zero()]
        got = kernel_in_K(mod, b)
        assert got == sorted(expect, key=lambda y: y.sort_key())
        sizes.append(len(got))
    assert max(sizes) == largest


# two of the F_7 kernels of psi(g), phi_t = -g^6 + tau with g = t + c: the
# images have degree about 7^6, and t kills g, so ker phi_b = {c g} when
# t | b and {0} otherwise
@pytest.mark.parametrize("g, b", [((1, 1), (0, 6, 6, 0, 3, 0, 1)),
                                  ((4, 1), (2, 5, 6, 0, 6, 1, 1))])
def test_kernel_heavy_psi_closed_form(g, b):
    F7 = finite_field(7)
    gp = RatFunc.from_poly(Poly(F7, g))
    mod = DrinfeldModule(F7, [-gp**6, RatFunc.one(F7)])
    expect = [gp.scale(c) for c in F7.elements()] if b[0] == 0 else [RatFunc.zero(F7)]
    assert kernel_in_K(mod, Poly(F7, b)) == sorted(expect, key=lambda y: y.sort_key())


def test_annihilator_computed_once_per_point(F3, monkeypatch):
    import drinheights.torsion as torsion
    computed = []
    real = torsion._annihilator_of

    def counting(module, x):
        computed.append(x)
        return real(module, x)
    monkeypatch.setattr(torsion, "_annihilator_of", counting)
    mod = make_module(F3, "t", "1")  # a fresh module starts with no answers
    # the decision, the T2 check and the local height at v_inf all ask
    x = RatFunc.one(F3)
    cert = is_torsion(mod, x)
    assert not cert.torsion and cert.witness.kind == "witness"
    assert computed == [x]
    assert annihilator_of(mod, RatFunc.zero(F3)) == Poly.one(F3)
    assert annihilator_of(mod, RatFunc.zero(F3)) == Poly.one(F3)
    assert computed == [x, RatFunc.zero(F3)]


UNENUMERABLE_AT_B_LCM = ["rank2-two-bad", "rank2-deg2-bad", "rank2-q2",
                         "rank1-finite-bad"]


def _lattice_points(mod):
    Q, m_inf = torsion_lattice(mod)
    return [RatFunc(Poly(mod.field, c), Q) for c in
            itertools.product(mod.field.elements(), repeat=Q.degree + m_inf + 1)]


def _pool_module(name):
    from drinheights.verify import module_pool
    return dict(module_pool())[name]


@pytest.mark.parametrize("mod", [
    pytest.param(_pool_module(name), id=name) for name in UNENUMERABLE_AT_B_LCM
] + [
    pytest.param(make_module(finite_field(*fk), *coeffs), id="-".join(coeffs))
    for fk, coeffs, _ in LATTICE_MODULES
] + [
    # a_0 in F_q: t - a_0 divides B, so phi_B is inseparable
    pytest.param(make_module(finite_field(2), a0, "1/t^2", "1"),
                 id="%s-1/t^2-1" % a0) for a0 in ("0", "1")
])
def test_torsion_enumerate_matches_lattice_decision(mod):
    # the kernel of phi_B with B = prod_{k <= min(D, n)} (t^(q^k) - t) is the
    # set of lattice points that the torsion decision calls torsion
    expect = [y for y in _lattice_points(mod) if annihilator_of(mod, y) is not None]
    assert torsion_enumerate(mod) == sorted(expect, key=lambda y: y.sort_key())
    B = torsion_annihilator(mod)
    for y in expect:
        assert (B % annihilator_of(mod, y)).is_zero()


def test_kernel_evaluates_prime_powers_of_degree_at_most_min_d_n(monkeypatch):
    # kernel_in_K evaluates only the prime powers of gcd(b, B) on the
    # lattice basis, each of degree <= m = min(D, n), whatever deg b is;
    # phi_b itself only checks the roots it returns, which equal a
    # brute-force search
    F2, F7 = finite_field(2), finite_field(7)
    cases = [(make_module(F2, "1/(t^2+t)", "1"), Poly(F2, [1, 0, 0, 1])),
             (make_module(F2, "t", "1"), Poly(F2, [1, 1, 0, 1])),
             (make_module(F2, "1/(t^2+t)", "1"), Poly(F2, [0, 1, 1, 0, 1, 1]))]
    for g, b in [((1, 1), (0, 6, 6, 0, 3, 0, 1)), ((4, 1), (2, 5, 6, 0, 6, 1, 1))]:
        gp = RatFunc.from_poly(Poly(F7, g))
        cases.append((DrinfeldModule(F7, [-gp**6, RatFunc.one(F7)]), Poly(F7, b)))
    calls = []
    real_act = DrinfeldModule.act

    def spying_act(self, b, x):
        calls.append((b, x))
        return real_act(self, b, x)
    monkeypatch.setattr(DrinfeldModule, "act", spying_act)
    for mod, b in cases:
        Q, m_inf = torsion_lattice(mod)
        m = min(annihilator_bound(mod).D, Q.degree + m_inf + 1)
        basis = {RatFunc(Poly.x(mod.field)**i, Q) for i in range(Q.degree + m_inf + 1)}
        del calls[:]
        roots = kernel_in_K(mod, b)
        for c, x in calls:
            if x in basis:
                assert c.degree <= m or c == b
                assert c != b or x in roots
        expect = [y for y in _lattice_points(mod) if real_act(mod, b, y).is_zero()]
        assert sorted(expect, key=lambda y: y.sort_key()) == roots
