import itertools
import random

import pytest

from conftest import make_module
from drinheights import gf
from drinheights.drinfeld import DrinfeldModule
from drinheights.gf import finite_field
from drinheights.errors import BudgetExhaustedError, NonMonicError
from drinheights.heights import check_t2mwg, lehmer_bounds
from drinheights.ratfunc import (Poly, RatFunc, factor, irreducible_monics,
                                 parse_poly, parse_ratfunc)
from drinheights.torsion import (TorsionCertificate, annihilator_bound,
                                 annihilator_of, is_torsion, kernel_in_K,
                                 torsion_enumerate, torsion_lattice)
from drinheights.verify import module_pool


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
    with pytest.raises(ValueError, match="phi_0"):
        kernel_in_K(car3, Poly.zero(F3))


def test_kernel_inseparable_matches_brute_force(F3):
    # a_0 = 0, so t | b means b(a_0) = 0 and phi_b is inseparable; its kernel
    # is still exact: phi_t(x) = x^9 - x^3/t^6 kills c/t
    mod = make_module(F3, "0", "-1/t^6", "1")
    points = _lattice_points(mod)
    assert len(points) == 9
    for b in ("t", "t^2", "t^2+t", "t^3-t"):
        b = parse_poly(F3, b)
        assert b.subs(mod.coeffs[0]).is_zero()
        expect = [y for y in points if mod.act(b, y).is_zero()]
        assert kernel_in_K(mod, b) == sorted(expect, key=lambda y: y.sort_key())
    assert [str(x) for x in kernel_in_K(mod, parse_poly(F3, "t"))] == \
        ["0", "1/t", "2/t"]


def test_kernel_checks_each_generator(psi2, F2, monkeypatch):
    # a planted fault: an elimination that also yields the lattice vector 1,
    # which phi_t does not kill, must not pass as a root
    import drinheights.gf as gf
    real = gf.dependencies

    def faulty(vectors, field):
        yield [1]
        yield from real(vectors, field)
    monkeypatch.setattr(gf, "dependencies", faulty)
    with pytest.raises(AssertionError, match="kernel generator"):
        kernel_in_K(psi2, parse_poly(F2, "t"))


def test_kernel_generator_check_runs_after_the_torsion_build(psi2, F2,
                                                             monkeypatch):
    # with T(K) built, a planted elimination that yields the basis vector
    # w_0, which phi_1 does not kill, must fail the per-generator check
    torsion_lattice(psi2).torsion
    real = gf.dependencies

    def faulty(vectors, field):
        yield [1]
        yield from real(vectors, field)
    monkeypatch.setattr(gf, "dependencies", faulty)
    with pytest.raises(AssertionError, match="kernel generator fails"):
        kernel_in_K(psi2, Poly.one(F2))


@pytest.mark.parametrize("dependence", [
    [1],                 # mu = 1 leaves every nonzero basis vector alive
    [0] * 8 + [1, 1],    # mu = t^7 (t^2 + t) kills T(K), but m = 2
], ids=["phi-mu-check", "degree-check"])
def test_torsion_build_checks_mu(psi2, F2, monkeypatch, dependence):
    monkeypatch.setattr(gf, "first_dependence", lambda vectors, field:
                        dependence)
    assert torsion_lattice(psi2).m == 2
    with pytest.raises(AssertionError, match="minimal polynomial"):
        kernel_in_K(psi2, parse_poly(F2, "t"))


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
    lattice = torsion_lattice(psi2)
    assert lattice.Q.is_one() and lattice.m_inf == 1 and lattice.n == 2
    # every torsion point respects the pole bound
    for x in torsion_enumerate(psi2):
        assert x.den.is_one() and (x.is_zero() or x.num.degree <= 1)


LATTICE_BOUND_MODULES = [
    ((2, 2), ["1/(t^2+t)^3", "1"]),  # D = 2 < n = 3
    ((2, 2), ["t", "1/t^12", "1"]),  # n = 2 < D = 8
    ((3, 2), ["1/(t^2+t)^8", "1"]),  # D = 2 < n = 3
    ((3, 2), ["t", "1/t^72", "1"]),  # n = 2 < D = 8
]


@pytest.mark.parametrize("mod", [
    pytest.param(mod, id=name) for name, mod in module_pool()
] + [
    pytest.param(make_module(finite_field(*fk), *coeffs), id="-".join(coeffs))
    for fk, coeffs in LATTICE_BOUND_MODULES
])
def test_torsion_lattice_holds_d_and_m(mod):
    # one lattice per module, and its D and m are the bounds the Lehmer
    # report and B = prod_{k <= m} (t^(q^k) - t) carry: each factor of B
    # holds t once, so m is the t-adic order of B
    lattice = torsion_lattice(mod)
    assert torsion_lattice(mod) is lattice
    assert lattice.D == lehmer_bounds(mod).torsion_degree
    B = torsion_lattice(mod).B
    assert torsion_lattice(mod).B is B is lattice.B
    assert lattice.m == next(i for i, c in enumerate(B.coeffs) if c)


def test_annihilator_memo_is_bounded(F2):
    # a module may serve every job of a process, so the answers are kept
    # for at most FIELD_MEMO (module, point) pairs across all modules, the
    # least recently used going first; a refused call keeps nothing
    from drinheights.gf import FIELD_MEMO
    from drinheights.errors import NonMonicError
    t = RatFunc.x(F2)
    for _ in range(2):
        with pytest.raises(NonMonicError):
            annihilator_of(make_module(F2, "t", "t"), t)
    assert annihilator_of.cache_info().currsize == 0
    mods = [make_module(F2, a, "1") for a in ("t", "t+1", "t^2")]
    keys = [(mods[k % 3], t**k) for k in range(FIELD_MEMO + 10)]

    def misses():  # since the refused calls, which count as misses
        return annihilator_of.cache_info().misses - 2
    for key in keys[:FIELD_MEMO]:
        annihilator_of(*key)
    # a hit: (psi2, 1) is now the most recently used
    assert annihilator_of(*keys[0]) == parse_poly(F2, "t^2+t")
    for key in keys[FIELD_MEMO:]:
        annihilator_of(*key)
    assert annihilator_of.cache_info().currsize == FIELD_MEMO
    assert misses() == len(keys)
    for key in [keys[0]] + keys[11:]:
        annihilator_of(*key)
    assert misses() == len(keys)
    for key in keys[1:11]:
        annihilator_of(*key)
    assert misses() == len(keys) + 10
    assert annihilator_of(mods[0], t**FIELD_MEMO) is None


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
    # a_0 in F_q: t - a_0 divides B, and half of the b below are inseparable
    ((2, 1), ["0", "1/t^2", "1"], 2),
    ((2, 1), ["1", "1/t^2", "1"], 2),
]


@pytest.mark.parametrize("fk, coeffs, largest", LATTICE_MODULES)
def test_kernel_matches_lattice_brute_force(fk, coeffs, largest):
    field = finite_field(*fk)
    mod = make_module(field, *coeffs)
    Q = torsion_lattice(mod).Q
    assert not Q.is_one()
    points = _lattice_points(mod)
    # every monic b of degree 1 and 2 over F_2, F_3; a sample over F_4
    bs = [Poly(field, list(c) + [1]) for d in (1, 2)
          for c in itertools.product(field.elements(), repeat=d)]
    if field.order == 4:
        bs = random.Random(3).sample(bs, 4) + [Poly.x(field)]
    sizes = []
    for b in bs:
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


def test_annihilator_computed_once_per_point(F2, F3, monkeypatch):
    from drinheights import gf
    eliminated = []
    real = gf.first_dependence

    def counting(vectors, field):
        eliminated.append(field)
        return real(vectors, field)
    monkeypatch.setattr(gf, "first_dependence", counting)
    mod = make_module(F2, "t", "1")  # a fresh module has no answers kept
    # t+1 is torsion, and at v_inf its valuation law ties, so nothing is
    # read ahead: the local height at v_inf, the T2 check and the decision
    # all ask, and one elimination answers them all
    cert = is_torsion(mod, R(F2, "t+1"))
    assert cert.torsion and cert.annihilator == parse_poly(F2, "t+1")
    info = annihilator_of.cache_info()
    assert (info.misses, len(eliminated)) == (1, 1) and info.hits >= 2
    assert annihilator_of(mod, RatFunc.zero(F2)) == Poly.one(F2)
    assert annihilator_of(mod, RatFunc.zero(F2)) == Poly.one(F2)
    assert (annihilator_of.cache_info().misses, len(eliminated)) == (2, 2)
    # 1 under Carlitz over F_3 escapes at v_inf at step 1, read off the
    # valuation law: the witness needs no elimination
    cert = is_torsion(make_module(F3, "t", "1"), RatFunc.one(F3))
    assert not cert.torsion and cert.witness.kind == "witness"
    assert (annihilator_of.cache_info().misses, len(eliminated)) == (2, 2)


def is_torsion_oracle(module, x):
    """is_torsion as it was before the witness came first: the torsion
    decision, then check_t2mwg for a non-torsion point."""
    b = annihilator_of(module, x)
    if b is not None:
        return TorsionCertificate(x, b, None)
    return TorsionCertificate(x, None, check_t2mwg(module, x))


def _decision(decide, module, x):
    """Every field of decide(module, x), or the name of its error."""
    try:
        cert = decide(module, x)
    except (BudgetExhaustedError, NonMonicError) as exc:
        return type(exc).__name__
    w = cert.witness
    return (cert.point, cert.torsion, cert.annihilator, None if w is None
            else (w.kind, w.annihilator, w.place, w.local, w.bound))


def _decision_cases():
    """(module, points): Carlitz over F_2 with T(K) = {0, 1, t, t+1};
    psi over F_3 and F_5 with T(K) = F_q g; deep poles at both places of S;
    S empty; and a non-monic module."""
    F2, F3, F5 = finite_field(2), finite_field(3), finite_field(5)
    yield make_module(F2, "t", "1"), ["0", "1", "t", "t+1", "t^2", "1/t",
                                      "1/(t+1)", "t/(t+1)", "t^3+t+1"]
    for field, g in ((F3, "t^2+t+2"), (F5, "t^2+1")):
        psi = DrinfeldModule(field, [-R(field, g)**(field.order - 1),
                                     RatFunc.one(field)])
        yield psi, ["0", g, "2*(%s)" % g, "1", "t", "2*t+1", g + "+1",
                    "t^3", "1/t"]
    yield make_module(F3, "t", "1/(t^2+1)", "1"), [
        "1/(t^2+1)^3", "(t+1)/((t^2+1)^2*t)", "t^4", "1/(t^2+1)", "0"]
    yield make_module(F2, "0", "1"), ["0", "1", "t", "1/(t+1)"]
    yield make_module(F3, "t", "2"), ["0", "1", "t"]


def test_is_torsion_matches_the_oracle():
    kinds = set()
    for mod, points in _decision_cases():
        for s in points:
            x = R(mod.field, s)
            got = _decision(is_torsion, mod, x)
            # a fresh copy of the module, on which nothing is kept
            fresh = DrinfeldModule(mod.field, mod.coeffs)
            assert got == _decision(is_torsion_oracle, fresh, x), (mod, s)
            kinds.add(got if isinstance(got, str)
                      else got[3][0] if got[3] else got[1])
    assert kinds == {True, "witness", "NonMonicError"}


UNENUMERABLE_AT_B_LCM = ["rank2-two-bad", "rank2-deg2-bad", "rank2-q2",
                         "rank1-finite-bad"]


def _lattice_points(mod):
    lattice = torsion_lattice(mod)
    return [RatFunc(Poly(mod.field, c), lattice.Q) for c in
            itertools.product(mod.field.elements(), repeat=lattice.n)]


def _pool_module(name):
    return dict(module_pool())[name]


@pytest.mark.parametrize("mod", [
    pytest.param(_pool_module(name), id=name) for name in UNENUMERABLE_AT_B_LCM
] + [
    pytest.param(make_module(finite_field(*fk), *coeffs), id="-".join(coeffs))
    for fk, coeffs, _ in LATTICE_MODULES
] + [
    # n = 11 and m = 8: 2048 lattice points, and T(K) = 0
    pytest.param(make_module(finite_field(2), "t", "1/t^20", "1"),
                 id="t-1/t^20-1"),
])
def test_torsion_enumerate_matches_lattice_decision(mod):
    # the kernel of phi_B with B = prod_{k <= min(D, n)} (t^(q^k) - t) is the
    # set of lattice points that the torsion decision calls torsion
    expect = [y for y in _lattice_points(mod) if annihilator_of(mod, y) is not None]
    assert torsion_enumerate(mod) == sorted(expect, key=lambda y: y.sort_key())
    B = torsion_lattice(mod).B
    for y in expect:
        assert (B % annihilator_of(mod, y)).is_zero()


def test_kernel_evaluates_prime_powers_of_degree_at_most_min_d_n(monkeypatch):
    # kernel_in_K evaluates phi_c only for c of degree <= m = min(D, n),
    # whatever deg b is: mu on the basis of T(K) and b mod mu on the
    # generators of the kernel, and never phi_b itself; the roots equal a
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
        m = torsion_lattice(mod).m
        assert m == min(annihilator_bound(mod).D, torsion_lattice(mod).n)
        del calls[:]
        roots = kernel_in_K(mod, b)
        # every b here has degree > deg mu, so phi_b is never built
        assert all(c != b and c.degree <= m for c, _ in calls)
        expect = [y for y in _lattice_points(mod) if real_act(mod, b, y).is_zero()]
        assert sorted(expect, key=lambda y: y.sort_key()) == roots


def _prime_power_kernel(module, b):
    """The oracle: ker phi_b in K as the direct sum of the ker phi_c over the
    prime powers c = P^min(e, floor(m / deg P)) exactly dividing gcd(b, B),
    each solved by eliminating phi_c of the lattice basis."""
    field = module.field
    lattice = torsion_lattice(module)
    Q, m = lattice.Q, lattice.m
    parts = [P**min(e, m // P.degree) for P, e in factor(b)[1] if P.degree <= m]
    basis = [RatFunc(Poly.x(field)**i, Q) for i in range(lattice.n)]
    roots = [RatFunc.zero(field)]
    for part in parts:
        images = [module.act(part, e) for e in basis]
        den = Poly.one(field)
        for z in images:
            den = den * (z.den // den.gcd(z.den))
        vectors = ({i: a for i, a in enumerate((z.num * (den // z.den)).coeffs)
                    if a} for z in images)
        for coeffs in gf.dependencies(vectors, field):
            g = RatFunc(Poly(field, coeffs), Q)
            assert module.act(part, g).is_zero()
            scaled = [g.scale(c) for c in field.elements()]
            roots = [s + gc for s in roots for gc in scaled]
    return sorted(roots, key=lambda r: r.sort_key())


# the lattice modules, and more over F_5 and F_9
ORACLE_MODULES = [(fk, coeffs) for fk, coeffs, _ in LATTICE_MODULES] + [
    ((5, 1), ["-1/(t^2+t)^4", "1"]),  # c/(t^2+t) is t-torsion
    ((5, 1), ["t", "1/(t+1)^2", "1"]),
    ((3, 2), ["-1/(t^2+t)^8", "1"]),
    ((3, 2), ["-t^8", "1"]),  # c t is t-torsion
    ((3, 2), ["0", "1/t^2", "1"]),
]


@pytest.mark.parametrize("mod", [
    pytest.param(mod, id=name) for name, mod in module_pool()
] + [
    pytest.param(make_module(finite_field(*fk), *coeffs),
                 id="%d^%d:%s" % (fk + ("-".join(coeffs),)))
    for fk, coeffs in ORACLE_MODULES
])
def test_kernel_matches_prime_power_oracle(mod):
    # the kernel read off T(K) and mu equals the kernel solved prime power
    # by prime power, for t, t + 1, random b of degree <= 4 and B
    rng = random.Random(str(mod.coeffs))
    field, q = mod.field, mod.field.order
    bs = [Poly(field, [rng.randrange(q) for _ in range(rng.randint(0, 4))]
               + [1]) for _ in range(6)]
    bs = [Poly.x(field), Poly(field, [1, 1])] + bs + [torsion_lattice(mod).B]
    for b in bs:
        assert kernel_in_K(mod, b) == _prime_power_kernel(mod, b)
