"""Seeded property-verification harness.

Each check fuzzes one of the library's exact identities or dichotomies over
a fixed pool of modules; a deterministic seed makes runs byte-reproducible.
The CLI `verify` subcommand drives the full suite: a CheckFailure fails a
row (exit 1), and any other exception in a check is an internal error (exit
4).  The test suite reuses the same checks with the spec-mandated counts.
"""

import math
import random
from fractions import Fraction

from drinheights.drinfeld import DrinfeldModule
from drinheights.gf import finite_field
from drinheights.heights import (global_height, height_via_embedding,
                                 lehmer_bounds, local_height)
from drinheights.perfect import insep_level
from drinheights.places import (FinitePlace, InfinitePlace,
                                SubstitutionEmbedding, extend_places, poles,
                                support)
from drinheights.ratfunc import Poly, RatFunc, is_irreducible, parse_ratfunc
from drinheights.torsion import annihilator_of, torsion_lattice


def rand_poly(rng, field, maxdeg):
    return Poly(field, [rng.randrange(field.order)
                        for _ in range(rng.randint(0, maxdeg) + 1)])


def rand_nonzero_poly(rng, field, maxdeg):
    while True:
        f = rand_poly(rng, field, maxdeg)
        if not f.is_zero():
            return f


def rand_ratfunc(rng, field, height):
    """Random rational function of Weil height <= height."""
    num = rand_poly(rng, field, height)
    den = rand_nonzero_poly(rng, field, height)
    return RatFunc(num, den)


def rand_nonzero_ratfunc(rng, field, height):
    while True:
        x = rand_ratfunc(rng, field, height)
        if not x.is_zero():
            return x


def rand_unit_at(rng, place, size=2):
    """Random y with v(y) = 0 at the given place."""
    field = place.field
    while True:
        if isinstance(place, FinitePlace):
            num = rand_nonzero_poly(rng, field, size + place.P.degree)
            den = rand_nonzero_poly(rng, field, size + place.P.degree)
            y = RatFunc(num, den)
        else:
            d = rng.randint(0, size)
            num = rand_poly(rng, field, d - 1) if d else Poly.zero(field)
            num = num + Poly(field, [0] * d + [rng.randrange(1, field.order)])
            den = rand_poly(rng, field, d - 1) if d else Poly.zero(field)
            den = den + Poly(field, [0] * d + [rng.randrange(1, field.order)])
            y = RatFunc(num, den)
        if not y.is_zero() and place.valuation(y) == 0:
            return y


def rand_with_valuation(rng, place, val, size=2):
    return rand_unit_at(rng, place, size) * place.uniformizer**val


def m(field, *strings):
    return DrinfeldModule(field, [parse_ratfunc(field, s) for s in strings])


def module_pool():
    """Fixed monic modules exercising r in {1, 2}, |S| in {0, 1, 2},
    bad places of degree 1 and 2, and the q = 2, r = 1 special case."""
    F2 = finite_field(2)
    F3 = finite_field(3)
    F5 = finite_field(5)
    return [
        ("carlitz-q2", m(F2, "t", "1")),
        ("carlitz-q3", m(F3, "t", "1")),
        ("carlitz-q5", m(F5, "t", "1")),
        ("frobenius-q2", m(F2, "0", "1")),
        ("frobenius-q3", m(F3, "0", "1")),
        ("rank2-two-bad", m(F3, "t", "1/t", "1")),
        ("rank2-deg2-bad", m(F3, "t", "1/(t^2+1)", "1")),
        ("rank2-q2", m(F2, "t^2", "t", "1")),
        ("rank1-finite-bad", m(F3, "(t^2+2)/t", "1")),
    ]


class CheckFailure(Exception):
    """Carries a minimal counterexample description."""


def _fail(fmt, *args):
    raise CheckFailure(fmt % args)


def check_sum_formula(rng, count, modules):
    field_pool = [finite_field(2), finite_field(3), finite_field(5)]
    for i in range(count):
        field = field_pool[i % len(field_pool)]
        y = rand_nonzero_ratfunc(rng, field, 4)
        total = sum(v.degree * m for v, m in support(y))
        if total != 0:
            _fail("sum formula: sum d(v) v(y) = %s for y = %s over GF(%d)",
                  total, y, field.order)


def check_homomorphism(rng, count, modules):
    for i in range(count):
        name, mod = modules[i % len(modules)]
        field = mod.field
        # tau-degree of phi_{b1 b2} is r (deg b1 + deg b2); coefficient degrees
        # scale like q^that, so keep the product degree around 6/r
        maxdeg = 3 if mod.r == 1 else 1
        b1 = rand_nonzero_poly(rng, field, maxdeg)
        b2 = rand_nonzero_poly(rng, field, maxdeg)
        lhs = mod.phi_of(b1 * b2)
        rhs = mod.phi_of(b1) * mod.phi_of(b2)
        if lhs != rhs:
            _fail("homomorphism: phi_{b1 b2} != phi_{b1} phi_{b2} for %s, "
                  "b1 = %s, b2 = %s", name, b1, b2)
        if rhs != mod.phi_of(b2) * mod.phi_of(b1):
            _fail("commutation fails for %s, b1 = %s, b2 = %s", name, b1, b2)
        # bad-reduction lemma: phi_b is integral outside S with constant lead
        S = set(mod.bad_reduction_set())
        phi_b = mod.phi_of(b1)
        lead = phi_b.coeffs[-1]
        if not lead.is_constant():
            _fail("leading coefficient of phi_b not in F_q: %s (%s)", lead, name)
        for c in phi_b.coeffs:
            for v, _ in poles(c):
                if v not in S:
                    _fail("phi_b coefficient %s has a pole at %r outside S (%s)",
                          c, v, name)


def check_reduction_data(rng, count, modules):
    """M_v < 0 iff v in S; ReductionData checks T_v > 0 and |P|, |Q|, |R|."""
    done = 0
    for name, mod in modules:
        S = set(mod.bad_reduction_set())
        candidates = sorted(S, key=lambda v: v.sort_key())
        candidates += [InfinitePlace(mod.field),
                       FinitePlace(Poly.x(mod.field)),
                       FinitePlace(Poly(mod.field, [1, 1]))]
        for v in candidates:
            if done >= count:
                return
            done += 1
            rd = mod.reduction_data(v)
            if (rd.M < 0) != (v in S):
                _fail("M_v < 0 iff v in S fails at %r for %s (M = %s)",
                      v, name, rd.M)
            rd.Q  # builds and checks P, P', P'', Q and R


def _bad_place_cases(rng, count, modules, vmin, vmax_of):
    """Yield (name, module, place, rd, x) with v(x) in a requested range."""
    bad = [(name, mod, v) for name, mod in modules
           for v in mod.bad_reduction_set()]
    for i in range(count):
        name, mod, v = bad[i % len(bad)]
        rd = mod.reduction_data(v)
        hi = vmax_of(rd)
        val = rng.randint(vmin, hi)
        x = rand_with_valuation(rng, v, val)
        yield name, mod, v, rd, x


def check_l0_dichotomy(rng, count, modules):
    """v(phi_t(x)) above the naive minimum forces (v(x), ac(x)) into P x R."""
    for name, mod, v, rd, x in _bad_place_cases(rng, count, modules, -4,
                                                lambda rd: 0):
        vx = v.valuation(x)
        naive = rd.valuation_law(vx)[0]
        vphi = v.valuation(mod.phi_t(x))
        if vphi > naive:
            if not rd.pair_in(Fraction(vx), v.angular_component(x)):
                _fail("L0: jump at %r for %s with x = %s "
                      "(v(phi_t x) = %s > %s) but pair not in P x R",
                      v, name, x, vphi, naive)


def check_l5_dichotomy(rng, count, modules):
    """Either the pair lies in P x R or the local height is >= -M d/q^r
    (and then > d/q^(2r))."""
    for name, mod, v, rd, x in _bad_place_cases(rng, count, modules, -4,
                                                lambda rd: 0):
        vx = v.valuation(x)
        if rd.pair_in(Fraction(vx), v.angular_component(x)):
            continue
        h = local_height(mod, v, x)
        if not h.is_exact:
            _fail("L5: height at %r unresolved for %s with x = %s", v, name, x)
        q, r = mod.q, mod.r
        floor1 = Fraction(-rd.M) * v.degree / q**r
        if h.value < floor1:
            _fail("L5: pair outside P x R but h_v = %s < %s at %r for %s, x = %s",
                  h.value, floor1, v, name, x)
        if not h.value > Fraction(v.degree, q**(2 * r)):
            _fail("L5: h_v = %s not above d(v)/q^(2r) at %r for %s, x = %s",
                  h.value, v, name, x)


def check_another_dichotomy(rng, count, modules):
    """For v(x) <= T_v: pair outside Q x R forces h_v >= -M d / q^(2r)."""
    for name, mod, v, rd, x in _bad_place_cases(
            rng, count, modules, -4, lambda rd: math.floor(rd.T)):
        vx = v.valuation(x)
        if rd.pair_in(Fraction(vx), v.angular_component(x), sets=rd.Q):
            continue
        h = local_height(mod, v, x)
        if not h.is_exact:
            _fail("dichotomy: height at %r unresolved for %s, x = %s", v, name, x)
        floor2 = Fraction(-rd.M) * v.degree / mod.q**(2 * mod.r)
        if h.value < floor2:
            _fail("dichotomy: h_v = %s < %s at %r for %s, x = %s",
                  h.value, floor2, v, name, x)


def check_coherence(rng, count, modules):
    """Embedding heights with coherent degrees equal base heights."""
    F3 = finite_field(3)
    mod = m(F3, "t", "1")
    images = ["u^2", "u^3", "u^2+u", "u^3+2*u+1", "(u^2+1)/u", "1/u^2"]
    for i in range(count):
        emb = SubstitutionEmbedding(parse_ratfunc(F3, images[i % len(images)],
                                                  var="u"))
        x = rand_ratfunc(rng, F3, 3)
        h0 = global_height(mod, x)
        h1 = height_via_embedding(mod, emb, x)
        if not (h0.is_exact and h1.is_exact):
            _fail("coherence: unresolved height for x = %s along %r", x, emb)
        if h0.value != h1.value:
            _fail("coherence: h = %s over K but %s along %r for x = %s",
                  h0.value, h1.value, emb, x)


def check_extension_defect(rng, count, modules):
    """sum e f = [L:K] over random places and substitutions."""
    F3 = finite_field(3)
    F2 = finite_field(2)
    images = [(F3, "u^2"), (F3, "u^3"), (F3, "(u^2+1)/u"), (F2, "u^2+u"),
              (F2, "u^3+u+1"), (F2, "1/u^3")]
    for i in range(count):
        field, img = images[i % len(images)]
        emb = SubstitutionEmbedding(parse_ratfunc(field, img, var="u"))
        P = rand_nonzero_poly(rng, field, 3).monic()
        if P.degree >= 1 and is_irreducible(P):
            v = FinitePlace._of_irreducible(P)
        else:
            v = InfinitePlace(field)
        try:
            extend_places(emb, v)
        except AssertionError as exc:  # sum e f != [L:K]
            _fail("extension defect at %r along %r: %s", v, emb, exc)


def check_multiplicativity(rng, count, modules):
    """hhat(phi_b(x)) = q^(r deg b) hhat(x) whenever both are exact."""
    for i in range(count):
        name, mod = modules[i % len(modules)]
        x = rand_ratfunc(rng, mod.field, 2)
        b = rand_nonzero_poly(rng, mod.field, 2 if mod.r == 1 else 1)
        h1 = global_height(mod, x)
        h2 = global_height(mod, mod.act(b, x))
        if h1.is_exact and h2.is_exact:
            scale = mod.q**(mod.r * b.degree)
            if h2.value != scale * h1.value:
                _fail("multiplicativity: h(phi_b x) = %s != %s * %s for %s, "
                      "x = %s, b = %s", h2.value, scale, h1.value, name, x, b)


def check_torsion_equivalence(rng, count, modules):
    """Torsion decision agrees with killing by B = torsion_lattice(mod).B.

    Only modules whose B is actually evaluable are fuzzed: phi_B(x) has
    degree q^(r deg B) in x.
    """
    usable = []
    for name, mod in modules:
        B = torsion_lattice(mod).B
        if mod.q**(mod.r * B.degree) > 1000:
            continue
        usable.append((name, mod, B))
    for i in range(count):
        name, mod, B = usable[i % len(usable)]
        x = rand_ratfunc(rng, mod.field, 3)
        decided = annihilator_of(mod, x) is not None
        killed = mod.act(B, x).is_zero()
        if decided != killed:
            _fail("torsion equivalence fails for %s, x = %s: decision %s, "
                  "phi_B(x) = 0 is %s", name, x, decided, killed)


def check_isotrivial_decay(rng, count, modules):
    """Constant-coefficient modules: h(x^(1/p^n)) = h(x)/p^n for n <= 3."""
    pool = [m(finite_field(2), "0", "1"), m(finite_field(3), "1", "2", "1")]
    for i in range(count):
        mod = pool[i % len(pool)]
        x = rand_nonzero_ratfunc(rng, mod.field, 3)
        if x.is_constant():
            continue
        base = global_height(mod, x)
        n = rng.randint(0, 3)
        # for prime fields the p^n-th root of x is x itself read in u
        root = x
        h = global_height(insep_level(mod, n), root)
        if not (base.is_exact and h.is_exact):
            _fail("isotrivial decay: unresolved height for x = %s", x)
        p = mod.field.char
        if h.value != base.value / p**n:
            _fail("isotrivial decay: h = %s at level %d but h_0 = %s for x = %s",
                  h.value, n, base.value, x)


def check_lehper_floor(rng, count, modules):
    """Carlitz q=3 non-torsion points at levels <= 2 beat the uniform floor."""
    F3 = finite_field(3)
    mod = m(F3, "t", "1")
    bound = lehmer_bounds(mod).lehper
    done = 0
    while done < count:
        n = rng.randint(0, 2)
        psi = insep_level(mod, n)
        y = rand_nonzero_ratfunc(rng, F3, 3)
        if annihilator_of(psi, y) is not None:
            continue
        done += 1
        h = global_height(psi, y)
        if not h.is_exact:
            _fail("lehper floor: unresolved height at level %d for y = %s", n, y)
        if not h.value > bound:
            _fail("lehper floor: h = %s <= %s at level %d for y = %s",
                  h.value, bound, n, y)


def check_good_reduction_gap(rng, count, modules):
    """S empty: every non-constant point has height >= 1."""
    pool = [m(finite_field(2), "0", "1"), m(finite_field(3), "1", "1", "1")]
    for i in range(count):
        mod = pool[i % len(pool)]
        x = rand_nonzero_ratfunc(rng, mod.field, 3)
        if x.is_constant():
            continue
        h = global_height(mod, x)
        if not h.is_exact or h.value < 1:
            _fail("good-reduction gap: h(%s) = %s < 1", x, h)


def check_angular_law(rng, count, modules):
    """v(y - z) > v(y) = v(z) iff the angular components agree."""
    F3 = finite_field(3)
    pool = [InfinitePlace(F3), FinitePlace(Poly.x(F3)),
            FinitePlace(Poly(F3, [1, 0, 1]))]
    for i in range(count):
        v = pool[i % len(pool)]
        val = rng.randint(-3, 3)
        y = rand_with_valuation(rng, v, val)
        z = rand_with_valuation(rng, v, val)
        if y == z:
            continue
        lhs = v.valuation(y - z) > val
        rhs = v.angular_component(y) == v.angular_component(z)
        if lhs != rhs:
            _fail("angular law fails at %r: y = %s, z = %s", v, y, z)


# (name, check, cases at the default budget of 500)
CHECKS = [
    ("sum-formula", check_sum_formula, 500),
    ("homomorphism", check_homomorphism, 50),
    ("reduction-data", check_reduction_data, 500),
    ("l0-dichotomy", check_l0_dichotomy, 500),
    ("l5-dichotomy", check_l5_dichotomy, 500),
    ("another-dichotomy", check_another_dichotomy, 500),
    ("angular-law", check_angular_law, 500),
    ("coherence", check_coherence, 100),
    ("extension-defect", check_extension_defect, 100),
    ("multiplicativity", check_multiplicativity, 500),
    ("torsion-equivalence", check_torsion_equivalence, 500),
    ("isotrivial-decay", check_isotrivial_decay, 100),
    ("lehper-floor", check_lehper_floor, 200),
    ("good-reduction-gap", check_good_reduction_gap, 500),
]


class VerifyResult:
    def __init__(self):
        self.rows = []  # (name, cases, failure message or None)

    @property
    def ok(self):
        return all(msg is None for _, _, msg in self.rows)

    @property
    def total_cases(self):
        return sum(c for _, c, _ in self.rows)


def run_verify(seed=0, count=500):
    """Run the full suite; returns a VerifyResult with one row per check."""
    result = VerifyResult()
    modules = module_pool()
    for name, fn, default_cases in CHECKS:
        cases = count * default_cases // 500 if count else 0
        rng = random.Random(seed * 1000003 + sum(map(ord, name)))
        message = None
        if cases:
            try:
                fn(rng, cases, modules)
            except CheckFailure as exc:
                message = str(exc)
            except Exception as exc:
                raise RuntimeError("check %s raised %r" % (name, exc)) from exc
        result.rows.append((name, cases, message))
    return result
