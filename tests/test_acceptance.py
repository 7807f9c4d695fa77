"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.
"""

import random
from fractions import Fraction

import pytest

from conftest import make_module
from drinheights import drinfeld as drinfeld_mod
from drinheights import verify as V
from drinheights.drinfeld import DrinfeldModule
from drinheights.gf import finite_field
from drinheights.heights import (check_t2mwg, global_height,
                                 height_via_embedding, lehmer_bounds,
                                 local_height)
from drinheights.perfect import insep_level
from drinheights.places import (InfinitePlace, SubstitutionEmbedding,
                                extend_places, support)
from drinheights.ratfunc import Poly, RatFunc, parse_poly, parse_ratfunc
from drinheights.torsion import (annihilator_bound, annihilator_of,
                                 torsion_enumerate)

F2 = finite_field(2)
F3 = finite_field(3)


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %d %s: %s" % (self.number, status, self.label))
        return False


def test_criterion_1_psi2_worked_example(psi2):
    with criterion(1, "psi_2 over F_2(t): bad set, torsion kernels, "
                      "degree-2 annihilator for the point 1"):
        S = psi2.bad_reduction_set()
        assert [v.to_string() for v in S] == ["v[inf]"]
        assert psi2.r * psi2.N_phi * len(S) == 2
        t = RatFunc.x(F2)
        one = RatFunc.one(F2)
        assert psi2.act(parse_poly(F2, "t"), t).is_zero()
        assert psi2.act(parse_poly(F2, "t+1"), t + one).is_zero()
        # no monic polynomial of degree 1 annihilates the point 1
        for b in ("t", "t+1"):
            assert not psi2.act(parse_poly(F2, b), one).is_zero()
        assert psi2.act(parse_poly(F2, "t^2+t"), one).is_zero()
        assert annihilator_of(psi2, one) == parse_poly(F2, "t^2+t")


def test_criterion_2_psi_p_torsion():
    with criterion(2, "psi_p over F_p(u), t = -u^(p-1): torsion is "
                      "{c u : c in F_p}, |S| = 1, D = 1, killed by t"):
        for p in (3, 5):
            field = finite_field(p)
            u = RatFunc.x(field)
            mod = DrinfeldModule(field, [-(u**(p - 1)), RatFunc.one(field)])
            assert len(mod.bad_reduction_set()) == 1
            bound = annihilator_bound(mod)
            assert bound.D == 1
            points = torsion_enumerate(mod)
            expected = sorted((u.scale(c) for c in field.elements()),
                              key=lambda r: r.sort_key())
            assert points == expected and len(points) == p
            t_poly = Poly.x(field)
            for x in points:
                assert mod.act(t_poly, x).is_zero()


def test_criterion_3_carlitz_q3_heights(car3):
    with criterion(3, "Carlitz q=3: h(1) = 1/3, h(t) = 1 (oracle-checked), "
                      "torsion {0}, 1/3 > 3^-3 certificate"):
        vinf = InfinitePlace(F3)

        def oracle(x, n):
            # independent limit quotient -min{0, v(phi_{t^n}(x))} / 3^n
            y = x
            for _ in range(n):
                y = car3.phi_t(y)
            return Fraction(-min(0, vinf.valuation(y)), 3**n)

        one = RatFunc.one(F3)
        t = RatFunc.x(F3)
        for n in range(1, 6):
            assert oracle(one, n) == Fraction(1, 3)
            assert oracle(t, n) == 1
        assert global_height(car3, one).value == Fraction(1, 3)
        assert global_height(car3, t).value == 1
        assert [str(x) for x in torsion_enumerate(car3)] == ["0"]
        cert = check_t2mwg(car3, one)
        assert cert.kind == "witness"
        assert cert.local == Fraction(1, 3)
        assert cert.bound == lehmer_bounds(car3).sharp * cert.place.degree
        assert cert.bound == Fraction(1, 27) and cert.local > cert.bound


def test_criterion_4_coherence(car3):
    with criterion(4, "coherence: 100 random points, t -> u^2 and t -> u^3 "
                      "heights agree; sum(e f) = [L:K] at every tested place"):
        rng = random.Random(2024)
        embeddings = [SubstitutionEmbedding(parse_ratfunc(F3, img, var="u"))
                      for img in ("u^2", "u^3")]
        for _ in range(100):
            x = V.rand_ratfunc(rng, F3, 3)
            h0 = global_height(car3, x)
            assert h0.is_exact
            for emb in embeddings:
                h1 = height_via_embedding(car3, emb, x)
                assert h1.is_exact and h1.value == h0.value
                places = set(car3.bad_reduction_set())
                if not x.is_zero():
                    places.update(v for v, _ in support(x))
                for v in places:
                    exts = extend_places(emb, v)
                    assert sum(e.e * e.f for e in exts) == emb.degree


def test_criterion_5_perfect_closure_floor(car3):
    with criterion(5, "perfect-closure floor: h(t^(1/3)) = 4/9 > 3^-19; "
                      "200 random non-torsion points over levels <= 2"):
        h = global_height(insep_level(car3, 1), RatFunc.x(F3))
        assert h.is_exact and h.value == Fraction(4, 9)
        bound = lehmer_bounds(car3).lehper
        assert bound == Fraction(1, 3**19)
        assert h.value > bound
        rng = random.Random(3030)
        V.check_lehper_floor(rng, 200, V.module_pool())


def test_criterion_6_sharpness_decay(tau2):
    with criterion(6, "sharpness: phi_t = tau over F_2(t) has "
                      "h(t^(1/2^n)) = 2^-n for n = 0..3"):
        for n in range(4):
            h = global_height(insep_level(tau2, n), RatFunc.x(F2))
            assert h.is_exact and h.value == Fraction(1, 2**n)


def test_criterion_7_property_suites():
    with criterion(7, "500-case fuzz: sum formula, multiplicativity, "
                      "dichotomies, torsion equivalence, good-reduction gap"):
        pool = V.module_pool()
        V.check_sum_formula(random.Random(701), 500, pool)
        V.check_multiplicativity(random.Random(702), 500, pool)
        V.check_l0_dichotomy(random.Random(703), 500, pool)
        V.check_l5_dichotomy(random.Random(704), 500, pool)
        V.check_another_dichotomy(random.Random(705), 500, pool)
        V.check_torsion_equivalence(random.Random(706), 500, pool)
        V.check_good_reduction_gap(random.Random(707), 500, pool)


def test_criterion_8_cardinality_bounds(monkeypatch):
    with criterion(8, "cardinality bounds |P| <= N, |R| <= q^r on P, "
                      "|Q| <= 2(r+1), |R| < q^(2(r+1)) on Q, every "
                      "ReductionData constructed"):
        # every ReductionData construction self-checks (and raises on
        # violation); confirm the checks actually ran over this session
        runs = []
        check = drinfeld_mod.ReductionData._check

        def counted(self, sets):
            runs.append(self)
            return check(self, sets)
        monkeypatch.setattr(drinfeld_mod.ReductionData, "_check", counted)
        V.check_reduction_data(random.Random(801), 500, V.module_pool())
        assert runs
        # explicit sweep, including a degree-2 bad place and r = 2
        mods = [make_module(F3, "t", "1"),
                make_module(F2, "t", "1"),
                make_module(F3, "t", "1/t", "1"),
                make_module(F3, "t", "1/(t^2+1)", "1")]
        for mod in mods:
            q, r = mod.q, mod.r
            for v in mod.bad_reduction_set():
                rd = mod.reduction_data(v)
                assert len(rd.P) <= rd.N_phi
                assert len(rd.Q) <= 2 * (r + 1)
                for alpha in rd.P:
                    assert len(rd.R[alpha]) <= q**r
                for alpha in rd.Q:
                    assert len(rd.R[alpha]) < q**(2 * (r + 1))
