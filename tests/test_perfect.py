import random
import time
from fractions import Fraction

import pytest

from conftest import make_module
from drinheights import gf
from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import (InputError, IsotrivialModuleError,
                                NonMonicError)
from drinheights.gf import finite_field
from drinheights.perfect import (InsepLevel, insep_level, key_dichotomy_check,
                                 lehper_check)
from drinheights.heights import global_height, lehmer_bounds
from drinheights.places import FinitePlace, InfinitePlace
from drinheights.ratfunc import (Poly, RatFunc, irreducible_monics, parse_poly,
                                 parse_ratfunc)
from drinheights.torsion import annihilator_of
from drinheights.verify import module_pool, rand_with_valuation


def test_insep_height_carlitz_level1(car3, F3):
    h = global_height(insep_level(car3, 1), RatFunc.x(F3))  # u = t^(1/3)
    assert h.is_exact and h.value == Fraction(4, 9)


def test_insep_height_isotrivial(tau2, F2):
    h = global_height(insep_level(tau2, 1), RatFunc.x(F2))
    assert h.is_exact and h.value == Fraction(1, 2)
    assert global_height(tau2, RatFunc.x(F2)).value == 1


def test_insep_height_level0_is_global(car3, F3):
    for s in ("1", "t", "(t^2+1)/t", "t^2+2*t"):
        x = parse_ratfunc(F3, s)
        assert global_height(insep_level(car3, 0), x) == global_height(car3, x)


def test_sharpness_decay(tau2, F2):
    for n in range(4):
        h = global_height(insep_level(tau2, n), RatFunc.x(F2))
        assert h.is_exact and h.value == Fraction(1, 2**n)


def test_level_zero_is_the_module(car3):
    level = insep_level(car3, 0)
    assert level is car3 and level.index == 1


def test_level_kept_on_the_module(F3):
    # one level per (module, n); a refused level keeps nothing
    mod = make_module(F3, "t", "1/(t^2+1)", "1")
    levels = [insep_level(mod, n) for n in range(3)]
    assert all(insep_level(mod, n) is level for n, level in enumerate(levels))
    assert levels[0] is mod and levels[1] is not mod
    for _ in range(2):
        with pytest.raises(ValueError, match=">= 0"):
            insep_level(mod, -1)
        with pytest.raises(NonMonicError):
            insep_level(make_module(F3, "t", "2"), 1)
        # 3^16 * h(1/(t^2+1)) passes MAX_DEGREE: refused, by the CLI's
        # rule and message, before 3^n is formed
        for n in (16, 10**8):
            start = time.perf_counter()
            with pytest.raises(InputError) as refused:
                insep_level(mod, n)
            assert time.perf_counter() - start < 0.1
        assert str(refused.value) == (
            "insep_level 100000000 (degrees times p^100000000) takes degree "
            "2 past the cap MAX_DEGREE = 100000")
    assert insep_level.cache_info().currsize == 3


def test_insep_level_class_refuses_level_below_one(F3):
    # level 0 is the module itself, kept by insep_level; a second level-0
    # module would keep memos apart from it
    mod = make_module(F3, "t", "1/(t^2+1)", "1")
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1; insep_level"):
            InsepLevel(mod, n)


def _spy_factor(monkeypatch):
    """The polynomials handed to factor from here on, in order."""
    from drinheights import drinfeld, places, ratfunc
    seen = []

    def spy(f):
        seen.append(f)
        return ratfunc.factor(f)
    monkeypatch.setattr(places, "factor", spy)
    monkeypatch.setattr(drinfeld, "factor", spy)
    return seen


@pytest.mark.parametrize("coeffs, n", [
    (("t", "1/(t^2+1)", "1"), 9),
    (("t^2+1", "1/(t^5+t+2)", "1"), 8)])
def test_level_factors_only_the_module_below(monkeypatch, F3, coeffs, n):
    # S and the coefficient valuations are read off the module below: a
    # level that factored its own stretched coefficients would hand factor
    # polynomials of degree 3^n times theirs
    mod = make_module(F3, *coeffs)
    longest = max(max(a.num.degree, a.den.degree) for a in mod.coeffs)
    seen = _spy_factor(monkeypatch)
    level = insep_level(mod, n)
    h = global_height(level, parse_ratfunc(F3, "u^2+1", var="u"))
    assert h.is_exact and level.bad_reduction_set()
    assert seen and max(f.degree for f in seen) <= longest


def _stretch_pool():
    from drinheights.verify import module_pool
    F4, F9 = finite_field(2, 2), finite_field(3, 2)
    # over F_4 and F_9 a stretch by p is not a Frobenius power of F_q
    return [mod for _, mod in module_pool()] + [
        make_module(F4, "t", "1"),
        make_module(F4, "3*t^2+t", "(2*t+1)/(t^2+3)", "1"),
        make_module(F9, "t", "1/(t^3+t+2)", "1"),
        make_module(F9, "5*t+7/(t^2+4)", "1")]


def test_level_push_matches_horner_substitution():
    from drinheights.places import SubstitutionEmbedding
    for mod in _stretch_pool():
        x = Poly.x(mod.field)
        for n in (1, 2):
            emb = SubstitutionEmbedding(
                RatFunc.from_poly(x**mod.field.char**n))
            level = InsepLevel(mod, n)
            assert level.coeffs == tuple(emb.apply(a) for a in mod.coeffs)


def test_level_push_substitutes_nothing(monkeypatch):
    from drinheights import places
    calls = []

    def spy(name):
        return lambda *args, **kwargs: calls.append(name)
    monkeypatch.setattr(RatFunc, "subs", spy("RatFunc.subs"))
    monkeypatch.setattr(Poly, "subs", spy("Poly.subs"))
    monkeypatch.setattr(places.SubstitutionEmbedding, "__init__",
                        spy("SubstitutionEmbedding"))
    for mod in _stretch_pool():
        for n in (1, 2):
            InsepLevel(mod, n)
    assert calls == []


def _closed_form_pool():
    # over F_81 built on F_9 a p^n-th root is not a power of F_9's Frobenius,
    # and over F_9 the place t^2+t+3 (3 = g) twists to u^2+u+6 at odd n
    F9 = finite_field(3, 2)
    F81 = gf._proven_extension(F9, (3, 1, 1))
    return _stretch_pool() + [
        make_module(F9, "t", "1/(t^2+t+3)", "1"),
        make_module(F81, "t", "(t+2)/(t+9)", "1"),
        make_module(F81, "9*t+1/(t^2+t+10)", "1")]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_reads_the_factoring_path_off_the_module_below(n):
    # the pushed module's S and reduction data at each place, read off the
    # module below, equal those of the same coefficients factored afresh
    for mod in _closed_form_pool():
        field = mod.field
        pushed = insep_level(mod, n)
        plain = DrinfeldModule(field, [a.spread(field.char**n)
                                       for a in mod.coeffs])
        S = pushed.bad_reduction_set()
        assert S == plain.bad_reduction_set(), (mod, n)
        u = Poly.x(field)
        good = [FinitePlace(u + Poly.one(field)),
                FinitePlace(next(P for P in irreducible_monics(field, 2)
                                 if FinitePlace(P) not in S))]
        for w in list(S) + good:
            a, b = pushed.reduction_data(w), plain.reduction_data(w)
            assert (a.vals, a.in_S, a.M, a.T, a.newton) == \
                (b.vals, b.in_S, b.M, b.T, b.newton), (mod, n, w)


def test_bad_set_size_invariant(car3, psi2, F3):
    mods = [car3, psi2, make_module(F3, "t", "1/t", "1")]
    for mod in mods:
        s0 = len(mod.bad_reduction_set())
        for n in range(3):
            level = insep_level(mod, n)
            assert len(level.bad_reduction_set()) == s0


def test_tv_growth(car3):
    q, r = car3.q, car3.r
    p = car3.field.char
    for n in range(3):
        level = insep_level(car3, n)
        for w in level.bad_reduction_set():
            T = level.reduction_data(w).T
            assert T >= Fraction(p**n, q**r)


def test_isotrivial_decay_random(tau2, F2):
    rng = random.Random(71)
    for _ in range(40):
        x = RatFunc(Poly(F2, [rng.randrange(2) for _ in range(4)]),
                    Poly(F2, [rng.randrange(2), rng.randrange(2), 1]))
        if x.is_zero() or x.is_constant():
            continue
        base = global_height(tau2, x)
        for n in range(4):
            # prime field: the root has the same coefficients
            h = global_height(insep_level(tau2, n), x)
            assert h.is_exact and h.value == base.value / 2**n


def test_key_dichotomy_psi2_torsion(psi2, F2):
    report = key_dichotomy_check(insep_level(psi2, 0), RatFunc.x(F2))
    assert report.branch == 2
    assert report.b == parse_poly(F2, "t")
    assert all(val == float("inf") for _, val in report.valuations)


def test_key_dichotomy_carlitz_branch1(car3, F3):
    report = key_dichotomy_check(insep_level(car3, 0), RatFunc.one(F3))
    assert report.branch == 1
    assert report.place == InfinitePlace(F3)
    assert report.local == Fraction(1, 3)
    assert report.threshold == Fraction(1, 2) / 3**18


def test_key_dichotomy_zero(car3, F3):
    report = key_dichotomy_check(insep_level(car3, 0), RatFunc.zero(F3))
    assert report.branch == 2 and report.b.is_one()


def test_key_dichotomy_at_level(car3, F3):
    report = key_dichotomy_check(insep_level(car3, 1), RatFunc.x(F3))
    assert report.branch in (1, 2)
    if report.branch == 2:
        pushed = InsepLevel(car3, 1)
        for w, val in report.valuations:
            assert val > pushed.reduction_data(w).T


def test_another_dichotomy_fuzz(car3, psi2, F3):
    """pair outside Q x R at v(x) <= T_v forces h_v >= -M d/q^(2r)."""
    import math
    from drinheights.heights import local_height
    rng = random.Random(72)
    mods = [car3, psi2, make_module(F3, "t", "1/t", "1")]
    for i in range(120):
        mod = mods[i % len(mods)]
        for v in mod.bad_reduction_set():
            rd = mod.reduction_data(v)
            x = rand_with_valuation(rng, v, rng.randint(-3, math.floor(rd.T)))
            vx = v.valuation(x)
            if rd.pair_in(Fraction(vx), v.angular_component(x), sets=rd.Q):
                continue
            h = local_height(mod, v, x)
            assert h.is_exact
            assert h.value >= Fraction(-rd.M) * v.degree / mod.q**(2 * mod.r)


def test_lehper_check_examples(car3, F3):
    rep = lehper_check(insep_level(car3, 1), RatFunc.x(F3))
    assert not rep.torsion
    assert rep.height.value == Fraction(4, 9)
    assert rep.bound == Fraction(1, 3**19)
    assert rep.margin == Fraction(4, 9) - Fraction(1, 3**19)

    rep = lehper_check(insep_level(car3, 0), RatFunc.one(F3))
    assert rep.height.value == Fraction(1, 3)


def test_lehper_check_torsion_report(psi2, F2):
    rep = lehper_check(insep_level(psi2, 0), RatFunc.x(F2))
    assert rep.torsion and rep.annihilator == parse_poly(F2, "t")


def test_lehper_height_comes_before_the_torsion_decision(monkeypatch, F3):
    # at level 1 the point escapes at step 0 at both places of S, so its
    # height is positive, it is not torsion, and no pole lattice is built
    import io
    import sys
    from drinheights import cli, torsion
    built = []
    lattice_init = torsion.TorsionLattice.__init__

    def spy_lattice(self, module):
        built.append(module)
        lattice_init(self, module)
    monkeypatch.setattr(torsion.TorsionLattice, "__init__", spy_lattice)
    job = ('{"field": {"p": 3}, "module": {"coefficients": '
           '["t", "1/(t^2+1)", "1"]}, "point": "u^18/(u^2+1)^6"}')
    monkeypatch.setattr(sys, "stdin", io.StringIO(job))
    assert cli.main(["height", "-", "--insep-level", "1", "--json"]) == 0
    assert built == []
    # a torsion point still gets its annihilator
    level = insep_level(make_module(F3, "t", "1/(t^2+1)", "1"), 1)
    assert lehper_check(level, RatFunc.zero(F3)).torsion


def test_lehper_check_isotrivial_rejected(tau2, F2):
    with pytest.raises(IsotrivialModuleError):
        lehper_check(insep_level(tau2, 1), RatFunc.x(F2))


def test_lehper_check_factors_nothing_once_S_is_built(monkeypatch, F3):
    # isotriviality of a monic module is S = {}: read off the floor, with no
    # divisor of a stretched coefficient taken
    level = insep_level(make_module(F3, "1", "1/(t^40+t^3+2)", "1"), 1)
    level.bad_reduction_set()
    seen = _spy_factor(monkeypatch)
    rep = lehper_check(level, parse_ratfunc(F3, "u^2+1", var="u"))
    assert not rep.torsion and rep.margin > 0
    assert seen == []


def _level_pool():
    F4, F9 = finite_field(2, 2), finite_field(3, 2)
    return [mod for _, mod in module_pool()] + [
        make_module(F4, "t", "1/t", "1"),
        make_module(F9, "t", "1/(t^3+t+2)", "1"),
        make_module(F9, "t", "1/(t^2+t+3)", "1")]


@pytest.mark.parametrize("n", [1, 2])
def test_level_keeps_the_lehmer_constants(n):
    # a push keeps q, r, |S|, the degrees in S and the modular
    # transcendence degree, so the floor that lehper_check reads off a
    # level, and with it the isotriviality test S = {}, are the module's
    for mod in _level_pool():
        level = insep_level(mod, n)
        got, want = lehmer_bounds(level), lehmer_bounds(mod)
        for name in ("sharp", "weak", "lehper", "torsion_degree"):
            assert getattr(got, name) == getattr(want, name), (mod, n, name)
        assert level.modular_trdeg() == mod.modular_trdeg(), (mod, n)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_monic_module_is_isotrivial_exactly_when_S_is_empty(n):
    # the rule lehper_check reads, against the general test modular_trdeg
    for mod in _level_pool():
        assert mod.is_monic
        level = insep_level(mod, n)
        assert level.modular_trdeg() == int(bool(level.bad_reduction_set())), (
            mod, n)


def test_stale_level_calls_raise(car3, F3):
    # (module, n) is taken by insep_level alone; a stale n is not read as x
    x = RatFunc.x(F3)
    with pytest.raises(TypeError):
        lehper_check(car3, 1, x)
    with pytest.raises(TypeError):
        key_dichotomy_check(car3, 0, x)


def test_lehper_floor_random(car3, F3):
    bound = lehmer_bounds(car3).lehper
    rng = random.Random(73)
    done = 0
    levels = {n: insep_level(car3, n) for n in range(3)}
    while done < 60:
        n = rng.randint(0, 2)
        level = levels[n]
        y = RatFunc(Poly(F3, [rng.randrange(3) for _ in range(4)]),
                    Poly(F3, [rng.randrange(3) for _ in range(3)] + [1]))
        if y.is_zero() or annihilator_of(level, y) is not None:
            continue
        done += 1
        rep = lehper_check(insep_level(car3, n), y)
        assert rep.height.value > bound
