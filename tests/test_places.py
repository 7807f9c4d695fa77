import random
from fractions import Fraction

import pytest

from drinheights.gf import finite_field
from drinheights.places import (INFINITY, FinitePlace, InfinitePlace,
                                SubstitutionEmbedding, angular_component,
                                coherent_degree, expansion, extend_places,
                                is_constant, place_below, poles, support)
from drinheights.ratfunc import (Poly, RatFunc, factor, irreducible_monics,
                                 parse_poly, parse_ratfunc)

F2 = finite_field(2)
F3 = finite_field(3)


def P(field, s, var="t"):
    return parse_poly(field, s, var=var)


def R(field, s, var="t"):
    return parse_ratfunc(field, s, var=var)


def test_valuation_examples():
    assert InfinitePlace(F3).valuation(R(F3, "t")) == -1
    assert FinitePlace(P(F2, "t")).valuation(R(F2, "t^2+t")) == 1
    assert InfinitePlace(F3).valuation(RatFunc.zero(F3)) == INFINITY


def test_support_example_and_sum_formula():
    y = R(F3, "(t^2+1)/t^3")
    sup = support(y)
    as_strs = {(p.to_string(), v) for p, v in sup}
    assert as_strs == {("v[t]", -3), ("v[t^2+1]", 1), ("v[inf]", 1)}
    assert sum(p.degree * v for p, v in sup) == 0


def test_support_of_t_and_constants():
    assert {(p.to_string(), v) for p, v in support(R(F2, "t"))} == \
        {("v[t]", 1), ("v[inf]", -1)}
    assert support(RatFunc.one(F3)) == []
    with pytest.raises(ValueError):
        support(RatFunc.zero(F3))


def test_sum_formula_random():
    rng = random.Random(21)
    for _ in range(100):
        num = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 5))])
        den = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 5))])
        if num.is_zero() or den.is_zero():
            continue
        y = RatFunc(num, den)
        if y.is_zero():
            continue
        assert sum(p.degree * v for p, v in support(y)) == 0


def test_residue_examples():
    vq = FinitePlace(P(F3, "u^2+1", var="u"))
    assert vq.residue(RatFunc.x(F3)) == vq.residue_field.gen
    assert InfinitePlace(F3).residue(R(F3, "(t+1)/t")).val == 1
    assert FinitePlace(P(F2, "t")).residue(R(F2, "t+1")).val == 1
    with pytest.raises(ValueError):
        InfinitePlace(F3).residue(R(F3, "t"))


def test_angular_component_examples():
    assert InfinitePlace(F3).angular_component(R(F3, "t^2+1")).val == 1
    assert FinitePlace(P(F2, "t")).angular_component(R(F2, "t^2+t")).val == 1
    vq = FinitePlace(P(F3, "u^2+1", var="u"))
    assert vq.angular_component(vq.uniformizer).val == 1
    with pytest.raises(ValueError):
        vq.angular_component(RatFunc.zero(F3))


def test_angular_component_never_zero():
    rng = random.Random(22)
    places = [InfinitePlace(F3), FinitePlace(P(F3, "t")),
              FinitePlace(P(F3, "t^2+1"))]
    for _ in range(100):
        num = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 4))])
        den = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 4))])
        if num.is_zero() or den.is_zero():
            continue
        y = RatFunc(num, den)
        if y.is_zero():
            continue
        for v in places:
            assert v.angular_component(y).val != 0


def _old_residue(v, y):
    """The residue as first defined: num mod P / den mod P at a finite
    place; lc(num) / lc(den), or 0 for v(y) > 0, at infinity."""
    k = v.residue_field
    if y.is_zero():
        return k.zero
    if isinstance(v, FinitePlace):
        def embed(f):
            coeffs = list((f % v.P).coeffs)
            return k.element(k.from_coords(coeffs + [0] * (v.degree - len(coeffs))))
        return embed(y.num) / embed(y.den)
    if v.valuation(y) > 0:
        return k.zero
    return k.element(v.field.div(y.num.lc, y.den.lc))


def _old_angular_component(v, y):
    """The residue of y * uniformizer^(-v(y)), as first defined."""
    return _old_residue(v, y * v.uniformizer**(-v.valuation(y)))


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_residue_and_angular_component_match_first_definitions(p, k):
    from drinheights.verify import rand_unit_at
    field = finite_field(p, k)
    rng = random.Random(10 * p + k)
    places = [InfinitePlace(field)] + [
        FinitePlace(rng.choice(list(irreducible_monics(field, d))))
        for d in (1, 2, 3)]
    for v in places:
        # valuations of +-1000 at a place of degree 2 or 3 over F_4 or F_9
        # mean polynomials of degree up to 3000 in schoolbook arithmetic
        big = 1000 if k == 1 or v.degree == 1 else 200
        for e in (0, 0, 1, -1, 2, -3, 7, -12, big, -big):
            y = rand_unit_at(rng, v) * v.uniformizer**e
            assert v.valuation(y) == e
            assert v.angular_component(y) == _old_angular_component(v, y)
            if e < 0:
                with pytest.raises(ValueError):
                    v.residue(y)
            else:
                assert v.residue(y) == _old_residue(v, y)
        assert v.residue(RatFunc.zero(field)) == v.residue_field.zero


def _old_support(y):
    """The divisor as first defined: the factors of num with +m, those of
    den with -m, and infinity at deg den - deg num."""
    out = [(FinitePlace(P), m) for P, m in factor(y.num)[1]]
    out += [(FinitePlace(P), -m) for P, m in factor(y.den)[1]]
    if y.den.degree != y.num.degree:
        out.append((InfinitePlace(y.field), y.den.degree - y.num.degree))
    return sorted(out, key=lambda t: t[0].sort_key())


def _old_extend_places(emb, v):
    """(w, e, f, d) above v as first defined: the zeros of P(image) at a
    finite place, of 1/image at infinity."""
    if isinstance(v, FinitePlace):
        img = v.uniformizer.subs(emb.image)
    else:
        img = emb.image**(-1)
    return [(w, e, w.degree // v.degree, Fraction(w.degree, emb.degree))
            for w, e in _old_support(img) if e > 0]


def _rand_ratfunc(rng, field, maxdeg):
    elems = list(field.elements())

    def poly():
        return Poly(field, [rng.choice(elems) for _ in range(rng.randint(0, maxdeg))]
                    + [rng.choice(elems[1:])])
    return RatFunc(poly(), poly())


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_poles_support_extend_places_match_first_definitions(p, k, monkeypatch):
    import drinheights.places as places_mod
    field = finite_field(p, k)
    rng = random.Random(31 * p + k)
    factored = []

    def spy(f):
        factored.append(f)
        return factor(f)
    monkeypatch.setattr(places_mod, "factor", spy)
    ys = [_rand_ratfunc(rng, field, 5) for _ in range(150)]
    ys += [RatFunc.const(field, c) for c in field.elements()]
    ys += [RatFunc.x(field), RatFunc.x(field).inverse()]
    at_inf = set()
    for y in ys:
        factored.clear()
        got = poles(y)
        # poles come from the denominator alone, and 1 is never factored
        assert factored == ([y.den] if y.den.degree > 0 else [])
        if y.is_zero():
            assert got == []
            with pytest.raises(ValueError):
                support(y)
            continue
        old = _old_support(y)
        assert got == [(v, m) for v, m in old if m < 0]
        assert support(y) == old
        at_inf.update(m > 0 for v, m in old if isinstance(v, InfinitePlace))
    assert at_inf == {True, False}  # infinity met as a zero and as a pole

    for _ in range(20):
        image = _rand_ratfunc(rng, field, 3)
        if image.is_constant():
            continue
        emb = SubstitutionEmbedding(image)
        for v in [InfinitePlace(field)] + [
                FinitePlace(rng.choice(list(irreducible_monics(field, d))))
                for d in (1, 2)]:
            got = [(x.above, x.e, x.f, x.d_above) for x in extend_places(emb, v)]
            assert got == _old_extend_places(emb, v)


def test_angular_law():
    rng = random.Random(23)
    v = InfinitePlace(F3)
    pi = v.uniformizer
    for _ in range(200):
        val = rng.randint(-3, 3)
        def unit():
            while True:
                d = rng.randint(0, 2)
                num = Poly(F3, [rng.randrange(3) for _ in range(d)] +
                           [rng.randrange(1, 3)])
                den = Poly(F3, [rng.randrange(3) for _ in range(d)] +
                           [rng.randrange(1, 3)])
                y = RatFunc(num, den)
                if v.valuation(y) == 0:
                    return y
        y = unit() * pi**val
        z = unit() * pi**val
        if y == z:
            continue
        same_ac = v.angular_component(y) == v.angular_component(z)
        assert (v.valuation(y - z) > val) == same_ac


def test_extend_places_t_to_u2():
    emb = SubstitutionEmbedding(R(F3, "u^2", var="u"))
    assert emb.degree == 2

    exts = extend_places(emb, FinitePlace(P(F3, "t")))
    assert [(e.above.to_string("u"), e.e, e.f, e.d_above) for e in exts] == \
        [("v[u]", 2, 1, Fraction(1, 2))]

    exts = extend_places(emb, FinitePlace(P(F3, "t+1")))
    assert [(e.above.to_string("u"), e.e, e.f, e.d_above) for e in exts] == \
        [("v[u^2+1]", 1, 2, Fraction(1))]

    exts = extend_places(emb, FinitePlace(P(F3, "t+2")))  # t - 1 splits
    assert [(e.above.to_string("u"), e.e, e.f, e.d_above) for e in exts] == \
        [("v[u+1]", 1, 1, Fraction(1, 2)), ("v[u+2]", 1, 1, Fraction(1, 2))]


def test_extend_places_defectless_random():
    rng = random.Random(24)
    images = ["u^2", "u^3", "u^4+u", "(u^2+1)/u", "u^3+u+1", "1/u^2"]
    for _ in range(60):
        emb = SubstitutionEmbedding(R(F3, images[rng.randrange(len(images))],
                                      var="u"))
        d = rng.randint(1, 3)
        f = Poly(F3, [rng.randrange(3) for _ in range(d)] + [1])
        from drinheights.ratfunc import is_irreducible
        v = FinitePlace(f) if is_irreducible(f) else InfinitePlace(F3)
        exts = extend_places(emb, v)  # internal defect check
        assert sum(e.e * e.f for e in exts) == emb.degree


def test_tower_consistency():
    # composing t -> u^2 with u -> w^2 matches t -> w^4, degrees multiply
    s1 = SubstitutionEmbedding(R(F3, "u^2", var="u"))
    s2 = SubstitutionEmbedding(R(F3, "w^2", var="w"))
    direct = s1.compose(s2)
    assert direct.image == R(F3, "w^4", var="w")
    for v in [FinitePlace(P(F3, "t")), FinitePlace(P(F3, "t+1")),
              FinitePlace(P(F3, "t+2")), FinitePlace(P(F3, "t^2+1")),
              InfinitePlace(F3)]:
        via_tower = {}
        for e1 in extend_places(s1, v):
            for e2 in extend_places(s2, e1.above, degree_below=e1.d_above):
                via_tower[e2.above] = e2.d_above
        via_direct = {e.above: e.d_above for e in extend_places(direct, v)}
        assert via_tower == via_direct


def test_place_below_roundtrip():
    # place_below is the oracle for the closed form d(w) / [L:K]
    images = ("u^2", "u^3+u", "(u^2+1)/u", "u^3", "u^4+u", "u^3+u+1", "1/u^2")
    places = [FinitePlace(f) for d in (1, 2, 3)
              for f in irreducible_monics(F3, d)] + [InfinitePlace(F3)]
    for img in images:
        emb = SubstitutionEmbedding(R(F3, img, var="u"))
        for v in places:
            for ext in extend_places(emb, v):
                w = ext.above
                assert place_below(emb, w) == v
                assert coherent_degree(emb, w) == ext.d_above \
                    == Fraction(w.degree, emb.degree)


def test_is_constant():
    assert is_constant(RatFunc.one(F3))
    assert not is_constant(R(F3, "t"))
    assert is_constant(R(F3, "(t+1)/(t+1)"))
    assert is_constant(RatFunc.zero(F3))


def test_expansion_reconstructs():
    rng = random.Random(25)
    places = [InfinitePlace(F2), FinitePlace(P(F2, "t")),
              FinitePlace(P(F2, "t^2+t+1"))]
    for _ in range(40):
        num = Poly(F2, [rng.randrange(2) for _ in range(rng.randint(1, 4))])
        den = Poly(F2, [rng.randrange(2) for _ in range(rng.randint(1, 4))])
        if num.is_zero() or den.is_zero():
            continue
        y = RatFunc(num, den)
        if y.is_zero():
            continue
        for v in places:
            upto = 3
            coeffs = expansion(v, y, upto)
            partial = RatFunc.zero(F2)
            pi = v.uniformizer
            for lvl, c in coeffs:
                assert c.val != 0
                partial = partial + v.lift(c) * pi**lvl
            rest = y - partial
            if not rest.is_zero():
                assert v.valuation(rest) > upto
