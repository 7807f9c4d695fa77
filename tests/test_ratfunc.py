import random

import pytest

from drinheights.errors import quote
from drinheights.gf import finite_field
from drinheights.ratfunc import (MAX_DEGREE, ParseError, Poly, RatFunc,
                                 _check_degree, _divide_out, _tokenize, factor,
                                 is_irreducible, irreducible_monics,
                                 monic_polys, ord_at, parse_poly,
                                 parse_ratfunc)

F2 = finite_field(2)
F3 = finite_field(3)


def P(field, s, var="t"):
    return parse_poly(field, s, var=var)


def R(field, s, var="t"):
    return parse_ratfunc(field, s, var=var)


def test_factor_t2_plus_t():
    unit, factors = factor(P(F2, "t^2+t"))
    assert unit == 1
    assert [(str(f), m) for f, m in factors] == [("t", 1), ("t+1", 1)]


def test_u2_plus_1_irreducible_over_f3():
    f = P(F3, "u^2+1", var="u")
    assert is_irreducible(f)
    unit, factors = factor(f)
    assert factors == [(f, 1)]


def test_factor_u2_minus_1_over_f3():
    unit, factors = factor(P(F3, "u^2-1", var="u"))
    assert unit == 1
    assert [(f.to_string("u"), m) for f, m in factors] == [("u+1", 1), ("u+2", 1)]


def test_ord_examples():
    f = P(F2, "t^3+t^2")
    assert ord_at(f, P(F2, "t")) == 2
    assert ord_at(f, P(F2, "t+1")) == 1
    assert ord_at(P(F2, "t+1"), P(F2, "t")) == 0


def test_ord_zero_rejected():
    with pytest.raises(ValueError):
        ord_at(Poly.zero(F2), P(F2, "t"))


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(Poly.zero(F3))


def test_normalization_examples():
    assert str(R(F2, "(t^2+t)/t^2")) == "(t+1)/t"
    assert str(R(F3, "2*t/2")) == "t"
    assert str(R(F3, "0/t")) == "0"
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(F3), Poly.zero(F3))


def test_canonical_form_random():
    rng = random.Random(11)
    for _ in range(200):
        num = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 5))])
        den = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 5))])
        if den.is_zero():
            continue
        x = RatFunc(num, den)
        assert x.den.is_monic()
        if not x.is_zero():
            assert x.num.gcd(x.den).is_one()
        # arithmetic stays canonical
        y = RatFunc(den, num) if not num.is_zero() else x
        for z in (x + y, x - y, x * y):
            assert z.den.is_monic()
            if not z.is_zero():
                assert z.num.gcd(z.den).is_one()


def test_arithmetic_against_fraction_field_axioms():
    rng = random.Random(12)
    for _ in range(100):
        xs = [RatFunc(Poly(F3, [rng.randrange(3) for _ in range(3)]),
                      Poly(F3, [rng.randrange(3) for _ in range(2)] + [1]))
              for _ in range(3)]
        a, b, c = xs
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFunc.zero(F3)
        if not b.is_zero():
            assert (a / b) * b == a


def test_factor_multiplicative_random():
    rng = random.Random(13)
    for _ in range(60):
        f = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 6))])
        g = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 6))])
        if f.is_zero() or g.is_zero():
            continue
        uf, ff = factor(f)
        ug, fg = factor(g)
        ufg, ffg = factor(f * g)
        merged = {}
        for p, m in ff + fg:
            merged[p] = merged.get(p, 0) + m
        assert ufg == F3.mul(uf, ug)
        assert dict(ffg) == merged
        assert sum(m * p.degree for p, m in ffg) == (f * g).degree


def test_irreducibility_vs_brute_force():
    for field in (F2, F3):
        for d in (1, 2, 3, 4):
            for f in monic_polys(field, d):
                brute = not any((f % g).is_zero()
                                for dd in range(1, d // 2 + 1)
                                for g in monic_polys(field, dd))
                assert is_irreducible(f) == brute


def test_factor_deterministic():
    f = P(F3, "t^9+2*t^6+t^4+2*t^2+t+1")
    assert factor(f) == factor(f)


def test_higher_power_factors():
    f = P(F2, "t^4+t^2")  # t^2 (t+1)^2
    unit, factors = factor(f)
    assert [(str(p), m) for p, m in factors] == [("t", 2), ("t+1", 2)]


def test_inseparable_style_factor():
    # f = (t^2 + t + 1)^2 has zero derivative over F_2
    f = P(F2, "t^2+t+1")**2
    assert f.derivative().is_zero()
    unit, factors = factor(f)
    assert factors == [(P(F2, "t^2+t+1"), 2)]


def test_extension_coefficient_field():
    F4 = finite_field(2, 2)
    f = Poly(F4, [2, 1])  # t + g
    g = Poly(F4, [3, 1])  # t + (g+1)
    unit, factors = factor(f * g)
    assert factors == sorted([(f, 1), (g, 1)], key=lambda p: p[0].sort_key())


def test_parse_and_print_roundtrip():
    rng = random.Random(14)
    for _ in range(100):
        num = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 4))])
        den = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 4))])
        if den.is_zero():
            continue
        x = RatFunc(num, den)
        assert R(F3, str(x)) == x


def test_parse_extension_field_literals():
    # integer literals are canonical encodings: "2" over F_4 is the generator
    F4 = finite_field(2, 2)
    g = F4.gen
    f = parse_poly(F4, "t^2+t+2")
    assert f.coeffs == (g.val, 1, 1)
    assert is_irreducible(f)
    assert parse_ratfunc(F4, "5") == RatFunc.const(F4, 5 % 4)


def test_parse_errors():
    with pytest.raises(ParseError):
        R(F3, "t +")
    with pytest.raises(ParseError):
        R(F3, "s^2")  # wrong variable
    with pytest.raises(ParseError):
        R(F3, "t^^2")
    with pytest.raises(ParseError):
        parse_poly(F3, "1/t")


def test_deep_nesting_and_non_ascii_digits_are_parse_errors():
    assert R(F3, "(" * 100 + "t" + ")" * 100) == RatFunc.x(F3)
    for depth in (300, 5000):
        with pytest.raises(ParseError, match="nested too deeply"):
            R(F3, "(" * depth + "t" + ")" * depth)
    # superscript two, Arabic-Indic three, fullwidth one
    for s in ("t^\u00b2", "\u0663*t", "\uff11"):
        with pytest.raises(ParseError, match="unexpected character"):
            R(F3, s)


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (2, 1), (3, 2)])
def test_negative_power_matches_reducing_constructor(p, k):
    field = finite_field(p, k)
    rng = random.Random(40 + p + k)
    xs = []
    for _ in range(150):
        num = Poly(field, [rng.randrange(field.order)
                           for _ in range(rng.randint(1, 5))])
        den = Poly(field, [rng.randrange(field.order)
                           for _ in range(rng.randint(1, 5))])
        if not num or not den:
            continue
        xs.append(RatFunc(num, den))
    # constants, c*t^j and their inverses, with the largest c
    c = field.order - 1
    xs += [RatFunc.const(field, c), R(field, "%d*t^3" % c),
           R(field, "1/(%d*t^2)" % c), R(field, "%d*t/(t+1)" % c)]
    for x in xs:
        for e in (1, 2, 3, 5):
            got = x**-e
            want = RatFunc(x.den**e, x.num**e)
            assert (got.num, got.den) == (want.num, want.den)
            assert got.den.is_monic()
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero(field)**-1


# --- Poly's arithmetic against schoolbook definitions on coefficient lists,
# through the field's element operations alone

def school_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def school_add(field, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return school_trim([field.add(x, y) for x, y in zip(a, b)])


def school_neg(field, a):
    return [field.neg(x) for x in a]


def school_mul(field, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return school_trim(out)


def school_pow(field, a, e):
    out = [1]
    for _ in range(e):
        out = school_mul(field, out, a)
    return out


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_poly_arithmetic_matches_schoolbook(p, k):
    field = finite_field(p, k)
    q = field.order
    rng = random.Random(70 + q)
    # zero, 1, every other constant, monomials c*t^j (c != 1 where the
    # field has one), and dense polynomials with a nonzero top
    pool = [[], [1]] + [[c] for c in range(2, q)]
    for j in (1, 2, 5):
        pool.append([0] * j + [q - 1])
    for _ in range(20):
        n = rng.randint(2, 7)
        pool.append([rng.randrange(q) for _ in range(n - 1)]
                    + [rng.randrange(1, q)])
    for a in pool:
        f = Poly(field, a)
        assert (-f).coeffs == tuple(school_neg(field, a))
        assert (f + (-f)).coeffs == ()
        for c in range(q):
            assert f.scale(c).coeffs == tuple(school_mul(field, [c], a))
        for b in rng.sample(pool, 12) + [[], [1], a]:
            g = Poly(field, b)
            assert (f + g).coeffs == tuple(school_add(field, a, b))
            assert (f - g).coeffs == tuple(
                school_add(field, a, school_neg(field, b)))
            assert (f * g).coeffs == tuple(school_mul(field, a, b))
        top = 50 if sum(map(bool, a)) <= 1 else 6
        for e in range(top + 1):
            assert (f**e).coeffs == tuple(school_pow(field, a, e))


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2)])
def test_division_by_an_integer(p, k):
    field = finite_field(p, k)
    x = R(field, "(t^2+1)/(t+2)")
    for c in (0, p, 2 * p):
        with pytest.raises(ZeroDivisionError):
            x / c
    for c in (2, p + 2, -1):
        assert x / c == x * RatFunc.const(field, c % p).inverse()
        assert (x / c) * c == x


def test_pow_q_spreads():
    x = R(F3, "t+1")
    assert x.pow_q(1) == R(F3, "t^3+1")
    y = R(F2, "t/(t+1)")
    assert y.pow_q(2) == R(F2, "t^4/(t^4+1)")


def test_negative_power_of_zero_is_a_parse_error():
    for s in ("0^-1", "(t-t)^-2", "1/(0^-3)"):
        with pytest.raises(ParseError, match="division by zero"):
            R(F3, s)
    assert R(F3, "0^0") == R(F3, "0^-0") == RatFunc.one(F3)
    assert R(F3, "0^2") == RatFunc.zero(F3)


# --- the parser against the first one, which evaluated through RatFunc
# arithmetic (each step reduced) and is kept here as the oracle

class _OracleParser:
    def __init__(self, field, var, s):
        self.field = field
        self.var = var
        self.tokens = _tokenize(s)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r at position %d" % (kind, tok[2]))
        return tok

    def parse(self):
        value = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input at position %d" % tok[2])
        return value

    def sum(self):
        if self.peek()[0] == "-":
            self.next()
            value = -self.product()
        else:
            value = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.product()
            _check_degree(max(value.num.degree + rhs.den.degree,
                              rhs.num.degree + value.den.degree,
                              value.den.degree + rhs.den.degree))
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self):
        value = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.power()
            _check_degree(value.weil_height() + rhs.weil_height())
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero")
                value = value / rhs
        return value

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            neg = False
            if self.peek()[0] == "-":
                self.next()
                neg = True
            tok = self.expect("int")
            e = -tok[1] if neg else tok[1]
            if e < 0 and base.is_zero():
                raise ParseError("division by zero")
            _check_degree(base.weil_height() * abs(e))
            return base**e
        return base

    def atom(self):
        tok = self.next()
        if tok[0] == "int":
            return RatFunc.const(self.field, tok[1] % self.field.order)
        if tok[0] == "name":
            if tok[1] != self.var:
                raise ParseError("unknown symbol %s at position %d (variable is %r)"
                                 % (quote(tok[1]), tok[2], self.var))
            return RatFunc.x(self.field)
        if tok[0] == "(":
            value = self.sum()
            self.expect(")")
            return value
        raise ParseError("unexpected token at position %d" % tok[2])


def _outcome(parse, field, s):
    try:
        return parse(field, s)
    except ParseError as exc:
        return "ParseError: %s" % exc


def _oracle_parse(field, s):
    return _OracleParser(field, "t", s).parse()


def _random_expression(rng, q, depth):
    """A random expression over + - * / ^, with negative exponents, nested
    parentheses, literals past q and subexpressions that are zero."""
    def atom():
        roll = rng.random()
        if depth > 0 and roll < 0.3:
            return "(%s)" % _random_expression(rng, q, depth - 1)
        if roll < 0.4:
            return rng.choice(["(t-t)", "0", str(q), "(%d*t-%d*t)" % (q, q)])
        if roll < 0.7:
            return str(rng.randrange(1, 2 * q + 2))
        return "t"

    def power():
        a = atom()
        if rng.random() < 0.3:
            a += "^" + rng.choice(["-", ""]) + str(rng.randrange(0, 5))
        return a

    def product():
        out = power()
        for _ in range(rng.randrange(3)):
            out += rng.choice("*/") + power()
        return out

    out = rng.choice(["-", ""]) + product()
    for _ in range(rng.randrange(3)):
        out += rng.choice("+-") + product()
    return out


# each is accepted or refused by the cap on the reduced operands, while the
# unreduced ones bound the step past MAX_DEGREE; the monomial ones stay cheap
# over F_4 and F_9, whose kernels are schoolbook
CAP_CASES = [
    "(t^2/t^2)^60000", "(t^2/t)^60000", "(t^2/t)^100001", "(t^3/t)^50001",
    "(t^50000/t^50000)^3", "(t^99999-t^99999+1)^100000",
    "(t^60000/t^60000)*t^60000", "t^60000/t^60000+t^60000/(t+1)",
    "t^60000/t^10000+t^50000/t^50000", "t^60000/t^10000-t^50000/t^50000",
    "t^50000/t^50000*t^99999", "t^99999/(t^50000/t^50000)",
    "t^99999/(t^50000-t^50000)", "(t^40000/t^40000+1)^-70000",
    "t^100000", "t^100001", "(t/t)^100001", "t^-100000",
    "1/t^50000+1/t^50001", "1/t^50000-1/t^50000",
]
CAP_CASES_PRIME = [
    "((t+1)^50000/(t+1)^50000)^3",
    "(t+1)^50000/(t+1)^49999+t^99999",
    "t^50001/(t+1)^50000+1/(t+2)^50000",
]


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_parser_matches_ratfunc_arithmetic_oracle(p, k):
    field = finite_field(p, k)
    rng = random.Random(500 + 10 * p + k)
    cases = [_random_expression(rng, field.order, 3) for _ in range(400)]
    cases += CAP_CASES + (CAP_CASES_PRIME if k == 1 else [])
    refused = 0
    for s in cases:
        want = _outcome(_oracle_parse, field, s)
        assert _outcome(parse_ratfunc, field, s) == want, s
        refused += isinstance(want, str)
    # both kinds of outcome are exercised
    assert 20 < refused < len(cases) - 100


def test_degree_cap_reads_reduced_operands():
    # accepted: the reduced base has height 0 (an unreduced one would pass
    # the cap: 3 * 50000, and 100000 * 99999 when t^99999 is not cancelled)
    for s in ("((t+1)^50000/(t+1)^50000)^3", "(t^99999-t^99999+1)^100000"):
        x = R(F3, s)
        assert x == RatFunc.one(F3) and x.weil_height() == 0
    for s in ("(t^60000/t^60000)*t^60000", "t^60000/t^60000+t^60000/(t+1)"):
        with pytest.raises(ParseError, match="degree up to 120000 exceeds "
                                             "the cap MAX_DEGREE = %d" % MAX_DEGREE):
            R(F3, s)


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3),
                                  (3, 2)])
def test_spread_matches_horner_substitution(p, k):
    # the stretch t -> u^N against the general substitution, for N = p^n
    from drinheights.places import SubstitutionEmbedding
    field = finite_field(p, k)
    rng = random.Random(1000 * p + k)

    def rand_poly(deg):
        return Poly(field, [rng.randrange(field.order) for _ in range(deg + 1)])

    for n in range(4):
        N = p**n
        image = RatFunc.from_poly(Poly.x(field)**N)
        emb = SubstitutionEmbedding(image)
        xs = [RatFunc.zero(field), RatFunc.one(field),
              RatFunc.const(field, field.order - 1)]
        for _ in range(6):
            num, den, g = rand_poly(3), rand_poly(3), rand_poly(2)
            if den and g:
                # a common factor g (and a denominator that need not be
                # monic), which the constructor reduces away
                xs.append(RatFunc(num * g, den * g))
        for x in xs:
            # Horner's result is reduced, so equality shows spread's is too
            assert x.spread(N) == emb.apply(x)
            assert RatFunc.from_poly(x.num.spread(N)) == x.num.subs(image)


def test_irreducible_monics_counts():
    # number of monic irreducibles of degree 2 over F_q is (q^2 - q)/2
    assert len(list(irreducible_monics(F3, 2))) == 3
    assert len(list(irreducible_monics(F2, 3))) == 2


def test_weil_height():
    assert R(F3, "t").weil_height() == 1
    assert R(F3, "1/t^2").weil_height() == 2
    assert RatFunc.zero(F3).weil_height() == 0
    assert RatFunc.const(finite_field(7), 5).weil_height() == 0


# --- multiplicities: factor() against sympy, ord_at against repeated division

def _multiplicities(p):
    return sorted({1, p - 1, p, p + 1, p * p, 2 * p * p + 3, 1000})


def _random_product(field, max_degree, rng):
    """(f, unit, {g: m}) with f = unit * prod g^m, the g distinct random
    monic irreducibles.

    Each multiplicity of _multiplicities(char) appears once; the ones of 100
    and more sit on linear factors, which keeps the degree under 1500.
    """
    p = field.char
    pool = {d: list(irreducible_monics(field, d)) for d in range(1, max_degree + 1)}
    expected = {}
    for m in reversed(_multiplicities(p)):
        degrees = [1] if m >= 100 else [d for d in pool if pool[d]]
        d = rng.choice(degrees)
        g = pool[d].pop(rng.randrange(len(pool[d])))
        expected[g] = m
    unit = rng.randrange(1, field.order)
    f = Poly.const(field, unit)
    for g, m in expected.items():
        f = f * g**m
    return f, unit, expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    field = finite_field(p)
    t = sympy.Symbol("t")
    f, unit, expected = _random_product(field, 4 if p == 2 else 3,
                                        random.Random(100 + p))
    lc, sym_factors = sympy.Poly(list(reversed(f.coeffs)), t,
                                 modulus=p).factor_list()
    oracle = sorted(((Poly(field, [int(c) % p for c in reversed(g.all_coeffs())]), m)
                     for g, m in sym_factors), key=lambda gm: gm[0].sort_key())
    got_unit, got = factor(f)
    assert got == oracle
    assert got_unit == int(lc) % p == unit
    assert dict(got) == expected
    # linear polynomials, monic or not, and products with one factor in
    # each distinct-degree block: no split, so no random draw
    rng = random.Random(300 + p)
    cases = [Poly(field, [rng.randrange(p), c]) for c in range(1, p)]
    for _ in range(6):
        g = Poly.const(field, rng.randrange(1, p))
        for d in rng.sample(range(1, 4), rng.randint(1, 3)):
            g = g * rng.choice(list(irreducible_monics(field, d)))**rng.randint(1, 3)
        cases.append(g)
    for g in cases:
        lc, sym_factors = sympy.Poly(list(reversed(g.coeffs)), t,
                                     modulus=p).factor_list()
        oracle = sorted(((Poly(field, [int(c) % p for c in reversed(h.all_coeffs())]), m)
                         for h, m in sym_factors), key=lambda gm: gm[0].sort_key())
        assert factor(g) == (int(lc) % p, oracle), g


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2)])
def test_factor_takes_a_linear_polynomial_as_it_is(p, k, monkeypatch):
    field = finite_field(p, k)
    for c0 in field.elements():
        for c1 in range(1, field.order):
            f = Poly(field, [c0, c1])
            assert factor(f) == (c1, [(f.monic(), 1)])
    from types import SimpleNamespace
    from drinheights import ratfunc
    # one factor per distinct-degree block: nothing is split, and the
    # splitting generator is never built
    built = []
    monkeypatch.setattr(ratfunc, "random", SimpleNamespace(
        Random=lambda seed: built.append(seed) or random.Random(seed)))
    A = next(irreducible_monics(field, 1))
    B = next(irreducible_monics(field, 2))
    assert factor(A**3 * B) == (1, sorted([(A, 3), (B, 1)],
                                          key=lambda gm: gm[0].sort_key()))
    assert built == []
    factor(A * (A + Poly.one(field)))
    assert len(built) == 1
    calls = []
    monkeypatch.setattr(ratfunc, "_squarefree_decomposition",
                        lambda f: calls.append(f))
    assert factor(Poly(field, [1, 2])) == (2, [(Poly(field, [1, 2]).monic(), 1)])
    assert calls == []


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2)])
def test_factor_high_multiplicities_extension_fields(p, k):
    # no sympy oracle over F_4 and F_9: rebuild f and test each factor
    field = finite_field(p, k)
    rng = random.Random(200 + p)
    f, unit, expected = _random_product(field, 2, rng)
    got_unit, got = factor(f)
    rebuilt = Poly.const(field, got_unit)
    for g, m in got:
        assert g.is_monic() and is_irreducible(g)
        rebuilt = rebuilt * g**m
    assert rebuilt == f
    assert got_unit == unit and dict(got) == expected


def _ord_by_division(f, P):
    e = 0
    while True:
        q, r = divmod(f, P)
        if r:
            return e
        f, e = q, e + 1


ORD_EXPONENTS = sorted({0, 1} | {e for k in range(1, 7)
                                 for e in (2**k - 1, 2**k, 2**k + 1)})


@pytest.mark.parametrize("field", [F2, F3, finite_field(2, 2)], ids=str)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_ord_at_matches_repeated_division(field, degree):
    rng = random.Random(degree)
    irreducibles = list(irreducible_monics(field, degree))
    for e in ORD_EXPONENTS:
        P = rng.choice(irreducibles)
        u = Poly(field, [rng.randrange(field.order) for _ in range(rng.randint(1, 6))])
        if u.is_zero():
            u = Poly.one(field)
        f = P**e * u
        v = ord_at(f, P)
        assert v == _ord_by_division(f, P) and v >= e
        assert _divide_out(f, P) == (v, f // P**v)


def _count_calls(monkeypatch, field, name):
    calls = []
    inner = getattr(field, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(field, name, wrapper)
    return calls


@pytest.mark.parametrize("e", [999, 1000, 1023, 1024, 1025])
@pytest.mark.parametrize("degree", [1, 2])
def test_ord_at_logarithmic_divisions(monkeypatch, e, degree):
    field = finite_field(3)
    P = next(irreducible_monics(field, degree))
    f = P**e * Poly(field, [2, 0, 1, 1])
    divisions = _count_calls(monkeypatch, field, "poly_divmod")
    assert ord_at(f, P) == e
    # ceil(log2(e + 1)) == e.bit_length() for e >= 0
    assert len(divisions) <= 2 * e.bit_length() + 2


@pytest.mark.parametrize("e", [0, 1])
def test_ord_at_small_valuations_are_cheap(monkeypatch, e):
    # valuations 0 and 1 are the common case in torsion and small jobs
    field = finite_field(3)
    P = Poly(field, [1, 0, 1])
    f = P**e * Poly(field, [1, 1, 0, 2, 1, 1])
    divisions = _count_calls(monkeypatch, field, "poly_divmod")
    products = _count_calls(monkeypatch, field, "poly_mul")
    assert ord_at(f, P) == e
    assert len(divisions) <= 3 and len(products) <= 1


def test_ord_at_no_division_when_degree_too_high(monkeypatch):
    field = finite_field(3)
    f = Poly(field, [1, 1, 1])
    divisions = _count_calls(monkeypatch, field, "poly_divmod")
    assert ord_at(f, Poly(field, [2, 0, 1, 1])) == 0
    assert divisions == []


def test_factor_high_power_logarithmic_gcds(monkeypatch):
    field = finite_field(3)
    t1 = Poly(field, [1, 1])
    f = t1**1000
    gcds = _count_calls(monkeypatch, field, "poly_gcd")
    assert factor(f) == (1, [(t1, 1000)])
    # one gcd per unit of multiplicity would be about 1000
    assert len(gcds) <= 2 * (1000).bit_length()
