"""Exact univariate polynomials and rational functions over F_q.

Coefficients are canonical int encodings of field elements (see
:mod:`drinheights.gf`); a :class:`Poly` keeps them trimmed, constant term
first.  A :class:`RatFunc` is always reduced with a monic denominator, and 0
is represented as 0/1.  Factorization into irreducibles (squarefree split +
distinct degree + Cantor-Zassenhaus equal degree) is the engine behind the
finite places of F_q(t).

Poly's arithmetic and the parser share one set of kernels on coefficient
lists (_add, _neg, _scale, _mul, _pow).  Text such as "(t^2+1)/t^3" is
parsed by :func:`parse_ratfunc`, which evaluates on plain coefficient lists
through those kernels and reduces once per expression, at the end.
"""

import random

from drinheights.errors import InputError, quote
from drinheights.gf import (_poly_is_irreducible, _trim, monic_coeffs,
                            poly_str)

NEG_INF = float("-inf")
# the largest Weil height an expression may reach while it is parsed: a few
# bytes such as "t^100000000" must not ask for a huge power (a height job on
# t^100000 takes about a second)
MAX_DEGREE = 100_000


# --- kernels on coefficient sequences ---
# Poly's operators and the parser share these.  Each takes the field and
# trimmed lists or tuples of coefficients and returns a list, or one of its
# arguments as it stands; only _add can leave zeros on top.

def _add(field, a, b):
    """a + b, untrimmed: the top coefficients may cancel."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return out


def _neg(field, a):
    return [field.neg(c) for c in a]


def _scale(field, a, c):
    """c * a for the field element with encoding c."""
    return [field.mul(c, x) for x in a] if c else []


def _mul(field, a, b):
    """a * b: a factor 1 gives the other factor, another constant scales."""
    if len(a) == 1:
        return b if a[0] == 1 else _scale(field, b, a[0])
    if len(b) == 1:
        return a if b[0] == 1 else _scale(field, a, b[0])
    return field.poly_mul(a, b)


def _pow(field, a, e):
    """a**e for e >= 0: a monomial c*t^j, such as t itself, is written out,
    anything else is squared and multiplied."""
    if e == 0:
        return [1]
    if not a:
        return a
    if not any(a[:-1]):
        return [0] * ((len(a) - 1) * e) + [field.pow_(a[-1], e)]
    result = None
    while e:
        if e & 1:
            result = a if result is None else _mul(field, result, a)
        e >>= 1
        if e:
            a = _mul(field, a, a)
    return result


class Poly:
    """Dense polynomial over a finite field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_constant(self):
        return len(self.coeffs) <= 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)

    def __add__(self, other):
        return Poly(self.field, _add(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        f = self.field
        return Poly(f, _add(f, self.coeffs, _neg(f, other.coeffs)))

    def __neg__(self):
        return Poly(self.field, _neg(self.field, self.coeffs))

    def __mul__(self, other):
        # Poly is immutable, so a factor 1 can hand back the other factor
        if self.coeffs == (1,):
            return other
        if other.coeffs == (1,):
            return self
        return Poly(self.field, _mul(self.field, self.coeffs, other.coeffs))

    def scale(self, c):
        """Multiply by the field element with encoding c."""
        return Poly(self.field, _scale(self.field, self.coeffs, c))

    def __divmod__(self, other):
        q, r = self.field.poly_divmod(self.coeffs, other.coeffs)
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return Poly(self.field, _pow(self.field, self.coeffs, e))

    def gcd(self, other):
        return Poly(self.field, self.field.poly_gcd(self.coeffs, other.coeffs))

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        inv = self.field.inv(self.lc)
        return self.scale(inv)

    def derivative(self):
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(f.mul(i % f.char, self.coeffs[i]))
        return Poly(f, out)

    def subs(self, value):
        """Evaluate at a RatFunc by Horner."""
        acc = RatFunc.zero(self.field)
        const = RatFunc.const
        for c in reversed(self.coeffs):
            acc = acc * value + const(self.field, c)
        return acc

    def spread(self, N):
        """f(x^N); f**N when N is a power of q (coefficients in F_q)."""
        if N == 1 or self.is_zero():
            return self
        out = [0] * (N * (len(self.coeffs) - 1) + 1)
        out[::N] = self.coeffs
        return Poly(self.field, out)

    def pth_root(self):
        """Inverse of f -> f**p; requires all exponents divisible by p."""
        f = self.field
        p = f.char
        e = f.order // p
        out = []
        for i in range(0, len(self.coeffs), p):
            out.append(f.pow_(self.coeffs[i], e))
        return Poly(f, out)

    def to_string(self, var="t"):
        return poly_str(self.coeffs, var)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "Poly(%s)" % self.to_string()


class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = Poly.one(num.field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            if num.is_zero():
                den = Poly.one(num.field)
            else:
                g = num.gcd(den)
                if not g.is_one():
                    num = num // g
                    den = den // g
                if not den.is_monic():
                    inv = num.field.inv(den.lc)
                    num = num.scale(inv)
                    den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, field):
        return cls(Poly.zero(field), Poly.one(field), _reduced=True)

    @classmethod
    def one(cls, field):
        return cls(Poly.one(field), Poly.one(field), _reduced=True)

    @classmethod
    def const(cls, field, c):
        return cls(Poly.const(field, c), Poly.one(field), _reduced=True)

    @classmethod
    def x(cls, field):
        return cls(Poly.x(field), Poly.one(field), _reduced=True)

    @classmethod
    def from_poly(cls, p):
        return cls(p, Poly.one(p.field), _reduced=True)

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self):
        return self.den.is_one()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_one()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    def _add_reduced(self, other, sign):
        # a/b + c/d with g = gcd(b, d): the only possible common factor of
        # a d' + c b' and b d' is inside g, so one small gcd finishes the job
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b.is_one():
            g = None
        else:
            g = b.gcd(d)
        if g is None or g.is_one():
            num = a * d + c * b if sign > 0 else a * d - c * b
            return RatFunc(num, b * d, _reduced=True) if num else RatFunc.zero(self.field)
        b1 = b // g
        d1 = d // g
        num = a * d1 + c * b1 if sign > 0 else a * d1 - c * b1
        if num.is_zero():
            return RatFunc.zero(self.field)
        h = num.gcd(g)
        if h.is_one():
            return RatFunc(num, b * d1, _reduced=True)
        return RatFunc(num // h, (b // h) * d1, _reduced=True)

    def __add__(self, other):
        return self._add_reduced(other, +1)

    def __sub__(self, other):
        return self._add_reduced(other, -1)

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.field.char
            return self.scale(c)
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.field)
        a, b = self.num, self.den
        c, d = other.num, other.den
        g1 = a.gcd(d) if not d.is_one() else None
        if g1 is not None and not g1.is_one():
            a, d = a // g1, d // g1
        g2 = c.gcd(b) if not b.is_one() else None
        if g2 is not None and not g2.is_one():
            c, b = c // g2, b // g2
        # b and d are monic, and so are their quotients by monic gcds
        return RatFunc(a * c, b * d, _reduced=True)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        inv = self.field.inv(self.num.lc)
        return RatFunc(self.den.scale(inv), self.num.scale(inv), _reduced=True)

    def __truediv__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.inv(other % self.field.char))
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            # the inverse is reduced with a monic denominator, and so are
            # its powers
            return self.inverse()**-e
        return RatFunc(self.num**e, self.den**e, _reduced=True) if e != 1 else self

    def scale(self, c):
        """Multiply by the field element with encoding c."""
        if c == 0:
            return RatFunc.zero(self.field)
        return RatFunc(self.num.scale(c), self.den, _reduced=True)

    def pow_q(self, e):
        """self**(q^e) via exponent spreading; stays reduced."""
        return self.spread(self.field.order**e)

    def spread(self, N):
        """self(x^N), reduced as it stands: F_q[x] is free over F_q[x^N]."""
        return RatFunc(self.num.spread(N), self.den.spread(N), _reduced=True)

    def subs(self, value):
        """Substitute a RatFunc for the variable."""
        num = self.num.subs(value)
        den = self.den.subs(value)
        if den.is_zero():
            raise ZeroDivisionError("substitution maps denominator to zero")
        return num / den

    def weil_height(self):
        """max(deg num, deg den); 0 for the zero function."""
        if self.is_zero():
            return 0
        return max(self.num.degree, self.den.degree)

    def to_string(self, var="t"):
        if self.den.is_one():
            return self.num.to_string(var)
        ns = self.num.to_string(var)
        ds = self.den.to_string(var)
        if len(self.num.coeffs) - self.num.coeffs.count(0) > 1:
            ns = "(%s)" % ns
        if len(self.den.coeffs) - self.den.coeffs.count(0) > 1:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "RatFunc(%s)" % self.to_string()


# --- parsing ---

class ParseError(ValueError):
    pass


_DIGITS = frozenset("0123456789")
# parentheses may nest this many levels deep: the descent takes three stack
# frames per level, 600 at the bound, under the interpreter's default
# recursion limit of 1000
MAX_NESTING = 200


def _tokenize(s):
    # digits are ASCII 0-9 only: str.isdigit() also accepts digits such as
    # superscripts that int() refuses, and other scripts' digits
    tokens = []
    i = 0
    while i < len(s):
        c = s[i]
        if c.isspace():
            i += 1
        elif c in _DIGITS:
            j = i
            while j < len(s) and s[j] in _DIGITS:
                j += 1
            try:
                value = int(s[i:j])
            except ValueError:
                # past Python's int-to-string digit limit; named by its
                # length, since the caller quotes the whole input
                raise ParseError("integer literal of %d digits at position %d "
                                 "has too many digits" % (j - i, i)) from None
            tokens.append(("int", value, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            tokens.append(("name", s[i:j], i))
            i = j
        elif c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ParseError("unexpected character %r at position %d" % (c, i))
    tokens.append(("end", None, len(s)))
    return tokens


def check_push(what, multiplier, *pushed):
    """The push rule: a push to F_q(u) (a level t = u^(p^n), a substitution
    t -> f(u)) multiplies every degree by `multiplier` (p^n, or h(f)), so it
    is refused, before anything is pushed, when multiplier times the largest
    of h(t) = 1 and the heights of the `pushed` a_i and point passes
    MAX_DEGREE."""
    top = max([1] + [y.weil_height() for y in pushed])
    if multiplier * top > MAX_DEGREE:
        raise InputError("%s takes degree %d past the cap MAX_DEGREE = %d"
                         % (what, top, MAX_DEGREE))


def _check_degree(bound):
    """Refuse a parse step whose result may exceed MAX_DEGREE, before it is
    computed."""
    if bound > MAX_DEGREE:
        raise ParseError("degree up to %d exceeds the cap MAX_DEGREE = %d"
                         % (bound, MAX_DEGREE))


# A parsed value is a pair (num, den) of trimmed coefficient lists, den
# nonzero, not reduced; zero is always ([], [1]).  The bounds below take
# len - 1 as the degree, so a zero numerator counts as degree -1, not -inf:
# a term that holds it stays below the term deg den + deg den' >= 0 of the
# same max, which is then what it would be with -inf.

_ZERO = ([], [1])


def _weil(value):
    num, den = value
    return max(len(num), len(den)) - 1 if num else 0


def _sum_bound(a, b):
    # a/b +- c/d = (a d +- c b) / (b d) before reduction
    (an, ad), (bn, bd) = a, b
    return max(len(an) + len(bd), len(bn) + len(ad), len(ad) + len(bd)) - 2


def _product_bound(a, b):
    return _weil(a) + _weil(b)


class _Parser:
    """Recursive descent over the token list; each method returns the value
    of what it read as an unreduced (num, den) pair."""

    def __init__(self, field, var, s):
        self.field = field
        self.var = var
        self.tokens = _tokenize(s)
        self.pos = 0
        self.depth = 0

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
        return self._ratfunc(value)

    def _ratfunc(self, value):
        # the one reduction, which a denominator 1 does not need
        num, den = value
        field = self.field
        return RatFunc(Poly(field, num), Poly(field, den), _reduced=den == [1])

    def _reduce(self, value):
        x = self._ratfunc(value)
        return list(x.num.coeffs), list(x.den.coeffs)

    def _fit(self, bound, a, b):
        """The operands a and b, within MAX_DEGREE by bound.  Unreduced
        operands bound their result at least as high as reduced ones, so
        only when they pass the cap are they reduced, and the step refused
        if it still passes."""
        if bound(a, b) <= MAX_DEGREE:
            return a, b
        a, b = self._reduce(a), self._reduce(b)
        _check_degree(bound(a, b))
        return a, b

    # --- grammar ---

    def sum(self):
        f = self.field
        if self.peek()[0] == "-":
            self.next()
            num, den = self.product()
            value = (_neg(f, num), den)
        else:
            value = self.product()
        while (op := self.peek()[0]) in ("+", "-"):
            self.next()
            rhs = self.product()
            (an, ad), (bn, bd) = self._fit(_sum_bound, value, rhs)
            if op == "-":
                bn = _neg(f, bn)
            if ad == bd:
                num, den = _trim(_add(f, an, bn)), ad
            else:
                num = _trim(_add(f, _mul(f, an, bd), _mul(f, bn, ad)))
                den = _mul(f, ad, bd)
            value = (num, den) if num else _ZERO
        return value

    def product(self):
        f = self.field
        value = self.power()
        while (op := self.peek()[0]) in ("*", "/"):
            self.next()
            rhs = self.power()
            (an, ad), (bn, bd) = self._fit(_product_bound, value, rhs)
            if op == "/":
                if not bn:
                    raise ParseError("division by zero")
                bn, bd = bd, bn
            value = (_mul(f, an, bn), _mul(f, ad, bd)) if an and bn else _ZERO
        return value

    def power(self):
        # the atom is read here, not in a method of its own, so that a
        # parenthesis level takes three frames: sum, product, power
        tok = self.next()
        if tok[0] == "int":
            # literals are canonical encodings 0..q-1 (for prime fields this
            # is the usual residue 0..p-1)
            c = tok[1] % self.field.order
            base = ([c], [1]) if c else _ZERO
        elif tok[0] == "name":
            if tok[1] != self.var:
                raise ParseError("unknown symbol %s at position %d (variable is %r)"
                                 % (quote(tok[1]), tok[2], self.var))
            base = ([0, 1], [1])
        elif tok[0] == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("nested too deeply")
            base = self.sum()
            self.expect(")")
            self.depth -= 1
        else:
            raise ParseError("unexpected token at position %d" % tok[2])
        if self.peek()[0] != "^":
            return base
        self.next()
        neg = self.peek()[0] == "-"
        if neg:
            self.next()
        e = self.expect("int")[1]
        if neg and e and not base[0]:
            raise ParseError("division by zero")
        # the one-operand case of _fit
        if _weil(base) * e > MAX_DEGREE:
            base = self._reduce(base)
            _check_degree(_weil(base) * e)
        num, den = base
        if neg:
            num, den = den, num
        return _pow(self.field, num, e), _pow(self.field, den, e)


def parse_ratfunc(field, s, var="t"):
    """Parse strings like "t^2+2*t+1" or "(t^2+1)/t^3" into a RatFunc.

    Each subexpression is evaluated as an unreduced pair of coefficient
    lists (num, den) through the list kernels that Poly shares: a power of
    t is written out, a constant factor scales, and a sum over one
    denominator adds the numerators.  The result is reduced once, at the
    end, and not at all when its denominator is 1.  Every degree check of
    MAX_DEGREE reads the reduced operands' bound (see _Parser._fit), so the
    cap refuses exactly what it would refuse if every step were reduced.  Parentheses nested
    more than MAX_NESTING levels deep are refused.
    """
    return _Parser(field, var, s).parse()


def parse_poly(field, s, var="t"):
    r = parse_ratfunc(field, s, var)
    if not r.is_polynomial():
        raise ParseError("%s is not a polynomial" % quote(s))
    return r.num


# --- factorization ---

def is_irreducible(f):
    return _poly_is_irreducible(list(f.coeffs), f.field)


def _squarefree_decomposition(f):
    """Multiset {squarefree monic: multiplicity} for monic f, char-p aware."""
    field = f.field
    p = field.char
    out = {}
    if f.degree == 0:
        return out
    d = f.derivative()
    if d.is_zero():
        for g, m in _squarefree_decomposition(f.pth_root()).items():
            out[g] = out.get(g, 0) + p * m
        return out
    c = f.gcd(d)
    w = f // c
    i = 1
    while not w.is_one():
        # w is squarefree, so gcd(w, c) = w exactly when w | c: such steps
        # emit nothing, and one exponent search takes the whole run of them
        e, c = _divide_out(c, w)
        i += e
        y = w.gcd(c)
        fac = w // y
        out[fac] = out.get(fac, 0) + i
        w = y
        c = c // y
        i += 1
    if not c.is_one():
        for g, m in _squarefree_decomposition(c.pth_root()).items():
            out[g] = out.get(g, 0) + p * m
    return out


def _distinct_degree(f):
    """Split squarefree monic f into [(product of its degree-d factors, d)]."""
    field = f.field
    q = field.order
    out = []
    x = Poly.x(field)
    h = x
    d = 0
    rest = f
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = Poly(field, field.poly_powmod(list(h.coeffs), q, list(rest.coeffs)))
        g = rest.gcd(h - x)
        if not g.is_one():
            out.append((g, d))
            rest = rest // g
            h = h % rest if rest.degree > 0 else h
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _equal_degree_split(f, d, rng):
    """One nontrivial monic factor of f, a product of >= 2 irreducibles of degree d."""
    field = f.field
    q = field.order
    n = f.degree
    x = Poly.x(field)
    while True:
        a = Poly(field, [rng.randrange(q) for _ in range(n)])
        if a.degree <= 0:
            continue
        g = f.gcd(a)
        if not g.is_one() and g.degree < n:
            return g
        if q % 2 == 1:
            b = Poly(field, field.poly_powmod(list(a.coeffs), (q**d - 1) // 2,
                                              list(f.coeffs)))
            g = f.gcd(b - Poly.one(field))
        else:
            # char 2: use the absolute trace map of F_{q^d} over F_2
            k = q.bit_length() - 1
            tr = Poly.zero(field)
            b = a % f
            for _ in range(k * d):
                tr = (tr + b) % f
                b = Poly(field, field.poly_powmod(list(b.coeffs), 2, list(f.coeffs)))
            g = f.gcd(tr)
        if not g.is_one() and g.degree < n:
            return g


def _equal_degree(f, d, rng):
    if f.degree == d:
        return [f]
    g = _equal_degree_split(f, d, rng)
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor(f):
    """Factor a nonzero Poly: returns (unit encoding, [(irreducible monic, mult)]).

    The factor list is sorted; splitting randomness is seeded per call, so the
    whole computation is reproducible.  A linear f is its own factor, and
    the generator is built only for the first distinct-degree block that
    holds more than one factor: only splits draw from it.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lc
    f = f.monic()
    if f.degree == 1:
        return unit, [(f, 1)]
    rng = None
    out = []
    for sqf, mult in _squarefree_decomposition(f).items():
        for prod, d in _distinct_degree(sqf):
            if prod.degree == d:
                out.append((prod, mult))
                continue
            if rng is None:
                rng = random.Random(0x5EED ^ hash(f.coeffs) & 0xFFFFFFFF)
            for irr in _equal_degree(prod, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: t[0].sort_key())
    return unit, out


def _divide_out(f, g):
    """(e, f / g**e) for the largest e with g**e | f; f != 0, deg g >= 1.

    After one division by g, divides by g, g^2, g^4, ... while the division
    is exact, then works back down through the stored powers: O(log e)
    divisions and squarings, and e = 0 or 1 (the common case) costs one or
    two divisions and no product.
    """
    if g.degree > f.degree:
        return 0, f
    q, r = divmod(f, g)
    if r:
        return 0, f
    f, e = q, 1
    powers = []
    step = g
    while step.degree <= f.degree:
        q, r = divmod(f, step)
        if r:
            break
        f = q
        e += 1 << len(powers)
        powers.append(step)
        if 2 * step.degree > f.degree:
            break
        step = step * step
    # what is left of f is not divisible by g**(2**len(powers))
    for j in range(len(powers) - 1, -1, -1):
        if powers[j].degree <= f.degree:
            q, r = divmod(f, powers[j])
            if not r:
                f = q
                e += 1 << j
    return e, f


def ord_at(f, P):
    """Largest e with P**e dividing f, for f != 0 and irreducible monic P."""
    if f.is_zero():
        raise ValueError("ord of the zero polynomial")
    return _divide_out(f, P)[0]


def monic_polys(field, degree):
    """All monic polynomials of the given degree, in counter order."""
    return (Poly(field, c) for c in monic_coeffs(field, degree))


def irreducible_monics(field, degree):
    for f in monic_polys(field, degree):
        if is_irreducible(f):
            yield f
