"""Places of the rational function field K = F_q(t).

A place is either the finite place attached to a monic irreducible P (degree
deg P, uniformizer P) or the place at infinity (degree 1, uniformizer 1/t).
Together with those degrees the places satisfy the product/sum formula
``sum_v d(v) v(y) = 0``, and they extend coherently along any rational
substitution t -> f(u) into F_q(u): ramification e, residue degree f and the
coherent degree f*d(v)/[L:K] are computed exactly.

The valuation of 0 is the float +inf marker ``INFINITY``; all finite
valuations are ints and coherent degrees are Fractions.
"""

from fractions import Fraction

from drinheights import gf
from drinheights.ratfunc import (Poly, RatFunc, _divide_out, factor,
                                 is_irreducible, ord_at)

INFINITY = float("inf")


class Place:
    """Base class; use FinitePlace / InfinitePlace."""

    def valuation(self, y):
        raise NotImplementedError

    @property
    def residue_field(self):
        if self._residue_field is None:
            self._residue_field = self._make_residue_field()
        return self._residue_field

    def residue(self, y):
        """The image of y in the residue field; y must have no pole here."""
        if y.is_zero():
            return self.residue_field.zero
        v = self.valuation(y)
        if v < 0:
            raise ValueError("residue of a function with a pole at %s" % self)
        if v > 0:
            return self.residue_field.zero
        return self.angular_component(y)

    def angular_component(self, y):
        """Residue of y * uniformizer^(-v(y)); never zero for y != 0."""
        raise NotImplementedError

    def lift(self, c):
        """A canonical preimage in K of a residue-field element."""
        raise NotImplementedError

    def __repr__(self):
        return self.to_string()


class FinitePlace(Place):
    def __init__(self, P):
        if not (P.is_monic() and is_irreducible(P)):
            raise ValueError("finite places need a monic irreducible polynomial")
        self.P = P
        self.field = P.field
        self.degree = P.degree
        self._residue_field = None

    def _make_residue_field(self):
        return gf.ExtensionField(self.field, list(self.P.coeffs))

    @property
    def uniformizer(self):
        return RatFunc.from_poly(self.P)

    def valuation(self, y):
        if y.is_zero():
            return INFINITY
        return ord_at(y.num, self.P) - ord_at(y.den, self.P)

    def _embed(self, poly):
        coeffs = list(poly.coeffs) + [0] * (self.degree - len(poly.coeffs))
        return self.residue_field.element(self.residue_field.from_coords(coeffs))

    def angular_component(self, y):
        if y.is_zero():
            raise ValueError("angular component of zero")
        # the P-free parts of num and den come from the same division that
        # finds the valuation; their residues are units of k_v
        num = _divide_out(y.num, self.P)[1]
        den = _divide_out(y.den, self.P)[1]
        return self._embed(num % self.P) / self._embed(den % self.P)

    def lift(self, c):
        return RatFunc.from_poly(Poly(self.field, c.coords()))

    def sort_key(self):
        return (0, self.P.sort_key())

    def __eq__(self, other):
        return isinstance(other, FinitePlace) and self.P == other.P

    def __hash__(self):
        return hash(("finite", self.P))

    def to_string(self, var="t"):
        return "v[%s]" % self.P.to_string(var)


class InfinitePlace(Place):
    def __init__(self, field):
        self.field = field
        self.degree = 1
        self._residue_field = None

    def _make_residue_field(self):
        return gf.ExtensionField(self.field, [0, 1])

    @property
    def uniformizer(self):
        return RatFunc(Poly.one(self.field), Poly.x(self.field))

    def valuation(self, y):
        if y.is_zero():
            return INFINITY
        return y.den.degree - y.num.degree

    def angular_component(self, y):
        # y * t^v(y) has valuation 0 and residue lc(num)/lc(den)
        if y.is_zero():
            raise ValueError("angular component of zero")
        c = self.field.div(y.num.lc, y.den.lc)
        return self.residue_field.element(c)

    def lift(self, c):
        return RatFunc.const(self.field, c.coords()[0])

    def sort_key(self):
        return (1,)

    def __eq__(self, other):
        return isinstance(other, InfinitePlace) and self.field == other.field

    def __hash__(self):
        return hash(("infinity", self.field))

    def to_string(self, var="t"):
        return "v[inf]"


def valuation(place, y):
    return place.valuation(y)


def poles(y):
    """The (place, v(y)) pairs with v(y) < 0, sorted.

    Poles come from the denominator alone: the factors of y.den, plus
    infinity when deg num > deg den.  The numerator is never factored, nor a
    denominator 1, and 0 = 0/1 has no poles.
    """
    out = []
    if y.den.degree > 0:
        out = [(FinitePlace(P), -m) for P, m in factor(y.den)[1]]
    if y.num.degree > y.den.degree:
        out.append((InfinitePlace(y.field), y.den.degree - y.num.degree))
    return out


def support(y):
    """All (place, valuation) pairs with nonzero valuation, sorted: the poles
    of y and, with the sign flipped, the poles of 1/y."""
    if y.is_zero():
        raise ValueError("support of zero")
    out = poles(y) + [(v, -m) for v, m in poles(y.inverse())]
    out.sort(key=lambda t: t[0].sort_key())
    return out


def is_constant(y):
    """True iff y lies in F_q (zero or valuation 0 everywhere)."""
    return y.is_zero() or y.is_constant()


def angular_component(place, y):
    return place.angular_component(y)


def residue(place, y):
    return place.residue(y)


def expansion(place, y, upto):
    """Uniformizer-adic coefficients of y at all levels <= upto.

    Returns a list of (level, nonzero residue-field element) with strictly
    increasing integer levels; the remainder has valuation > upto.
    """
    out = []
    pi = place.uniformizer
    z = y
    while not z.is_zero():
        lvl = place.valuation(z)
        if lvl > upto:
            break
        c = place.angular_component(z)
        out.append((lvl, c))
        z = z - place.lift(c) * pi**lvl
    return out


class SubstitutionEmbedding:
    """The field embedding F_q(t) -> F_q(u), t -> image(u)."""

    def __init__(self, image):
        if image.is_constant():
            raise ValueError("substitution image must be non-constant")
        self.image = image
        self.field = image.field
        self.degree = image.weil_height()  # [F_q(u) : F_q(t)]

    def apply(self, y):
        """Push y(t) in K to y(image(u)) in L."""
        return y.subs(self.image)

    def apply_module(self, coeffs):
        return [self.apply(a) for a in coeffs]

    def compose(self, other):
        """self after other ... t -> self.image(other.image)."""
        return SubstitutionEmbedding(self.image.subs(other.image))

    def __repr__(self):
        return "Embedding(t -> %s)" % self.image.to_string("u")


class PlaceExtension:
    """A place of L = F_q(u) above a place of K, with coherent degree."""

    __slots__ = ("below", "above", "e", "f", "d_above")

    def __init__(self, below, above, e, f, d_above):
        self.below = below
        self.above = above
        self.e = e
        self.f = f
        self.d_above = d_above

    def __repr__(self):
        return "PlaceExtension(%r above %r, e=%d, f=%d, d=%s)" % (
            self.above, self.below, self.e, self.f, self.d_above)


def extend_places(emb, v, degree_below=None):
    """All places of F_q(u) above v, with e, f and coherent degrees.

    Checks the defectless identity sum(e*f) = [L:K] and returns the
    extensions sorted by the place upstairs.  `degree_below` overrides the
    native degree of v (used when v itself carries a coherent degree).
    """
    if degree_below is None:
        degree_below = v.degree
    n = emb.degree
    # the places above v are the zeros of its uniformizer pushed to L,
    # that is the poles of the inverse, with e = -(valuation there)
    img = v.uniformizer.subs(emb.image)
    out = []
    total = 0
    for w, m in poles(img.inverse()):
        e = -m
        f_rel, rem = divmod(w.degree, v.degree)
        if rem:
            raise AssertionError("residue degree %d not divisible by %d" % (w.degree, v.degree))
        total += e * f_rel
        out.append(PlaceExtension(v, w, e, f_rel, Fraction(f_rel) * Fraction(degree_below) / n))
    if total != n:
        raise AssertionError("defect: sum(e*f) = %d != [L:K] = %d" % (total, n))
    return out


def minimal_polynomial(rho):
    """Monic minimal polynomial over F_q of an element of a residue field."""
    field = rho.field

    def powers():
        # the first dependence comes within field.dim + 1 powers
        y = field.one
        while True:
            yield dict(enumerate(y.coords()))
            y = y * rho

    return Poly(field.base, gf.first_dependence(powers(), field.base))


def place_below(emb, w):
    """The place of K = F_q(t) under the place w of F_q(u)."""
    img = emb.image
    if w.valuation(img) < 0:
        return InfinitePlace(emb.field)
    rho = w.residue(img)
    return FinitePlace(minimal_polynomial(rho))


def coherent_degree(emb, w):
    """Coherent degree of w relative to K: f(w|v) d(v) / [L:K] = d(w) / [L:K].

    The residue fields of w and of the place v below it are F_q^d(w) and
    F_q^d(v), so f(w|v) = d(w) / d(v); the place v is never needed.
    """
    return Fraction(w.degree, emb.degree)
