"""The twisted polynomial ring K{tau} with tau a = a^q tau.

A SkewPoly is sum c_i tau^i with c_i in K = F_q(t); multiplication is
composition of the additive maps x -> sum c_i x^(q^i), so the coefficient of
tau^k in f*g is sum_{i+j=k} f_i * g_j^(q^i).
"""

from drinheights.ratfunc import Poly, RatFunc, _add, _mul


class SkewPoly:
    """Twisted polynomial over F_q(t)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        n = len(coeffs)
        while n and coeffs[n - 1].is_zero():
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (RatFunc.one(field),))

    @classmethod
    def tau(cls, field, e=1):
        return cls(field, (RatFunc.zero(field),) * e + (RatFunc.one(field),))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    def is_zero(self):
        return not self.coeffs

    @property
    def tau_degree(self):
        """Degree in tau; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero skew polynomial has no degree")
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (isinstance(other, SkewPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SkewPoly(self.field, out)

    def __mul__(self, other):
        """Composition with the twist rule tau*a = a^q*tau."""
        if self.is_zero() or other.is_zero():
            return SkewPoly.zero(self.field)
        out = [RatFunc.zero(self.field)
               for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, fi in enumerate(self.coeffs):
            if fi.is_zero():
                continue
            for j, gj in enumerate(other.coeffs):
                if gj.is_zero():
                    continue
                out[i + j] = out[i + j] + fi * gj.pow_q(i)
        return SkewPoly(self.field, out)

    def __call__(self, y):
        """Evaluate the additive polynomial: sum c_i y^(q^i).

        y^(q^i) is y spread by q^i, since y has its coefficients in F_q.
        When y and every c_i are polynomials the sum is one pass over
        coefficient lists (ratfunc's kernels _mul and _add), and a sum of
        polynomials is reduced as it stands; otherwise each term is a
        RatFunc product, added with one reduced sum.
        """
        field = self.field
        if y.den.is_one() and all(c.den.is_one() for c in self.coeffs):
            a, N, acc = y.num.coeffs, 1, []
            for c in self.coeffs:
                if a and c.num.coeffs:
                    pw = [0] * (N * (len(a) - 1) + 1)
                    pw[::N] = a
                    acc = _add(field, acc, _mul(field, c.num.coeffs, pw))
                N *= field.order
            return RatFunc(Poly(field, acc), Poly.one(field), _reduced=True)
        acc = RatFunc.zero(field)
        pw = y
        for i, c in enumerate(self.coeffs):
            if i > 0:
                pw = pw.pow_q(1)
            if not c.is_zero():
                acc = acc + c * pw
        return acc

    def to_string(self, var="t"):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = c.to_string(var)
            if "+" in cs:
                cs = "(%s)" % cs
            if i == 0:
                terms.append(cs)
            elif cs == "1":
                terms.append("tau" if i == 1 else "tau^%d" % i)
            else:
                terms.append("%s*tau%s" % (cs, "" if i == 1 else "^%d" % i))
        return " + ".join(terms)

    def __repr__(self):
        return "SkewPoly(%s)" % self.to_string()


def skew_degree(f):
    """(tau-degree n, additive degree q^n) of a nonzero skew polynomial."""
    n = f.tau_degree
    return n, f.field.order**n
