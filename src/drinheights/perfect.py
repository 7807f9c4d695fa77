"""Heights over purely inseparable extensions K^(1/p^n) and the refined
dichotomies behind the uniform perfect-closure Lehmer bound.

K^(1/p^n) is realized concretely as F_q(u) with t = u^(p^n): every point is
a rational function in u, and all place/height machinery applies verbatim
with coherent degrees d(w) / p^n relative to K.  A module is pushed to a
level by stretching exponents: a(t) becomes a(u^(p^n)) (RatFunc.spread).

The extension is purely inseparable, so each place v of K has exactly one
place w above it, and w(a(u^(p^n))) = p^n v(a).  The level, the module
pushed to F_q(u) with index [L:K] = p^n (InsepLevel), reads its bad set S and
the valuations of its coefficients off the module below: nothing stretched
is factored or divided.

insep_level(module, n) is the one function that takes a module and n.  The
key dichotomy, the perfect-closure floor and every height take the level it
returns, and read q, r, S and [L:K] off it: a height at level n is
global_height(insep_level(module, n), y).  The floor needs a non-isotrivial
module: for a monic module, one whose S is not empty.
"""

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from drinheights import gf
from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import (BudgetExhaustedError, IsotrivialModuleError,
                                quote)
from drinheights.heights import (global_height, height_sum, lehmer_bounds,
                                 local_height, next_iterate_fits)
from drinheights.places import INFINITY, FinitePlace, InfinitePlace, expansion
from drinheights.ratfunc import MAX_DEGREE, Poly, check_push
from drinheights.torsion import annihilator_of


class InsepLevel(DrinfeldModule):
    """The module `below` over F_q(u) with t = u^(p^n), n >= 1: phi_t with
    coefficients a_i(u^(p^n)), of index [L:K] = p^n.

    The place above v[P], P = sum c_i t^i, is v[P'] with
    P' = sum c_i^(p^-n) u^i, since P'(u)^(p^n) = P(u^(p^n)); over a prime
    field P' = P.  Infinity lies over infinity.  A valuation upstairs is
    p^n = index times the one below, and +inf stays +inf.  So S and the
    valuations of the coefficients are read off `below`, |S| is the same by
    construction, and the check T_v >= [L:K]/q^r run here is a theorem: at
    a bad place some v(a_i) <= -1 with i < r (a_r = 1), so T_v >=
    1/q^(r-1) > 1/q^r below, and T_w = p^n T_v above.  A level whose push
    passes ratfunc.MAX_DEGREE is refused (check_level) before p^n is formed.
    """

    def __init__(self, below, n):
        if n < 1:
            raise ValueError("InsepLevel needs n >= 1; insep_level(m, 0) is m")
        check_level(below.field.char, n, *below.coeffs)
        index = below.field.char**n
        super().__init__(below.field, [a.spread(index) for a in below.coeffs],
                         index=index)
        self.below, self.n = below, n
        floor = Fraction(index, self.q**self.r)
        for w in self.bad_reduction_set():
            if not self.reduction_data(w).T >= floor:
                raise AssertionError("T_v < [L:K]/q^r at a bad place")

    def _twist(self, place, e):
        """The finite place whose polynomial has place's coefficients raised
        to the e-th power; infinity is itself."""
        if isinstance(place, InfinitePlace):
            return place
        field = self.field
        return FinitePlace._of_irreducible(
            Poly(field, [field.pow_(c, e) for c in place.P.coeffs]))

    @cached_property
    def _bad_places(self):
        # c^((q/p)^n) is the p^n-th root of c in F_q: its p^n-th power is
        # c^(q^n) = c (the exponent is absolute, not relative to a base)
        root = (self.q // self.field.char)**self.n
        above = [self._twist(v, root) for v in self.below.bad_reduction_set()]
        return tuple(sorted(above, key=lambda v: v.sort_key()))

    def coefficient_valuations(self, place):
        vals = self.below.coefficient_valuations(
            self._twist(place, self.index))
        return tuple(v if v is INFINITY else self.index * v for v in vals)


def check_level(p, n, *pushed):
    """The push rule (ratfunc.check_push) for the level t = u^(p^n) of the
    `pushed` a_i and points; p^n is not formed past the bit length of
    MAX_DEGREE, which the rule refuses already."""
    shown = quote(str(n), str)
    check_push("insep_level %s (degrees times p^%s)" % (shown, shown),
               p ** min(n, MAX_DEGREE.bit_length()), *pushed)


@lru_cache(maxsize=gf.FIELD_MEMO)
def insep_level(module, n):
    """The module over F_q(u) with t = u^(p^n): the module itself at n = 0,
    its InsepLevel past that.  Built once per (module, n), so every value
    kept for it serves each later call; a refused level keeps nothing."""
    module._require_monic()
    if n < 0:
        raise ValueError("inseparable level must be >= 0")
    return InsepLevel(module, n) if n else module


class DichotomyReport:
    """Either a bad place with a certified large local height (branch 1) or
    a polynomial b pushing x above every T_v (branch 2); places in `var`."""

    __slots__ = ("branch", "place", "local", "threshold", "b", "valuations",
                 "var")

    def __init__(self, branch, place=None, local=None, threshold=None, b=None,
                 valuations=None, var="t"):
        self.branch = branch
        self.place = place
        self.local = local
        self.threshold = threshold
        self.b = b
        self.valuations = valuations
        self.var = var

    def __repr__(self):
        if self.branch == 1:
            return "DichotomyReport(branch 1 at %s: %s >= %s)" % (
                self.place.to_string(self.var), self.local, self.threshold)
        vals = ", ".join("(%s, %s)" % (w.to_string(self.var), val)
                         for w, val in self.valuations)
        return "DichotomyReport(branch 2, b = %s, valuations [%s])" % (
            self.b, vals)


def _expansion_vector(w_idx, w, y, upto):
    """Sparse F_q-conditions 'all uniformizer coefficients at levels <= upto'."""
    vec = {}
    for lvl, c in expansion(w, y, upto):
        for idx, coord in enumerate(c.coords()):
            if coord:
                vec[(w_idx, lvl, idx)] = coord
    return vec


def key_dichotomy_check(level, x):
    """Certify the key dichotomy for x on `level`, the module over
    K^(1/p^n) that insep_level(module, n) returns; q, r, S and the index
    [L:K] are read off it.

    Branch 1: some bad w has hhat_w(x) >= -d(w) M_w / q^(4r(r+1)^2|S|+2r).
    Branch 2: some b of degree <= 4(r+1)^2 |S| has w(phi_b(x)) > T_w for all
    bad w; found by eliminating the uniformizer-expansion conditions of the
    iterates of x, exactly as the span argument in the proof.
    """
    field = level.field
    q, r = level.q, level.r
    S = level.bad_reduction_set()
    if not S:
        one = Poly.one(field)
        return DichotomyReport(2, b=one, valuations=[], var=level.var)
    s = len(S)
    B = 4 * (r + 1)**2 * s
    exponent = 4 * r * (r + 1)**2 * s + 2 * r

    exhausted = False
    for w in S:
        rd = level.reduction_data(w)
        threshold = -Fraction(w.degree, level.index) * rd.M / q**exponent
        h = local_height(level, w, x)
        if h.is_exact:
            if h.value >= threshold:
                return DichotomyReport(1, place=w, local=h.value,
                                       threshold=threshold, var=level.var)
        else:
            exhausted = True

    uptos = [(w, math.floor(level.reduction_data(w).T)) for w in S]

    def conditions():
        y = x
        for j in range(B + 1):
            if j:
                if not next_iterate_fits(level, y):
                    raise BudgetExhaustedError(
                        "iterates outgrew the degree budget before a "
                        "branch-2 certificate appeared")
                y = level.phi_t(y)
            vec = {}
            for w_idx, (w, upto) in enumerate(uptos):
                vec.update(_expansion_vector(w_idx, w, y, upto))
            yield vec

    dep = gf.first_dependence(conditions(), field)
    if dep is not None:
        b = Poly(field, dep)
        z = level.act(b, x)
        vals = [(w, w.valuation(z)) for w in S]
        for w, val in vals:
            if not val > level.reduction_data(w).T:
                raise AssertionError("branch 2 certificate fails at %r" % w)
        return DichotomyReport(2, b=b, valuations=vals, var=level.var)

    if exhausted:
        raise BudgetExhaustedError(
            "neither branch certified: a bad-place height is only known as "
            "an interval and no branch-2 polynomial exists up to degree %d" % B)
    raise AssertionError("key dichotomy violated")  # unreachable


class LehperReport:
    __slots__ = ("torsion", "annihilator", "height", "bound", "margin")

    def __init__(self, torsion, annihilator, height, bound, margin):
        self.torsion = torsion
        self.annihilator = annihilator
        self.height = height
        self.bound = bound
        self.margin = margin

    def __repr__(self):
        if self.torsion:
            return "LehperReport(torsion, b = %s)" % self.annihilator
        return "LehperReport(%s > %s, margin %s)" % (
            self.height, self.bound, self.margin)


def lehper_check(level, x, *, parts=None):
    """Check the uniform perfect-closure floor for x on `level`, the module
    over K^(1/p^n) that insep_level(module, n) returns.

    Requires a non-isotrivial module, for a monic one S not empty
    (DrinfeldModule.modular_trdeg): the level is refused when its floor
    lehmer_bounds(level).lehper = min d(v_0) / q^(4r(r+1)^2 s + 3r) is None.
    Non-torsion points must come out strictly above the floor; a push keeps
    q, r, |S| and the degrees in S, so it is the module's.  `parts` is
    global_height_breakdown(level, x) when the caller has it, and only the
    total is computed otherwise.  The height comes first: a positive lower
    bound proves x is not torsion; the torsion decision runs only when it is 0.
    """
    bound = lehmer_bounds(level).lehper
    if bound is None:
        raise IsotrivialModuleError(
            "the perfect-closure floor requires a non-isotrivial module: "
            "heights of x^(1/p^n) decay to 0 over the constants")
    if parts is None:
        h = global_height(level, x)
    else:
        h = height_sum(parts)
    if h.lo == 0:
        b = annihilator_of(level, x)
        if b is not None:
            return LehperReport(True, b, None, bound, None)
    if not h.is_exact:
        if h.lo > bound:
            return LehperReport(False, None, h, bound, h.lo - bound)
        raise BudgetExhaustedError(
            "height only known as %s; cannot compare with the floor %s"
            % (h, bound))
    if not h.value > bound:
        raise AssertionError("perfect-closure floor violated: %s <= %s"
                             % (h.value, bound))
    return LehperReport(False, None, h, bound, h.value - bound)
