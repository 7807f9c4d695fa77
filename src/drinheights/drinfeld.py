"""Drinfeld modules phi: F_q[t] -> K{tau} over K = F_q(t).

A module is given by the coefficients a_0..a_r of phi_t.  This module houses
the ring-homomorphism extension phi_b, the bad-reduction set S, the per-place
reduction data, the floor of the phi_t-stable balls at a place, monicization
by a conjugation in K, and the isotriviality test via the relative modular
transcendence degree.  A place's reduction data holds the valuations
v(a_i) and the slopes of the Newton polygon of phi_t, built at once, and
reads every constant off those two and the valuation law g(alpha) =
min_i v(a_i) + q^i alpha (Poonen 1995): M_v is minus the last slope, since
phi_t is monic, T_v is g^-1(0) and P'_v is g^-1 of P_v.  The exceptional
valuation sets P_v, P'_v, P''_v, Q_v and the angular-component sets
R_v(alpha) are built together on first read: only the `reduction` report and
`verify` read them.  Where one index i attains the valuation law at alpha,
X -> ac(a_i) X^(q^i) is a bijection of the residue field, so R_v(alpha)
holds the one preimage target^(q^-i) c of each nonzero target, with the one
inverse c = (1/ac(a_i))^(q^-i) per alpha; only a tie of two or more indices
solves an additive equation, in one call of gf._additive_solutions with
every target of alpha, which at a place of degree 1 is the scalar map
X -> (sum of the tied ac(a_i)) X.  The angular components ac(a_i), which a
local height's walk reads at a tie and R_v(alpha) reads too, are taken
once.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, wraps

from drinheights import gf, places
from drinheights.errors import MonicizeError, NonMonicError
from drinheights.places import INFINITY, support
from drinheights.ratfunc import RatFunc, factor
from drinheights.skew import SkewPoly


# the exceptional sets of ReductionData, built together on first read
_ResidueSets = namedtuple("ResidueSets", "P Pp Ppp Q R")


def _lower_hull(points):
    """Lower convex hull vertices of points sorted by increasing x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


class ReductionData:
    """Reduction data of a monic module at one place (see module docstring).

    Built at once: the valuations `vals` (module.coefficient_valuations),
    `in_S` and the slopes `newton` of the Newton polygon, and read off
    those two: M_v = minus the last slope (+inf with none), lam = min(0,
    M_v), and T_v = g^-1(0) by `inverse_law`.  Built on
    first read and kept: `stable_floor`, `zero_stop`, the angular
    components `acs`, and the exceptional sets P, Pp, Ppp, Q and R, all five
    together (R maps each alpha in Q_v to a tuple of nonzero residue-field
    elements).  `pair_in` is the dichotomy membership test (v(x), ac(x)) in
    P x R(v(x)); `leading_residue` decides a tie of the valuation law.
    """

    def __init__(self, module, place):
        q = self.q = module.q
        self.r = module.r
        self.module = module
        self.place = place
        self.N_phi = module.N_phi
        self.vals = vals = module.coefficient_valuations(place)
        self.in_S = any(a < 0 for a in vals)  # S: some v(a_i) < 0
        hull = _lower_hull([(q**i, a) for i, a in enumerate(vals)
                            if a is not INFINITY])
        self.newton = tuple(Fraction(y2 - y1, x2 - x1)
                            for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
        # a_r = 1 puts the last vertex at (q^r, 0), so the last slope is the
        # largest -v(a_i) / (q^r - q^i) over i < r: minus M_v
        self.M = -self.newton[-1] if self.newton else INFINITY
        self.lam = min(0, self.M)
        self.T = self.inverse_law(0)
        if self.in_S and not self.T > 0:
            raise RuntimeError("T_v must be positive at a bad place")

    P = property(lambda self: self._residue_sets.P)
    Pp = property(lambda self: self._residue_sets.Pp)
    Ppp = property(lambda self: self._residue_sets.Ppp)
    Q = property(lambda self: self._residue_sets.Q)
    R = property(lambda self: self._residue_sets.R)

    @cached_property
    def _residue_sets(self):
        """The five exceptional sets, built together and checked; a failed
        check keeps nothing, so the next read fails again."""
        q, r, slopes, T, v = self.q, self.r, self.newton, self.T, self.place

        P = sorted({-s for s in slopes if s >= 0})
        if q == 2 and r == 1 and self.in_S and Fraction(0) not in P:
            P.append(Fraction(0))
            P.sort()

        # P'_v: 0 < alpha <= T with g(alpha) in P_v
        pp_target = {}
        for alpha1 in P:
            alpha = self.inverse_law(alpha1)
            if 0 < alpha <= T:
                pp_target[alpha] = alpha1
        Pp = sorted(pp_target)

        Ppp = sorted({-s for s in slopes if 0 < -s <= T})

        # R_v(alpha): the nonzero X whose residual image
        # sum_{i minimal at alpha} ac(a_i) X^(q^i) lies in targets(alpha),
        # which holds 0 on P_v and P''_v and R_v(target) on P'_v; every
        # target lies in P_v <= 0 < P'_v, so its R_v is already filled
        k_v = v.residue_field
        Q = sorted(set(P) | set(Pp) | set(Ppp))
        R = {}
        for alpha in Q:
            _, ids = self.valuation_law(alpha)
            targets = []
            if alpha in P or alpha in Ppp:
                targets.append(k_v.zero)
            if alpha in pp_target:
                targets.extend(R[pp_target[alpha]])
            if len(ids) == 1:
                # X -> c X^(q^i) is a bijection of k_v: each nonzero target
                # has the one preimage target^(q^-i) (1/c)^(q^-i), and 0 only 0
                i = ids[0]
                scale = any(targets) and k_v.frobenius(
                    k_v.inv(self.acs[i].val), -i)
                sols = {k_v.mul(k_v.frobenius(target.val, -i), scale)
                        for target in targets if target}
            else:
                sols = gf._additive_solutions(
                    k_v, [(self.acs[i].val, i) for i in ids],
                    [target.val for target in targets]) - {0}
            if alpha == 0:
                sols.add(1)
            R[alpha] = tuple(gf.FqElem(k_v, e) for e in sorted(sols))
        sets = _ResidueSets(tuple(P), tuple(Pp), tuple(Ppp), tuple(Q), R)
        self._check(sets)
        return sets

    def valuation_law(self, alpha):
        """(g(alpha), the i attaining it) for g(alpha) = min_i v(a_i) + q^i
        alpha; v(phi_t(y)) >= g(v(y)), with equality when one i attains it.

        g is compared on integers over alpha's denominator: an int alpha
        gives an int, a Fraction a Fraction, and v(0) = INFINITY gives
        INFINITY, attained by every i with a_i != 0."""
        if alpha is INFINITY:
            return INFINITY, [i for i, a in enumerate(self.vals)
                              if a is not INFINITY]
        frac = isinstance(alpha, Fraction)
        num, den = (alpha.numerator, alpha.denominator) if frac else (alpha, 1)
        best, ids = None, []
        for i, a in enumerate(self.vals):
            if a is INFINITY:
                continue
            c = a * den + self.q**i * num
            if best is None or c < best:
                best, ids = c, [i]
            elif c == best:
                ids.append(i)
        return (Fraction(best, den) if frac else best), ids

    def inverse_law(self, beta):
        """The alpha with g(alpha) = beta: g is strictly increasing, and
        g(alpha) = beta exactly when every term v(a_i) + q^i alpha is >= beta
        and one equals it, so alpha = max_i (beta - v(a_i)) / q^i, a
        Fraction, compared on integers over the denominator beta.denominator
        * q^r and built once.  T_v is g^-1(0), and P'_v is read off g^-1 of
        P_v."""
        num, den, top = beta.numerator, beta.denominator, len(self.vals) - 1
        return Fraction(max((num - a * den) * self.q**(top - i)
                            for i, a in enumerate(self.vals)
                            if a is not INFINITY), den * self.q**top)

    @cached_property
    def acs(self):
        """(ac(a_0), ..., ac(a_r)) at the place, None where a_i = 0."""
        return tuple(None if a.is_zero() else self.place.angular_component(a)
                     for a in self.module.coeffs)

    def leading_residue(self, ac, runs, ids):
        """ac(phi_t(y)) when it is not 0, else 0, for the i in `ids`
        attaining g(v(y)): sum ac(a_i) ac(y)^(q^i) (Poonen 1995).  ac(y) is
        carried from ac = ac(z) along `runs`, the (i, k) walked from z to y,
        each k steps of index i; only index 0 takes k > 1, and maps ac to
        ac(a_0)^k ac."""
        acs = self.acs
        for i, k in runs:
            ac = acs[i]**k * ac.frobenius(i)
        return sum((acs[i] * ac.frobenius(i) for i in ids), ac.field.zero)

    @cached_property
    def zero_stop(self):
        """Index 0 alone attains g at an integer v >= lam exactly when
        v >= zero_stop, the first Newton breakpoint: from there the walk is
        v <- v + v(a_0), a run of index 0.

        Index 0 alone attains g at v when v(a_0) + v < v(a_i) + q^i v, that
        is v > (v(a_0) - v(a_i)) / (q^i - 1), for every i > 0 with a_i != 0.
        The largest of these bounds is -s_1, with s_1 the first slope of the
        Newton polygon, so zero_stop = max(ceil(lam), floor(-s_1) + 1).
        Read only when a_0 != 0."""
        return max(math.ceil(self.lam), math.floor(-self.newton[0]) + 1)

    def _check(self, sets):
        q, r = self.q, self.r
        if len(sets.P) > self.N_phi:
            raise RuntimeError("|P_v| exceeds N_phi")
        if len(sets.Pp) > len(sets.P):
            raise RuntimeError("|P'_v| exceeds |P_v|")
        if len(sets.Q) > 2 * (r + 1):
            raise RuntimeError("|Q_v| exceeds 2(r+1)")
        for alpha in sets.P:
            if len(sets.R[alpha]) > q**r:
                raise RuntimeError("|R_v(alpha)| exceeds q^r on P_v")
        for alpha in sets.Q:
            if len(sets.R[alpha]) >= q**(2 * (r + 1)):
                raise RuntimeError("|R_v(alpha)| reaches q^(2(r+1)) on Q_v")

    @cached_property
    def stable_floor(self):
        """lambda*_v: the least integer lambda for which the module's phi_t
        maps the ball B_lambda = {y : v(y) >= lambda} into itself, or None if
        there is none.

        An orbit that enters a stable ball is bounded there, so its local
        height is 0.  The floor depends on the module and the place only; it
        is computed on the first read and kept.
        """
        # phi_t is F_q-linear, so B_lambda is stable iff phi_t(pi^k t^j) lies
        # in it for every k >= lambda and j < deg v (the t^j lift a basis of
        # the residue field).  With g = valuation_law, that value is g(k)
        # when one index attains the minimum and >= g(k) at the integer
        # Newton breakpoints, where two do.  g(k) - k is nondecreasing, so
        # g(lambda) >= lambda proves B_lambda stable; it holds from `top` on,
        # and never if v(a_0) < 0.  Below `top` only a breakpoint can be
        # stable, and below ceil(lam) nothing is, since there
        # v(phi_t(pi^k)) = q^r k < k.
        vals, place = self.vals, self.place
        if vals[0] is not INFINITY and vals[0] < 0:
            top = None
        else:
            top = max(-(a // (self.q**i - 1)) for i, a in enumerate(vals)
                      if i and a is not INFINITY)
        bottom = math.ceil(self.lam)
        breaks = [int(-s) for s in self.newton if s.denominator == 1]
        candidates = sorted(b for b in breaks
                            if b >= bottom and (top is None or b < top))
        lowest = {}

        def lowest_image(k):
            # min_j v(phi_t(pi^k t^j)), evaluated once per breakpoint
            if k not in lowest:
                pk, t = place.uniformizer**k, RatFunc.x(place.field)
                lowest[k] = min(place.valuation(self.module.phi_t(pk * t**j))
                                for j in range(place.degree))
            return lowest[k]

        # a breakpoint at or past `top` keeps every image above top > b;
        # past the run of breakpoints b, ..., after - 1 the law alone keeps
        # v(phi_t(pi^c t^j)) >= g(c) >= g(after) >= b, so phi_t is applied
        # only inside the run
        for b in candidates:
            after = b + 1
            while after in candidates:
                after += 1
            if self.valuation_law(after)[0] >= b and all(
                    lowest_image(c) >= b for c in range(b, after)):
                return b
        return top

    def pair_in(self, alpha, ac, sets=None):
        """Is (alpha, ac) in P_v x R_v(alpha) (or in `sets` x R_v(alpha))?"""
        residue = self._residue_sets
        pool = residue.P if sets is None else sets
        if alpha not in pool:
            return False
        return ac in residue.R[Fraction(alpha)]


def kept(build):
    """build(module, *key), kept on the module, in the table module._kept
    under (build, key): built on the first call for each key and read after
    that, for as long as the module lives.  A build that raises keeps
    nothing, so the next call builds again."""
    @wraps(build)
    def read(module, *key):
        try:
            return module._kept[build, key]
        except KeyError:
            value = module._kept[build, key] = build(module, *key)
            return value
    return read


class DrinfeldModule:
    """phi with phi_t = sum a_i tau^i over K = F_q(t), a_r != 0, r >= 1;
    immutable and hashed by identity, so a memo key finds one in O(1).  What
    is built from it alone is kept on it (`kept`).  Its heights count a
    place v with d(v) / index, the coherent degree: index, fixed when built,
    is [L:K] for a module pushed to an extension L of K: an int >= 1, and
    anything else (a bool too) is a ValueError."""

    def __init__(self, field, coeffs, *, index=1):
        if isinstance(index, bool) or not isinstance(index, int) or index < 1:
            raise ValueError("index ([L:K]) must be an int >= 1, not %r"
                             % (index,))
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("phi_t must involve tau: need r >= 1")
        self.field = field
        self.coeffs = tuple(coeffs)
        self.r = len(coeffs) - 1
        self.q = field.order
        self.index = index
        self._kept = {}

    @property
    def is_monic(self):
        return self.coeffs[-1].is_one()

    @property
    def var(self):
        """Its places' variable: u over an extension (index > 1), else t."""
        return "u" if self.index > 1 else "t"

    @cached_property
    def phi_t(self):
        return SkewPoly(self.field, self.coeffs)

    def __repr__(self):
        return "DrinfeldModule(phi_t = %s)" % self.phi_t.to_string()

    def _require_monic(self):
        if not self.is_monic:
            raise NonMonicError(
                "phi_t is not monic; reduction and height theory need a monic "
                "module (a_r = 1)")

    def phi_of(self, b):
        """The skew polynomial phi_b for b in F_q[t], by Horner composition."""
        if b.is_zero():
            return SkewPoly.zero(self.field)
        acc = SkewPoly.const(self.field, RatFunc.const(self.field, b.coeffs[-1]))
        for j in range(len(b.coeffs) - 2, -1, -1):
            acc = acc * self.phi_t
            if b.coeffs[j]:
                acc = acc + SkewPoly.const(
                    self.field, RatFunc.const(self.field, b.coeffs[j]))
        return acc

    def act(self, b, x):
        """phi_b(x) by Horner, acc <- phi_t(acc) + b_j x from b_d down to b_0.

        phi_t is F_q-linear, so this is sum_j b_j phi_t^j(x) without
        expanding phi_b: it evaluates phi_t deg b times, and only the small x
        is ever scaled or added to a large iterate.
        """
        if b.is_zero():
            return RatFunc.zero(self.field)
        acc = x.scale(b.coeffs[-1])
        for c in reversed(b.coeffs[:-1]):
            acc = self.phi_t(acc)
            if c:
                acc = acc + x.scale(c)
        return acc

    def bad_reduction_set(self):
        """S = {v : some v(a_i) < 0}, sorted; requires monic phi_t."""
        self._require_monic()
        return self._bad_places

    def coefficient_valuations(self, place):
        """(v(a_0), ..., v(a_r)) at `place`, for its ReductionData."""
        return tuple(place.valuation(a) for a in self.coeffs)

    @cached_property
    def _bad_places(self):
        bad = {v for a in self.coeffs for v, _ in places.poles(a)}
        return tuple(sorted(bad, key=lambda v: v.sort_key()))

    @property
    def N_phi(self):
        """1 + r for every q = 2, r = 1 module (the L5' special case), else r."""
        return 2 if (self.q == 2 and self.r == 1) else self.r

    @kept
    def reduction_data(self, place):
        """Reduction data at `place`, kept per place; needs monic."""
        self._require_monic()
        return ReductionData(self, place)

    def monicize(self):
        """Conjugate to a monic module: returns (module, gamma) with
        gamma^(q^r - 1) a_r = 1, or raises MonicizeError with the obstruction.
        """
        if self.is_monic:
            return self, RatFunc.one(self.field)
        m = self.q**self.r - 1
        a_r = self.coeffs[-1]
        unit, num_factors = factor(a_r.num)
        _, den_factors = factor(a_r.den)
        if unit != 1:
            raise MonicizeError(
                "leading unit %s of a_r is not a (q^r-1)-th power in F_q "
                "(only 1 is)" % self.field.elem_str(unit))
        gamma = RatFunc.one(self.field)
        # a_r's prime powers, those of its denominator with negative exponent
        for P, e in num_factors + [(P, -e) for P, e in den_factors]:
            if e % m:
                raise MonicizeError(
                    "exponent %d of %s in a_r is not divisible by q^r-1 = %d"
                    % (e, P, m))
            gamma = gamma * RatFunc.from_poly(P)**(-e // m)
        new_coeffs = [a * gamma**(self.q**i - 1)
                      for i, a in enumerate(self.coeffs)]
        conj = DrinfeldModule(self.field, new_coeffs)
        if not conj.is_monic:
            raise AssertionError("monicization failed")
        return conj, gamma

    def modular_trdeg(self):
        """0 iff some conjugate is defined over F_q, else 1.

        Tested on conjugation invariants: a_0 and, for each i, the divisor
        identity (q^r-1) div(a_i) = (q^i-1) div(a_r), which says
        a_i^(q^r-1)/a_r^(q^i-1) is constant.  With a_r = 1 every a_i is then
        constant: a monic module is isotrivial exactly when S is empty.
        """
        if not self.coeffs[0].is_constant():
            return 1
        mr = self.q**self.r - 1
        div_r = dict(support(self.coeffs[-1]))
        for i in range(1, self.r):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            mi = self.q**i - 1
            div_i = dict(support(a))
            keys = set(div_i) | set(div_r)
            for v in keys:
                if mr * div_i.get(v, 0) != mi * div_r.get(v, 0):
                    return 1
        return 0
