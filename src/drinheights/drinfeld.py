"""Drinfeld modules phi: F_q[t] -> K{tau} over K = F_q(t).

A module is given by the coefficients a_0..a_r of phi_t.  This module houses
the ring-homomorphism extension phi_b, the bad-reduction set S, the per-place
reduction data (the rationals M_v and T_v, the Newton polygon of phi_t, the
exceptional valuation sets P_v, P'_v, P''_v, Q_v and the angular-component
sets R_v(alpha)), monicization by a conjugation in K, and the isotriviality
test via the relative modular transcendence degree.
"""

from fractions import Fraction

from drinheights import gf, places
from drinheights.errors import MonicizeError, NonMonicError
from drinheights.places import INFINITY, support
from drinheights.ratfunc import RatFunc, factor
from drinheights.skew import SkewPoly


# every ReductionData construction runs its invariant checks; this counts
# them so test harnesses can confirm the checks actually covered their runs
reduction_checks_run = 0


def _mv(vals, q, r):
    """M_v = min over i < r of v(a_i)/(q^r - q^i), skipping v(0) = +inf."""
    best = INFINITY
    for i in range(r):
        if vals[i] is not INFINITY:
            cand = Fraction(vals[i], q**r - q**i)
            if cand < best:
                best = cand
    return best


def _tv(vals, q, r):
    """T_v = -min over 0 <= i <= r of v(a_i)/q^i."""
    best = None
    for i in range(r + 1):
        if vals[i] is not INFINITY:
            cand = Fraction(vals[i], q**i)
            if best is None or cand < best:
                best = cand
    return -best


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

    R maps each alpha in Q_v to a tuple of nonzero residue-field elements;
    `pair_in` is the dichotomy membership test (v(x), ac(x)) in P x R(v(x)).
    """

    __slots__ = ("place", "in_S", "vals", "M", "T", "newton", "P", "Pp",
                 "Ppp", "Q", "R", "N_phi", "q", "r")

    def __init__(self, place, in_S, vals, M, T, newton, P, Pp, Ppp, Q, R,
                 N_phi, q, r):
        self.place = place
        self.in_S = in_S
        self.vals = vals
        self.M = M
        self.T = T
        self.newton = newton
        self.P = P
        self.Pp = Pp
        self.Ppp = Ppp
        self.Q = Q
        self.R = R
        self.N_phi = N_phi
        self.q = q
        self.r = r
        self._check()

    def _check(self):
        global reduction_checks_run
        reduction_checks_run += 1
        q, r = self.q, self.r
        if self.in_S and not self.T > 0:
            raise RuntimeError("T_v must be positive at a bad place")
        if len(self.P) > self.N_phi:
            raise RuntimeError("|P_v| exceeds N_phi")
        if len(self.Pp) > len(self.P):
            raise RuntimeError("|P'_v| exceeds |P_v|")
        if len(self.Q) > 2 * (r + 1):
            raise RuntimeError("|Q_v| exceeds 2(r+1)")
        for alpha in self.P:
            if len(self.R[alpha]) > q**r:
                raise RuntimeError("|R_v(alpha)| exceeds q^r on P_v")
        for alpha in self.Q:
            if len(self.R[alpha]) >= q**(2 * (r + 1)):
                raise RuntimeError("|R_v(alpha)| reaches q^(2(r+1)) on Q_v")

    def pair_in(self, alpha, ac, sets=None):
        """Is (alpha, ac) in P_v x R_v(alpha) (or in `sets` x R_v(alpha))?"""
        pool = self.P if sets is None else sets
        if alpha not in pool:
            return False
        return ac in self.R[Fraction(alpha)]


class DrinfeldModule:
    """phi with phi_t = sum a_i tau^i over K = F_q(t), a_r != 0, r >= 1."""

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("phi_t must involve tau: need r >= 1")
        if coeffs[-1].is_zero():
            raise ValueError("leading coefficient a_r must be nonzero")
        self.field = field
        self.coeffs = tuple(coeffs)
        self.r = len(coeffs) - 1
        self.q = field.order
        self._S = None
        self._rd = {}
        self._annihilators = {}  # torsion.annihilator_of, by point

    @property
    def is_monic(self):
        return self.coeffs[-1].is_one()

    @property
    def phi_t(self):
        return SkewPoly(self.field, self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, DrinfeldModule) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return "DrinfeldModule(phi_t = %s)" % self.phi_t.to_string()

    def _require_monic(self):
        if not self.is_monic:
            raise NonMonicError(
                "phi_t is not monic; reduction and height theory need a monic "
                "module - apply monicize() first")

    def phi_of(self, b):
        """The skew polynomial phi_b for b in F_q[t], by Horner composition."""
        if b.is_zero():
            return SkewPoly.zero(self.field)
        phi_t = self.phi_t
        acc = SkewPoly.const(self.field, RatFunc.const(self.field, b.coeffs[-1]))
        for j in range(len(b.coeffs) - 2, -1, -1):
            acc = acc * phi_t
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
        phi_t = self.phi_t
        acc = x.scale(b.coeffs[-1])
        for c in reversed(b.coeffs[:-1]):
            acc = phi_t(acc)
            if c:
                acc = acc + x.scale(c)
        return acc

    def bad_reduction_set(self):
        """S = {v : some v(a_i) < 0}, sorted; requires monic phi_t."""
        self._require_monic()
        if self._S is None:
            bad = {v for a in self.coeffs for v, _ in places.poles(a)}
            self._S = tuple(sorted(bad, key=lambda v: v.sort_key()))
        return self._S

    @property
    def N_phi(self):
        """1 + r for every q = 2, r = 1 module (the L5' special case), else r."""
        return 2 if (self.q == 2 and self.r == 1) else self.r

    def reduction_data(self, place):
        self._require_monic()
        if place not in self._rd:
            self._rd[place] = self._reduction_data(place)
        return self._rd[place]

    def _reduction_data(self, v):
        q, r = self.q, self.r
        vals = tuple(v.valuation(a) for a in self.coeffs)
        in_S = v in self.bad_reduction_set()
        M = _mv(vals, q, r)
        T = _tv(vals, q, r)

        points = [(q**i, vals[i]) for i in range(r + 1) if vals[i] is not INFINITY]
        hull = _lower_hull(points)
        newton = []
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            newton.append(((x1, y1), (x2, y2), Fraction(y2 - y1, x2 - x1)))
        slopes = [seg[2] for seg in newton]

        def min_indices(alpha):
            best = None
            ids = []
            for i in range(r + 1):
                if vals[i] is INFINITY:
                    continue
                c = vals[i] + q**i * alpha
                if best is None or c < best:
                    best, ids = c, [i]
                elif c == best:
                    ids.append(i)
            return best, ids

        P = sorted({-s for s in slopes if s >= 0})
        if q == 2 and r == 1 and in_S and Fraction(0) not in P:
            P.append(Fraction(0))
            P.sort()

        # P'_v: 0 < alpha <= T with min_i(v(a_i) + q^i alpha) landing in P_v;
        # the minimum is strictly increasing in alpha, so alpha is determined
        # by its target and the candidate set below is exhaustive
        pp_target = {}
        for alpha1 in P:
            for i in range(r + 1):
                if vals[i] is INFINITY:
                    continue
                cand = Fraction(alpha1 - vals[i], q**i)
                if 0 < cand <= T:
                    best, _ = min_indices(cand)
                    if best == alpha1:
                        pp_target[cand] = alpha1
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
            _, ids = min_indices(alpha)
            image = [(v.angular_component(self.coeffs[i]), i) for i in ids]
            targets = []
            if alpha in P or alpha in Ppp:
                targets.append(k_v.zero)
            if alpha in pp_target:
                targets.extend(R[pp_target[alpha]])
            sols = {e for target in targets
                    for e in gf.additive_preimages(image, target) if e.val != 0}
            if alpha == 0:
                sols.add(k_v.one)
            R[alpha] = tuple(sorted(sols, key=lambda e: e.val))

        return ReductionData(v, in_S, vals, M, T, tuple(newton), tuple(P),
                             tuple(Pp), tuple(Ppp), tuple(Q), R, self.N_phi,
                             q, r)

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
        for P, e in num_factors:
            if e % m:
                raise MonicizeError(
                    "exponent %d of %s in a_r is not divisible by q^r-1 = %d"
                    % (e, P, m))
            gamma = gamma * RatFunc.from_poly(P)**(-e // m)
        for P, e in den_factors:
            if e % m:
                raise MonicizeError(
                    "exponent %d of %s in a_r is not divisible by q^r-1 = %d"
                    % (-e, P, m))
            gamma = gamma * RatFunc.from_poly(P)**(e // m)
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
        a_i^(q^r-1)/a_r^(q^i-1) is constant.
        """
        if not places.is_constant(self.coeffs[0]):
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
