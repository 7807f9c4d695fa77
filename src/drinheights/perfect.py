"""Heights over purely inseparable extensions K^(1/p^n) and the refined
dichotomies behind the uniform perfect-closure Lehmer bound.

K^(1/p^n) is realized concretely as F_q(u) with t = u^(p^n): every point is
a rational function in u, and all place/height machinery applies verbatim
with coherent degrees d(w) / p^n relative to K.
"""

import math
from fractions import Fraction

from drinheights import gf
from drinheights.errors import BudgetExhaustedError, IsotrivialModuleError
from drinheights.heights import (DEFAULT_N_MAX, DEGREE_CAP, height_sum,
                                 global_height_breakdown, lehmer_bounds,
                                 local_height, pushed_module)
from drinheights.places import SubstitutionEmbedding, coherent_degree, expansion
from drinheights.ratfunc import Poly, RatFunc
from drinheights.torsion import annihilator_of


class InsepLevel:
    """The embedding K = F_q(t) into F_q(u) with t = u^(p^n)."""

    def __init__(self, module, n):
        module._require_monic()
        if n < 0:
            raise ValueError("inseparable level must be >= 0")
        self.module = module
        self.n = n
        p = module.field.char
        self.index = p**n  # [L : K]
        self.embedding = SubstitutionEmbedding(
            RatFunc.from_poly(Poly.x(module.field)**self.index))
        self.pushed = pushed_module(module, self.embedding)
        self._check()

    def _check(self):
        S0 = self.module.bad_reduction_set()
        S = self.pushed.bad_reduction_set()
        if len(S) != len(S0):
            raise AssertionError("purely inseparable extension changed |S|")
        q, r = self.module.q, self.module.r
        for w in S:
            T = self.pushed.reduction_data(w).T
            if not T >= Fraction(self.index, q**r):
                raise AssertionError("T_v < [L:K]/q^r at a bad place")

    def bad_places(self):
        return self.pushed.bad_reduction_set()


def insep_height(module, n, y, n_max=DEFAULT_N_MAX):
    """Global height of y in F_q(u) for the module rewritten via t = u^(p^n).

    At n = 0 this is global_height; coherent degrees make the value
    comparable across levels.
    """
    level = InsepLevel(module, n)
    return height_sum(global_height_breakdown(level.pushed, y, n_max,
                                              level.index))


class DichotomyReport:
    """Either a bad place with a certified large local height (branch 1) or
    a polynomial b pushing x above every T_v (branch 2), at the InsepLevel
    `level` whose places these are."""

    __slots__ = ("level", "branch", "place", "local", "threshold", "b",
                 "valuations")

    def __init__(self, level, branch, place=None, local=None, threshold=None,
                 b=None, valuations=None):
        self.level = level
        self.branch = branch
        self.place = place
        self.local = local
        self.threshold = threshold
        self.b = b
        self.valuations = valuations

    def __repr__(self):
        if self.branch == 1:
            return "DichotomyReport(branch 1 at %r: %s >= %s)" % (
                self.place, self.local, self.threshold)
        return "DichotomyReport(branch 2, b = %s, valuations %s)" % (
            self.b, self.valuations)


def _expansion_vector(w_idx, w, y, upto):
    """Sparse F_q-conditions 'all uniformizer coefficients at levels <= upto'."""
    vec = {}
    for lvl, c in expansion(w, y, upto):
        for idx, coord in enumerate(c.coords()):
            if coord:
                vec[(w_idx, lvl, idx)] = coord
    return vec


def key_dichotomy_check(module, n, x, n_max=DEFAULT_N_MAX):
    """Certify the key dichotomy at level n.

    Branch 1: some bad w has hhat_w(x) >= -d(w) M_w / q^(4r(r+1)^2|S|+2r).
    Branch 2: some b of degree <= 4(r+1)^2 |S| has w(phi_b(x)) > T_w for all
    bad w; found by eliminating the uniformizer-expansion conditions of the
    iterates of x, exactly as the span argument in the proof.
    """
    level = InsepLevel(module, n)
    psi = level.pushed
    field = module.field
    q, r = module.q, module.r
    S = level.bad_places()
    if not S:
        one = Poly.one(field)
        return DichotomyReport(level, 2, b=one, valuations=[])
    s = len(S)
    B = 4 * (r + 1)**2 * s
    exponent = 4 * r * (r + 1)**2 * s + 2 * r

    exhausted = False
    for w in S:
        rd = psi.reduction_data(w)
        threshold = -coherent_degree(level.embedding, w) * rd.M / q**exponent
        h = local_height(psi, w, x, n_max, level.index)
        if h.is_exact:
            if h.value >= threshold:
                return DichotomyReport(level, 1, place=w, local=h.value,
                                       threshold=threshold)
        else:
            exhausted = True

    uptos = [(w, math.floor(psi.reduction_data(w).T)) for w in S]
    phi_t = psi.phi_t

    def conditions():
        y = x
        for j in range(B + 1):
            if j:
                y = phi_t(y)
                if y.weil_height() > DEGREE_CAP:
                    raise BudgetExhaustedError(
                        "iterates outgrew the degree budget before a "
                        "branch-2 certificate appeared")
            vec = {}
            for w_idx, (w, upto) in enumerate(uptos):
                vec.update(_expansion_vector(w_idx, w, y, upto))
            yield vec

    dep = gf.first_dependence(conditions(), field)
    if dep is not None:
        b = Poly(field, dep)
        z = psi.act(b, x)
        vals = [(w, w.valuation(z)) for w in S]
        for w, val in vals:
            if not val > psi.reduction_data(w).T:
                raise AssertionError("branch 2 certificate fails at %r" % w)
        return DichotomyReport(level, 2, b=b, valuations=vals)

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


def lehper_check(module, n, x, n_max=DEFAULT_N_MAX):
    """Check the uniform perfect-closure floor for one point at level n.

    Requires positive relative modular transcendence degree.  Non-torsion
    points must come out strictly above min d(v_0) / q^(4r(r+1)^2 s + 3r).
    """
    return _lehper_at(InsepLevel(module, n), x, None, n_max)


def _lehper_at(level, x, parts, n_max=DEFAULT_N_MAX):
    """lehper_check at a level already built; `parts` is
    global_height_breakdown(level.pushed, x, n_max, level.index) when the
    caller has it, and is computed only for a non-torsion x otherwise."""
    if level.module.modular_trdeg() == 0:
        raise IsotrivialModuleError(
            "the perfect-closure floor requires a non-isotrivial module: "
            "heights of x^(1/p^n) decay to 0 over the constants")
    bound = lehmer_bounds(level.module).lehper
    b = annihilator_of(level.pushed, x)
    if b is not None:
        return LehperReport(True, b, None, bound, None)
    if parts is None:
        parts = global_height_breakdown(level.pushed, x, n_max, level.index)
    h = height_sum(parts)
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
