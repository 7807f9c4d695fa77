"""Canonical local and global heights for a monic Drinfeld module.

The local height at v is -d(v) lim min{0, v(phi_{t^n}(x))} / q^(rn).  The
limit is resolved exactly by iterating phi_t: once v(y_n) drops below
min{0, M_v} the valuation multiplies by exactly q^r each step (so the limit
is read off at step n); at a good-reduction place a nonnegative valuation
certifies 0; a torsion certificate also gives 0.  If none of these fire
within the budget, a sound shrinking interval [0, -d(v) lambda / q^(rn)] is
returned instead of a guess.

All heights are exact Fractions; no floating point enters the computation.
"""

from fractions import Fraction

from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import BudgetExhaustedError
from drinheights.places import is_constant, poles
from drinheights.torsion import _gap_degree, annihilator_of

DEFAULT_N_MAX = 32

# iterates beyond this degree force the sound interval fallback; the bound
# exists to keep adversarial non-escaping orbits from eating memory
DEGREE_CAP = 20000

ESCAPED = "Escaped"
GOOD_REDUCTION = "GoodReductionIntegral"
TORSION = "TorsionCertified"
EXHAUSTED = "IterationBudgetExhausted"


class HeightValue:
    """Exact rational height, or a certified interval [lo, hi]."""

    __slots__ = ("lo", "hi", "certificate", "step")

    def __init__(self, lo, hi, certificate, step=None):
        if lo < 0 or hi < lo:
            raise ValueError("invalid height interval [%s, %s]" % (lo, hi))
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self.certificate = certificate
        self.step = step

    @classmethod
    def exact(cls, value, certificate, step=None):
        return cls(value, value, certificate, step)

    @classmethod
    def interval(cls, lo, hi, certificate, step=None):
        return cls(lo, hi, certificate, step)

    @property
    def is_exact(self):
        return self.lo == self.hi

    @property
    def value(self):
        if not self.is_exact:
            raise BudgetExhaustedError(
                "height only known to lie in [%s, %s]" % (self.lo, self.hi))
        return self.lo

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        cert = self.certificate if self.certificate == other.certificate else "Sum"
        return HeightValue(self.lo + other.lo, self.hi + other.hi, cert)

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, HeightValue):
            return (self.lo, self.hi) == (other.lo, other.hi)
        if self.is_exact:
            return self.lo == other
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __str__(self):
        if self.is_exact:
            return str(self.lo)
        return "[%s, %s]" % (self.lo, self.hi)

    def __repr__(self):
        tag = self.certificate if self.step is None else "%s(%s)" % (self.certificate, self.step)
        return "HeightValue(%s, %s)" % (self, tag)


def local_height(module, place, x, n_max=DEFAULT_N_MAX, index=1):
    """hhat_v(x), exact whenever a certificate fires within the budget.

    For a module over an extension L of K, `index` = [L:K] and the place
    counts with its coherent degree d(v) / [L:K].
    """
    module._require_monic()
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    degree = Fraction(place.degree, index)
    rd = module.reduction_data(place)
    lam = min(Fraction(0), rd.M)
    q, r = module.q, module.r

    if rd.in_S:
        if annihilator_of(module, x) is not None:
            return HeightValue.exact(Fraction(0), TORSION)

    phi_t = module.phi_t
    y = x
    n = 0
    while True:
        val = place.valuation(y)
        if not rd.in_S and val >= 0:
            return HeightValue.exact(Fraction(0), GOOD_REDUCTION, n)
        if val < lam:
            return HeightValue.exact(
                degree * Fraction(-val, q**(r * n)), ESCAPED, n)
        # the next iterate has size about q^r times the current one; stop
        # before building something beyond the budget
        if n >= n_max or y.weil_height() * q**r > DEGREE_CAP:
            break
        y = phi_t(y)
        n += 1
    return HeightValue.interval(
        Fraction(0), degree * Fraction(-lam) / q**(r * n), EXHAUSTED, n)


def relevant_places(module, x):
    """Bad places plus the poles of x: everywhere else hhat_v(x) = 0."""
    out = set(module.bad_reduction_set()) | {v for v, _ in poles(x)}
    return sorted(out, key=lambda v: v.sort_key())


def global_height_breakdown(module, x, n_max=DEFAULT_N_MAX, index=1):
    """[(place, local height)] over the relevant places, sorted.

    `index` = [L:K] for a module over an extension L of K (see local_height).
    """
    return [(v, local_height(module, v, x, n_max, index))
            for v in relevant_places(module, x)]

def height_sum(parts):
    total = HeightValue.exact(Fraction(0), "Sum")
    for _, h in parts:
        total = total + h
    return total


def global_height(module, x, n_max=DEFAULT_N_MAX):
    """hhat(x) = sum of local heights; exact iff every summand is exact."""
    return height_sum(global_height_breakdown(module, x, n_max))


def weil_height(x):
    """The S-free height -sum d(v) min{0, v(x)} = max(deg num, deg den)."""
    return x.weil_height()


class LehmerBounds:
    """The module's Lehmer-type constants, as exact fractions."""

    __slots__ = ("sharp", "weak", "lehper", "torsion_degree", "s")

    def __init__(self, module):
        q, r = module.q, module.r
        S = module.bad_reduction_set()
        s = len(S)
        N = module.N_phi
        self.s = s
        self.sharp = Fraction(1, q**(2 * r + r * r * N * s))
        self.weak = Fraction(1, q**(r * (2 + (r * r + r) * s)))
        self.torsion_degree = _gap_degree(module, S)
        if s:
            dmin = min(v.degree for v in S)
            self.lehper = Fraction(dmin, q**(4 * r * (r + 1)**2 * s + 3 * r))
        else:
            self.lehper = None

    def __repr__(self):
        return ("LehmerBounds(sharp=%s, weak=%s, lehper=%s, torsion_degree=%d)"
                % (self.sharp, self.weak, self.lehper, self.torsion_degree))


def lehmer_bounds(module):
    module._require_monic()
    return LehmerBounds(module)


class T2Certificate:
    """Outcome of the main height gap theorem for one point.

    kind is "constant" (x in F_q, S empty), "torsion" (annihilator b), or
    "witness" (a place with hhat_v(x) above the bound).
    """

    __slots__ = ("kind", "annihilator", "place", "local", "bound")

    def __init__(self, kind, annihilator=None, place=None, local=None, bound=None):
        self.kind = kind
        self.annihilator = annihilator
        self.place = place
        self.local = local
        self.bound = bound

    def __repr__(self):
        if self.kind == "witness":
            return "T2Certificate(witness at %r: %s > %s)" % (
                self.place, self.local, self.bound)
        if self.kind == "torsion":
            return "T2Certificate(torsion, b = %s)" % self.annihilator
        return "T2Certificate(constant)"


def check_t2mwg(module, x, n_max=DEFAULT_N_MAX, parts=None):
    """Certify the height-gap dichotomy for x.

    With S empty: x is constant or some place has hhat_v(x) >= d(v).  With S
    nonempty: x is torsion with an annihilator of degree <= r N |S|, or some
    place has hhat_v(x) > q^(-2r - r^2 N |S|) d(v).  Budget exhaustion raises
    rather than guessing.

    `parts` is global_height_breakdown(module, x, n_max) when the caller has
    it already; x is then neither factored nor iterated again.
    """
    module._require_monic()
    S = module.bad_reduction_set()
    bounds = lehmer_bounds(module)
    if parts is None:
        # lazy, so that the search stops at the first witness
        parts = ((v, local_height(module, v, x, n_max))
                 for v in relevant_places(module, x))
    if not S:
        if is_constant(x):
            return T2Certificate("constant")
        # the relevant places are the poles of x, and each local height
        # there escapes at step 0 with value -v(x) d(v) >= d(v)
        v, h = next(iter(parts))
        return T2Certificate("witness", place=v, local=h.value,
                             bound=Fraction(v.degree))

    b = annihilator_of(module, x)
    if b is not None:
        if b.degree > bounds.torsion_degree:
            raise AssertionError("annihilator degree above the r N |S| bound")
        return T2Certificate("torsion", annihilator=b)

    exhausted = False
    for v, h in parts:
        if not h.is_exact:
            exhausted = True
            continue
        bound = bounds.sharp * v.degree
        if h.value > bound:
            return T2Certificate("witness", place=v, local=h.value, bound=bound)
    if exhausted:
        raise BudgetExhaustedError(
            "no witness certified within n_max = %d: some local heights are "
            "only known as intervals" % n_max)
    raise AssertionError("height gap theorem violated")  # unreachable


def pushed_module(module, emb):
    """The module over F_q(u) with coefficients pushed through t -> f(u)."""
    return DrinfeldModule(module.field, emb.apply_module(module.coeffs))


def height_via_embedding(module, emb, x, n_max=DEFAULT_N_MAX):
    """hhat of the image of x in F_q(u), over coherent degrees relative to K.

    By coherence this equals global_height(module, x) whenever both resolve
    exactly.
    """
    module._require_monic()
    pushed = pushed_module(module, emb)
    x_up = emb.apply(x)
    return height_sum(global_height_breakdown(pushed, x_up, n_max, emb.degree))
