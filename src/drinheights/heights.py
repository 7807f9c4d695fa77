"""Canonical local and global heights for a monic Drinfeld module.

The local height at v is -d(v) lim min{0, v(phi_{t^n}(x))} / q^(rn).

At a place v outside the bad set S it is read off in closed form:
hhat_v(x) = d(v) max(0, -v(x)), certified at step 0 (_good_height).  There
every v(a_i) >= 0 and a_r = 1, so min{0, M_v} = 0 and the stable floor
lambda*_v is 0: the walk below would stop at once, escaping when v(x) < 0
and in the stable ball otherwise.  So no reduction data is built and
nothing is iterated at a good place.

At a place of S the limit is read off the integers v(y_n), y_n =
phi_t^n(x), not off the iterates.  With g = ReductionData.valuation_law,
v(phi_t(y)) = g(v(y)) when one index attains g (a strict ultrametric
minimum; Poonen 1995), so while one does and g(v) < v the walk v <- g(v)
is exact; a run of index 0, v <- v + v(a_0) down to the first Newton
breakpoint (ReductionData.zero_stop), is taken at once.  Where several
indices attain g, the leading terms decide: ac(phi_t(y)) is the leading
residue sum ac(a_i) ac(y)^(q^i) over them (ReductionData.leading_residue),
and when it is not 0, v(phi_t(y)) = g(v(y)) still.  The walk records its
runs and carries ac(x) (or ac of the last iterate built), or the last
residue, along them only at a tie, so a tie-free walk builds no residue
field.  Below min{0, M_v} the valuation multiplies by q^r each step, so
an orbit there at step n has hhat_v(x) = -d(v) v(y_n) / q^(rn) (Escaped).
g(k) - k is nondecreasing, so g(v) >= v makes the ball {v(y) >= v}
phi_t-stable, and every earlier step descends: a walk that builds no
iterate ends within v(x) - ceil(min{0, M_v}) + 1 steps, with no budget.
An orbit that does not escape is 0 when x is torsion (TorsionCertified).
Otherwise a walk that stopped at g(v) >= v is its own certificate: the
ball {v(y) >= v} is phi_t-stable and holds x, so the height is 0 at step 0
(GoodReductionIntegral) and no floor is read.

Only a tie that the law cannot pass needs an iterate: a cancellation (a
leading residue 0, so v(phi_t(y)) > g), or a tie at a place whose residue
field is past gf.ORDER_CAP.  At such a tie at step n the iterates are
built from the last one built (x at first) up to y_(n+1), and the same
walk goes on from v(y_(n+1)), reading ac off that iterate at its next tie.
The first such tie decides torsion, and each reads the floor lambda*_v of
the stable balls (ReductionData.stable_floor, built once); the tie and then
every iterate built are checked against it, and an orbit in the ball
{v(y) >= lambda*_v} has height 0 (GoodReductionIntegral).  No other step
needs the test: between builds the valuations only fall, and a stop at
g(v) >= v makes {v(y) >= v} stable, so the floor is at or below v.  A
tie-free walk tests only min{0, M_v} and the law.

Building iterates alone has a budget, DEGREE_CAP on their Weil height,
applied by one rule (next_iterate_fits, which the key dichotomy's walk
also reads): phi_t(y) is built only while h(y) q^r is within the cap, and
may pass it by at most the sum of the coefficient heights.  The rule ends
every walk that no certificate ends first.  Between two cancellations the
valuations fall, so such a walk builds iterates again and again; x is not
torsion, so hhat(x) > 0 (Denis 1992; the Lehmer-type bound gives
hhat(x) >= q^(-2r - r^2 N |S|)), and h(y_n) grows like hhat(x) q^(rn).
The answer is then the sound interval [0, -d(v) lambda / q^(rn)] at the
step n of the iterate that does not fit.

The global height sums the local heights over S and the poles of x
outside S; everywhere else hhat_v(x) = 0.  The good poles are the factors
of den', the denominator of x with every finite place of S divided out,
and infinity when it is outside S and deg num > deg den.  The per-place
breakdown (global_height_breakdown) factors den' alone, never the whole
denominator; the total (global_height) factors nothing, since the good
poles add up to (deg den' + [inf not in S] max(0, deg num - deg den)) / [L:K].
[L:K] is module.index, which a module pushed to an extension L of K carries,
so every height takes the module alone: a place v counts d(v) / [L:K].
Dividing a finite place v of S out of den finds e_v, its multiplicity
there; x is reduced, so v(x) = -e_v when e_v > 0, and that value is
handed to the walk at v rather than found by dividing again.

Heights are exact: each bound is an int or a Fraction, never a float
(HeightValue refuses one).  A value that is an integer by construction
stays an int: 0, and a good place's closed form at index 1.  Every other
value, and every total (height_sum and global_height start from
Fraction(0)), is a Fraction, so a total divided by an int stays exact.
Every height is printed in full (frac).
"""

from fractions import Fraction
from functools import lru_cache

from drinheights import gf
from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import BudgetExhaustedError, quote
from drinheights.places import INFINITY, InfinitePlace, poles
from drinheights.ratfunc import Poly, RatFunc, _divide_out, check_push
from drinheights.torsion import _gap_degree, annihilator_of

# a walk after a cancellation builds no iterate past this degree and ends
# in the sound interval instead; the bound keeps such orbits from eating
# memory
DEGREE_CAP = 20000

ESCAPED = "Escaped"
# an iterate inside a phi_t-stable ball (good reduction plus integrality is
# the lambda = 0 case); perfbench's tracer keys on this string
GOOD_REDUCTION = "GoodReductionIntegral"
TORSION = "TorsionCertified"
EXHAUSTED = "IterationBudgetExhausted"

# str() converts any int of at most 640 digits (the threshold of Python's
# int-to-string digit limit), so blocks of 600 digits never meet the limit
_BLOCK_DIGITS = 600


def frac(x):
    """x, an int or a Fraction, exactly, as "a/b" or "a", however many
    digits a and b have; "+inf" for places.INFINITY.

    str() comes first; a numerator or denominator past Python's
    int-to-string digit limit is written out by blocks instead, and the
    limit itself is left as it is (the CLI's job reader relies on it).
    """
    if x is INFINITY:
        return "+inf"
    try:
        return str(x)
    except ValueError:
        pass
    num = _decimal(x.numerator)
    return num if x.denominator == 1 else num + "/" + _decimal(x.denominator)


def _decimal(n):
    """The decimal digits of the int n, _BLOCK_DIGITS at a time."""
    if n < 0:
        return "-" + _decimal(-n)
    block = 10**_BLOCK_DIGITS
    parts = []
    while n >= block:
        n, low = divmod(n, block)
        parts.append(str(low).zfill(_BLOCK_DIGITS))
    parts.append(str(n))
    return "".join(reversed(parts))


class HeightValue:
    """Exact rational height, or a certified interval [lo, hi]; lo and hi
    are ints or Fractions, kept as given."""

    __slots__ = ("lo", "hi", "certificate", "step")

    def __init__(self, lo, hi, certificate, step=None):
        # internal guards, not input checks: cli exits 4 on them; a float
        # here is an int / int division somewhere
        if not (isinstance(lo, (int, Fraction))
                and isinstance(hi, (int, Fraction))):
            raise AssertionError("height bounds %r, %r are not exact"
                                 % (lo, hi))
        if lo < 0 or hi < lo:
            raise AssertionError("invalid height interval [%s, %s]"
                                 % (frac(lo), frac(hi)))
        self.lo = lo
        self.hi = hi
        self.certificate = certificate
        self.step = step

    @classmethod
    def exact(cls, value, certificate, step=None):
        return cls(value, value, certificate, step)

    @property
    def is_exact(self):
        return self.lo == self.hi

    @property
    def value(self):
        if not self.is_exact:
            raise BudgetExhaustedError(
                "height only known to lie in [%s, %s]"
                % (frac(self.lo), frac(self.hi)))
        return self.lo

    def __add__(self, other):
        cert = self.certificate if self.certificate == other.certificate else "Sum"
        return HeightValue(self.lo + other.lo, self.hi + other.hi, cert)

    def __eq__(self, other):
        if isinstance(other, HeightValue):
            return (self.lo, self.hi) == (other.lo, other.hi)
        if self.is_exact:
            return self.lo == other
        return NotImplemented

    def __hash__(self):
        # an exact value equals its number, so it hashes as that number
        return hash(self.lo) if self.is_exact else hash((self.lo, self.hi))

    def __str__(self):
        if self.is_exact:
            return frac(self.lo)
        return "[%s, %s]" % (frac(self.lo), frac(self.hi))

    def __repr__(self):
        tag = self.certificate if self.step is None else "%s(%s)" % (self.certificate, self.step)
        return "HeightValue(%s, %s)" % (self, tag)


def next_iterate_fits(module, y):
    """Is h(y) q^r within DEGREE_CAP?  A walk builds phi_t(y) only then.
    Over lcm(den a_i) den(y)^(q^r), h(phi_t(y)) <= h(y) q^r + sum h(a_i):
    the iterate may pass the cap by that sum."""
    return y.weil_height() * module.q**module.r <= DEGREE_CAP


def local_height(module, place, x, *, val=None):
    """hhat_v(x), exact unless an iterate needed after a cancellation
    passes DEGREE_CAP.

    Outside S the closed form decides at step 0 (_good_height).  At a place
    of S one valuation walk decides, a tie by its leading residue; only a
    cancellation builds iterates, up to the one after it, and the walk goes
    on from there (see the module docstring).  The stable floor is tested
    at a cancellation and after each iterate built, the only places where
    it can stop the walk.  An interval is
    [0, -d(v) min{0, M_v} / q^(rn)] at step n.

    The place counts with its coherent degree d(v) / module.index.  `val`
    is v(x) when the caller has it already.
    """
    if val is None:
        val = place.valuation(x)
    if place not in module.bad_reduction_set():
        return _good_height(module, place, val)
    degree = Fraction(place.degree, module.index)
    rd = module.reduction_data(place)
    lam, q, r = rd.lam, module.q, module.r
    # y: the last iterate built, y_built (x until a cancellation); runs: the
    # (index, steps) walked since y or the last tie; ac: the leading
    # residue at that tie, or None, when ac(y) is read only at a tie
    y, built, n, runs, ac = x, 0, 0, [], None
    # the walk escapes when the loop ends without a break; v(0) = +inf
    # stops at once, since g(+inf) = +inf
    while val >= lam:
        g, ids = rd.valuation_law(val)
        if g >= val:
            break
        k = 1
        if len(ids) == 1:
            if ids == [0]:  # the whole run of index 0 in one step
                k = (val - rd.zero_stop) // -rd.vals[0] + 1
                g = val + k * rd.vals[0]
            runs.append((ids[0], k))
        else:
            try:
                ac = rd.leading_residue(
                    place.angular_component(y) if ac is None else ac, runs, ids)
            except gf.ResidueFieldError:
                ac = None  # past gf.ORDER_CAP: taken as a cancellation
            runs = []
        if len(ids) == 1 or ac:  # v(y_(n+k)) = g
            val, n = g, n + k
            continue
        # the leading terms cancel: v(y_(n+1)) > g is read off y_(n+1)
        if not built and annihilator_of(module, x) is not None:
            return HeightValue.exact(0, TORSION)
        floor = rd.stable_floor
        # the valuations only fell since y_built: the floor's ball holds it
        if floor is not None and val >= floor:
            return HeightValue.exact(0, GOOD_REDUCTION, built)
        while built <= n:
            if not next_iterate_fits(module, y):
                return HeightValue(0, degree * Fraction(-lam, q**(r * built)),
                                   EXHAUSTED, built)
            y, built = module.phi_t(y), built + 1
        val, n, ac = place.valuation(y), built, None
        # the floor is tested again only here: the valuations fall until
        # the next build, and a stop at g(v) >= v puts the floor at or
        # below v, so a later test would have fired here first
        if floor is not None and val >= floor:
            return HeightValue.exact(0, GOOD_REDUCTION, n)
    else:
        return HeightValue.exact(degree * Fraction(-val, q**(r * n)),
                                 ESCAPED, n)
    if annihilator_of(module, x) is not None:
        return HeightValue.exact(0, TORSION)
    # no iterate is built yet (after one, the floor stops the walk first):
    # {v(y) >= val} is phi_t-stable, and v(x) >= val
    return HeightValue.exact(0, GOOD_REDUCTION, 0)


def _good_height(module, place, val):
    """hhat_v(x) at a place v outside S, given val = v(x): d(v) max(0, -val)
    / [L:K] at step 0, an int at index 1 (see the module docstring)."""
    if val >= 0:
        return HeightValue.exact(0, GOOD_REDUCTION, 0)
    value, index = place.degree * -val, module.index
    return HeightValue.exact(value if index == 1 else Fraction(value, index),
                             ESCAPED, 0)


def _outside(S, x):
    """(den', infinity in S, pole orders): den' is x.den with every finite
    place of S divided out, so its factors are the finite poles of x outside
    S; the pole orders map each finite place v of S with e_v > 0 to
    v(x) = -e_v (x is reduced)."""
    den, inf_bad, orders = x.den, False, {}
    for v in S:
        if isinstance(v, InfinitePlace):
            inf_bad = True
        else:
            e, den = _divide_out(den, v.P)
            if e:
                orders[v] = -e
    return den, inf_bad, orders


def _local_heights(module, x):
    """(place, hhat_v(x)) over S and the poles of x outside S, sorted; a
    place of S is walked only when the iteration reaches it."""
    S = module.bad_reduction_set()
    den, inf_bad, orders = _outside(S, x)
    at = [(v, None) for v in S]
    at += poles(RatFunc(Poly.one(x.field), den, _reduced=True))
    if not inf_bad and x.num.degree > x.den.degree:
        at.append((InfinitePlace(x.field), x.den.degree - x.num.degree))
    at.sort(key=lambda pair: pair[0].sort_key())
    for v, val in at:
        yield v, (local_height(module, v, x, val=orders.get(v))
                  if val is None else _good_height(module, v, val))


def global_height_breakdown(module, x):
    """[(place, local height)] over S and the poles of x outside S, sorted:
    everywhere else hhat_v(x) = 0.  Only den' is factored (_outside).  Each
    place counts with d(v) / module.index (see local_height)."""
    return list(_local_heights(module, x))


def height_sum(parts):
    total = HeightValue.exact(Fraction(0), "Sum")
    for _, h in parts:
        total = total + h
    return total


def global_height(module, x):
    """hhat(x) = sum of local heights; exact iff every summand is exact.

    Equal to height_sum(global_height_breakdown(module, x)), without
    factoring: the good poles add up to deg den' plus, when infinity is
    outside S, max(0, deg num - deg den), over [L:K] = module.index.
    """
    S = module.bad_reduction_set()
    den, inf_bad, orders = _outside(S, x)
    good = den.degree
    if not inf_bad:
        good += max(0, x.num.degree - x.den.degree)
    total = height_sum((v, local_height(module, v, x, val=orders.get(v)))
                       for v in S)
    return total + HeightValue.exact(Fraction(good, module.index), "Sum")


class LehmerBounds:
    """The module's Lehmer-type constants, as exact fractions."""

    __slots__ = ("sharp", "weak", "lehper", "torsion_degree")

    def __init__(self, module):
        q, r = module.q, module.r
        S = module.bad_reduction_set()
        s = len(S)
        N = module.N_phi
        self.sharp = Fraction(1, q**(2 * r + r * r * N * s))
        self.weak = Fraction(1, q**(r * (2 + (r * r + r) * s)))
        self.torsion_degree = _gap_degree(module, S)
        if s:
            dmin = min(v.degree for v in S)
            self.lehper = Fraction(dmin, q**(4 * r * (r + 1)**2 * s + 3 * r))
        else:
            self.lehper = None

    def __repr__(self):
        lehper = None if self.lehper is None else frac(self.lehper)
        return ("LehmerBounds(sharp=%s, weak=%s, lehper=%s, torsion_degree=%d)"
                % (frac(self.sharp), frac(self.weak), lehper,
                   self.torsion_degree))


@lru_cache(maxsize=gf.FIELD_MEMO)
def lehmer_bounds(module):
    """The module's LehmerBounds, built once per module; a non-monic module
    raises on every call, since a raising call keeps nothing."""
    return LehmerBounds(module)


class T2Certificate:
    """Outcome of the main height gap theorem for one point.

    kind is "constant" (x in F_q, S empty), "torsion" (annihilator b), or
    "witness" (a place, written in `var`, with hhat_v(x) above the bound).
    """

    __slots__ = ("kind", "annihilator", "place", "local", "bound", "var")

    def __init__(self, kind, annihilator=None, place=None, local=None,
                 bound=None, var="t"):
        self.kind = kind
        self.annihilator = annihilator
        self.place = place
        self.local = local
        self.bound = bound
        self.var = var

    def __repr__(self):
        if self.kind == "witness":
            return "T2Certificate(witness at %s: %s > %s)" % (
                self.place.to_string(self.var), frac(self.local),
                frac(self.bound))
        if self.kind == "torsion":
            return "T2Certificate(torsion, b = %s)" % self.annihilator
        return "T2Certificate(constant)"


def check_t2mwg(module, x, parts=None):
    """Certify the height-gap dichotomy for x.

    With S empty: x is constant or some place has hhat_v(x) >= d(v).  With S
    nonempty: x is torsion with an annihilator of degree <= r N |S|, or some
    place has hhat_v(x) > q^(-2r - r^2 N |S|) d(v), d(v) over module.index
    as in the local heights.  Budget exhaustion raises rather than guessing.
    The witness is looked for first: it proves hhat(x) > 0, so x is not
    torsion and the torsion decision is skipped.

    `parts` is global_height_breakdown(module, x) when the caller has
    it already; x is then neither factored nor iterated again.
    """
    S = module.bad_reduction_set()
    bounds = lehmer_bounds(module)
    if parts is None:
        # lazy, so that the search stops at the first witness
        parts = _local_heights(module, x)
    if not S:
        if x.is_constant():
            return T2Certificate("constant")
        # the places are the poles of x, all good, and each local height
        # there is the closed form -v(x) d(v) >= d(v), both over the index
        v, h = next(iter(parts))
        return T2Certificate("witness", place=v, local=h.value,
                             bound=Fraction(v.degree, module.index),
                             var=module.var)

    exhausted = False
    for v, h in parts:
        if not h.is_exact:
            exhausted = True
            continue
        bound = bounds.sharp * Fraction(v.degree, module.index)
        if h.value > bound:
            return T2Certificate("witness", place=v, local=h.value,
                                 bound=bound, var=module.var)

    b = annihilator_of(module, x)
    if b is not None:
        if b.degree > bounds.torsion_degree:
            raise AssertionError("annihilator degree above the r N |S| bound")
        return T2Certificate("torsion", annihilator=b)
    if exhausted:
        raise BudgetExhaustedError(
            "no witness certified within the degree budget DEGREE_CAP = %d: "
            "some local heights are only known as intervals" % DEGREE_CAP)
    raise AssertionError("height gap theorem violated")  # unreachable


def height_via_embedding(module, emb, x):
    """hhat of the image of x in F_q(u) on the module pushed along emb, whose
    index [L:K] = emb.degree makes the degrees coherent relative to K: by
    coherence this equals global_height(module, x) whenever both resolve
    exactly.  The push rule (ratfunc.check_push) runs before anything is
    pushed."""
    module._require_monic()
    check_push("substitution t -> %s (degrees times %d)"
               % (quote(emb.image.to_string("u")), emb.degree), emb.degree,
               *module.coeffs, x)
    pushed = DrinfeldModule(module.field,
                            [emb.apply(a) for a in module.coeffs],
                            index=emb.degree)
    return global_height(pushed, emb.apply(x))
