"""Effective torsion theory: decision, annihilators, kernels, enumeration.

Torsion points can only have poles inside the bad set S, with order at most
floor(-min{0, M_v}) at each v in S (a deeper pole escapes under phi_t and
forces a positive local height).  That pole lattice is a finite-dimensional
F_q-space, which makes everything here exact linear algebra:

* the torsion decision finds the first F_q-linear dependence among the
  first r N |S| + 1 iterates of x (leaving the lattice proves non-torsion
  early);
* every rational torsion point is killed by b_lcm, the lcm of all monic
  polynomials of degree <= D = r N |S|, which is Carlitz's closed form
  prod_{k=1}^{D} (t^(q^k) - t);
* kernel_in_K writes phi_b of each lattice basis element over one common
  denominator; the kernel is the space of linear dependencies among those
  numerators, read off one elimination of them (gf.dependencies).

The minimal annihilator of a point is kept per module, since the decision,
the T2 check and the local height at every bad place ask for the same point.
"""

import math

from drinheights import gf
from drinheights.errors import InseparableKernelError
from drinheights.places import FinitePlace, is_constant
from drinheights.ratfunc import Poly, RatFunc


def torsion_lattice(module):
    """(Q, m_inf): torsion points are n(t)/Q with deg n <= deg Q + m_inf.

    Q collects P^m over the finite bad places, m = floor(-min{0, M_v}); m_inf
    is the matching bound at infinity (0 when infinity has good reduction).
    """
    module._require_monic()
    Q = Poly.one(module.field)
    m_inf = 0
    for v in module.bad_reduction_set():
        lam = min(0, module.reduction_data(v).M)
        m = math.floor(-lam)
        if isinstance(v, FinitePlace):
            Q = Q * v.P**m
        else:
            m_inf = m
    return Q, m_inf


def in_torsion_lattice(module, y, lattice=None):
    if y.is_zero():
        return True
    Q, m_inf = lattice if lattice is not None else torsion_lattice(module)
    if not (Q % y.den).is_zero():
        return False
    return y.num.degree <= y.den.degree + m_inf


def annihilator_of(module, x):
    """Minimal monic annihilator b with phi_b(x) = 0, or None if non-torsion.

    With S nonempty the decision is F_q-linear dependence of the iterates
    x, phi_t(x), ..., phi_{t^D}(x) with D = r N |S| (both directions are part
    of the height gap theorem); the first dependence is the minimal monic
    annihilator since the annihilator ideal of x is principal.  Answers are
    kept per module and point.
    """
    module._require_monic()
    memo = module._annihilators
    if x not in memo:
        memo[x] = _annihilator_of(module, x)
    return memo[x]


def _annihilator_of(module, x):
    field = module.field
    S = module.bad_reduction_set()
    if not S:
        # torsion = constants here
        if not is_constant(x):
            return None
        if x.is_zero():
            return Poly.one(field)
        mu = module.phi_t(RatFunc.one(field)).constant_value()
        return Poly(field, [field.neg(mu), 1])

    D = module.r * module.N_phi * len(S)
    lattice = torsion_lattice(module)
    Q = lattice[0]
    if not in_torsion_lattice(module, x, lattice):
        return None
    phi_t = module.phi_t

    def coordinates():
        # numerators over the common denominator Q; leaving the lattice
        # proves non-torsion and ends the sequence
        y = x
        for j in range(D + 1):
            if j:
                y = phi_t(y)
                if not in_torsion_lattice(module, y, lattice):
                    return
            yield dict(enumerate((y.num * (Q // y.den)).coeffs))

    dep = gf.first_dependence(coordinates(), field)
    return None if dep is None else Poly(field, dep)


class TorsionCertificate:
    """Decision for one point: its minimal annihilator, or a height witness."""

    __slots__ = ("point", "annihilator", "witness")

    def __init__(self, point, annihilator, witness):
        self.point = point
        self.annihilator = annihilator
        self.witness = witness

    @property
    def torsion(self):
        return self.annihilator is not None

    def __repr__(self):
        if self.torsion:
            return "TorsionCertificate(torsion, b = %s)" % self.annihilator
        return "TorsionCertificate(non-torsion, %r)" % self.witness


def is_torsion(module, x, n_max=None):
    from drinheights.heights import DEFAULT_N_MAX, check_t2mwg
    b = annihilator_of(module, x)
    if b is not None:
        return TorsionCertificate(x, b, None)
    witness = check_t2mwg(module, x, n_max if n_max is not None else DEFAULT_N_MAX)
    return TorsionCertificate(x, None, witness)


class AnnihilatorBound:
    """Corollary data: the universal annihilator of all rational torsion."""

    __slots__ = ("constants_only", "D", "b_lcm")

    def __init__(self, constants_only, D, b_lcm):
        self.constants_only = constants_only
        self.D = D
        self.b_lcm = b_lcm

    def __repr__(self):
        if self.constants_only:
            return "AnnihilatorBound(torsion = constants F_q)"
        return "AnnihilatorBound(D=%d, b_lcm=%s)" % (self.D, self.b_lcm)


def annihilator_bound(module):
    """D = r N |S| and b_lcm, the lcm of all monic polynomials of degree <= D.

    b_lcm = prod_{k=1}^{D} (t^(q^k) - t) (Carlitz 1935; Goss, Basic Structures
    of Function Field Arithmetic, ch. 3).  t^(q^k) - t is the product of the
    monic irreducibles whose degree divides k, so an irreducible P of degree
    d occurs in the product floor(D/d) times, which is the largest power of
    P dividing a monic polynomial of degree <= D.

    With S empty the torsion module is exactly the constants F_q, and that
    description is returned instead.
    """
    module._require_monic()
    S = module.bad_reduction_set()
    if not S:
        return AnnihilatorBound(True, None, None)
    D = module.r * module.N_phi * len(S)
    t = Poly.x(module.field)
    b = Poly.one(module.field)
    for k in range(1, D + 1):
        b = b * (t.spread(k) - t)
    return AnnihilatorBound(False, D, b)


def kernel_in_K(module, b):
    """All roots in K of the additive polynomial phi_b, as a sorted list.

    Roots are torsion, so they lie in the pole lattice; solving on a lattice
    basis e_0, ..., e_n by linear algebra over F_q is complete.  phi_b is
    F_q-linear, so sum c_i e_i is a root exactly when sum c_i phi_b(e_i) = 0:
    the kernel is the space of dependencies among the images, which one
    elimination of their sparse numerators over a common denominator yields
    as a basis.  The span of that basis is checked root by root with act.
    The inseparable case (constant term b(a_0) = 0) is rejected.
    """
    module._require_monic()
    if b.is_zero():
        raise ValueError("kernel of phi_0 is everything")
    field = module.field
    c0 = b.subs(module.coeffs[0])
    if c0.is_zero():
        raise InseparableKernelError(
            "phi_b has constant term b(a_0) = 0, so it is inseparable "
            "(finite characteristic with t | b); its kernel in K is not "
            "computed here")
    Q, m_inf = torsion_lattice(module)
    basis = [RatFunc(Poly.x(field)**i, Q) for i in range(Q.degree + m_inf + 1)]
    images = [module.act(b, e) for e in basis]
    den = Poly.one(field)
    for z in images:
        den = den * (z.den // den.gcd(z.den))
    vectors = ({i: a for i, a in enumerate((z.num * (den // z.den)).coeffs) if a}
               for z in images)
    roots = [RatFunc.zero(field)]
    for coeffs in gf.dependencies(vectors, field):
        g = RatFunc(Poly(field, coeffs), Q)
        scaled = [g.scale(c) for c in field.elements()]
        roots = [s + gc for s in roots for gc in scaled]
    for x in roots:
        if not module.act(b, x).is_zero():
            raise AssertionError("kernel solution fails verification")
    return sorted(roots, key=lambda r: r.sort_key())


def torsion_enumerate(module):
    """The full rational torsion submodule, verified point by point."""
    module._require_monic()
    bound = annihilator_bound(module)
    if bound.constants_only:
        pts = [RatFunc.const(module.field, c) for c in module.field.elements()]
    else:
        pts = kernel_in_K(module, bound.b_lcm)
    pool = set(pts)
    phi_t = module.phi_t
    for x in pts:
        if annihilator_of(module, x) is None:
            raise AssertionError("enumerated point fails the torsion decision")
        for y in pts:
            if x + y not in pool:
                raise AssertionError("torsion module not closed under addition")
        if phi_t(x) not in pool:
            raise AssertionError("torsion module not closed under phi_t")
    return sorted(pool, key=lambda r: r.sort_key())
