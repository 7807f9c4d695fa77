"""Effective torsion theory: decision, annihilators, kernels, enumeration.

Torsion points can only have poles inside the bad set S, with order at most
floor(-min{0, M_v}) at each v in S (a deeper pole escapes under phi_t and
forces a positive local height).  That pole lattice is a finite-dimensional
F_q-space, which makes everything here exact linear algebra:

* the torsion decision finds the first F_q-linear dependence among the
  first min(D, n) + 1 iterates of x, D = r N |S| and n the dimension of the
  lattice (leaving the lattice proves non-torsion early);
* every rational torsion point is killed by b_lcm, the lcm of all monic
  polynomials of degree <= D = r N |S|, which is Carlitz's closed form
  prod_{k=1}^{D} (t^(q^k) - t);
* the torsion module lies in the pole lattice, so its annihilator also has
  degree <= n = dim of the lattice, and B = prod_{k=1}^{min(D, n)}
  (t^(q^k) - t) kills it too (torsion_annihilator); B is usually far
  smaller than b_lcm;
* kernel_in_K writes phi_c of each lattice basis element over one common
  denominator, for each prime power c of gcd(b, B) (same roots as b, and
  deg c <= min(D, n)); the kernel of phi_c is the space of linear
  dependencies among those numerators, read off one elimination of them
  (gf.dependencies).

The minimal annihilator of a point is kept per module, since the decision,
the T2 check and the local height at every bad place ask for the same point.
"""

import math

from drinheights import gf
from drinheights.errors import InseparableKernelError
from drinheights.places import FinitePlace
from drinheights.ratfunc import Poly, RatFunc, factor


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


def in_torsion_lattice(y, lattice):
    if y.is_zero():
        return True
    Q, m_inf = lattice
    if not (Q % y.den).is_zero():
        return False
    return y.num.degree <= y.den.degree + m_inf


def annihilator_of(module, x):
    """Minimal monic annihilator b with phi_b(x) = 0, or None if non-torsion.

    The decision is F_q-linear dependence of the iterates x, phi_t(x), ...,
    phi_{t^m}(x) with m = min(D, n), D = r N |S| (both directions are part
    of the height gap theorem) and n the dimension of the pole lattice, in
    which n + 1 iterates are dependent; with S empty the lattice is F_q and
    n = 1.  The first dependence is the minimal monic annihilator since the
    annihilator ideal of x is principal.  Answers are kept per module and
    point.
    """
    module._require_monic()
    memo = module._annihilators
    if x not in memo:
        memo[x] = _annihilator_of(module, x)
    return memo[x]


def _annihilator_of(module, x):
    field = module.field
    lattice = torsion_lattice(module)
    Q = lattice[0]
    if not in_torsion_lattice(x, lattice):
        return None
    m = _exponent_degree_bound(module, lattice)
    phi_t = module.phi_t

    def coordinates():
        # numerators over the common denominator Q; leaving the lattice
        # proves non-torsion and ends the sequence
        y = x
        for j in range(m + 1):
            if j:
                y = phi_t(y)
                if not in_torsion_lattice(y, lattice):
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
    D = _gap_degree(module, S)
    return AnnihilatorBound(False, D, _carlitz_lcm(module.field, D))


def _gap_degree(module, S):
    """D = r N_phi |S|: every minimal annihilator of a torsion point has
    degree <= D (height gap theorem)."""
    return module.r * module.N_phi * len(S)


def _carlitz_lcm(field, m):
    """prod_{k=1}^{m} (t^(q^k) - t): the lcm of all monic polynomials of
    degree <= m."""
    t = Poly.x(field)
    b = Poly.one(field)
    for k in range(1, m + 1):
        b = b * (t.spread(k) - t)
    return b


def _exponent_degree_bound(module, lattice):
    """m = min(D, n): the annihilator of all rational torsion has degree <= m.

    See torsion_annihilator.  With S empty the torsion is F_q, killed by
    t - phi_t(1), and m = n = 1.
    """
    Q, m_inf = lattice
    n = Q.degree + m_inf + 1
    S = module.bad_reduction_set()
    return min(_gap_degree(module, S), n) if S else n


def torsion_annihilator(module):
    """B = prod_{k=1}^{m} (t^(q^k) - t) with m = min(D, n); phi_B kills all
    rational torsion.

    Proof.  The rational torsion T is an F_q[t]-submodule of the pole lattice
    L (torsion_lattice), of F_q-dimension n = deg Q + m_inf + 1.  As a finite
    F_q[t]-module T = F_q[t]/(d_1) + ... + F_q[t]/(d_k) with d_1 | ... | d_k,
    so its annihilator d_k has degree <= deg d_1 + ... + deg d_k = dim T <= n.
    d_k is also the minimal annihilator of a point of T (a generator of the
    last summand), so deg d_k <= D = r N |S| as for every torsion point.  B is
    the lcm of all monic polynomials of degree <= m = min(D, n)
    (annihilator_bound), hence d_k | B and phi_B(T) = 0.  Conversely every
    root of phi_B in K is torsion, so T is exactly the kernel of phi_B in K.
    """
    module._require_monic()
    m = _exponent_degree_bound(module, torsion_lattice(module))
    return _carlitz_lcm(module.field, m)


def kernel_in_K(module, b):
    """All roots in K of the additive polynomial phi_b, as a sorted list.

    Roots are torsion, so they lie in the pole lattice; solving on a lattice
    basis e_0, ..., e_{n-1} by linear algebra over F_q is complete.  Every
    root is also killed by B = torsion_annihilator(module), so phi_b has the
    same roots in K as phi_g with g = gcd(b, B), and ker phi_g is the direct
    sum of the ker phi_{P^e} over the prime powers P^e exactly dividing g.
    B holds each monic irreducible P of degree d <= m = min(D, n) to the
    power floor(m / d) and no other, so these are P^min(e, floor(m / d)) for
    P^e exactly dividing b and d <= m; each has degree <= m, and neither B
    nor g is formed.  For each part c, phi_c is F_q-linear, so sum c_i e_i
    is a root exactly when sum c_i phi_c(e_i) = 0: its kernel is the space
    of dependencies among the images, which one elimination of their sparse
    numerators over a common denominator yields as a basis.  The span of all
    those bases is checked root by root with phi_b itself.  The inseparable
    case (constant term b(a_0) = 0) is rejected.
    """
    module._require_monic()
    if b.is_zero():
        raise ValueError("kernel of phi_0 is everything")
    if b.subs(module.coeffs[0]).is_zero():
        raise InseparableKernelError(
            "phi_b has constant term b(a_0) = 0, so it is inseparable "
            "(finite characteristic with t | b); its kernel in K is not "
            "computed here")
    roots = _lattice_kernel(module, b)
    for x in roots:
        if not module.act(b, x).is_zero():
            raise AssertionError("kernel solution fails verification")
    return roots


def _lattice_kernel(module, b):
    """The roots in K of phi_b, b != 0, by linear algebra on the pole
    lattice (see kernel_in_K), sorted; separable or not."""
    field = module.field
    lattice = torsion_lattice(module)
    Q, m_inf = lattice
    m = _exponent_degree_bound(module, lattice)
    parts = [P**min(e, m // P.degree) for P, e in factor(b)[1] if P.degree <= m]
    basis = [RatFunc(Poly.x(field)**i, Q) for i in range(Q.degree + m_inf + 1)]
    roots = [RatFunc.zero(field)]
    for part in parts:
        images = [module.act(part, e) for e in basis]
        den = Poly.one(field)
        for z in images:
            den = den * (z.den // den.gcd(z.den))
        vectors = ({i: a for i, a in enumerate((z.num * (den // z.den)).coeffs)
                    if a} for z in images)
        for coeffs in gf.dependencies(vectors, field):
            g = RatFunc(Poly(field, coeffs), Q)
            scaled = [g.scale(c) for c in field.elements()]
            roots = [s + gc for s in roots for gc in scaled]
    return sorted(roots, key=lambda r: r.sort_key())


def torsion_enumerate(module):
    """The full rational torsion submodule, verified point by point.

    It is the kernel in K of phi_B, B = torsion_annihilator(module).  phi_B
    is inseparable whenever a_0 is a constant (t - a_0 divides B), so the
    kernel is read off the lattice without kernel_in_K's separability gate;
    each point is checked by the torsion decision and closure instead.
    """
    module._require_monic()
    pts = _lattice_kernel(module, torsion_annihilator(module))
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
