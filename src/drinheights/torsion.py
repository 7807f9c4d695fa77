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
  (gf.dependencies), and phi_c is checked to kill each one.  Separable or
  not, phi_b is handled the same way, so torsion_enumerate is kernel_in_K
  at b = B.

The pole lattice with D, m and B is built once per module
(torsion_lattice), and the minimal annihilator is kept per (module, point),
since the decision, the T2 check and the local height at every bad place
ask for the same point; both memos hold at most gf.FIELD_MEMO entries.
"""

import math
from functools import cached_property, lru_cache

from drinheights import gf
from drinheights.places import FinitePlace
from drinheights.ratfunc import Poly, RatFunc, factor


class TorsionLattice:
    """The pole lattice of a monic module and the torsion bounds it carries.

    Torsion points are n(t)/Q with deg n <= deg Q + m_inf: Q collects P^e
    over the finite bad places, e = floor(-min{0, M_v}), and m_inf is the
    matching bound at infinity (0 when infinity has good reduction).  The
    lattice has F_q-dimension n = deg Q + m_inf + 1.  D = r N |S| bounds the
    degree of every minimal annihilator (height gap theorem), and
    m = min(D, n) bounds the annihilator of all rational torsion
    (torsion_annihilator); with S empty the torsion is F_q, killed by
    t - phi_t(1), and m = n = 1.  `y in lattice` is membership, and B,
    built on first read, is torsion_annihilator.
    """

    def __init__(self, module):
        self.field = module.field
        Q = Poly.one(module.field)
        m_inf = 0
        S = module.bad_reduction_set()
        for v in S:
            e = math.floor(-min(0, module.reduction_data(v).M))
            if isinstance(v, FinitePlace):
                Q = Q * v.P**e
            else:
                m_inf = e
        self.Q = Q
        self.m_inf = m_inf
        self.n = Q.degree + m_inf + 1
        self.D = _gap_degree(module, S)
        self.m = min(self.D, self.n) if S else self.n

    @cached_property
    def B(self):
        return _carlitz_lcm(self.field, self.m)

    def __contains__(self, y):
        if y.is_zero():
            return True
        if not (self.Q % y.den).is_zero():
            return False
        return y.num.degree <= y.den.degree + self.m_inf


@lru_cache(maxsize=gf.FIELD_MEMO)
def torsion_lattice(module):
    """The module's TorsionLattice, once per module; requires monic phi_t."""
    return TorsionLattice(module)


@lru_cache(maxsize=gf.FIELD_MEMO)
def annihilator_of(module, x):
    """Minimal monic annihilator b with phi_b(x) = 0, or None if non-torsion.

    The decision is F_q-linear dependence of the iterates x, phi_t(x), ...,
    phi_{t^m}(x) with m = min(D, n), D = r N |S| (both directions are part
    of the height gap theorem) and n the dimension of the pole lattice, in
    which n + 1 iterates are dependent; with S empty the lattice is F_q and
    n = 1.  The first dependence is the minimal monic annihilator since the
    annihilator ideal of x is principal.  Answers are kept by (module,
    point), at most gf.FIELD_MEMO of them, the least recently used going
    first.
    """
    field = module.field
    lattice = torsion_lattice(module)  # requires monic phi_t
    if x not in lattice:
        return None
    Q = lattice.Q
    phi_t = module.phi_t

    def coordinates():
        # numerators over the common denominator Q; leaving the lattice
        # proves non-torsion and ends the sequence
        y = x
        for j in range(lattice.m + 1):
            if j:
                y = phi_t(y)
                if y not in lattice:
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


def is_torsion(module, x):
    from drinheights.heights import check_t2mwg
    b = annihilator_of(module, x)
    if b is not None:
        return TorsionCertificate(x, b, None)
    return TorsionCertificate(x, None, check_t2mwg(module, x))


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
        b = b * (t.spread(field.order**k) - t)
    return b


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
    return torsion_lattice(module).B


def kernel_in_K(module, b):
    """All roots in K of the additive polynomial phi_b, b != 0, as a sorted
    list; separable or not.

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
    numerators over a common denominator yields as a basis.  Each basis
    vector g is checked with phi_c(g) = 0; every root returned is an
    F_q-combination of them and c | b, so phi_b kills it.
    """
    module._require_monic()
    if b.is_zero():
        raise ValueError("kernel of phi_0 is everything")
    field = module.field
    lattice = torsion_lattice(module)
    Q, m = lattice.Q, lattice.m
    parts = [P**min(e, m // P.degree) for P, e in factor(b)[1] if P.degree <= m]
    basis = [RatFunc(Poly.x(field)**i, Q) for i in range(lattice.n)]
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
            if not module.act(part, g).is_zero():
                raise AssertionError("kernel generator fails verification")
            scaled = [g.scale(c) for c in field.elements()]
            roots = [s + gc for s in roots for gc in scaled]
    return sorted(roots, key=lambda r: r.sort_key())


def torsion_enumerate(module):
    """The full rational torsion submodule, verified point by point.

    It is the kernel in K of phi_B, B = torsion_annihilator(module); each
    point is also checked by the torsion decision and closure.
    """
    module._require_monic()
    pts = kernel_in_K(module, torsion_annihilator(module))
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
