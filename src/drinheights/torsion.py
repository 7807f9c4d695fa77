"""Effective torsion theory: decision, annihilators, kernels, enumeration.

Torsion points can only have poles inside the bad set S, with order at most
floor(-min{0, M_v}) at each v in S (a deeper pole escapes under phi_t and
forces a positive local height).  That pole lattice L is a finite-dimensional
F_q-space, which makes everything here exact linear algebra:

* the torsion decision finds the first F_q-linear dependence among the
  first min(D, n) + 1 iterates of x, D = r N |S| and n the dimension of the
  lattice (leaving the lattice proves non-torsion early);
* a point of L is torsion exactly when its phi_t-orbit stays in L: such an
  orbit spans a finite F_q[t]-module, and a torsion point's orbit is
  torsion.  So the rational torsion T(K) is the largest phi_t-stable
  subspace of L.  It is found once per module: apply phi_t once to each
  basis vector of L; then, from W = L, keep the combinations in W whose
  image lies back in W (one elimination over a common denominator,
  gf.dependencies; the image of a combination is that combination of the
  images), and repeat until the dimension stops falling, at most n + 1
  rounds.  The last round gives A, the matrix of phi_t on T(K), and its
  minimal polynomial mu, the exponent of T(K);
* every root of phi_b in K is torsion, so ker phi_b in K is the kernel of
  b(A) on T(K), and b(A) = (b mod mu)(A): nothing factors b, and phi_b is
  never built.  torsion_enumerate is the F_q-span of T(K)'s basis;
* every rational torsion point is killed by b_lcm, the lcm of all monic
  polynomials of degree <= D = r N |S|, which is Carlitz's closed form
  prod_{k=1}^{D} (t^(q^k) - t), and by B = prod_{k=1}^{min(D, n)}
  (t^(q^k) - t) (TorsionLattice.B), usually far smaller.

Each answer is checked by evaluating phi_t on points of T(K), whose iterates
stay in L: phi_mu kills each basis vector of T(K) (deg mu <= min(D, n)), and
phi_{b mod mu} kills each kernel generator.

The pole lattice with D, m, B, T(K) and A is built once per module
(torsion_lattice), and the minimal annihilator is kept per (module, point),
since the decision, the T2 check and the local height at every bad place
ask for the same point; both memos hold at most gf.FIELD_MEMO entries.
"""

import math
from functools import cached_property, lru_cache

from drinheights import gf
from drinheights.places import FinitePlace
from drinheights.ratfunc import Poly, RatFunc


class TorsionLattice:
    """The pole lattice of a monic module, the torsion bounds it carries and
    the rational torsion inside it.

    Torsion points are n(t)/Q with deg n <= deg Q + m_inf: Q collects P^e
    over the finite bad places, e = floor(-min{0, M_v}), and m_inf is the
    matching bound at infinity (0 when infinity has good reduction).  The
    lattice has F_q-dimension n = deg Q + m_inf + 1.  D = r N |S| bounds the
    degree of every minimal annihilator (height gap theorem), and
    m = min(D, n) bounds the annihilator of all rational torsion (B); with
    S empty the torsion is F_q, killed by t - phi_t(1), and m = n = 1.
    `y in lattice` is membership; B, `torsion` and `points` are built on
    first read.
    """

    def __init__(self, module):
        self.module = module
        self.field = module.field
        Q = Poly.one(module.field)
        m_inf = 0
        S = module.bad_reduction_set()
        for v in S:
            e = math.floor(-module.reduction_data(v).lam)
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
        """prod_{k=1}^{m} (t^(q^k) - t): phi_B kills all rational torsion T.

        Proof.  T is an F_q[t]-submodule of the lattice, so T =
        F_q[t]/(d_1) + ... + F_q[t]/(d_k) with d_1 | ... | d_k, and its
        annihilator d_k has degree <= deg d_1 + ... + deg d_k = dim T <= n.
        d_k is the minimal annihilator of a generator of the last summand,
        so deg d_k <= D as for every torsion point.  B is the lcm of all
        monic polynomials of degree <= m = min(D, n) (annihilator_bound),
        hence d_k | B and phi_B(T) = 0.  Conversely every root of phi_B in K
        is torsion, so T is exactly the kernel of phi_B in K.
        """
        return _carlitz_lcm(self.field, self.m)

    @cached_property
    def torsion(self):
        """(den, basis, powers, mu): the rational torsion T(K), the largest
        phi_t-stable subspace of the lattice, and phi_t on it.

        basis holds sparse numerators over den of an F_q-basis w_0, ...,
        w_{k-1} of T(K); powers[l][j] is A^l w_j in that basis, for
        l <= deg mu, with A the matrix of phi_t on T(K); mu is the minimal
        polynomial of A, the exponent of T(K).  phi_t is applied once to
        each basis vector of the lattice, and W = {w : phi_t(w) in W} is
        found by F_q-linear algebra on those images.  phi_mu is checked to
        kill each w_j, and deg mu <= m.
        """
        module, field, Q = self.module, self.field, self.Q
        monomials = [Poly.x(field)**i for i in range(self.n)]
        images = [module.phi_t(RatFunc(e, Q)) for e in monomials]
        den = Q
        for z in images:
            den = den * (z.den // den.gcd(z.den))
        W = [dict(enumerate((e * (den // Q)).coeffs)) for e in monomials]
        Z = [dict(enumerate((z.num * (den // z.den)).coeffs)) for z in images]
        for _ in range(self.n + 1):
            # W' = {sum c_j w_j : sum c_j phi_t(w_j) in W}, read off the
            # dependencies among w_0, ..., w_{k-1}, phi_t(w_0), ...,
            # phi_t(w_{k-1}); the w_j are independent, so each dependency
            # gives one basis vector of W', and W' = W when all k do
            k = len(W)
            deps = [c + [0] * (2 * k - len(c))
                    for c in gf.dependencies(W + Z, field)]
            if len(deps) == k:
                break
            W, Z = ([_combine(zip(c[k:], V), field) for c in deps]
                    for V in (W, Z))
        else:
            # T(K) is where every kernel generator comes from
            raise AssertionError(
                "phi_t-stable subspace does not settle in n + 1 rounds, "
                "so no kernel generator or torsion point can be verified")
        # the j-th dependency says phi_t(w_j) = -sum_i c_i w_i
        A = [{i: field.neg(a) for i, a in enumerate(c[:k]) if a} for c in deps]
        powers = []

        def flattened():  # I, A, A^2, ... as vectors, until they are dependent
            cols = [{j: 1} for j in range(k)]
            while True:
                powers.append(cols)
                yield {(i, j): a for j, col in enumerate(cols)
                       for i, a in col.items()}
                cols = [_combine(((a, A[i]) for i, a in col.items()), field)
                        for col in cols]
        mu = Poly(field, gf.first_dependence(flattened(), field))
        if mu.degree > self.m or any(
                not module.act(mu, RatFunc(_poly(field, w), den)).is_zero()
                for w in W):
            raise AssertionError("minimal polynomial of phi_t on T(K) fails "
                                 "verification: deg mu > m or phi_mu does "
                                 "not kill a basis vector")
        return den, W, powers, mu

    @cached_property
    def points(self):
        """T(K), sorted: the F_q-span of the torsion basis, each point
        checked once by the torsion decision and phi_t closure."""
        den, basis, _, _ = self.torsion
        points = _span(self.field, den, basis)
        pool = set(points)
        for x in points:
            if annihilator_of(self.module, x) is None:
                raise AssertionError(
                    "enumerated point fails the torsion decision")
            if self.module.phi_t(x) not in pool:
                raise AssertionError("torsion module not closed under phi_t")
        return tuple(points)

    def __contains__(self, y):
        if y.is_zero():
            return True
        if not (self.Q % y.den).is_zero():
            return False
        return y.num.degree <= y.den.degree + self.m_inf


def _poly(field, vec):
    return Poly(field, [vec.get(i, 0)
                        for i in range(max(vec, default=-1) + 1)])


def _combine(terms, field):
    """sum a v over the pairs (a, v), each v a sparse vector {key: entry}."""
    out = {}
    for a, v in terms:
        if a:
            for key, x in v.items():
                out[key] = field.add(out.get(key, 0), field.mul(a, x))
    return out


def _span(field, den, gens):
    """The F_q-span of the points g/den, g in gens (sparse numerators),
    sorted."""
    nums = [{}]
    for g in gens:
        nums = [_combine(((1, s), (c, g)), field)
                for s in nums for c in field.elements()]
    return sorted((RatFunc(_poly(field, v), den) for v in nums),
                  key=lambda r: r.sort_key())


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

    def coordinates():
        # numerators over the common denominator Q; leaving the lattice
        # proves non-torsion and ends the sequence
        y = x
        for j in range(lattice.m + 1):
            if j:
                y = module.phi_t(y)
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
    """Decide whether x is torsion: its minimal annihilator, or a height
    witness that proves hhat(x) > 0.

    The witness is looked for first (check_t2mwg), since a local height
    that escapes needs no pole lattice.  Any other certificate means x is
    torsion (a constant, when S is empty), and annihilator_of gives its
    minimal annihilator, kept per point.  Budget exhaustion raises
    BudgetExhaustedError, and a non-monic module NonMonicError.
    """
    from drinheights.heights import check_t2mwg
    cert = check_t2mwg(module, x)
    if cert.kind == "witness":
        return TorsionCertificate(x, None, cert)
    return TorsionCertificate(x, annihilator_of(module, x), None)


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


def kernel_in_K(module, b):
    """All roots in K of the additive polynomial phi_b, b != 0, as a sorted
    list; separable or not.

    Every root is torsion, and T(K) is the largest phi_t-stable subspace of
    the pole lattice (TorsionLattice.torsion), on which phi_t acts by the
    matrix A with minimal polynomial mu.  phi_b is F_q-linear and acts on
    T(K) by b(A) = (b mod mu)(A), so the roots are the kernel of that
    matrix, read off one elimination of its columns (gf.dependencies) as a
    basis.  Nothing factors b, and phi_b is never built: b mod mu has
    degree < deg mu <= min(D, n).  Each basis vector g is checked with
    phi_{b mod mu}(g) = 0; since phi_mu kills T(K), phi_b(g) = 0, and every
    root returned is an F_q-combination of them.
    """
    module._require_monic()
    if b.is_zero():
        raise ValueError("kernel of phi_0 is everything")
    field = module.field
    den, basis, powers, mu = torsion_lattice(module).torsion
    rem = b % mu
    # column j of rem(A): phi_rem(w_j) = sum_l rem_l A^l w_j
    columns = [_combine(zip(rem.coeffs, (P[j] for P in powers)), field)
               for j in range(len(basis))]
    gens = []
    for c in gf.dependencies(columns, field):
        g = _combine(zip(c, basis), field)
        if not module.act(rem, RatFunc(_poly(field, g), den)).is_zero():
            raise AssertionError("kernel generator fails verification")
        gens.append(g)
    return _span(field, den, gens)


def torsion_enumerate(module):
    """The full rational torsion submodule T(K), sorted, built and verified
    once per module (TorsionLattice.points).

    T(K) is the kernel in K of phi_B, B = torsion_lattice(module).B, and
    the largest phi_t-stable subspace of the pole lattice; each point is
    also checked by the torsion decision and closure under phi_t.
    """
    return list(torsion_lattice(module).points)
