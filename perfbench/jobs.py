"""Seeded job generators for the three workloads, with their references.

Every job is a dict:

    {"id": str, "cls": job class, "cmd": CLI subcommand or library call,
     "payload": job JSON (CLI) or call arguments (library),
     "ref": reference answer, see check.py}

References never come from the library at run time.  They are closed forms
built from how the input was constructed (points and coefficients are made
as products of known irreducibles, so every valuation is known), or, for
`reduction`, digests recorded from the seed commit (reduction_refs.json,
written by record_refs.py).

The closed forms used:

* a point whose pole at every place v of the bad set S is deeper than
  min(0, M_v) escapes at step 0 everywhere it has a pole, so
  h_v(x) = -d(v) v(x) there, h_v(x) = 0 at good places where x is integral,
  and h(x) = max(deg num, deg den);
* over K^(1/p^n) (prime fields) the same holds with valuations and M_v scaled
  by p^n and degrees divided by p^n, so h(x) = max(deg num, deg den) / p^n;
* Carlitz q=2 at v_inf: the ball v(y) >= -1 is phi_t-stable, so
  h_inf(x) = 0 whenever v_inf(x) >= -1; phi_t = t + tau/t + tau^2 over F_3
  keeps v_t(y) >= 1, so h_t(x) = 0 whenever v_t(x) >= 1;
* torsion: Carlitz q=2 has {0, 1, t, t+1}, Carlitz q>2 only 0, and
  psi_t = -g^(q-1) + tau (g monic; q in {3, 5} with deg g <= 2, or q = 7
  with deg g = 1, every such g checked by selftest.py) has {c g : c in F_q},
  each nonzero point killed by t; the kernel of phi_b is the set of torsion
  points whose annihilator divides b;
* for a psi point x of degree k < deg g = d the orbit escapes at v_inf in
  one step: h(x) = ((q-1) d + k) / q;
* b_lcm = prod_{k=1}^{D} (t^(q^k) - t), with D = r N |S|;
* the Lehmer constants of LehmerBounds, from q, r, N and S.
"""

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# q -> (p, k) of the field descriptor the CLI takes
FIELDS = {2: (2, 1), 3: (3, 1), 5: (5, 1), 7: (7, 1), 4: (2, 2), 9: (3, 2)}

# Monic irreducibles by degree, coefficients constant term first, in the
# library's element encoding (F_4 = F_2[g]/(g^2+g+1), F_9 = F_3[g]/(g^2+1),
# an element c0 + c1 g encoded as c0 + p c1).  selftest.py re-checks them.
IRREDUCIBLE = {
    2: {1: [(0, 1), (1, 1)], 2: [(1, 1, 1)],
        3: [(1, 1, 0, 1), (1, 0, 1, 1)]},
    3: {1: [(0, 1), (1, 1), (2, 1)], 2: [(1, 0, 1), (2, 1, 1), (2, 2, 1)],
        3: [(1, 2, 0, 1), (2, 2, 0, 1), (2, 0, 1, 1), (2, 1, 1, 1)]},
    5: {1: [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)],
        2: [(2, 0, 1), (3, 0, 1), (1, 1, 1), (2, 1, 1)],
        3: [(1, 1, 0, 1), (4, 1, 0, 1), (1, 2, 0, 1), (4, 2, 0, 1)]},
    7: {1: [(0, 1), (1, 1), (2, 1), (3, 1)], 2: [(1, 0, 1), (2, 0, 1)]},
    4: {1: [(0, 1), (1, 1), (2, 1), (3, 1)],
        2: [(2, 1, 1), (3, 1, 1), (1, 2, 1), (2, 2, 1)],
        3: [(2, 0, 0, 1), (3, 0, 0, 1), (1, 1, 0, 1), (1, 2, 0, 1)]},
    9: {1: [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)],
        2: [(4, 0, 1), (5, 0, 1), (7, 0, 1), (3, 1, 1)],
        3: [(3, 1, 0, 1), (4, 1, 0, 1), (5, 1, 0, 1), (6, 1, 0, 1)]},
}

T = (0, 1)
INF = "inf"


def field_desc(q):
    p, k = FIELDS[q]
    return {"p": p, "k": k}


def poly_str(coeffs, var="t"):
    """A polynomial in the CLI's input syntax."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xp = var if i == 1 else "%s^%d" % (var, i)
            terms.append(xp if c == 1 else "%d*%s" % (c, xp))
    return "+".join(terms) if terms else "0"


class Fac:
    """unit * prod P^e over monic irreducibles P; valuations by construction."""

    def __init__(self, exps=None, unit=1):
        self.exps = {P: e for P, e in (exps or {}).items() if e}
        self.unit = unit

    def val(self, place):
        if place == INF:
            return self.deg_den - self.deg_num
        return self.exps.get(place, 0)

    @property
    def deg_num(self):
        return sum(e * (len(P) - 1) for P, e in self.exps.items() if e > 0)

    @property
    def deg_den(self):
        return sum(-e * (len(P) - 1) for P, e in self.exps.items() if e < 0)

    def poles(self):
        out = [P for P, e in self.exps.items() if e < 0]
        if self.deg_num > self.deg_den:
            out.append(INF)
        return out

    def to_str(self, var="t"):
        def part(sign):
            out = []
            for P, e in sorted(self.exps.items()):
                if e * sign > 0:
                    s = poly_str(P, var)
                    if "+" in s:
                        s = "(%s)" % s
                    out.append(s if abs(e) == 1 else "%s^%d" % (s, abs(e)))
            return out
        num, den = part(1), part(-1)
        head = "" if self.unit == 1 else str(self.unit)
        num_s = "*".join(([head] if head else []) + num) or "1"
        if not den:
            return num_s
        den_s = "*".join(den)
        return "%s/%s" % (num_s, den_s if len(den) == 1 else "(%s)" % den_s)


ONE = Fac()


def place_degree(place):
    return 1 if place == INF else len(place) - 1


class Module:
    """phi_t = sum a_i tau^i with each a_i a Fac (None for 0), a_r = 1."""

    def __init__(self, q, coeffs):
        self.q = q
        self.p = FIELDS[q][0]
        self.coeffs = coeffs
        self.r = len(coeffs) - 1
        self.N = 2 if q == 2 and self.r == 1 else self.r
        bad = set()
        for a in coeffs:
            if a is not None:
                bad.update(a.poles())
        self.S = sorted(bad, key=lambda v: (v == INF, str(v)))

    def strings(self, var="t"):
        return ["0" if a is None else a.to_str(var) for a in self.coeffs]

    def payload(self, **extra):
        job = {"field": field_desc(self.q),
               "module": {"coefficients": self.strings()}}
        job.update(extra)
        return job

    def M(self, place):
        """M_v = min over i < r of v(a_i) / (q^r - q^i); None for +inf."""
        best = None
        for i in range(self.r):
            a = self.coeffs[i]
            if a is None:
                continue
            cand = Fraction(a.val(place), self.q**self.r - self.q**i)
            if best is None or cand < best:
                best = cand
        return best

    def min_pole(self, place, scale=1):
        """Smallest pole order k with -k < min(0, scale * M_v)."""
        m = self.M(place)
        lam = min(Fraction(0), scale * m) if m is not None else Fraction(0)
        k = 1
        while not -k < lam:
            k += 1
        return k


# --- module shapes (the verify pool's, over any field) ---

def carlitz(q):
    return Module(q, [Fac({T: 1}), ONE])


def frobenius(q):
    return Module(q, [None, ONE])


def rank2_bad(q, P):
    return Module(q, [Fac({T: 1}), Fac({P: -1}), ONE])


def rank2_q2(q):
    return Module(q, [Fac({T: 2}), Fac({T: 1}), ONE])


def rank1_finite_bad(q, rng):
    lin = IRREDUCIBLE[q][1]
    if q == 2:
        a0 = Fac({IRREDUCIBLE[2][2][0]: 1, rng.choice(lin): -1})
    else:
        a, b, c = rng.sample(lin, 3)
        a0 = Fac({a: 1, b: 1, c: -1})
    return Module(q, [a0, ONE])


def pool_module(rng, q):
    shape = rng.choice(["carlitz", "frobenius", "rank2-bad", "rank2-bad",
                        "rank2-q2", "rank1-finite-bad"])
    if shape == "carlitz":
        return carlitz(q)
    if shape == "frobenius":
        return frobenius(q)
    if shape == "rank2-q2":
        return rank2_q2(q)
    if shape == "rank1-finite-bad":
        return rank1_finite_bad(q, rng)
    d = rng.choice([1, 1, 2])
    return rank2_bad(q, rng.choice(IRREDUCIBLE[q][d]))


# --- points with known heights ---

def good_irreducibles(q, mod, maxdeg=2):
    return [P for d in range(1, maxdeg + 1) for P in IRREDUCIBLE[q][d]
            if P not in mod.S]


def deep_point(rng, mod, scale=1, extra=2, depth=2):
    """A point with a pole deeper than min(0, scale M_v) at every v in S.

    Returns (Fac, {place: pole order}) where the dict lists every pole.
    """
    q = mod.q
    exps = {}
    for v in mod.S:
        if v != INF:
            exps[v] = -(mod.min_pole(v, scale) + rng.randint(0, depth))
    good = good_irreducibles(q, mod)
    lift = rng.choice(good)       # raises the numerator degree when needed
    others = [P for P in good if P != lift]
    for P in rng.sample(others, min(len(others), rng.randint(0, extra))):
        exps[P] = rng.choice([-2, -1, 1, 1, 2, 3])
    x = Fac(exps, unit=rng.randrange(1, q))
    if INF in mod.S:
        need = mod.min_pole(INF, scale) + rng.randint(0, depth)
        while x.deg_num - x.deg_den < need:
            x.exps[lift] = x.exps.get(lift, 0) + 1
    poles = {P: -e for P, e in x.exps.items() if e < 0}
    if x.deg_num > x.deg_den:
        poles[INF] = x.deg_num - x.deg_den
    return x, poles


def pkey(place):
    """Place key as check.py parses it from a report: ("inf",) or coeffs."""
    return (INF,) if place == INF else tuple(place)


def frac(x):
    return str(Fraction(x))


def lehmer_ref(mod):
    q, r, N, s = mod.q, mod.r, mod.N, len(mod.S)
    lehper = None
    if s:
        dmin = min(place_degree(v) for v in mod.S)
        lehper = frac(Fraction(dmin, q**(4 * r * (r + 1)**2 * s + 3 * r)))
    return {"sharp": frac(Fraction(1, q**(2 * r + r * r * N * s))),
            "weak": frac(Fraction(1, q**(r * (2 + (r * r + r) * s)))),
            "lehper": lehper, "torsion_degree": r * N * s}


def height_ref(poles, index=1):
    """Reference for a height report of a point with the given poles."""
    local = {pkey(v): frac(Fraction(k * place_degree(v), index))
             for v, k in poles.items()}
    total = sum(Fraction(k * place_degree(v), index) for v, k in poles.items())
    return {"height": frac(total), "local": local}


# --- job builders ---

def _job(cls, cmd, payload, ref):
    return {"cls": cls, "cmd": cmd, "payload": payload, "ref": ref}


def witness_bounds(mod, poles):
    """The bound check_t2mwg compares each local height with: d(v) when S
    is empty, q^(-2r - r^2 N |S|) d(v) otherwise."""
    scale = (Fraction(1) if not mod.S
             else Fraction(1, mod.q**(2 * mod.r + mod.r**2 * mod.N * len(mod.S))))
    return {pkey(v): frac(scale * place_degree(v)) for v in poles}


def height_job(rng, mod, cls="escape"):
    x, poles = deep_point(rng, mod)
    ref = height_ref(poles)
    ref.update(kind="height", bounds=lehmer_ref(mod),
               witness=witness_bounds(mod, poles) if poles else None)
    return _job(cls, "height", mod.payload(point=x.to_str()), ref)


def local_height_job(rng, mod, cls="escape-local"):
    x, poles = deep_point(rng, mod)
    good = [P for P in good_irreducibles(mod.q, mod, 3) if P not in x.exps]
    if good and (not poles or rng.random() < 0.3):
        v, value = rng.choice(good), 0
    else:
        v = rng.choice(sorted(poles, key=str))
        value = poles[v] * place_degree(v)
    place = ({"kind": "infinity"} if v == INF
             else {"kind": "finite", "P": poly_str(v)})
    ref = {"kind": "local", "place": pkey(v), "height": frac(value)}
    return _job(cls, "local-height", mod.payload(point=x.to_str(), place=place),
                ref)


def insep_job(rng, mod, level, cls="insep"):
    index = mod.p**level
    x, poles = deep_point(rng, mod, scale=index)
    ref = height_ref(poles, index)
    ref.update(kind="height", bounds=None)
    return _job(cls, "insep-height",
                mod.payload(point=x.to_str("u"), insep_level=level), ref)


def dichotomy_job(rng, mod, level, cls="dichotomy"):
    var = "u" if level else "t"
    if not mod.S:
        x = Fac({rng.choice(IRREDUCIBLE[mod.q][1]): rng.randint(-2, 2)})
        ref = {"kind": "dichotomy", "branch": 2}
        return _job(cls, "dichotomy",
                    mod.payload(point=x.to_str(var), insep_level=level), ref)
    index = mod.p**level
    q, r, s = mod.q, mod.r, len(mod.S)
    exponent = 4 * r * (r + 1)**2 * s + 2 * r
    x, poles = deep_point(rng, mod, scale=index)
    local, threshold = {}, {}
    for v in mod.S:
        d = Fraction(place_degree(v), index)
        local[pkey(v)] = frac(poles[v] * d)
        threshold[pkey(v)] = frac(-d * index * mod.M(v) / q**exponent)
    ref = {"kind": "dichotomy", "branch": 1, "local": local,
           "threshold": threshold}
    return _job(cls, "dichotomy",
                mod.payload(point=x.to_str(var), insep_level=level), ref)


def lehmer_job(mod, cls="lehmer"):
    ref = dict(lehmer_ref(mod), kind="lehmer")
    return _job(cls, "lehmer", mod.payload(), ref)


def reduction_job(mod, cls="reduction"):
    return _job(cls, "reduction", mod.payload(), {"kind": "reduction"})


# Carlitz q=2: the ball v_inf >= -1 is stable; each point has one finite pole
BOUNDED_Q2 = [
    (Fac({T: -1}), (0, 1)),               # 1/t
    (Fac({(1, 1): -1}), (1, 1)),          # 1/(t+1)
    (Fac({T: 1, (1, 1): -1}), (1, 1)),    # t/(t+1)
]


def bounded_local_job(i, n_max):
    x, _ = BOUNDED_Q2[i]
    mod = carlitz(2)
    ref = {"kind": "local", "place": (INF,), "height": "0"}
    return _job("bounded", "local-height",
                mod.payload(point=x.to_str(), place={"kind": "infinity"},
                            n_max=n_max), ref)


def bounded_height_job(i, n_max):
    x, pole = BOUNDED_Q2[i]
    mod = carlitz(2)
    ref = {"kind": "height", "height": "1",
           "local": {pole: "1", (INF,): "0"}, "bounds": lehmer_ref(mod),
           "witness": witness_bounds(mod, {pole: 1})}
    return _job("bounded", "height", mod.payload(point=x.to_str(), n_max=n_max),
                ref)


def bounded_rank2_job(rng, shape):
    """phi_t = t + tau/t + tau^2 over F_3 at v[t], for x with v_t(x) >= 1.

    shape = (v_t(x), degrees of numerator factors, degrees of denominator
    factors): it fixes the cost, the seed picks the factors.
    """
    mod = rank2_bad(3, T)
    j, num, den = shape
    exps = {T: j}
    for degs, sign in ((num, 1), (den, -1)):
        for d in degs:
            P = rng.choice([P for P in IRREDUCIBLE[3][d]
                            if P not in mod.S and P not in exps])
            exps[P] = sign
    x = Fac(exps, unit=rng.randrange(1, 3))
    ref = {"kind": "local", "place": T, "height": "0"}
    return _job("bounded", "local-height",
                mod.payload(point=x.to_str(),
                            place={"kind": "finite", "P": "t"}), ref)


def multiplicity_job(rng, q, m):
    """(t+c)^m times a small cofactor under Carlitz: h = deg num."""
    c = rng.randrange(1, q)
    lin = (c, 1)
    mod = carlitz(q)
    other = rng.choice(IRREDUCIBLE[q][2])
    x = Fac({lin: m, other: -rng.randint(1, 2)})
    poles = {other: -x.exps[other], INF: x.deg_num - x.deg_den}
    ref = height_ref(poles)
    ref.update(kind="height", bounds=lehmer_ref(mod),
               witness=witness_bounds(mod, poles))
    return _job("multiplicity", "height", mod.payload(point=x.to_str()), ref)


# --- torsion-side families ---

def _monic_polys(q, d):
    out = []
    for idx in range(q**d):
        coeffs = []
        v = idx
        for _ in range(d):
            v, c = divmod(v, q)
            coeffs.append(c)
        out.append(tuple(coeffs) + (1,))
    return out


def psi_module(q, g):
    """psi_t = -g^(q-1) + tau; torsion {c g}, each nonzero point killed by t."""
    a0 = "%d*(%s)^%d" % (q - 1, poly_str(g), q - 1)
    return {"field": field_desc(q), "module": {"coefficients": [a0, "1"]}}


def scaled(g, c, q):
    return tuple((c * a) % q for a in g)


def strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


CARLITZ2_TORSION = {(): (1,), (1,): (0, 1, 1), T: T, (1, 1): (1, 1)}


def torsion_job(q, g=None):
    """Full enumeration: Carlitz (q=2: four points; q>2: only 0) or psi."""
    if g is None:
        payload = carlitz(q).payload()
        if q == 2:
            points = CARLITZ2_TORSION
        else:
            points = {(): (1,)}
    else:
        payload = psi_module(q, g)
        points = {strip(scaled(g, c, q)): (T if c else (1,))
                  for c in range(q)}
    ref = {"kind": "torsion", "points": points}
    return _job("enumerate", "torsion", payload, ref)


def constants_torsion_job(q):
    ref = {"kind": "torsion", "constants": q}
    return _job("constants", "torsion", frobenius(q).payload(), ref)


def random_b(rng, q, deg_b):
    """A monic b of degree deg_b, divisible by t half of the time."""
    b = tuple(rng.randrange(q) for _ in range(deg_b)) + (1,)
    if rng.random() < 0.5:
        b = (0,) + b[1:]
    return b


def kernel_job(q, g, b, cls="kernel"):
    """Kernel of phi_b for psi(g), or Carlitz (g None)."""
    if g is None:
        payload = carlitz(q).payload(b=poly_str(b))
        if q == 2:
            at0, at1 = b[0] == 0, sum(b) % 2 == 0
            points = {()}
            if at0:
                points.add(T)
            if at1:
                points.add((1, 1))
            if at0 and at1:
                points.add((1,))
        else:
            points = {()}
    else:
        payload = psi_module(q, g)
        payload["b"] = poly_str(b)
        points = ({strip(scaled(g, c, q)) for c in range(q)}
                  if b[0] == 0 else {()})
    ref = {"kind": "kernel", "points": sorted(points)}
    return _job(cls, "kernel", payload, ref)


def decision_job(rng, q, g):
    """is_torsion on a psi lattice point: torsion (c g) or a witness."""
    d = len(g) - 1
    payload = psi_module(q, g)
    if rng.random() < 0.3:
        c = rng.randrange(q)
        x = strip(scaled(g, c, q))
        ref = {"kind": "is_torsion", "annihilator": T if c else (1,)}
    else:
        k = rng.randrange(d)
        x = tuple(rng.randrange(q) for _ in range(k)) + (rng.randrange(1, q),)
        h = Fraction((q - 1) * d + k, q)
        ref = {"kind": "is_torsion", "annihilator": None,
               "witness": {(INF,): frac(h)}}
    payload["point"] = poly_str(x)
    return _job("decision", "is_torsion", payload, ref)


def deep_decision_job(rng, q):
    """is_torsion off the pole lattice: a deep-pole point, witness closed form."""
    mod = pool_module(rng, q)
    while not mod.S:
        mod = pool_module(rng, q)
    x, poles = deep_point(rng, mod)
    ref = {"kind": "is_torsion", "annihilator": None,
           "witness": height_ref(poles)["local"]}
    return _job("decision", "is_torsion", mod.payload(point=x.to_str()), ref)


def annihilator_bound_job(rng, q, D):
    """A module with D = r N |S| for the requested (q, D)."""
    places = [P for d in (1, 2, 3) for P in IRREDUCIBLE[q][d]]
    if D in (4, 8) and q != 2 and rng.random() < 0.5:
        if D == 4:
            coeffs = ["t^2", "t", "1"]
        else:
            coeffs = ["t", "1/(%s)" % poly_str(rng.choice(places)), "1"]
    else:
        n_bad = D // 2 if q == 2 else D   # r = 1: N = 2 for q = 2, else 1
        den = rng.sample(places, n_bad - 1)
        a0 = "t"
        if den:
            a0 += "+%d/(%s)" % (rng.randrange(1, q),
                                "*".join("(%s)" % poly_str(P) for P in den))
        coeffs = [a0, "1"]
    payload = {"field": field_desc(q), "module": {"coefficients": coeffs}}
    ref = {"kind": "annihilator_bound", "q": q, "p": FIELDS[q][0], "D": D}
    return _job("annihilator-bound", "annihilator_bound", payload, ref)


# --- workloads ---
#
# Costly jobs come from fixed slot tables: a slot fixes what sets a job's cost
# (field, sizes, budget) and the seed fills in the rest, so the total work of
# a pass hardly depends on the seed.  At factor 1 one pass takes about
# PASS_SECONDS on the seed commit (2-core x86-64 machine, pure-Python
# kernel); the factor scales every table.

PASS_SECONDS = 6


def _take(slots, factor):
    """The slot table scaled by factor (a prefix below 1, repeats above)."""
    n = max(1, round(len(slots) * factor))
    return [slots[i % len(slots)] for i in range(n)]


def _take_n(n, factor):
    return max(1, round(n * factor))


# Carlitz q=2 orbits in the stable ball at v_inf: (point index, n_max)
BOUNDED_LOCAL = [(1, 12), (2, 12), (0, 12), (1, 11), (2, 11), (1, 11),
                 (2, 11)]
BOUNDED_GLOBAL = [(1, 11), (2, 11), (0, 12)]
# rank-2 orbits at v[t]: polynomial points stay cheap, a denominator makes
# every iterate a true fraction (gcd-bound)
BOUNDED_RANK2 = [(1, (1,), ()), (1, (2,), ()), (2, (1,), ()), (2, (), ()),
                 (1, (), (1,))]
# (q, m): one gcd per unit of multiplicity in the squarefree split
MULTIPLICITY = [(3, 1000), (5, 1001), (3, 1000)]


def heights_jobs(rng, factor):
    jobs = [bounded_local_job(i, n) for i, n in _take(BOUNDED_LOCAL, factor)]
    jobs += [bounded_height_job(i, n) for i, n in _take(BOUNDED_GLOBAL, factor)]
    jobs += [bounded_rank2_job(rng, s) for s in _take(BOUNDED_RANK2, factor)]
    jobs += [multiplicity_job(rng, q, m) for q, m in _take(MULTIPLICITY, factor)]
    fields = [2, 3, 5, 4, 9]
    for i in range(_take_n(150, factor)):
        mod = pool_module(rng, fields[i % len(fields)])
        jobs.append(height_job(rng, mod) if i % 2 == 0
                    else local_height_job(rng, mod))
    for i in range(_take_n(60, factor)):
        mod = pool_module(rng, [2, 3, 5][i % 3])
        level = 1 + i % 4 // 2
        jobs.append(insep_job(rng, mod, level) if i % 2
                    else dichotomy_job(rng, mod, level))
    return jobs


# each job gets its own (q, D): the b_lcm memo is keyed on (field, D)
ANNIHILATOR_PAIRS = [(2, 4), (2, 6), (2, 8), (3, 3), (3, 4), (3, 5), (3, 6),
                     (3, 7), (4, 3), (4, 4), (5, 3), (5, 4)]
# (q, g, b) for the costliest kernels, which set job_tail_s.  Their cost
# ranges over 0.15-0.30 s with the pair (g, b), so the pairs are fixed (the
# ones seed 101 drew) and the seed only places them in the list.
HEAVY_KERNELS = [(7, (4, 1), (2, 5, 6, 0, 6, 1, 1)),
                 (7, (3, 1), (5, 2, 4, 4, 0, 3, 1)),
                 (7, (2, 1), (0, 2, 5, 0, 1, 5, 1)),
                 (7, (2, 1), (4, 5, 1, 1, 6, 0, 1)),
                 (7, (1, 1), (0, 6, 6, 0, 3, 0, 1)),
                 (7, (3, 1), (0, 0, 0, 5, 3, 3, 1)),
                 (7, (6, 1), (0, 6, 0, 0, 6, 3, 1)),
                 (7, (6, 1), (5, 1, 3, 0, 5, 6, 1)),
                 (7, (1, 1), (2, 0, 4, 4, 5, 6, 1)),
                 (7, (2, 1), (5, 0, 3, 2, 2, 3, 1))]
# (q, deg g, deg b) for kernels of psi(g)
KERNELS = [(5, 2, 5)] * 4 + [(3, 2, 6)] * 4


def torsion_jobs(rng, factor):
    jobs = [annihilator_bound_job(rng, q, D)
            for q, D in _take(ANNIHILATOR_PAIRS, min(factor, 1))]
    jobs += [kernel_job(q, g, b) for q, g, b in _take(HEAVY_KERNELS, factor)]
    for q, dg, db in _take(KERNELS, factor):
        # g(0) != 0: a monomial g makes the iterates sparse and the job cheap
        g = rng.choice([g for g in _monic_polys(q, dg) if g[0]])
        jobs.append(kernel_job(q, g, random_b(rng, q, db)))
    for i in range(_take_n(40, factor)):
        if i % 2:
            # Carlitz over F_9 is left out: phi_b(1) has degree 9^9 there
            jobs.append(torsion_job([2, 3, 4, 5][i % 8 // 2]))
        else:
            q = [3, 5][i % 4 // 2]
            g = rng.choice(_monic_polys(q, 1 + i % 3 // 2))
            jobs.append(torsion_job(q, g))
    for i in range(_take_n(120, factor)):
        q = [3, 5, 7][i % 3]
        if i % 4 == 3:
            jobs.append(deep_decision_job(rng, q if q != 7 else 5))
        else:
            d = 2 + i % 3
            g = tuple(rng.randrange(q) for _ in range(d)) + (1,)
            jobs.append(decision_job(rng, q, g))
    return jobs


# the costliest small job: a reduction over F_9 at a degree-2 bad place
# (about 25 ms); a fixed group of them sets job_tail_s
SMALL_TOP = [(9, (3, 1, 1))] * 20


def small_jobs(rng, factor):
    jobs = [reduction_job(rank2_bad(q, P))
            for q, P in _take(SMALL_TOP, factor)]
    fields = [2, 3, 5, 4, 9]
    for i in range(_take_n(2100, factor)):
        q = fields[i % len(fields)]
        kind = i // 5 % 9
        if kind in (0, 1):
            jobs.append(reduction_job(reduction_module(rng, q)))
        elif kind == 2:
            jobs.append(lehmer_job(pool_module(rng, q)))
        elif kind in (3, 4):
            jobs.append(local_height_job(rng, pool_module(rng, q)))
        elif kind == 5:
            g = rng.choice(_monic_polys(q, 1)) if q in (3, 5) else None
            deg_b = rng.randint(1, 2 if q in (4, 9) else 3)
            jobs.append(kernel_job(q, g, random_b(rng, q, deg_b),
                                   cls="small-kernel"))
        elif kind == 6:
            jobs.append(constants_torsion_job(q))
        elif kind == 7:
            q = [2, 3, 5][i % 3]
            jobs.append(insep_job(rng, pool_module(rng, q), 1 + i % 2,
                                  cls="small-insep"))
        else:
            q = [2, 3, 5][i % 3]
            jobs.append(dichotomy_job(rng, pool_module(rng, q), i % 3,
                                      cls="small-dichotomy"))
    return jobs


def reduction_modules(q):
    """The finite catalogue `reduction` jobs draw from (all recorded)."""
    mods = [carlitz(q), rank2_q2(q)]
    for d in (1, 2, 3):
        for P in IRREDUCIBLE[q][d]:
            mods.append(rank2_bad(q, P))
    lin = IRREDUCIBLE[q][1]
    if q == 2:
        for L in lin:
            mods.append(Module(q, [Fac({IRREDUCIBLE[2][2][0]: 1, L: -1}), ONE]))
    else:
        for c in lin[:3]:
            a, b = [L for L in lin if L != c][:2]
            mods.append(Module(q, [Fac({a: 1, b: 1, c: -1}), ONE]))
    return mods


def reduction_module(rng, q):
    return rng.choice(reduction_modules(q))


WORKLOADS = {"heights": heights_jobs, "torsion": torsion_jobs,
             "small-jobs": small_jobs}


def generate(workload, seed, factor=1.0):
    """The job list of one pass; the same seed always gives the same list."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = WORKLOADS[workload](rng, factor)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = "%s-%d-%d" % (workload, seed, i)
    return jobs


def job_key(job):
    return json.dumps([job["cmd"], job["payload"]], sort_keys=True)


def load_reduction_refs():
    with open(os.path.join(HERE, "reduction_refs.json")) as fh:
        return json.load(fh)
