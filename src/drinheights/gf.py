"""Exact arithmetic in F_q = F_{p^k} and in finite extensions F_{q^m}.

Field elements are canonically encoded as ints in ``[0, order)``: the digits
of the int in base ``|base field|`` are the coordinates with respect to the
power basis of the defining modulus.  The thin :class:`FqElem` wrapper adds
operators on top of the int encoding; polynomial coefficient lists stay raw
ints throughout the package.

Extensions can be towered (e.g. residue fields of places over F_9 are
extensions with base F_9), and the Frobenius used by additive polynomials is
always x -> x^q with q the order of the *base* of the element's field.  It
fixes the base, so an extension applies it as a base-linear map of the
coordinates, whose images (x^(q^e))^j it computes once: x^q mod the modulus
by the base's own poly_powmod, the one power taken, and x^(q^e) by e - 1
steps of the map of e = 1 from there.  A product is the base product of
the coordinate polynomials, reduced by a table of x^m ... x^(2m-2) mod the
modulus that the field builds with itself; an inverse comes from extended
Euclid over the base on coordinate polynomials.  A field that finite_field
returns with at most MEMO_ORDER elements keeps every product and inverse
(and, in odd characteristic, every sum and difference) it has computed; a
residue field keeps none.

Linear algebra has one eliminator, :func:`dependencies`.  It takes sparse
vectors {key: coefficient} and yields, for each vector that reduces against
those before it, the unique dependency that is 1 there and 0 at every other
reducing vector.  Torsion and the key dichotomy feed it their own vectors;
:func:`solve` and :func:`rref` feed it the columns of a dense matrix: the
pivots are the columns that do not reduce, the dependency of a free column
is its kernel vector, and that of the right-hand side is (-x, 1).

An additive equation sum c_i X^(q^i) = t over a field of degree d over its
base has one solver, :func:`_additive_solutions`, on encodings, which takes
every target of one map at once.  X^(q^i) is X^(q^(i mod d)), so the c_i
are summed by i mod d first.  At d = 1 the map is X -> c X and needs no
matrix; otherwise the d x d matrix over the base, the product by each sum
composed with the cached Frobenius images, goes to :func:`solve` once per
target, and the solutions are spanned on coordinates.
:func:`additive_kernel` and :func:`additive_preimages` wrap the same matrix
and solve for FqElem arguments.
"""

import functools
import operator
from itertools import accumulate, zip_longest

from drinheights import _polycore
from drinheights.errors import quote

# fields larger than this are refused: every residue computation here is
# desk-scale and silent overflow of packed encodings must never happen
ORDER_CAP = 2**31
# an extension that finite_field returns up to this order keeps each product
# and inverse (and, in odd characteristic, each sum and difference) once
# computed: at most order**2 of each
MEMO_ORDER = 256
# each process-wide memo (fields, modules, values per module) keeps at most
# this many entries, the least recently used going first: far more than a
# job touches, and a bound on what a long-lived process holds
FIELD_MEMO = 1024


class FieldError(ValueError):
    pass


class ResidueFieldError(FieldError):
    """A place the input needs has a residue field past ORDER_CAP."""


@functools.lru_cache(maxsize=FIELD_MEMO)
def _is_prime(n):
    """Trial division, memoized: a field asked for again runs none."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_str(coeffs, var):
    """sum c_i var^i, highest power first, without zero terms: "2*g^2+1"."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xpow = var if i == 1 else "%s^%d" % (var, i)
            terms.append(xpow if c == 1 else "%d*%s" % (c, xpow))
    return "+".join(terms) or "0"


class FqElem:
    """An element of a finite field, wrapping the canonical int encoding."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _coerce(self, other):
        # raw ints act through the canonical ring map Z -> F_q
        if isinstance(other, FqElem):
            if other.field != self.field:
                raise FieldError("elements of different fields")
            return other.val
        if isinstance(other, int):
            return other % self.field.char
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field.div(self.val, v))

    def __neg__(self):
        return FqElem(self.field, self.field.neg(self.val))

    def __pow__(self, e):
        return FqElem(self.field, self.field.pow_(self.val, e))

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.field == other.field and self.val == other.val
        if isinstance(other, int):
            return self.val == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.val))

    def frobenius(self, e=1):
        """self**(q**e) where q is the order of the field's base."""
        return FqElem(self.field, self.field.frobenius(self.val, e))

    def coords(self):
        """Coordinates over the base field, lowest power first."""
        return self.field.coords(self.val)

    def __str__(self):
        return self.field.elem_str(self.val)

    def __repr__(self):
        return "FqElem(%s, %r)" % (self.field, str(self))


class _Field:
    """Shared behaviour of PrimeField and ExtensionField."""

    def element(self, v):
        """Wrap a canonical int encoding (0 <= v < order) as an element."""
        if isinstance(v, FqElem):
            if v.field != self:
                raise FieldError("element of a different field")
            return v
        if not 0 <= v < self.order:
            raise FieldError("encoding %r out of range for %s" % (v, self))
        return FqElem(self, v)

    @property
    def zero(self):
        return FqElem(self, 0)

    @property
    def one(self):
        return FqElem(self, 1)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 0 if e else 1
        e %= self.order - 1
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return self is other or (isinstance(other, _Field) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())


class PrimeField(_Field):
    """The prime field F_p; it is its own base with extension degree 1."""

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError("p = %d is not prime" % p)
        self.p = p
        self.char = p
        self.order = p
        self.dim = 1
        self.base = self

    def _key(self):
        return ("prime", self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def frobenius(self, a, e=1):
        return a % self.p

    def coords(self, a):
        return [a]

    def from_coords(self, coords):
        return coords[0] % self.p if coords else 0

    def elem_str(self, a):
        return str(a)

    # dense polynomial ops over this field (coefficient lists of ints)
    def poly_mul(self, a, b):
        return _polycore.poly_mul(a, b, self.p)

    def poly_divmod(self, a, b):
        return _polycore.poly_divmod(a, b, self.p)

    def poly_gcd(self, a, b):
        return _polycore.poly_gcd(a, b, self.p)

    def poly_powmod(self, a, e, mod):
        return _polycore.poly_powmod(a, e, mod, self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


class ExtensionField(_Field):
    """F_{q^m} presented as base[x]/(modulus), elements packed base-q."""

    def __init__(self, base, modulus):
        self._setup(base, modulus)
        if not _poly_is_irreducible(self.modulus, base):
            raise FieldError("reducible modulus")

    def _setup(self, base, modulus):
        # modulus: monic coefficient list over base, degree >= 1
        modulus = _trim(list(modulus))
        m = len(modulus) - 1
        if m < 1:
            raise FieldError("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise FieldError("modulus must be monic")
        if base.order**m >= ORDER_CAP:
            raise FieldError("field order %d**%d exceeds the supported range" % (base.order, m))
        self.base = base
        self.modulus = tuple(modulus)
        self.dim = m
        self.char = base.char
        self.order = base.order**m
        # x^(m+k) mod the modulus for k < m - 1: x^m is minus the modulus
        # below its leading 1, and x times a row shifts it up and folds its
        # top coefficient through x^m.  A product of two reduced elements
        # folds through these rows back below degree m
        self._fold = [[base.neg(c) for c in modulus[:-1]]]
        for _ in range(m - 2):
            row = self._fold[-1]
            self._fold.append(
                self._combine(row[-1:], self._fold, [0] + row[:-1]))
        # e -> coordinates of (x^(q^e))^j for j < m, filled on first use
        self._frobenius_images = {}
        if self.char == 2:
            # the encoding is the bit vector of the coordinates over F_2 at
            # every level of a tower, so a sum is an exclusive or
            self.add = self.sub = operator.xor

    def _key(self):
        return ("ext", self.base._key(), self.modulus)

    @property
    def gen(self):
        """The class of x, i.e. the power-basis generator."""
        if self.dim > 1:
            return FqElem(self, self.base.order)
        return FqElem(self, self.base.neg(self.modulus[0]))

    def coords(self, a):
        q = self.base.order
        out = []
        for _ in range(self.dim):
            a, r = divmod(a, q)
            out.append(r)
        return out

    def from_coords(self, coords):
        q = self.base.order
        a = 0
        for c in reversed(list(coords)):
            a = a * q + c
        return a

    # coordinate arithmetic; _setup replaces add and sub by an exclusive or
    # in characteristic 2
    def add(self, a, b):
        ca, cb = self.coords(a), self.coords(b)
        return self.from_coords([self.base.add(x, y) for x, y in zip(ca, cb)])

    def sub(self, a, b):
        ca, cb = self.coords(a), self.coords(b)
        return self.from_coords([self.base.sub(x, y) for x, y in zip(ca, cb)])

    def neg(self, a):
        return self.from_coords([self.base.neg(x) for x in self.coords(a)])

    def mul(self, a, b):
        prod = self.base.poly_mul(_trim(self.coords(a)), _trim(self.coords(b)))
        return self.from_coords(
            self._combine(prod[self.dim:], self._fold, prod[:self.dim]))

    def _combine(self, scalars, rows, start=None):
        """Coordinates of start + sum_k scalars[k] rows[k] over the base; a
        prime base adds on ints and reduces once."""
        base = self.base
        out = [0] * self.dim if start is None else start
        prime = isinstance(base, PrimeField)
        for c, row in zip(scalars, rows):
            if c and prime:
                out = [x + c * y for x, y in zip(out, row)]
            elif c:
                out = [base.add(x, base.mul(c, y)) for x, y in zip(out, row)]
        return [x % base.p for x in out] if prime else out

    def inv(self, a):
        """a^-1 by extended Euclid over the base on the modulus and the
        coordinate polynomial of a: each remainder r comes with the s that
        has s a = r mod the modulus, and the last r is a nonzero constant."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self)
        base = self.base
        r0, r1 = list(self.modulus), _trim(self.coords(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            quo, rem = base.poly_divmod(r0, r1)
            prod = base.poly_mul(quo, s1)
            r0, r1 = r1, rem
            s0, s1 = s1, _trim([base.sub(x, y) for x, y
                                in zip_longest(s0, prod, fillvalue=0)])
        c = base.inv(r1[0])
        return self.from_coords([base.mul(c, x) for x in s1])

    def frobenius(self, a, e=1):
        """a^(q^e), q the order of the base: the identity when dim | e."""
        e %= self.dim
        if not e:
            return a
        # x -> x^(q^e) fixes the base, so it maps sum c_j x^j to
        # sum c_j (x^(q^e))^j: a base-linear map of the coordinates
        return self.from_coords(self._combine(self.coords(a), self._images(e)))

    def _images(self, e):
        """Coordinates of (x^(q^e))^j for j < dim, 0 < e < dim, the powers of
        x^(q^e): x^q mod the modulus, by the base's poly_powmod, is the one
        power taken, and x^(q^e) is e - 1 steps of the map of e = 1 from
        there."""
        images = self._frobenius_images.get(e)
        if images is None:
            if e == 1:
                xqe = self.base.poly_powmod([0, 1], self.base.order,
                                            self.modulus)
            else:
                xqe = self._images(1)[1]
                for _ in range(e - 1):
                    xqe = self._combine(xqe, self._images(1))
            images = [self.coords(x) for x in accumulate(
                [self.from_coords(xqe)] * (self.dim - 1), self.mul, initial=1)]
            self._frobenius_images[e] = images
        return images

    def elem_str(self, a):
        return poly_str(self.coords(a), "g")

    # generic dense polynomial ops over this field
    def poly_mul(self, a, b):
        a, b = _trim(a), _trim(b)
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = self.add(out[i + j], self.mul(ai, bj))
        return _trim(out)

    def poly_divmod(self, a, b):
        b = _trim(b)
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        r = _trim(list(a))
        db = len(b) - 1
        if len(r) - 1 < db:
            return [], r
        inv_lead = self.inv(b[-1])
        q = [0] * (len(r) - db)
        while r and len(r) - 1 >= db:
            c = self.mul(r[-1], inv_lead)
            k = len(r) - 1 - db
            q[k] = c
            for j in range(db + 1):
                r[k + j] = self.sub(r[k + j], self.mul(c, b[j]))
            r = _trim(r)
        return _trim(q), r

    def poly_gcd(self, a, b):
        a, b = _trim(list(a)), _trim(list(b))
        while b:
            a, b = b, self.poly_divmod(a, b)[1]
        if a and a[-1] != 1:
            inv = self.inv(a[-1])
            a = [self.mul(c, inv) for c in a]
        return a

    def poly_powmod(self, a, e, mod):
        if len(_trim(list(mod))) <= 1:
            return []
        result = [1]
        base = self.poly_divmod(a, mod)[1]
        while e > 0:
            if e & 1:
                result = self.poly_divmod(self.poly_mul(result, base), mod)[1]
            e >>= 1
            if e:
                base = self.poly_divmod(self.poly_mul(base, base), mod)[1]
        return result

    def __repr__(self):
        return "GF(%d)" % self.order


def _sub_x(xq, field):
    # xq - x as a coefficient list
    diff = list(xq) + [0] * (2 - len(xq))
    diff[1] = field.sub(diff[1], 1)
    return _trim(diff)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_is_irreducible(coeffs, field):
    """Rabin's test over `field` for a monic-or-not coefficient list."""
    coeffs = _trim(list(coeffs))
    n = len(coeffs) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    q = field.order
    x = [0, 1]
    if _sub_x(field.poly_powmod(x, q**n, coeffs), field):
        return False
    for ell in _prime_divisors(n):
        diff = _sub_x(field.poly_powmod(x, q**(n // ell), coeffs), field)
        if len(field.poly_gcd(diff, coeffs)) - 1 != 0:
            return False
    return True


def monic_coeffs(field, degree):
    """The coefficient lists, constant term first, of all monic polynomials
    of the given degree over field, in counter order: the i-th holds the
    base-q digits of i below its leading 1."""
    q = field.order
    for idx in range(q**degree):
        coeffs = []
        v = idx
        for _ in range(degree):
            v, r = divmod(v, q)
            coeffs.append(r)
        coeffs.append(1)
        yield coeffs


def _default_modulus(base, k):
    """First irreducible monic of degree k over base, in counter order."""
    return next(c for c in monic_coeffs(base, k)
                if _poly_is_irreducible(c, base))


@functools.lru_cache(maxsize=FIELD_MEMO)
def _proven_extension(base, modulus):
    """base[x]/(modulus) for a tuple `modulus` already proven monic and
    irreducible over base: the checks of ExtensionField, the order cap
    among them, but not Rabin's test.  Memoized by (base, modulus); a
    failed check is not, so it fails again on every call.
    """
    field = ExtensionField.__new__(ExtensionField)
    field._setup(base, modulus)
    return field


def finite_field(p, k=1, modulus=None):
    """Create F_{p^k}; `modulus` is a coefficient list over F_p (monic, deg k).

    Without a modulus the deterministic smallest irreducible (lexicographic in
    the coefficient counter order) is selected, so residues are reproducible.
    Fields are memoized by (p, k, modulus mod p): equal arguments return one
    field, built once.  A refused argument is not, and raises on every call.
    """
    # trial division only below the cap, and no p**k for a huge k
    if p < ORDER_CAP and not _is_prime(p):
        raise FieldError("p = %d is not prime" % p)
    if k < 1:
        raise FieldError("extension degree must be >= 1")
    if p >= ORDER_CAP or k >= ORDER_CAP.bit_length() or p**k >= ORDER_CAP:
        raise FieldError("field order %s**%s exceeds the supported range"
                         % (quote(str(p), str), quote(str(k), str)))
    if modulus is not None:
        modulus = tuple(_trim([c % p for c in modulus]))
        if len(modulus) - 1 != k:
            raise FieldError("modulus degree does not match k = %d" % k)
    return _finite_field(p, k, modulus)


@functools.lru_cache(maxsize=FIELD_MEMO)
def _finite_field(p, k, modulus):
    # built afresh, never shared with a residue field: only this field keeps
    # element memos, wrapped once since the field is built once
    prime = PrimeField(p)
    if k == 1:
        return prime
    field = ExtensionField(prime, modulus or _default_modulus(prime, k))
    if field.order <= MEMO_ORDER:
        for name in ("mul", "inv") + (("add", "sub") if p != 2 else ()):
            setattr(field, name, functools.cache(getattr(field, name)))
    return field


# --- linear algebra over a finite field ---

def dependencies(vectors, field):
    """The linear dependencies in a sequence of sparse vectors over field.

    `vectors` yields dicts {key: coefficient} (zero entries allowed).  Each
    vector is eliminated against the independent ones before it as it
    arrives.  For every v_k that reduces to zero this yields (c_0, ..., c_k)
    with c_k = 1, c_j = 0 at every other reducing index j, and
    sum_j c_j v_j = 0; that makes each one unique, and together they are a
    basis of all dependencies among the vectors read (n - rank of them).
    Nothing is read past the dependence just yielded, so the vectors can be
    built lazily by a generator that may raise or stop early.
    """
    # (pivot key, inverse of the pivot entry, row, combination of the v_j
    # giving the row); rows stay unscaled, since a vector that is never
    # reduced against would be scaled for nothing
    echelon = []
    for k, vec in enumerate(vectors):
        vec = {key: a for key, a in vec.items() if a}
        comb = [0] * k + [1]
        for pivot, inv, row, row_comb in echelon:
            c = vec.get(pivot)
            if not c:
                continue
            c = field.mul(c, inv)
            for key, a in row.items():
                v = field.sub(vec.get(key, 0), field.mul(c, a))
                if v:
                    vec[key] = v
                else:
                    del vec[key]
            for i, a in enumerate(row_comb):
                if a:
                    comb[i] = field.sub(comb[i], field.mul(c, a))
        if vec:
            pivot = next(iter(vec))
            echelon.append((pivot, field.inv(vec[pivot]), vec, comb))
        else:
            yield comb


def first_dependence(vectors, field):
    """(c_0, ..., c_k) with c_k = 1 and sum_j c_j v_j = 0 for the least such
    k, which makes it unique, or None if the vectors run out first; the
    first of `dependencies`, and no vector past it is read.
    """
    return next(dependencies(vectors, field), None)


def _columns(rows, ncols):
    """The first ncols columns of dense rows as sparse vectors {row: entry}."""
    return ({i: row[k] for i, row in enumerate(rows)} for k in range(ncols))


def rref(rows, field, ncols):
    """(reduced rows, pivot columns) of the reduced echelon form of the first
    ncols columns of dense rows: the row of pivot p holds -c[p] at each later
    column whose dependency is c.
    """
    deps = {len(c) - 1: c
            for c in dependencies(_columns(rows, ncols), field)}
    pivots = [k for k in range(ncols) if k not in deps]
    return [[field.neg(deps[k][p]) if k > p and k in deps else int(k == p)
             for k in range(ncols)] for p in pivots], pivots


def solve(rows, rhs, field, ncols):
    """(x, basis): one solution x of A x = rhs, or None if the system is
    inconsistent, and a basis of the kernel {x : A x = 0}, both read off the
    dependencies of the columns of [A | rhs]: that of a free column k, padded
    with zeros, is 1 at k and 0 at the other free columns, and that of rhs is
    (-x, 1), x being 0 at every free column.
    """
    x, basis = None, []
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in dependencies(_columns(augmented, ncols + 1), field):
        if len(c) > ncols:
            x = [field.neg(a) for a in c[:ncols]]
        else:
            basis.append(c + [0] * (ncols - len(c)))
    return x, basis


# --- additive (F_q-linear) polynomial equations over F_{q^m} ---

def _additive_matrix(field, coeffs):
    """Rows over field.base of X -> sum c X^(q^i) in power-basis coordinates,
    for (encoding c, exponent i) pairs.  X^(q^i) is X^(q^(i mod dim)) on the
    field, so the c are summed by i mod dim into c_e, and the matrix is
    sum_e M_(c_e) F_e: column s of F_e is (x^s)^(q^e), read off the cached
    Frobenius images, and column j of M_c, the product by c, is c x^j,
    column j - 1 shifted up one power of x with its top coefficient folded
    through x^dim."""
    m = field.dim
    merged = [0] * m
    for c, i in coeffs:
        merged[i % m] = field.add(merged[i % m], c)
    cols = [[0] * m for _ in range(m)]
    for e, c in enumerate(merged):
        if c:
            product = [field.coords(c)]
            for _ in range(m - 1):
                col = product[-1]
                product.append(field._combine(col[-1:], field._fold,
                                              [0] + col[:-1]))
            # F_0 is the identity, and e = 0 comes first, while cols is 0
            cols = [field._combine(image, product, col) for image, col
                    in zip(field._images(e), cols)] if e else product
    return [list(row) for row in zip(*cols)]


def _check_additive_args(coeffs):
    if not coeffs:
        raise ValueError("no coefficients given")
    field = coeffs[0][0].field
    for c, i in coeffs:
        if c.field != field:
            raise FieldError("coefficients from different fields")
        if i < 0:
            raise ValueError("Frobenius exponent must be >= 0")
    if all(c.val == 0 for c, _ in coeffs):
        raise ValueError("all coefficients are zero")
    return field


def _span_coords(base, basis, start):
    """Coordinates of start plus every base-combination of the coordinate
    vectors in basis."""
    out = [start]
    for b in basis:
        multiples = [[base.mul(c, x) for x in b] for c in base.elements()]
        out = [[base.add(x, y) for x, y in zip(v, w)]
               for v in out for w in multiples]
    return out


def _additive_solutions(field, coeffs, targets):
    """The set of encodings of every X in field with sum c X^(q^i) in
    `targets`, a collection of encodings, for (encoding c, exponent i)
    pairs.  On a field of degree 1 the map is X -> c X, c the sum of the
    coefficients: a target t has the one solution t / c, and when c = 0
    every X solves t = 0 and none another t.  Otherwise each target is
    solved on the rows of _additive_matrix, and its solutions are spanned
    on coordinates."""
    rows = _additive_matrix(field, coeffs)
    base, m = field.base, field.dim
    if m == 1:
        # a degree-1 field holds the encodings of its base, and multiplies
        # them as the base does
        c = rows[0][0]
        if c:
            inv = base.inv(c)
            return {base.mul(t, inv) for t in targets}
        return set(field.elements()) if 0 in targets else set()
    out = set()
    for t in targets:
        x, basis = solve(rows, field.coords(t), base, m)
        if x is not None:
            out.update(map(field.from_coords, _span_coords(base, basis, x)))
    return out


def additive_kernel(coeffs):
    """F_q-basis of the solutions of sum_j c_j X^(q^i_j) = 0 in F_{q^m}.

    `coeffs` is a sequence of (FqElem, exponent) pairs, all in one field;
    q is the order of that field's base.
    """
    field = _check_additive_args(coeffs)
    rows = _additive_matrix(field, [(c.val, i) for c, i in coeffs])
    _, basis = solve(rows, [0] * field.dim, field.base, field.dim)
    return [field.element(field.from_coords(v)) for v in basis]


def span(field, basis):
    """All F_q-combinations of basis elements (including 0)."""
    return [FqElem(field, field.from_coords(v)) for v in _span_coords(
        field.base, [b.coords() for b in basis], [0] * field.dim)]


def additive_preimages(coeffs, target):
    """All solutions of sum_j c_j X^(q^i_j) = target in F_{q^m} (may be []),
    in encoding order."""
    field = _check_additive_args(coeffs)
    if target.field != field:
        raise FieldError("target from a different field")
    return [FqElem(field, e) for e in sorted(_additive_solutions(
        field, [(c.val, i) for c, i in coeffs], [target.val]))]
