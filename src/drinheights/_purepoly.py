"""Dense polynomial arithmetic over a prime field: the package's one kernel.

A polynomial is a list of ints in ``[0, p)``, constant term first; the zero
polynomial is the empty list.  Every function accepts untrimmed input and
returns a trimmed list.  The rest of the package reaches these functions
through ``_polycore``.

Each operation picks its algorithm from the operand sizes:

* ``poly_mul``: schoolbook while len(a) * len(b) is below
  ``KRONECKER_MIN``, Kronecker substitution from there on (pack both
  factors into integers, one big-integer multiply, unpack);
* ``poly_divmod``: when quotient and divisor both have at least
  ``NEWTON_MIN`` coefficients, or the divisor at least
  ``NEWTON_LONG_DIVISOR`` and the quotient at least
  ``NEWTON_SHORT_QUOTIENT``, multiplication by the Newton inverse of the
  reversed divisor (von zur Gathen & Gerhard, *Modern Computer Algebra*,
  section 9.1), its products done by Kronecker; otherwise schoolbook, row
  by row through slices when the divisor has at least ``ROW_MIN``
  coefficients and by an indexed loop below that;
* ``poly_gcd`` (Euclid) and ``poly_powmod`` (square and multiply) are
  built on the two above.
"""

import sys

# Size limits, read off the table printed by benchmarks/bench_backends.py
# (2-core x86-64 VM, Python 3.11.7, p = 3 and p = 65521).
# Kronecker once len(a) * len(b) reaches this: on n x n it ties schoolbook at
# n = 8 and is about 3x faster at n = 16; on 2 x n it ties at n = 32 and wins
# from n = 64 on; schoolbook wins at 2 x 8.
KRONECKER_MIN = 64
# Newton once quotient and divisor both have this many coefficients: it ties
# the row loop at n = 32 and is about 2x faster at n = 64.
NEWTON_MIN = 32
# Newton also once the divisor has NEWTON_LONG_DIVISOR coefficients and the
# quotient NEWTON_SHORT_QUOTIENT: there it wins every cell of the long-divisor
# table, 1.2-1.3x at 128 x 8 and 2-4x at 512-1024 x 8-16; the row loop wins
# at divisor 64 with quotient 8, and wins or ties at quotient 2.
NEWTON_LONG_DIVISOR = 128
NEWTON_SHORT_QUOTIENT = 8
# Row updates by slices once the divisor has this many coefficients: they tie
# or win at 32 and win from 64 on; at 16 the indexed loop is faster.
ROW_MIN = 32

# memoryview format for each slot width in bytes; the packed integers are
# little-endian, so the wide formats only read them right on such hosts
_CAST = {1: "B"}
if sys.byteorder == "little":
    _CAST.update({2: "H", 4: "I", 8: "Q"})


def _trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    del c[n:]
    return c


def _slot_bytes(m, p):
    # a product coefficient is a sum of at most m terms below p**2
    w = ((m * (p - 1) ** 2).bit_length() + 7) // 8
    for size in _CAST:
        if w <= size:
            return size
    return w


def _pack(a, w, p):
    if p < 256:
        buf = bytearray(len(a) * w)
        buf[::w] = bytes(a)
        return int.from_bytes(buf, "little")
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")


def _kronecker(a, b, p):
    w = _slot_bytes(min(len(a), len(b)), p)
    x = _pack(a, w, p)
    prod = x * x if b is a else x * _pack(b, w, p)
    n = len(a) + len(b) - 1
    raw = prod.to_bytes(n * w, "little")
    if w in _CAST:
        return [c % p for c in memoryview(raw).cast(_CAST[w])]
    return [int.from_bytes(raw[i:i + w], "little") % p for i in range(0, n * w, w)]


def poly_mul(a, b, p):
    if not a or not b:
        return []
    if len(a) * len(b) >= KRONECKER_MIN:
        return _trim(_kronecker(a, b, p))
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for k in range(len(out)):
        out[k] %= p
    return _trim(out)


def _mul(a, b, p):
    """Product of two nonempty lists, untrimmed: length len(a) + len(b) - 1."""
    out = poly_mul(a, b, p)
    return out + [0] * (len(a) + len(b) - 1 - len(out))


def _inverse_series(f, k, p):
    """g with f*g = 1 mod x^k, for f[0] != 0, by Newton iteration."""
    precisions = []
    while k > 1:
        precisions.append(k)
        k = (k + 1) // 2
    g = [pow(f[0], p - 2, p)]
    for k in reversed(precisions):
        # f*g = 1 + x^l * e mod x^k, and then g - x^l * g*e is right mod x^k
        l = len(g)
        e = _mul(f[:k], g, p)[l:k] or [0]
        corr = _mul(g[:k - l], e, p)[:k - l]
        g += [-c % p for c in corr]
    return g


def _divmod_newton(a, b, p):
    """Trimmed a, b: rev(q) = rev(a) / rev(b) mod x^k, then r = a - q*b mod x^db."""
    k = len(a) - len(b) + 1
    db = len(b) - 1
    rq = _mul(a[db:][::-1], _inverse_series(b[::-1], k, p), p)[:k]
    q = rq[::-1]
    qb = _mul(q[:db], b[:db], p) if db else []
    r = [(x - y) % p for x, y in zip(a[:db], qb)]
    return q, r


def poly_divmod(a, b, p):
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = _trim(list(a))
    db = len(b) - 1
    n = len(r) - db
    if n <= 0:
        return [], r
    if (n >= NEWTON_MIN and len(b) >= NEWTON_MIN
            or n >= NEWTON_SHORT_QUOTIENT and len(b) >= NEWTON_LONG_DIVISOR):
        q, r = _divmod_newton(r, b, p)
        return q, _trim(r)
    # schoolbook, top coefficient down; q[-1] != 0 since r is trimmed
    inv_lead = 1 if b[-1] == 1 else pow(b[-1], p - 2, p)
    q = [0] * n
    if db < ROW_MIN:
        for k in range(n - 1, -1, -1):
            c = r[k + db] * inv_lead % p
            if c:
                q[k] = c
                for j in range(db):
                    r[k + j] = (r[k + j] - c * b[j]) % p
        del r[db:]
        return q, _trim(r)
    # row updates through slices; entries stay unreduced until read
    for k in range(n - 1, -1, -1):
        c = r[k + db] * inv_lead % p
        if c:
            q[k] = c
            r[k:k + db] = [x - c * y for x, y in zip(r[k:k + db], b)]
    return q, _trim([x % p for x in r[:db]])


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def poly_gcd(a, b, p):
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        a, b = b, poly_mod(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def poly_powmod(a, e, mod, p):
    """a**e modulo mod, for arbitrarily large integer e >= 0."""
    if len(_trim(list(mod))) <= 1:
        return []
    result = [1]
    base = poly_mod(a, mod, p)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        e >>= 1
        if e:
            base = poly_mod(poly_mul(base, base, p), mod, p)
    return result
