import functools
import itertools
import random

import pytest

from drinheights import gf
from drinheights.gf import (MEMO_ORDER, ExtensionField, FieldError,
                            _proven_extension, additive_kernel,
                            additive_preimages, dependencies, finite_field,
                            first_dependence, rref, solve, span)


def test_prime_field_create():
    F2 = finite_field(2, 1)
    assert F2.order == 2 and F2.char == 2
    assert F2.add(1, 1) == 0


def test_field_create_with_modulus():
    F9 = finite_field(3, 2, [1, 0, 1])  # u^2 + 1, irreducible mod 3
    assert F9.order == 9
    g = F9.gen
    assert g * g == F9.element(F9.order - F9.order + 2)  # g^2 = -1 = 2


def test_field_create_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        finite_field(3, 2, [2, 0, 1])  # u^2 - 1 = (u-1)(u+1)


def test_field_create_nonprime_rejected():
    with pytest.raises(FieldError):
        finite_field(4)


def test_default_modulus_deterministic():
    assert finite_field(2, 2).modulus == (1, 1, 1)
    assert finite_field(3, 2).modulus == (1, 0, 1)


def test_field_order_cap():
    with pytest.raises(FieldError):
        finite_field(2, 40)


def test_finite_field_memoized():
    # one field per (p, k, modulus mod p); a refused modulus is refused on
    # every call, never served from the memo
    assert finite_field(3, 2) is finite_field(3, 2)
    assert finite_field(3, 2, [2, 2, 1]) is finite_field(3, 2, [5, -1, 4])
    other = finite_field(3, 2, [2, 2, 1])  # x^2 + 2x + 2, irreducible mod 3
    assert other != finite_field(3, 2) and other.modulus == (2, 2, 1)
    for _ in range(2):
        with pytest.raises(FieldError, match="reducible modulus"):
            finite_field(3, 2, [2, 0, 1])
        with pytest.raises(FieldError, match="must be monic"):
            finite_field(3, 2, [1, 0, 2])


def test_repeated_field_runs_no_trial_division():
    # primality answers are memoized: a field asked for again, or refused
    # again, costs no trial division, and p >= ORDER_CAP costs none at all
    import drinheights.gf as gf
    gf._is_prime.cache_clear()
    p = 2**31 - 1
    for _ in range(3):
        assert finite_field(p).order == p
        with pytest.raises(FieldError, match="p = 2146654199 is not prime"):
            finite_field(46327 * 46337)
        with pytest.raises(FieldError, match="exceeds the supported range"):
            finite_field(2**31 + 11)
    info = gf._is_prime.cache_info()
    assert info.misses == 2 and info.currsize == 2


def _memo_fields():
    """The fields up to MEMO_ORDER that finite_field returns."""
    return [finite_field(2, 2), finite_field(2, 3), finite_field(3, 2),
            finite_field(5, 2), finite_field(3, 3)]


def _memoized(F):
    """The names of F's methods wrapped in a functools memo."""
    return {name for name, f in vars(F).items() if hasattr(f, "cache_info")}


@pytest.mark.parametrize("F", _memo_fields(), ids=repr)
def test_memoized_arithmetic_matches_coordinates(F):
    """Sums (xor in characteristic 2), differences and products agree with
    coordinate arithmetic on every pair, the second time from the memo too."""
    assert F.order <= MEMO_ORDER
    for _ in range(2):
        for a in range(F.order):
            for b in range(F.order):
                assert F.add(a, b) == ExtensionField.add(F, a, b)
                assert F.sub(a, b) == ExtensionField.sub(F, a, b)
                assert F.mul(a, b) == ExtensionField.mul(F, a, b)
    assert F.mul.cache_info().currsize == F.order**2


def _tower_fields():
    F4, F9 = finite_field(2, 2), finite_field(3, 2)
    return [ExtensionField(F4, [F4.gen.val, 1, 1]),    # F_16 over F_4
            ExtensionField(F9, [F9.gen.val, 1, 1])]    # F_81 over F_9


@pytest.mark.parametrize("F", _tower_fields(), ids=repr)
def test_tower_arithmetic_matches_coordinates(F):
    """A field built directly keeps no memo; its sums (xor in
    characteristic 2) and differences are those of the coordinates over the
    base, and its products those of the modulus, on every pair."""
    assert F.order <= MEMO_ORDER and _memoized(F) == set()
    base = F.base
    for a in range(F.order):
        ca = F.coords(a)
        for b in range(F.order):
            pairs = list(zip(ca, F.coords(b)))
            assert F.add(a, b) == F.from_coords(
                [base.add(x, y) for x, y in pairs])
            assert F.sub(a, b) == F.from_coords(
                [base.sub(x, y) for x, y in pairs])
            assert F.mul(a, b) == _divmod_mul(F, a, b)


def test_only_the_coefficient_field_keeps_memos(tmp_path, capsys,
                                                monkeypatch):
    """After reduction reports over F_3, F_4 and F_9, no residue field of a
    place holds a memo, not even F_9 at t^2+1 over F_3, which equals
    finite_field(3, 2); that field wraps mul, inv, add and sub once each."""
    import json
    from drinheights import cli
    built = []
    real = gf._proven_extension

    def spy(base, modulus):
        built.append(real(base, modulus))
        return built[-1]
    monkeypatch.setattr(gf, "_proven_extension", spy)
    for field, a1 in (({"p": 3}, "1/(t^2+1)"),
                      ({"p": 2, "k": 2}, "1/(t^2+t+2)"),
                      ({"p": 3, "k": 2}, "1/(t^2+t+3)")):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"field": field, "module": {
            "coefficients": ["t", a1, "1"]}}))
        assert cli.main(["reduction", str(path)]) == 0
    capsys.readouterr()
    # each report reads residues at its place of degree 2 and at infinity
    assert sorted({F.order for F in built}) == [3, 4, 9, 16, 81]
    F9 = finite_field(3, 2)
    assert any(F == F9 and F is not F9 for F in built)
    assert [F for F in built if _memoized(F)] == []
    assert _memoized(F9) == {"mul", "inv", "add", "sub"}
    assert not hasattr(F9.mul.__wrapped__, "cache_info")


def test_large_field_arithmetic_not_memoized():
    F = finite_field(3, 6)
    assert F.order > MEMO_ORDER and not {"add", "sub", "mul"} & set(vars(F))
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F.add(a, b) == ExtensionField.add(F, a, b)
        assert F.sub(a, b) == ExtensionField.sub(F, a, b)
        assert F.mul(a, b) == ExtensionField.mul(F, a, b)
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_frobenius_fixes_one():
    F9 = finite_field(3, 2)
    for e in range(5):
        assert F9.one.frobenius(e) == F9.one


def test_frobenius_f4_generator():
    F4 = finite_field(2, 2)
    g = F4.gen
    assert g.frobenius(1) == g * g == g + 1


def test_frobenius_power_m_is_identity():
    rng = random.Random(5)
    F4 = finite_field(2, 2)
    k = ExtensionField(F4, [F4.gen.val, 1, 1])  # x^2 + x + g over F_4
    for _ in range(20):
        a = k.element(rng.randrange(k.order))
        assert a.frobenius(k.dim) == a


def test_frobenius_is_field_homomorphism():
    rng = random.Random(6)
    F9 = finite_field(3, 2)
    for _ in range(50):
        a = F9.element(rng.randrange(9))
        b = F9.element(rng.randrange(9))
        for e in (1, 2, 3):
            assert (a + b).frobenius(e) == a.frobenius(e) + b.frobenius(e)
            assert (a - b).frobenius(e) == a.frobenius(e) - b.frobenius(e)
            assert (a * b).frobenius(e) == a.frobenius(e) * b.frobenius(e)
        # a - b and 1 - a (an int acts through Z -> F_9) undo the sums
        assert (a - b).val == F9.sub(a.val, b.val) and (a - b) + b == a
        assert (1 - a).val == F9.sub(1, a.val) and (1 - a) + a == F9.one


def _fermat_inv(field, a):
    """The Fermat inverse a^(order - 2), by square-and-multiply."""
    return field.pow_(a, field.order - 2)


def _power_frobenius(field, a, e):
    """a^(q^(e mod dim)) by square-and-multiply, q the order of the base."""
    return field.pow_(a, field.base.order**(e % field.dim))


def _inverse_and_frobenius_fields():
    from drinheights.places import InfinitePlace
    F4, F9 = finite_field(2, 2), finite_field(3, 2)
    over = [(F4, 3), (F9, 2), (F9, 3)]   # F_64 over F_4, F_81, F_729 over F_9
    return ([F4, finite_field(2, 3), F9, finite_field(5, 2),
             finite_field(3, 3)]
            + [_proven_extension(base, tuple(gf._default_modulus(base, k)))
               for base, k in over]
            + [InfinitePlace(F9).residue_field])


@pytest.mark.parametrize("F", _inverse_and_frobenius_fields(), ids=repr)
def test_inverse_and_frobenius_match_powers(F):
    """Extended Euclid and the base-linear Frobenius agree with square-and-
    multiply on every element, the second time from the memo in a field
    that finite_field returns, which keeps inverses as it keeps products; a
    residue field keeps neither, and no field keeps Frobenius images."""
    for _ in range(2):
        for a in F.elements():
            if a:
                assert F.inv(a) == _fermat_inv(F, a), (F, a)
            for e in range(2 * F.dim + 1):
                assert F.frobenius(a, e) == _power_frobenius(F, a, e), (
                    F, a, e)
    coefficient_field = (F.base.order == F.char
                         and F is finite_field(F.char, F.dim))
    memoized = {"inv", "frobenius"} & _memoized(F)
    assert memoized == ({"inv"} if coefficient_field else set())
    assert not hasattr(F, "_frobenius")
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# Oracles for the residue-field kernels, in the form the package had before
# products were folded through a table and x^(q^e) stepped from x^q: the
# product divided by the modulus, x^(q^e) by a power, and the additive
# matrix built one basis element at a time.

def _divmod_mul(F, a, b):
    prod = F.base.poly_mul(gf._trim(F.coords(a)), gf._trim(F.coords(b)))
    _, rem = F.base.poly_divmod(prod, list(F.modulus))
    return F.from_coords(rem + [0] * (F.dim - len(rem)))


@functools.lru_cache(maxsize=None)
def _power_images(F, e):
    """Coordinates of (x^(q^e))^j, j < dim, with x^(q^e) by square-and-
    multiply through _divmod_mul; kept per (field, e)."""
    xqe, base, n = 1, F.gen.val, F.base.order**e
    while n:
        if n & 1:
            xqe = _divmod_mul(F, xqe, base)
        base, n = _divmod_mul(F, base, base), n >> 1
    images, power = [], 1
    for _ in range(F.dim):
        images.append(F.coords(power))
        power = _divmod_mul(F, power, xqe)
    return images


def _oracle_frobenius(F, a, e):
    e %= F.dim
    if not e:
        return a
    out = [0] * F.dim
    for c, image in zip(F.coords(a), _power_images(F, e)):
        for k, b in enumerate(image):
            out[k] = F.base.add(out[k], F.base.mul(c, b))
    return F.from_coords(out)


def _oracle_additive_matrix(coeffs, F):
    m, cols = F.dim, []
    for s in range(m):
        e_s = F.from_coords([1 if i == s else 0 for i in range(m)])
        acc = 0
        for c, i in coeffs:
            image = _oracle_frobenius(F, e_s, i)
            acc = F.add(acc, _divmod_mul(F, c.val, image))
        cols.append(F.coords(acc))
    return [[cols[s][t] for s in range(m)] for t in range(m)]


def _kernel_fields():
    F4, F9 = finite_field(2, 2), finite_field(3, 2)
    return [F4, finite_field(2, 3), F9, finite_field(5, 2),
            ExtensionField(F4, [F4.gen.val, 1, 1]),      # F_16 over F_4
            ExtensionField(F9, [F9.gen.val, 1, 1]),      # F_81 over F_9
            _proven_extension(F9, tuple(gf._default_modulus(F9, 3))),  # F_729
            _proven_extension(F9, (4, 1)),               # dim 1 over F_9
            finite_field(3, 19), finite_field(46337, 2)]


def _fresh(F):
    """A second build of F, with no memo and no Frobenius images yet, for a
    planted fault."""
    return gf._proven_extension.__wrapped__(F.base, F.modulus)


def _fold_rows(F, sub):
    """x^(dim+k) mod the modulus for k < dim - 1, the recurrence's step
    taking `sub` for its subtraction."""
    rows = [[F.base.neg(c) for c in F.modulus[:-1]]]
    while len(rows) < F.dim - 1:
        row = rows[-1]
        rows.append([sub(a, F.base.mul(row[-1], c))
                     for a, c in zip([0] + row[:-1], F.modulus)])
    return rows


def _kernel_mismatches(F, seed=3):
    """Where F's mul, frobenius (exponents -1 ... dim + 1) and
    _additive_matrix differ from the oracles."""
    rng = random.Random(seed)
    top = F.base.order**(F.dim - 1)   # x^(dim-1): its square reads every row
    elems = [top, F.order - 1] + [rng.randrange(F.order) for _ in range(30)]
    checks = [("mul", a, b, lambda a=a, b=b: F.mul(a, b),
               lambda a=a, b=b: _divmod_mul(F, a, b))
              for a, b in zip(elems, [top, F.order - 1] + elems[::-1])]
    checks += [("frobenius", a, e, lambda a=a, e=e: F.frobenius(a, e),
                lambda a=a, e=e: _oracle_frobenius(F, a, e))
               for a in elems[:8] for e in range(-1, F.dim + 2)]
    coeffs = [(F.element(rng.randrange(1, F.order)), i)
              for i in range(F.dim + 2)]
    checks.append(("matrix", None, None,
                   lambda: gf._additive_matrix(F, [(c.val, i)
                                                   for c, i in coeffs]),
                   lambda: _oracle_additive_matrix(coeffs, F)))
    return [(kernel, a, b) for kernel, a, b, got, want in checks
            if got() != want()]


@pytest.mark.parametrize("F", _kernel_fields(), ids=repr)
def test_residue_field_kernels_match_oracles(F):
    """The fold table is the recurrence's, and products, Frobenius images
    and the additive matrix agree with the oracles, on a fresh build and
    again on the memoized one."""
    assert F._fold == _fold_rows(F, F.base.sub)
    assert _kernel_mismatches(_fresh(F)) == []
    assert _kernel_mismatches(F) == []


def test_planted_kernel_faults_are_caught(monkeypatch):
    fields = [F for F in _kernel_fields() if F.dim > 1]
    for F in fields:
        shifted = _fresh(F)   # one fold row moved up by one power of x
        k = len(shifted._fold) // 2
        shifted._fold[k] = [0] + shifted._fold[k][:-1]
        assert _kernel_mismatches(shifted), F
    # a plus for the minus of the recurrence changes a row only where a
    # top coefficient folds, which characteristic 2 cannot see
    signed = [F for F in fields if _fold_rows(F, F.base.add) != F._fold]
    assert [F.order for F in signed] == [3**19]
    for F in signed:
        faulty = _fresh(F)
        faulty._fold = _fold_rows(F, F.base.add)
        assert _kernel_mismatches(faulty), F
    # a Frobenius exponent passed on without reduction mod dim: e = -1 then
    # takes no step from x^q, which only a field of dim > 2 tells from q^-1
    monkeypatch.setattr(ExtensionField, "frobenius",
                        lambda self, a, e=1: (self.from_coords(self._combine(
                            self.coords(a), self._images(e)))
                            if e % self.dim else a))
    deep = [F for F in fields if F.dim > 2]
    assert [F.order for F in deep] == [8, 729, 3**19]
    for F in deep:
        assert _kernel_mismatches(_fresh(F)), F


def test_frobenius_takes_one_power(monkeypatch):
    # a residue field takes x^q once, by its base's poly_powmod modulo its
    # own modulus, and no power of an element; every other exponent is
    # composed from that map, however many are read
    from drinheights.places import FinitePlace
    from drinheights.ratfunc import parse_poly
    F9 = finite_field(3, 2)
    P = FinitePlace(parse_poly(F9, "t^3+t+5")).P
    powers = []
    for cls in (gf.PrimeField, gf.ExtensionField):
        def spy(self, a, e, mod, real=cls.poly_powmod):
            powers.append((self, tuple(mod)))
            return real(self, a, e, mod)
        monkeypatch.setattr(cls, "poly_powmod", spy)
    real_pow = gf._Field.pow_

    def pow_spy(self, a, e):
        powers.append((self, None))
        return real_pow(self, a, e)
    monkeypatch.setattr(gf._Field, "pow_", pow_spy)
    for F in (gf._proven_extension.__wrapped__(F9, P.coeffs),
              _fresh(finite_field(3, 19)), _fresh(finite_field(2, 3))):
        del powers[:]
        for e in range(-F.dim, 2 * F.dim + 1):
            for a in (F.gen.val, F.order - 1):
                F.frobenius(a, e)
        gf._additive_matrix(F, [(1, i) for i in range(F.dim + 1)])
        assert [(f, m) for f, m in powers
                if f is F or m == F.modulus] == [(F.base, F.modulus)], F


def _additive_fields():
    F4, F9 = finite_field(2, 2), finite_field(3, 2)
    return [finite_field(2), finite_field(3), F4, F9, finite_field(2, 3),
            finite_field(5, 2),
            _proven_extension(F4, (2, 1)),               # degree 1 over F_4
            _proven_extension(F9, (4, 1)),               # degree 1 over F_9
            ExtensionField(F4, [F4.gen.val, 1, 1]),      # F_16 over F_4
            _proven_extension(F9, (3, 1, 1))]            # F_81 over F_9


@pytest.mark.parametrize("F", _additive_fields(), ids=repr)
def test_additive_solutions_match_brute_force(F):
    """_additive_solutions against every X of the field, with X^(q^i) by
    square-and-multiply: exponents up to 2 dim + 1, congruent exponents
    whose coefficients cancel, and several targets in one call, which
    give the union of one call per target."""
    rng = random.Random(F.order)
    q, m = F.base.order, F.dim
    xs = [F.element(a) for a in F.elements()]
    seen = set()
    for _ in range(12):
        coeffs = [(rng.randrange(F.order), rng.randrange(2 * m + 2))
                  for _ in range(rng.randint(0, 3))]
        if len(coeffs) < 2:
            # c X^(q^i) - c X^(q^(i + dim)) is the zero map on the field
            c, i = rng.randrange(1, F.order), rng.randrange(m + 1)
            coeffs += [(c, i), (F.neg(c), i + m)]
        image = {x.val: sum((F.element(c) * x**(q**i) for c, i in coeffs),
                            F.zero).val for x in xs}
        targets = rng.sample(range(F.order), min(F.order, rng.randint(1, 3)))
        if rng.random() < 0.5:
            targets.append(0)
        got = gf._additive_solutions(F, coeffs, targets)
        assert got == {x for x, y in image.items() if y in targets}, coeffs
        assert got == set().union(*(gf._additive_solutions(F, coeffs, [t])
                                    for t in targets))
        zero_map = not any(image.values())
        seen.add("zero map" if zero_map else "map")
        if zero_map:
            assert gf._additive_solutions(F, coeffs, [0]) == set(F.elements())
            assert not gf._additive_solutions(F, coeffs, [t for t in targets
                                                          if t])
    assert seen == {"zero map", "map"}


def test_cancelled_coefficients_solve_as_the_zero_map():
    # X^9 - X on F_81 over F_9, and 2X - 2X^9 on F_9 over F_3 at degree 2:
    # the coefficients cancel, so every X is in the kernel and no nonzero
    # target has a preimage; only coefficients given all zero are refused
    for F in (F81_OVER_F9, finite_field(3, 2)):
        one = F.element(2)
        coeffs = [(one, 0), (-one, F.dim)]
        assert len(additive_kernel(coeffs)) == F.dim
        assert [e.val for e in additive_preimages(coeffs, F.zero)] == list(
            F.elements())
        assert additive_preimages(coeffs, F.one) == []
        with pytest.raises(ValueError, match="all coefficients are zero"):
            additive_kernel([(F.zero, 0), (F.zero, F.dim)])


def test_additive_kernel_x_plus_x2_over_f2():
    F2 = finite_field(2)
    basis = additive_kernel([(F2.one, 0), (F2.one, 1)])
    assert [b.val for b in basis] == [1]
    assert sorted(e.val for e in span(F2, basis)) == [0, 1]


def test_additive_kernel_artin_schreier_is_base():
    # X^q - X on F_{q^m} has kernel exactly F_q
    F3 = finite_field(3)
    k = ExtensionField(F3, [1, 0, 1])
    basis = additive_kernel([(k.one, 1), (-k.one, 0)])
    assert len(basis) == 1
    assert sorted(e.val for e in span(k, basis)) == [0, 1, 2]


def test_additive_kernel_x3_plus_x_over_f9():
    F9 = finite_field(3, 2)
    basis = additive_kernel([(F9.one, 1), (F9.one, 0)])
    sols = {e.val for e in span(F9, basis)}
    brute = {a for a in F9.elements() if F9.add(F9.pow_(a, 3), a) == 0}
    assert sols == brute and len(basis) == 1 and len(sols) == 3


def test_additive_kernel_matches_brute_force():
    rng = random.Random(7)
    F2 = finite_field(2)
    F3 = finite_field(3)
    for base in (F2, F3):
        for dim in (1, 2, 3):
            field = base if dim == 1 else finite_field(base.p, dim)
            for _ in range(20):
                coeffs = [(field.element(rng.randrange(field.order)), i)
                          for i in range(rng.randint(1, 3))]
                if all(c.val == 0 for c, _ in coeffs):
                    continue
                basis = additive_kernel(coeffs)
                sols = {e.val for e in span(field, basis)}
                q = field.base.order

                def lmap(a):
                    acc = 0
                    for c, i in coeffs:
                        acc = field.add(acc, field.mul(c.val,
                                                       field.frobenius(a, i)))
                    return acc

                brute = {a for a in field.elements() if lmap(a) == 0}
                assert sols == brute
                # kernel size is a power of q, at most q^(max exponent) when
                # the top coefficient is nonzero
                assert len(sols) == q**len(basis)
                top = max(i for c, i in coeffs if c.val != 0)
                if any(c.val != 0 and i == top for c, i in coeffs):
                    assert len(sols) <= q**top if top > 0 else len(sols) == 1


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_solve_matches_brute_force(p, k):
    field = finite_field(p, k)
    rng = random.Random(100 * p + k)

    def apply(rows, x):
        out = []
        for row in rows:
            acc = 0
            for a, b in zip(row, x):
                acc = field.add(acc, field.mul(a, b))
            out.append(acc)
        return out

    seen = {"consistent": 0, "inconsistent": 0}
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(field.order) for _ in range(n)]
                for _ in range(m)]
        if rng.random() < 0.5:
            # a rank-deficient A makes inconsistent right-hand sides likely
            rows[-1] = list(rows[0])
        rhs = [rng.randrange(field.order) for _ in range(m)]
        x, basis = solve(rows, rhs, field, n)
        space = list(itertools.product(field.elements(), repeat=n))
        sols = {v for v in space if apply(rows, v) == rhs}
        kernel = {v for v in space if apply(rows, v) == [0] * m}
        if sols:
            assert tuple(x) in sols
            seen["consistent"] += 1
        else:
            assert x is None
            seen["inconsistent"] += 1
        # the basis lies in the kernel and spans all of it independently
        assert all(tuple(b) in kernel for b in basis)
        assert len(kernel) == field.order**len(basis)
        combos = set()
        for cs in itertools.product(field.elements(), repeat=len(basis)):
            v = [0] * n
            for c, b in zip(cs, basis):
                v = [field.add(a, field.mul(c, e)) for a, e in zip(v, b)]
            combos.add(tuple(v))
        assert combos == kernel
    assert seen["consistent"] >= 10 and seen["inconsistent"] >= 10


def _gauss_jordan_rref(rows, field, ncols):
    """The dense Gauss-Jordan row reduction that gf.rref replaced: the
    oracle for the rref and solve now read off gf.dependencies."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _gauss_jordan_solve(rows, rhs, field, ncols):
    """solve as it was read off _gauss_jordan_rref of [A | rhs]."""
    reduced, pivots = _gauss_jordan_rref(
        [list(r) + [b] for r, b in zip(rows, rhs)], field, ncols + 1)
    if pivots and pivots[-1] == ncols:
        x = None
        reduced, pivots = reduced[:-1], pivots[:-1]
    else:
        x = [0] * ncols
        for row, pc in zip(reduced, pivots):
            x[pc] = row[ncols]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = field.neg(row[fc])
        basis.append(vec)
    return x, basis


# F_81 as a tower: F_9[x]/(x^2 + x + g), g the generator of F_9
F81_OVER_F9 = _proven_extension(finite_field(3, 2), (3, 1, 1))


@pytest.mark.parametrize("field", [
    finite_field(2), finite_field(3), finite_field(2, 2), finite_field(3, 2),
    finite_field(5, 2), finite_field(3, 3), F81_OVER_F9], ids=repr)
def test_rref_and_solve_match_gauss_jordan(field):
    # 0-5 rows and 0-5 columns, half the entries 0, a duplicated row in 40 %
    # of the systems and a zero right-hand side in a fifth of them
    rng = random.Random(field.order)
    seen = set()
    for _ in range(400):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[rng.choice([0, rng.randrange(field.order)]) for _ in range(n)]
                for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            rows[-1] = list(rows[rng.randrange(m - 1)])
        rhs = ([0] * m if rng.random() < 0.2
               else [rng.choice([0, rng.randrange(field.order)])
                     for _ in range(m)])
        assert rref(rows, field, n) == _gauss_jordan_rref(rows, field, n)
        x, basis = solve(rows, rhs, field, n)
        assert (x, basis) == _gauss_jordan_solve(rows, rhs, field, n)
        rank = len(rref(rows, field, n)[1])
        seen |= {"no rows" if m == 0 else "no columns" if n == 0 else
                 "tall" if m > n else "square or wide",
                 "zero rhs" if not any(rhs) else "rhs",
                 "inconsistent" if x is None else "consistent",
                 "rank-deficient" if rank < min(m, n) else "full rank"}
    assert seen == {"no rows", "no columns", "tall", "square or wide",
                    "zero rhs", "rhs", "inconsistent", "consistent",
                    "rank-deficient", "full rank"}


def _coefficient_loop_str(field, a):
    """ExtensionField.elem_str as its own loop, before gf.poly_str."""
    coords = field.coords(a)
    terms = []
    for i in range(field.dim - 1, -1, -1):
        c = coords[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c) + "*"
            terms.append(head + ("g" if i == 1 else "g^%d" % i))
    return "+".join(terms) if terms else "0"


@pytest.mark.parametrize("field", [
    finite_field(2, 2), finite_field(2, 3), finite_field(3, 2),
    finite_field(5, 2), finite_field(3, 3), F81_OVER_F9], ids=repr)
def test_elem_str_matches_coefficient_loop(field):
    for a in field.elements():
        assert field.elem_str(a) == _coefficient_loop_str(field, a)


def test_additive_kernel_all_zero_rejected():
    F2 = finite_field(2)
    with pytest.raises(ValueError):
        additive_kernel([(F2.zero, 0), (F2.zero, 2)])


def test_additive_preimages_zero_target_is_kernel():
    F9 = finite_field(3, 2)
    coeffs = [(F9.one, 1), (F9.one, 0)]
    pre = additive_preimages(coeffs, F9.zero)
    basis = additive_kernel(coeffs)
    assert sorted(e.val for e in pre) == sorted(e.val for e in span(F9, basis))


def test_additive_preimages_builds_one_matrix(monkeypatch):
    # the particular solution and the kernel come from the same rows
    import drinheights.gf as gf
    F9 = finite_field(3, 2)
    built = []
    real = gf._additive_matrix

    def counting(field, coeffs):
        built.append(coeffs)
        return real(field, coeffs)
    monkeypatch.setattr(gf, "_additive_matrix", counting)
    two = F9.one + F9.one
    sols = additive_preimages([(F9.one, 1), (F9.one, 0)], two)
    assert len(built) == 1
    xs = [F9.element(v) for v in F9.elements()]
    assert [e.val for e in sols] == [x.val for x in xs if x**3 + x == two]


def test_additive_solvers_take_equal_fields_as_one():
    # two builds of F_3[x]/(x^2+1) are one field; F_3[x]/(x^2+2x+2) is not
    F3 = finite_field(3)
    k1, k2 = ExtensionField(F3, [1, 0, 1]), ExtensionField(F3, [1, 0, 1])
    assert k1 == k2 and k1 is not k2
    g = k2.gen
    mixed = [(k1.one, 1), (k2.one, 0)]  # X^3 + X
    alone = [(k1.one, 1), (k1.one, 0)]
    assert additive_kernel(mixed) == additive_kernel(alone)
    sols = additive_preimages(mixed, g**3 + g)
    assert sols == additive_preimages(alone, k1.gen**3 + k1.gen)
    assert g in sols
    other = finite_field(3, 2, [2, 2, 1])
    with pytest.raises(FieldError, match="target from a different field"):
        additive_preimages(alone, other.one)
    with pytest.raises(FieldError, match="coefficients from different fields"):
        additive_kernel([(k1.one, 1), (other.one, 0)])


def test_additive_preimages_empty():
    F2 = finite_field(2)
    # X^2 + X = 1 has no solution in F_2
    assert additive_preimages([(F2.one, 1), (F2.one, 0)], F2.one) == []


def test_additive_preimages_identity():
    F9 = finite_field(3, 2)
    sols = additive_preimages([(F9.one, 0)], F9.one)
    assert len(sols) == 1 and sols[0] == F9.one


def _brute_first_dependence(vectors, field):
    """Try every coefficient tuple (c_0, ..., c_{k-1}, 1), shortest first."""
    for k in range(len(vectors)):
        found = []
        for cs in itertools.product(field.elements(), repeat=k):
            total = {}
            for c, vec in zip(cs + (1,), vectors):
                for key, a in vec.items():
                    total[key] = field.add(total.get(key, 0), field.mul(c, a))
            if not any(total.values()):
                found.append(list(cs) + [1])
        if found:
            assert len(found) == 1  # the first dependence is unique
            return found[0]
    return None


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
def test_first_dependence_matches_brute_force(p, k):
    field = finite_field(p, k)
    rng = random.Random(10 * p + k)
    outcomes = set()
    for _ in range(150):
        dim = rng.randint(1, 3)
        vectors = []
        for _ in range(rng.randint(1, 4)):
            # sparse: absent keys and explicit zeros both mean 0
            vectors.append({i: rng.choice([0, rng.randrange(field.order)])
                            for i in range(dim) if rng.random() < 0.8})
        expect = _brute_first_dependence(vectors, field)
        assert first_dependence(iter(vectors), field) == expect
        outcomes.add(expect is None)
    assert outcomes == {True, False}


def test_first_dependence_empty_first_vector():
    F3 = finite_field(3)
    assert first_dependence(iter([{}]), F3) == [1]
    assert first_dependence(iter([{0: 0, 1: 0}, {0: 1}]), F3) == [1]


def test_first_dependence_independent():
    F4 = finite_field(2, 2)
    assert first_dependence(iter([]), F4) is None
    vectors = [{0: 1}, {1: 3, 0: 2}, {2: 1, 0: 1}]
    assert first_dependence(iter(vectors), F4) is None


def test_first_dependence_reads_no_further():
    F3 = finite_field(3)

    def vectors():
        yield {0: 1}
        yield {1: 2}
        yield {0: 2, 1: 1}  # = 2 v_0 + 2 v_1
        raise AssertionError("read past the dependence")

    assert first_dependence(vectors(), F3) == [1, 1, 1]


def _combine(cs, vectors, field):
    total = {}
    for c, vec in zip(cs, vectors):
        for key, a in vec.items():
            total[key] = field.add(total.get(key, 0), field.mul(c, a))
    return {key: a for key, a in total.items() if a}


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
def test_dependencies_match_brute_force(p, k):
    field = finite_field(p, k)
    q = field.order
    rng = random.Random(100 + 10 * p + k)
    counts = set()
    for _ in range(150):
        dim = rng.randint(1, 3)
        n = rng.randint(1, 5)
        vectors = [{i: rng.choice([0, rng.randrange(q)])
                    for i in range(dim) if rng.random() < 0.7}
                   for _ in range(n)]
        # every dependence, by trying all q^n coefficient tuples
        brute = {cs for cs in itertools.product(field.elements(), repeat=n)
                 if not _combine(cs, vectors, field)}
        deps = list(dependencies(iter(vectors), field))
        # each one is a dependence ending in 1 at the vector it reduces
        for c in deps:
            assert c[-1] == 1
        got = [tuple(c) + (0,) * (n - len(c)) for c in deps]
        assert set(got) <= brute
        # independent and n - rank of them: their q^len(got) combinations
        # are distinct and fill the whole space of dependencies
        span_got = {(0,) * n}
        for c in got:
            span_got = {tuple(field.add(x, field.mul(a, y)) for x, y in zip(s, c))
                        for s in span_got for a in field.elements()}
        assert len(span_got) == q**len(got)
        assert span_got == brute
        assert (deps[0] if deps else None) == _brute_first_dependence(vectors, field)
        counts.add(len(got))
    assert {0, 1, 2} <= counts


def test_dependencies_read_lazily():
    F3 = finite_field(3)
    read = []

    def vectors():
        for v in ({0: 1}, {0: 2}, {1: 1}, {0: 1, 1: 1}):
            read.append(v)
            yield v

    deps = dependencies(vectors(), F3)
    assert next(deps) == [1, 1] and len(read) == 2  # v_1 = 2 v_0
    assert next(deps) == [2, 0, 2, 1] and len(read) == 4  # v_3 = v_0 + v_2
    assert next(deps, None) is None
