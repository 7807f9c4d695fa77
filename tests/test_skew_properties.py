"""Ring laws of the twisted polynomial ring K{tau}, checked with hypothesis.

A SkewPoly f = sum f_i tau^i acts on K = F_q(t) by y -> sum f_i y^(q^i), an
F_q-linear map; the product f*g is composition.  So the product is
associative, tau a = a^q tau, (f*g)(y) = f(g(y)), and evaluation is
additive.  Fields: F_2, F_3 and F_4.  Evaluation on coefficient lists, for a
polynomial point under a polynomial module, equals the RatFunc path (kept
here as the oracle) over F_2, F_3, F_4, F_7 and F_9.
"""

import pytest

from drinheights.gf import finite_field
from drinheights.ratfunc import Poly, RatFunc
from drinheights.skew import SkewPoly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2)]
SETTINGS = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)


def ratfuncs(field):
    coeff = st.integers(0, field.order - 1)
    num = st.lists(coeff, max_size=3)
    # a monic denominator of degree <= 1, so never zero
    den = st.lists(coeff, max_size=1).map(lambda c: c + [1])
    return st.builds(lambda n, d: RatFunc(Poly(field, n), Poly(field, d)),
                     num, den)


def skews(field):
    return st.lists(ratfuncs(field), max_size=3).map(
        lambda cs: SkewPoly(field, cs))


@st.composite
def cases(draw):
    field = draw(st.sampled_from(FIELDS))
    f, g, h = (draw(skews(field)) for _ in range(3))
    x, y = (draw(ratfuncs(field)) for _ in range(2))
    return field, f, g, h, x, y


@SETTINGS
@hypothesis.given(cases())
def test_composition_is_associative(case):
    _, f, g, h, _, _ = case
    assert (f * g) * h == f * (g * h)


@SETTINGS
@hypothesis.given(cases())
def test_tau_times_a_is_a_to_the_q_times_tau(case):
    field, _, _, _, a, _ = case
    tau = SkewPoly.tau(field)
    assert tau * SkewPoly.const(field, a) == SkewPoly.const(
        field, a**field.order) * tau


@SETTINGS
@hypothesis.given(cases())
def test_product_evaluates_as_composition(case):
    _, f, g, _, y, _ = case
    assert (f * g)(y) == f(g(y))


@SETTINGS
@hypothesis.given(cases())
def test_evaluation_is_additive(case):
    _, f, _, _, x, y = case
    assert f(x + y) == f(x) + f(y)


def call_oracle(f, y):
    """SkewPoly.__call__ on RatFuncs alone: a product and a reduced sum per
    term, y^(q^i) by RatFunc.pow_q."""
    acc = RatFunc.zero(f.field)
    pw = y
    for i, c in enumerate(f.coeffs):
        if i > 0:
            pw = pw.pow_q(1)
        if not c.is_zero():
            acc = acc + c * pw
    return acc


def polys(field):
    # the zero polynomial and constants included
    coeff = st.integers(0, field.order - 1)
    return st.lists(coeff, max_size=4).map(
        lambda c: RatFunc.from_poly(Poly(field, c)))


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2)])
@SETTINGS
@hypothesis.given(data=st.data())
def test_list_pass_matches_ratfunc_path(p, k, data):
    # a polynomial point under a polynomial module is evaluated on
    # coefficient lists (skew._add is called only there); a rational
    # coefficient or a rational point keeps the RatFunc path.  A zero
    # coefficient below the top is kept, and a zero top is trimmed
    from drinheights import skew
    field = finite_field(p, k)
    f = SkewPoly(field, data.draw(st.lists(polys(field), max_size=3)))
    y, z = data.draw(polys(field)), data.draw(ratfuncs(field))
    rational = f + SkewPoly.const(field, RatFunc(Poly.one(field),
                                                 Poly(field, [1, 1])))
    old_path = [(rational, y), (rational, z)]
    if not z.den.is_one():
        old_path.append((f, z))
    passes = []
    add = skew._add

    def counting(*args):
        passes.append(args)
        return add(*args)
    skew._add = counting
    try:
        got = f(y)
        assert got == call_oracle(f, y) and got.den.is_one()
        assert bool(passes) == (not f.is_zero() and not y.is_zero())
        del passes[:]
        for g, w in old_path:
            assert g(w) == call_oracle(g, w)
        assert not passes
    finally:
        skew._add = add
