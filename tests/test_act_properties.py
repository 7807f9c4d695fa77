"""Properties of phi_b(x) = DrinfeldModule.act(b, x), checked with hypothesis.

phi is an F_q-algebra homomorphism into the F_q-linear endomorphisms of K,
so act is additive and F_q-linear in x and in b, turns products of b into
composition, and agrees with evaluating the expanded skew polynomial phi_b.
The modules have finite bad places (poles in the coefficients), besides
Carlitz, over F_2, F_3 and F_4.
"""

import pytest

from conftest import make_module
from drinheights.gf import finite_field
from drinheights.ratfunc import Poly, RatFunc

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

F2, F3, F4 = finite_field(2), finite_field(3), finite_field(2, 2)
MODULES = [
    make_module(F3, "t", "1"),
    make_module(F2, "1/(t^2+t)", "1"),
    make_module(F2, "t", "1/(t^2+t)^2", "1"),
    make_module(F3, "t - 1/(t^2+1)^2", "1"),
    make_module(F3, "t", "1/t", "1"),
    make_module(F4, "1/t^3", "1"),
]
SETTINGS = hypothesis.settings(max_examples=100, deadline=None,
                               derandomize=True, database=None)


@st.composite
def cases(draw):
    mod = draw(st.sampled_from(MODULES))
    field = mod.field
    coeff = st.integers(0, field.order - 1)

    def poly(max_len):
        return Poly(field, draw(st.lists(coeff, max_size=max_len)))

    def point():
        den = Poly(field, draw(st.lists(coeff, max_size=2)) + [1])
        return RatFunc(poly(3), den)

    return mod, poly(3), poly(3), point(), point(), draw(coeff)


@SETTINGS
@hypothesis.given(cases())
def test_act_is_additive(case):
    mod, b, _, x, y, _ = case
    assert mod.act(b, x + y) == mod.act(b, x) + mod.act(b, y)


@SETTINGS
@hypothesis.given(cases())
def test_act_is_fq_linear(case):
    mod, b, _, x, _, c = case
    assert mod.act(b, x.scale(c)) == mod.act(b, x).scale(c)


@SETTINGS
@hypothesis.given(cases())
def test_act_is_additive_in_b(case):
    mod, b1, b2, x, _, _ = case
    assert mod.act(b1 + b2, x) == mod.act(b1, x) + mod.act(b2, x)


@SETTINGS
@hypothesis.given(cases())
def test_act_of_product_is_composition(case):
    mod, b1, b2, x, _, _ = case
    assert mod.act(b1 * b2, x) == mod.act(b1, mod.act(b2, x))


@SETTINGS
@hypothesis.given(cases())
def test_act_agrees_with_phi_of(case):
    mod, b, _, x, _, _ = case
    assert mod.act(b, x) == mod.phi_of(b)(x)
