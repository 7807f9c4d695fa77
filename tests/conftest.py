import sys

import pytest

from drinheights import (DrinfeldModule, cli, drinfeld, finite_field,
                         parse_ratfunc, torsion)

# every process-wide memo keyed by a module, or by a module and a key; what
# is built from a module alone is kept on it (drinfeld.kept)
MODULE_MEMOS = (cli._module, torsion.annihilator_of)


def kept_keys(module, fn):
    """The keys under which the kept function `fn` holds a value on
    `module`, in the order they were built."""
    return [key for build, key in module._kept if build is fn.__wrapped__]


def make_module(field, *coeffs, var="t"):
    return DrinfeldModule(field,
                          [parse_ratfunc(field, c, var=var) for c in coeffs])


def decimal_unlimited(n):
    """str(n) with Python's int-to-string digit limit lifted for the call
    (3.10 has no limit)."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return str(n)
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return str(n)
    finally:
        set_limit(old)


def plant_mv_bug(monkeypatch):
    """Flip the sign of M_v, and lam with it: a real defect that `verify`
    must catch."""
    init = drinfeld.ReductionData.__init__

    def flipped(self, module, place):
        init(self, module, place)
        self.M = -self.M
        self.lam = min(0, self.M)
    monkeypatch.setattr(drinfeld.ReductionData, "__init__", flipped)


@pytest.fixture(autouse=True)
def fresh_cli_modules():
    """Each test starts with no interned CLI module and no annihilator
    kept, and the fixtures' modules are built per test, so nothing is kept
    on them either: a test that patches ReductionData or counts builds sees
    values built under its patch."""
    for memo in MODULE_MEMOS:
        memo.cache_clear()


@pytest.fixture(scope="session")
def F2():
    return finite_field(2)


@pytest.fixture(scope="session")
def F3():
    return finite_field(3)


@pytest.fixture(scope="session")
def F5():
    return finite_field(5)


@pytest.fixture
def psi2(F2):
    """Carlitz module in characteristic 2."""
    return make_module(F2, "t", "1")


@pytest.fixture
def car3(F3):
    """Carlitz module for q = 3."""
    return make_module(F3, "t", "1")


@pytest.fixture
def tau2(F2):
    """phi_t = tau over F_2(t): constant coefficients, S empty."""
    return make_module(F2, "0", "1")
