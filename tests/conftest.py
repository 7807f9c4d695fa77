import pytest

from drinheights import (DrinfeldModule, cli, drinfeld, finite_field,
                         parse_ratfunc)


def make_module(field, *coeffs, var="t"):
    return DrinfeldModule(field,
                          [parse_ratfunc(field, c, var=var) for c in coeffs])


def plant_mv_bug(monkeypatch):
    """Flip the sign of M_v: a real defect that `verify` must catch."""
    mv = drinfeld._mv
    monkeypatch.setattr(drinfeld, "_mv", lambda vals, q, r: -mv(vals, q, r))


@pytest.fixture(autouse=True)
def fresh_cli_modules():
    """Each test starts with no interned CLI module, so a test that patches
    ReductionData or counts builds sees modules built under its patch."""
    cli._module.cache_clear()


@pytest.fixture(scope="session")
def F2():
    return finite_field(2)


@pytest.fixture(scope="session")
def F3():
    return finite_field(3)


@pytest.fixture(scope="session")
def F5():
    return finite_field(5)


@pytest.fixture(scope="session")
def psi2(F2):
    """Carlitz module in characteristic 2."""
    return make_module(F2, "t", "1")


@pytest.fixture(scope="session")
def car3(F3):
    """Carlitz module for q = 3."""
    return make_module(F3, "t", "1")


@pytest.fixture(scope="session")
def tau2(F2):
    """phi_t = tau over F_2(t): constant coefficients, S empty."""
    return make_module(F2, "0", "1")
