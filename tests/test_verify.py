from conftest import plant_mv_bug
from drinheights.verify import run_verify


def test_suite_passes_small_budget():
    res = run_verify(seed=0, count=40)
    assert res.ok
    assert res.total_cases > 0
    assert [name for name, _, _ in res.rows][:2] == ["sum-formula",
                                                     "homomorphism"]


def test_zero_cases():
    res = run_verify(seed=0, count=0)
    assert res.ok and res.total_cases == 0


def test_deterministic_given_seed():
    a = run_verify(seed=9, count=20)
    b = run_verify(seed=9, count=20)
    assert a.rows == b.rows


def test_injected_bug_caught_with_counterexample(monkeypatch):
    plant_mv_bug(monkeypatch)
    res = run_verify(seed=0, count=40)
    assert not res.ok
    failures = {name: msg for name, _, msg in res.rows if msg}
    assert "reduction-data" in failures
    assert "M_v < 0 iff v in S" in failures["reduction-data"]


def test_injection_does_not_leak(monkeypatch):
    # nothing computed under the planted bug (a module's memoised reduction
    # data, say) may survive into a later run
    with monkeypatch.context() as patch:
        plant_mv_bug(patch)
        run_verify(seed=0, count=10)
    res = run_verify(seed=0, count=10)
    assert res.ok


def test_extension_defect_tests_each_place_once(monkeypatch):
    # the check proves P irreducible before it builds the place, so the
    # place does not run Rabin's test again
    import random

    from drinheights import places, verify
    tested = []
    real = verify.is_irreducible

    def counting(P):
        tested.append(P)
        return real(P)

    def tested_again(P):
        raise AssertionError("%s tested twice" % P)
    monkeypatch.setattr(verify, "is_irreducible", counting)
    monkeypatch.setattr(places, "is_irreducible", tested_again)
    verify.check_extension_defect(random.Random(0), 30, [])
    assert len(tested) >= 10
