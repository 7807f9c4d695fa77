"""The floor lambda*_v of the phi_t-stable balls B_lambda = {v(y) >= lambda},
against a brute-force oracle, and the exact zeros it gives local_height."""

import random
import time

from conftest import decimal_unlimited, make_module
from drinheights import cli, heights, perfect, verify
from drinheights.drinfeld import DrinfeldModule
from drinheights.gf import finite_field
from drinheights.places import INFINITY, FinitePlace, InfinitePlace, poles
from drinheights.ratfunc import Poly, RatFunc, irreducible_monics, parse_poly
from drinheights.skew import SkewPoly


def count_phi_calls(monkeypatch):
    calls = []
    real = SkewPoly.__call__

    def spy(self, y):
        calls.append(y)
        return real(self, y)
    monkeypatch.setattr(SkewPoly, "__call__", spy)
    return calls


def stable_floor(mod, v):
    return mod.reduction_data(v).stable_floor


def test_fixed_floors(F2, F3, psi2, car3):
    assert stable_floor(psi2, InfinitePlace(F2)) == -1
    rank2 = make_module(F3, "t", "1/t", "1")
    assert stable_floor(rank2, FinitePlace(parse_poly(F3, "t"))) == 1
    assert stable_floor(car3, InfinitePlace(F3)) is None


def test_floor_at_good_place_costs_no_phi_t(monkeypatch, F3):
    calls = count_phi_calls(monkeypatch)
    mod = make_module(F3, "t", "1/(t^2+1)", "1")
    v = FinitePlace(parse_poly(F3, "t+1"))
    assert stable_floor(mod, v) == 0
    h = heights.local_height(mod, v, RatFunc.x(F3))
    assert h.is_exact and h.value == 0 and h.step == 0
    assert calls == []


def _random_poly(rng, field, degree):
    return Poly(field, [rng.randrange(field.order) for _ in range(degree + 1)])


def _random_ratfunc(rng, field, degree=2):
    den = _random_poly(rng, field, rng.randint(0, degree))
    while den.is_zero():
        den = _random_poly(rng, field, rng.randint(0, degree))
    return RatFunc(_random_poly(rng, field, rng.randint(0, degree)), den)


def _random_module(rng, field):
    r = rng.randint(1, 2)
    coeffs = [_random_ratfunc(rng, field) for _ in range(r)]
    if rng.random() < 0.7:
        coeffs[0] = RatFunc.x(field)
    return DrinfeldModule(field, coeffs + [RatFunc.one(field)])


def _candidate_places(rng, mod):
    """Infinity, the poles and zeros of the coefficients, one more place."""
    field = mod.field
    out = {InfinitePlace(field)}
    for a in mod.coeffs:
        if not a.is_zero():
            out |= {v for v, _ in poles(a)} | {v for v, _ in poles(a.inverse())}
    d = rng.randint(1, 2)
    out.add(FinitePlace(rng.choice(list(irreducible_monics(field, d)))))
    return [v for v in sorted(out, key=lambda v: v.sort_key()) if v.degree <= 2]


def _oracle_floor(mod, v):
    """Least stable lambda by brute force over a window that holds every
    breakpoint of the term bound, or None if no lambda there is stable."""
    vals = [v.valuation(a) for a in mod.coeffs]
    terms = [(a, mod.q**i) for i, a in enumerate(vals) if a is not INFINITY]
    span = 2 * max(abs(a) for a, _ in terms) + 3
    pi, t = v.uniformizer, RatFunc.x(mod.field)
    phi_t = mod.phi_t
    images = {}

    def image_val(k):
        if k not in images:
            images[k] = min(v.valuation(phi_t(pi**k * t**j))
                            for j in range(v.degree))
        return images[k]

    def stable(lam):
        # beyond `far` the ultrametric bound alone keeps images in B_lam
        far = lam
        while min(a + s * far for a, s in terms) < lam:
            far += 1
        return all(image_val(k) >= lam for k in range(lam, far + 1))

    for lam in range(-span, span + 1):
        if stable(lam):
            return lam
    return None


def _random_point_in_ball(rng, v, lam):
    z = _random_ratfunc(rng, v.field, 3)
    while z.is_zero():
        z = _random_ratfunc(rng, v.field, 3)
    return z * v.uniformizer**(lam - v.valuation(z) + rng.randint(0, 2))


def test_floor_matches_brute_force_oracle(monkeypatch):
    # soundness and minimality: the floor is the least lambda with a stable
    # ball, and random orbits started in that ball never leave it
    rng = random.Random(1100)
    calls = count_phi_calls(monkeypatch)
    fields = [finite_field(q) for q in (2, 3, 5)]
    checked = iterates = 0
    for _ in range(300):
        field = rng.choice(fields)
        mod = _random_module(rng, field)
        for v in _candidate_places(rng, mod):
            del calls[:]
            floor = stable_floor(mod, v)
            assert len(calls) <= mod.r * v.degree
            built = len(calls)
            assert stable_floor(mod, v) == floor  # kept, not recomputed
            assert len(calls) == built
            assert floor == _oracle_floor(mod, v), (mod, v)
            checked += 1
            if floor is None:
                continue
            phi_t = mod.phi_t
            for _ in range(3):
                y = _random_point_in_ball(rng, v, floor)
                for _ in range(6):
                    assert v.valuation(y) >= floor, (mod, v, y)
                    iterates += 1
                    if y.weil_height() * mod.q**mod.r > 400:
                        break
                    y = phi_t(y)
    assert checked > 600 and iterates > 5000


def test_huge_valuation_point_answers_fast(tmp_path, capsys):
    # the floor never scans up to v(x): t^-20000 sits at valuation 20000 at
    # v_inf, where Carlitz q=3 has no stable ball; the valuation falls by
    # one a step and escapes at step 20001, read without building iterates
    path = tmp_path / "job.json"
    path.write_text('{"field": {"p": 3}, "module": {"coefficients": ["t", "1"]},'
                    ' "point": "t^-20000", "place": {"kind": "infinity"}}')
    start = time.perf_counter()
    code = cli.main(["local-height", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith(" = 1/%s  [Escaped]\n" % decimal_unlimited(3**20001))
    assert elapsed < 1.0


def test_default_verify_has_no_interval(monkeypatch):
    # every local height of the default F_3 verify run is exact
    answers = []
    real = heights.local_height

    def recording(*args, **kwargs):
        h = real(*args, **kwargs)
        answers.append(h)
        return h
    for namespace in (heights, verify, perfect):
        monkeypatch.setattr(namespace, "local_height", recording)
    result = verify.run_verify(seed=0, count=500)
    assert result.ok
    assert len(answers) > 1000
    assert all(h.is_exact for h in answers)
