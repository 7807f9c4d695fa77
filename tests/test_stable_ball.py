"""The floor lambda*_v of the phi_t-stable balls B_lambda = {v(y) >= lambda},
against a brute-force oracle, and the exact zeros it gives local_height;
the reads of ReductionData off the valuation law (the floor, P'_v and
zero_stop) against the searches they replace."""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import decimal_unlimited, make_module
from drinheights import cli, drinfeld, heights, perfect, verify
from drinheights.drinfeld import DrinfeldModule
from drinheights.gf import finite_field
from drinheights.places import INFINITY, FinitePlace, InfinitePlace, poles
from drinheights.ratfunc import Poly, RatFunc, irreducible_monics, parse_poly
from drinheights.skew import SkewPoly
from test_drinfeld import _valuation_law_oracle
from test_heights import _oracle_pool


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


def _pp_search(rd):
    """P'_v as it was found before the inverse law: every candidate
    (alpha1 - v(a_i)) / q^i in (0, T] for alpha1 in P_v, kept when the law
    maps it to alpha1."""
    q, vals = rd.q, rd.vals
    found = set()
    for alpha1 in rd.P:
        for i, a in enumerate(vals):
            if a is INFINITY:
                continue
            cand = Fraction(alpha1 - a, q**i)
            if (0 < cand <= rd.T
                    and _valuation_law_oracle(vals, q, cand)[0] == alpha1):
                found.add(cand)
    return tuple(sorted(found))


def _zero_stop_formula(rd):
    """zero_stop as it was computed before the first slope: one bound per
    index i > 0 with a_i != 0."""
    vals, q = rd.vals, rd.q
    return max([math.ceil(rd.lam)]
               + [(vals[0] - a) // (q**i - 1) + 1
                  for i, a in enumerate(vals) if i and a is not INFINITY])


def _floor_all_candidates(rd):
    """stable_floor as it was before the law cleared the breakpoints past a
    run: phi_t is applied at every candidate breakpoint c >= b."""
    vals, place, q = rd.vals, rd.place, rd.q
    if vals[0] is not INFINITY and vals[0] < 0:
        top = None
    else:
        top = max(-(a // (q**i - 1)) for i, a in enumerate(vals)
                  if i and a is not INFINITY)
    bottom = math.ceil(rd.lam)
    breaks = [int(-s) for s in rd.newton if s.denominator == 1]
    candidates = sorted(b for b in breaks
                        if b >= bottom and (top is None or b < top))
    t, lowest = RatFunc.x(place.field), {}

    def lowest_image(k):
        if k not in lowest:
            lowest[k] = min(place.valuation(rd.module.phi_t(
                place.uniformizer**k * t**j)) for j in range(place.degree))
        return lowest[k]

    for b in candidates:
        after = b + 1
        while after in candidates:
            after += 1
        if _valuation_law_oracle(vals, q, after)[0] >= b and all(
                lowest_image(c) >= b for c in candidates if c >= b):
            return b
    return top


def _mv_loop(vals, q, r):
    """M_v as it was computed before the last slope: min over i < r of
    v(a_i)/(q^r - q^i), skipping v(0) = +inf."""
    best = INFINITY
    for i in range(r):
        if vals[i] is not INFINITY:
            cand = Fraction(vals[i], q**r - q**i)
            if cand < best:
                best = cand
    return best


def _tv_loop(vals, q, r):
    """T_v as it was computed before the inverse law: -min over
    0 <= i <= r of v(a_i)/q^i."""
    best = None
    for i in range(r + 1):
        if vals[i] is not INFINITY:
            cand = Fraction(vals[i], q**i)
            if best is None or cand < best:
                best = cand
    return -best


def _law_modules():
    """Seeded random modules over F_2, F_3, F_5, F_4 and F_9."""
    rng = random.Random(3400)
    return [_random_module(rng, finite_field(p, k))
            for p, k in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2))
            for _ in range(12)]


def _law_cases(n):
    """(module, places): the oracle pool and the seeded modules pushed to
    level n; the places are S and infinity."""
    for mod in _oracle_pool() + _law_modules():
        mod = perfect.insep_level(mod, n)
        places = set(mod.bad_reduction_set()) | {InfinitePlace(mod.field)}
        yield mod, sorted(places, key=lambda v: v.sort_key())


@pytest.mark.parametrize("n", [0, 1, 2])
def test_law_reads_match_the_searches(monkeypatch, n):
    # P'_v by the inverse law, zero_stop by the first slope and the floor
    # with phi_t applied only inside the run of breakpoints being tried
    # give what the searches gave.  The floor reads the law at `after`, the
    # first integer past the run, and then applies phi_t at no breakpoint
    # at or past it
    events = []
    law, call = drinfeld.ReductionData.valuation_law, SkewPoly.__call__

    def spy_law(self, alpha):
        events.append(("after", alpha))
        return law(self, alpha)

    def spy_call(self, y):
        events.append(("phi_t", y))
        return call(self, y)
    monkeypatch.setattr(drinfeld.ReductionData, "valuation_law", spy_law)
    monkeypatch.setattr(SkewPoly, "__call__", spy_call)
    seen = {"P'": 0, "P' at T": 0, "zero_stop": 0, "floors": 0}
    for mod, places in _law_cases(n):
        for v in places:
            rd = mod.reduction_data(v)
            del events[:]
            want = _floor_all_candidates(rd)
            del events[:]
            assert rd.stable_floor == want, (mod, v)
            after = None
            for kind, arg in events:
                if kind == "after":
                    after = arg
                else:
                    assert after is not None and v.valuation(arg) < after, (
                        mod, v, after)
            seen["floors"] += want is not None
            if rd.in_S:
                assert rd.Pp == _pp_search(rd), (mod, v)
                seen["P'"] += len(rd.Pp)
                seen["P' at T"] += rd.T in rd.Pp
            if rd.vals[0] is not INFINITY:
                assert rd.zero_stop == _zero_stop_formula(rd), (mod, v)
                seen["zero_stop"] += 1
    assert seen["P'"] > 10 and seen["zero_stop"] > 10 and seen["floors"] > 10
    assert seen["P' at T"] > 0


def _slope_modules():
    """Seeded random monic modules of rank 1 to 3 over F_2, F_3, F_5, F_4
    and F_9, some with a zero coefficient, and so some with no slope."""
    rng = random.Random(3600)
    out = []
    for p, k in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
        field = finite_field(p, k)
        for _ in range(30):
            coeffs = [RatFunc.zero(field) if rng.random() < 0.2
                      else _random_ratfunc(rng, field)
                      for _ in range(rng.randint(1, 3))]
            out.append(DrinfeldModule(field, coeffs + [RatFunc.one(field)]))
    return out


@pytest.mark.parametrize("n", [0, 1, 2])
def test_constants_read_off_the_slopes(n):
    # M_v as minus the last Newton slope, lam = min(0, M_v) and T_v by the
    # inverse law give what the min-loops over the coefficients gave, values
    # and types; P'_v, read off the same inverse law, is what the search
    # found below that T_v
    seen = {"S": 0, "M = +inf": 0}
    cases = list(_law_cases(n))
    for mod in _slope_modules():
        mod = perfect.insep_level(mod, n)
        cases.append((mod, set(mod.bad_reduction_set())
                      | {InfinitePlace(mod.field)}))
    for mod, places in cases:
        for v in places:
            rd = mod.reduction_data(v)
            M = _mv_loop(rd.vals, mod.q, mod.r)
            want = (M, min(0, M), _tv_loop(rd.vals, mod.q, mod.r))
            got = (rd.M, rd.lam, rd.T)
            assert got == want, (mod, v)
            assert [type(a) for a in got] == [type(a) for a in want], (mod, v)
            seen["M = +inf"] += M is INFINITY
            if rd.in_S:
                assert rd.Pp == _pp_search(rd), (mod, v)
                seen["S"] += 1
    assert seen["S"] > 250 and seen["M = +inf"] > 10, seen


def test_floor_skips_breakpoints_the_law_clears(monkeypatch, F2):
    # at v_inf the integer breakpoints >= ceil(lam) = 0 are 0, 1 and 3.
    # The run 0, 1 ends at after = 2, where g(2) = min(1, 0, 2, 10, 32) = 0,
    # so every image at a breakpoint >= 2 has v >= g(2) >= 0 without phi_t;
    # phi_t(1) = 1 and v(phi_t(1/t)) = 2 close the run, and the floor is 0.
    # Among the 96,867 valuation vectors of bad places with q <= 4, r <= 4
    # and |v(a_i)| <= 9 (6 at r = 4), only (-1, -4, -6, -6, 0) over F_2 has
    # a candidate past a run that the law lets through.
    mod = make_module(F2, "t", "t^4", "t^6+t^4+t", "t^6", "1")
    v = InfinitePlace(F2)
    calls = count_phi_calls(monkeypatch)
    rd = mod.reduction_data(v)
    assert rd.vals == (-1, -4, -6, -6, 0)
    assert stable_floor(mod, v) == 0
    assert [v.valuation(y) for y in calls] == [0, 1]
    assert _floor_all_candidates(rd) == 0
    assert [v.valuation(y) for y in calls[2:]] == [0, 1, 3]
    assert _oracle_floor(mod, v) == 0
