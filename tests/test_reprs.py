import pytest

from conftest import make_module
from drinheights.heights import check_t2mwg
from drinheights.perfect import insep_level, key_dichotomy_check, lehper_check
from drinheights.places import (FinitePlace, SubstitutionEmbedding,
                                extend_places)
from drinheights.ratfunc import RatFunc, parse_poly, parse_ratfunc
from drinheights.torsion import annihilator_bound, is_torsion

ONE, X = RatFunc.one, RatFunc.x


@pytest.mark.parametrize("module, field, build, expect", [
    ("car3", "F3", lambda m, F: check_t2mwg(m, ONE(F)),
     "T2Certificate(witness at v[inf]: 1/3 > 1/27)"),
    ("psi2", "F2", lambda m, F: check_t2mwg(m, X(F)),
     "T2Certificate(torsion, b = t)"),
    ("tau2", "F2", lambda m, F: check_t2mwg(m, ONE(F)),
     "T2Certificate(constant)"),
    ("psi2", "F2", lambda m, F: is_torsion(m, X(F)),
     "TorsionCertificate(torsion, b = t)"),
    ("car3", "F3", lambda m, F: is_torsion(m, ONE(F)),
     "TorsionCertificate(non-torsion, "
     "T2Certificate(witness at v[inf]: 1/3 > 1/27))"),
    ("car3", "F3", lambda m, F: annihilator_bound(m),
     "AnnihilatorBound(D=1, b_lcm=t^3+2*t)"),
    ("tau2", "F2", lambda m, F: annihilator_bound(m),
     "AnnihilatorBound(torsion = constants F_q)"),
    ("car3", "F3", lambda m, F: key_dichotomy_check(insep_level(m, 0), ONE(F)),
     "DichotomyReport(branch 1 at v[inf]: 1/3 >= 1/774840978)"),
    ("psi2", "F2", lambda m, F: key_dichotomy_check(insep_level(m, 0), X(F)),
     "DichotomyReport(branch 2, b = t, valuations [(v[inf], inf)])"),
    ("psi2", "F2", lambda m, F: lehper_check(insep_level(m, 0), X(F)),
     "LehperReport(torsion, b = t)"),
    ("car3", "F3", lambda m, F: lehper_check(insep_level(m, 1), X(F)),
     "LehperReport(4/9 > 1/1162261467, margin 516560651/1162261467)"),
], ids=["t2-witness", "t2-torsion", "t2-constant", "torsion", "non-torsion",
        "bound", "bound-constants", "dichotomy-1", "dichotomy-2",
        "lehper-torsion", "lehper-floor"])
def test_report_reprs(module, field, build, expect, request):
    # each report names its branch and the exact numbers behind it
    report = build(request.getfixturevalue(module),
                   request.getfixturevalue(field))
    assert repr(report) == expect


def test_place_reprs(F3):
    # the embedding writes its image in u, and a place above in u too
    emb = SubstitutionEmbedding(parse_ratfunc(F3, "u^2", var="u"))
    assert repr(emb) == "Embedding(t -> u^2)"
    [ext] = extend_places(emb, FinitePlace(parse_poly(F3, "t")))
    assert repr(ext) == "PlaceExtension(v[u] above v[t], e=2, f=1, d=1/2)"


@pytest.mark.parametrize("build, expect", [
    (lambda lv, F: key_dichotomy_check(lv, parse_ratfunc(F, "1/(u^2+1)",
                                                         var="u")),
     "DichotomyReport(branch 1 at v[u^2+1]: 2/3 >= 1/123329495011708990974900"
     "260817232214728824366796574324605061468433916083)"),
    (lambda lv, F: key_dichotomy_check(lv, RatFunc.zero(F)),
     "DichotomyReport(branch 2, b = 1, valuations [(v[u^2+1], inf), "
     "(v[inf], inf)])"),
    (lambda lv, F: check_t2mwg(lv, parse_ratfunc(F, "1/(u^2+1)", var="u")),
     "T2Certificate(witness at v[u^2+1]: 2/3 > 2/10460353203)"),
], ids=["dichotomy-1", "dichotomy-2", "t2-witness"])
def test_level_reports_name_places_in_u(build, expect, F3):
    # a report on an inseparable level writes its places in the level's
    # variable u, as the CLI does, not in t
    level = insep_level(make_module(F3, "t", "1/(t^2+1)", "1"), 1)
    assert repr(build(level, F3)) == expect
