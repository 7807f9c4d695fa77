import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from conftest import (decimal_unlimited, kept_keys, make_module,
                      plant_mv_bug)
from drinheights import cli
from drinheights.errors import (QUOTE_CHARS, BudgetExhaustedError, InputError,
                                quote)
from drinheights.gf import FieldError, finite_field
from drinheights.perfect import insep_level


def run(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def job_module(job):
    """The CLI's module for `job`, the one its runs read once one has."""
    field = job["field"]
    return cli._module(finite_field(field["p"], field.get("k", 1)),
                       tuple(job["module"]["coefficients"]))


def job_file(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


PSI2 = {"field": {"p": 2, "k": 1}, "module": {"coefficients": ["t", "1"]}}
CAR3 = {"field": {"p": 3, "k": 1}, "module": {"coefficients": ["t", "1"]}}
# t + tau/(t^2+1) + tau^2 over F_3: bad at t^2+1 and at infinity
RANK2_BAD = {"field": {"p": 3, "k": 1},
             "module": {"coefficients": ["t", "1/(t^2+1)", "1"]}}
# 2 t^2 + tau over F_3: the valuation law ties at v_inf on v = -1, which
# the orbit of 1/t reaches at step 1
TIE_AT_INF = {"field": {"p": 3}, "module": {"coefficients": ["2*t^2", "1"]}}
# 2*(t+2)^2 over F_3, and x^2 - 1 = (x+1)(x-1) as the modulus of F_9; the
# CI workflow also pipes the place into the installed entry point
REDUCIBLE_PLACE = {"kind": "finite", "P": "2*t^2+2*t+2"}
REDUCIBLE_MODULUS = {"field": {"p": 3, "k": 2, "modulus": [2, 0, 1]},
                     "module": {"coefficients": ["t", "1"]}}
# the level-1 local-height job the CI workflow also runs through the
# installed entry point
LOCAL_AT_LEVEL = {"field": {"p": 3}, "module": {"coefficients": ["t", "1"]},
                  "point": "1/u", "place": {"kind": "infinity"}}
# bad at a place of degree 20 over F_3, whose residue field (3^20 elements)
# is past gf.ORDER_CAP; the CI workflow also pipes it into the installed
# entry point
BIG_PLACE = {"field": {"p": 3}, "module": {
    "coefficients": ["t", "(t^3+2*t+1)/(t^100+t+2)", "1"]}}
# P is the degree-20 factor of t^100+t+2; psi_t = -1/P^2 + tau is bad at P
# alone, and 1/P is torsion (phi_t(c/P) = -c/P^3 + c^3/P^3 = 0), so its
# local height is 0 there and the dichotomy's branch 2 expands its iterates
# at P
BIG_P = ("t^20+t^18+2*t^17+t^13+2*t^12+2*t^11+t^10+t^9+t^7+2*t^5+t^4+2*t^3"
         "+2*t^2+t+2")
BIG_TORSION = {"field": {"p": 3}, "module": {
    "coefficients": ["2/(%s)^2" % BIG_P, "1"]}, "point": "1/(%s)" % BIG_P}


# 1/t + 4999 t's: not a polynomial, and 10001 characters long
LONG_SUM = "1/t" + "+t" * 4999
# 5000 digits, past Python's int-to-string limit; the CI workflow also pipes
# it into the installed entry point as a point
LONG_LITERAL = "1" * 5000


def nested(depth):
    """t inside `depth` pairs of parentheses; the CI workflow also pipes
    nested(300) and nested(5000) into the installed entry point."""
    return "(" * depth + "t" + ")" * depth


def test_reduction_report(tmp_path, capsys):
    code, out, _ = run(capsys, ["reduction", job_file(tmp_path, PSI2)])
    assert code == 0
    assert "S: {v[inf] (degree 1)}" in out
    assert "M_v = -1, T_v = 1" in out
    assert "Q_v   = {-1, 0, 1}" in out


def test_reduction_good_everywhere(tmp_path, capsys):
    job = {"field": {"p": 2, "k": 1}, "module": {"coefficients": ["0", "1"]}}
    code, out, _ = run(capsys, ["reduction", job_file(tmp_path, job)])
    assert code == 0
    assert "S empty; torsion = F_q" in out


def test_height_report(tmp_path, capsys):
    job = dict(CAR3, point="1")
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 0
    assert "global height = 1/3" in out
    assert "witness v[inf]" in out and "1/27" in out and "PASS" in out


def test_height_torsion_report(tmp_path, capsys):
    job = dict(PSI2, point="t")
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 0
    assert "global height = 0" in out
    assert "annihilator b = t" in out


def test_height_insep_level(tmp_path, capsys):
    job = dict(CAR3, point="u", insep_level=1)
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 0
    assert "global height = 4/9" in out
    assert "lehper bound" in out and "PASS" in out


def test_height_torsion_point_at_level(tmp_path, capsys):
    # 1 is torsion for Carlitz over F_2 at any level: the floor is not read
    job = job_file(tmp_path, dict(PSI2, point="1"))
    code, out, _ = run(capsys, ["height", job, "--insep-level", "1"])
    assert code == 0
    assert "torsion point, annihilator b = t^2+t" in out.splitlines()
    code, out, _ = run(capsys, ["height", job, "--insep-level", "1",
                                "--json"])
    data = json.loads(out)
    assert code == 0 and data["torsion"] == "t^2+t" and "lehper" not in data


def test_height_constant_point(tmp_path, capsys):
    # phi_t = 1 + tau over F_3 has good reduction everywhere
    job = job_file(tmp_path, {"field": {"p": 3}, "point": "2",
                              "module": {"coefficients": ["1", "1"]}})
    code, out, _ = run(capsys, ["height", job])
    assert code == 0
    assert ("constant point (torsion = constants since S is empty)"
            in out.splitlines())
    code, out, _ = run(capsys, ["height", job, "--json"])
    assert code == 0 and json.loads(out)["certificate"] == {"kind": "constant"}


# 1/u^2 for Carlitz over F_2 at level 1: v[inf] bounds its local height
# only by an interval, so its height is [1, 8193/8192]; once that place
# decides it exactly, these tests are re-recorded
INTERVAL_AT_LEVEL = dict(PSI2, point="1/u^2", insep_level=1)


def test_height_interval_passes_the_floor(tmp_path, capsys):
    job = job_file(tmp_path, INTERVAL_AT_LEVEL)
    code, out, _ = run(capsys, ["height", job])
    assert code == 0
    assert ("lehper bound 1/524288: [1, 8193/8192] > 1/524288: PASS"
            in out.splitlines())
    code, out, _ = run(capsys, ["height", job, "--json"])
    data = json.loads(out)
    assert code == 0
    assert (data["height"]["lo"], data["height"]["hi"]) == ("1", "8193/8192")
    assert data["lehper"] == {"bound": "1/524288", "margin": "524287/524288"}


def test_dichotomy_passes_an_interval_to_branch_2(tmp_path, capsys, psi2,
                                                  F2):
    from drinheights import parse_ratfunc
    from drinheights.heights import local_height
    from drinheights.places import InfinitePlace
    job = job_file(tmp_path, INTERVAL_AT_LEVEL)
    code, out, _ = run(capsys, ["dichotomy", job])
    assert code == 0
    assert out.splitlines() == [
        "branch 2: b = t^3+t^2+t+1 pushes x above every T_v",
        "  v = v[inf]: v(phi_b(x)) = 6 > T_v = 2"]
    code, out, _ = run(capsys, ["dichotomy", job, "--json"])
    assert code == 0 and json.loads(out) == {
        "b": "t^3+t^2+t+1", "branch": 2, "valuations": [["v[inf]", "6"]]}
    # branch 1 had an interval, not a value, at the one bad place
    psi = insep_level(psi2, 1)
    assert [str(v) for v in psi.bad_reduction_set()] == ["v[inf]"]
    x = parse_ratfunc(F2, "1/u^2", var="u")
    assert not local_height(psi, InfinitePlace(F2), x).is_exact


def test_dichotomy_branch_2_budget_exhausted(tmp_path, capsys, monkeypatch):
    from drinheights import heights
    monkeypatch.setattr(heights, "DEGREE_CAP", 16)
    job = job_file(tmp_path, INTERVAL_AT_LEVEL)
    code, out, err = run(capsys, ["dichotomy", job])
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "budget exhausted: iterates outgrew the degree budget before a "
        "branch-2 certificate appeared"]


def test_local_height_json(tmp_path, capsys):
    job = dict(CAR3, point="t^2+1", place={"kind": "infinity"})
    code, out, _ = run(capsys, ["local-height", job_file(tmp_path, job),
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["height"]["value"] == "2"
    assert data["height"]["certificate"] == "Escaped"


def test_torsion_report(tmp_path, capsys):
    code, out, _ = run(capsys, ["torsion", job_file(tmp_path, PSI2)])
    assert code == 0
    assert "D = r N_phi |S| = 2" in out
    assert "t^6+t^5+t^3+t^2" in out
    for line in ("1  (minimal annihilator t^2+t)",
                 "t  (minimal annihilator t)",
                 "t+1  (minimal annihilator t+1)"):
        assert line in out


@pytest.mark.parametrize("command, job, builds", [
    pytest.param("torsion", PSI2, 1, id="torsion-job0"),
    # both places of S are decided by the valuation walk, which reads no
    # iterate, and no torsion decision or floor is needed
    pytest.param("height", dict(RANK2_BAD, point="1/(t^2+1)"), 0,
                 id="height-job1"),
    # a tie at v_inf: the iterates are walked after the torsion decision
    pytest.param("height", dict(TIE_AT_INF, point="1/t"), 1,
                 id="height-job2"),
])
def test_job_builds_phi_t_once_per_module(command, job, builds, tmp_path,
                                          capsys, monkeypatch):
    # phi_t is the module's one SkewPoly: the walk, act, the torsion
    # decision and the stable floor all apply it, none builds its own
    from drinheights.drinfeld import DrinfeldModule
    from drinheights.skew import SkewPoly
    modules, built = [], []
    module_init, skew_init = DrinfeldModule.__init__, SkewPoly.__init__

    def spy_module(self, field, coeffs):
        module_init(self, field, coeffs)
        modules.append(self)

    def spy_skew(self, field, coeffs):
        built.append(coeffs)
        skew_init(self, field, coeffs)
    monkeypatch.setattr(DrinfeldModule, "__init__", spy_module)
    monkeypatch.setattr(SkewPoly, "__init__", spy_skew)
    code, _, _ = run(capsys, [command, job_file(tmp_path, job), "--json"])
    assert code == 0 and modules
    assert [sum(c is mod.coeffs for c in built) for mod in modules] == \
        [builds] * len(modules)


def test_kernel_report(tmp_path, capsys):
    job = dict(PSI2, b="t^2+t")
    code, out, _ = run(capsys, ["kernel", job_file(tmp_path, job)])
    assert code == 0
    assert "4 rational roots" in out


def test_lehmer_report(tmp_path, capsys):
    code, out, _ = run(capsys, ["lehmer", job_file(tmp_path, CAR3)])
    assert code == 0
    assert "1/27" in out and "1/81" in out and "1162261467" in out


def test_dichotomy_report(tmp_path, capsys):
    job = dict(PSI2, point="t")
    code, out, _ = run(capsys, ["dichotomy", job_file(tmp_path, job)])
    assert code == 0
    assert "branch 2: b = t" in out


def test_input_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["height", str(path)])
    assert code == 2 and "input error" in err

    job = dict(CAR3, point="t +")
    code, _, err = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 2

    job = {"field": {"p": 4, "k": 1}, "module": {"coefficients": ["t", "1"]},
           "point": "t"}
    code, _, err = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 2

    job = dict(CAR3)  # missing point
    code, _, err = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 2


# entries of the wrong type (or absent from their object), each refused by
# a message that names the entry and says what it must be, and at the end
# the job, its field, a place kind and a point, each refused by its message
ENTRY_ERRORS = [
    ("height", dict(CAR3, point="1", substitution={"u_image_of_t": [1]}),
     "substitution u_image_of_t must be a string, not [1]"),
    ("height", dict(CAR3, point="1", substitution=5),
     "substitution must be a JSON object, not 5"),
    ("height", dict(CAR3, point="1", substitution={}),
     "substitution u_image_of_t must be a string, not null"),
    ("height", dict(CAR3, point="1", substitution={"u_image_of_t": 5}),
     "substitution u_image_of_t must be a string, not 5"),
    ("local-height", dict(CAR3, point="1", place={"kind": "finite"}),
     "place P must be a string, not null"),
    ("lehmer", [1], "job must be a JSON object"),
    ("lehmer", dict(CAR3, field=3), "job needs a field"),
    ("lehmer", dict(CAR3, field={"p": 3, "k": 2, "modulus": 5}),
     "modulus must be a list of integers"),
    ("local-height", dict(CAR3, point="1", place={"kind": "zero"}),
     "place kind must be \"finite\" or \"infinity\""),
    ("height", dict(CAR3, point="t t"), "trailing input at position 2"),
]


@pytest.mark.parametrize("command, job, flags", [
    ("lehmer", {"field": {"p": 3, "k": None},
                "module": {"coefficients": ["t", "1"]}}, []),
    ("lehmer", {"field": {"p": 3, "k": True},
                "module": {"coefficients": ["t", "1"]}}, []),
    ("lehmer", {"field": {"p": 3.0}, "module": {"coefficients": ["t", "1"]}},
     []),
    # far above the field-size cap: rejected without trial division or p**k
    ("lehmer", {"field": {"p": 2**61 - 1},
                "module": {"coefficients": ["t", "1"]}}, []),
    ("lehmer", {"field": {"p": 2, "k": 10**12},
                "module": {"coefficients": ["t", "1"]}}, []),
    ("lehmer", dict(CAR3, module={"coefficients": ["t", 1]}), []),
    ("lehmer", dict(CAR3, module=["t", "1"]), []),
    ("height", dict(CAR3, point="1", insep_level=[2]), []),
    ("height", dict(CAR3, point=1), []),
    ("insep-height", dict(CAR3, point="u", insep_level=1.5), []),
    ("insep-height", dict(CAR3, point="u"), ["--insep-level", "-1"]),
    ("kernel", dict(CAR3, b=["t"]), []),
    ("local-height", dict(CAR3, point="1", place="infinity"), []),
    ("local-height", dict(CAR3, point="1", place={"kind": "finite", "P": 3}),
     []),
    ("verify", dict(CAR3, seed="0"), []),
    ("verify", dict(CAR3, counts=-5), []),
    ("verify", dict(CAR3), ["--counts", "-5"]),
    # degrees above MAX_DEGREE are refused before they are built
    ("height", dict(CAR3, point="t^100000000"), []),
    ("height", dict(CAR3, point="(t+1)^3000000"), []),
    ("height", dict(CAR3, point="(t^99999)^99999"), []),
    ("height", dict(CAR3, point="t^60000*t^60000"), []),
    ("height", dict(CAR3, point="t^60000/(t+1)^60000"), []),
    ("height", dict(CAR3, point="1/t^60000+1/(t+1)^60000"), []),
    ("height", dict(CAR3, module={"coefficients": ["t^100001", "1"]},
                    point="1"), []),
    ("insep-height", dict(CAR3, point="u", insep_level=25), []),
    ("insep-height", dict(CAR3, point="u"), ["--insep-level", "11"]),
    ("dichotomy", dict(CAR3, point="u", insep_level=10**9), []),
    ("insep-height", {"field": {"p": 100003},
                      "module": {"coefficients": ["t", "1"]}, "point": "u"},
     []),
    ("height", dict(CAR3, point="t", substitution={"u_image_of_t": "1"}), []),
    # the variables are t (and u above level 0); there is no "var" key
    ("lehmer", dict(CAR3, var="x", module={"coefficients": ["x", "1"]}), []),
    # a negative power of zero is a division by zero, like 1/(t-t)
    ("height", dict(CAR3, point="0^-1"), []),
    ("height", dict(CAR3, point="(t-t)^-2"), []),
    # the DrinfeldModule constructor's errors and b = 0 for kernel
    ("lehmer", dict(CAR3, module={"coefficients": ["t"]}), []),
    ("kernel", dict(CAR3, b="t-t"), []),
    # properties of the job's module that a command needs
    ("height", dict(CAR3, module={"coefficients": ["t", "2"]}, point="1"),
     []),
    ("height", {"field": {"p": 2}, "module": {"coefficients": ["0", "1"]},
                "point": "u"}, ["--insep-level", "1"]),
    # a reducible place and a reducible modulus, refused by the field and
    # place constructors that also serve the library's own proven inputs
    ("local-height", dict(CAR3, point="1", place=REDUCIBLE_PLACE), []),
    ("lehmer", REDUCIBLE_MODULUS, []),
    # nesting past ratfunc.MAX_NESTING, and digits other than
    # ASCII 0-9, which int() refuses or reads as another digit
    ("height", dict(CAR3, point=nested(300)), []),
    ("height", dict(CAR3, point=nested(5000)), []),
    ("lehmer", dict(CAR3, module={"coefficients": [nested(300), "1"]}), []),
    ("lehmer", dict(CAR3, module={"coefficients": [nested(5000), "1"]}), []),
    ("height", dict(CAR3, point="t^\u00b2"), []),
    ("height", dict(CAR3, point="\u0663*t"), []),
    # long refused inputs are quoted by a prefix and their length only
    ("kernel", dict(CAR3, b=LONG_SUM), []),
    ("lehmer", dict(CAR3, field={"p": list(range(3000))}), []),
    ("local-height", dict(CAR3, point="1",
                          place={"kind": "finite", "P": LONG_SUM}), []),
    ("dichotomy", dict(CAR3, point="u", insep_level=10**4000), []),
    ("verify", dict(CAR3, counts=-10**4000), []),
    ("lehmer", dict(CAR3, field={"p": 10**4000}), []),
    # refused before the module memo, which cannot hash a list
    ("lehmer", dict(CAR3, module={"coefficients": ["t", ["1"]]}), []),
    # a residue field past gf.ORDER_CAP, read by the reduction report and by
    # the dichotomy's branch 2
    ("reduction", BIG_PLACE, []),
    ("dichotomy", BIG_TORSION, []),
    # integer literals past Python's int-to-string digit limit, which int()
    # refuses: in a point, a coefficient, b and a place P
    ("height", dict(CAR3, point=LONG_LITERAL), []),
    ("height", dict(CAR3, point="t^" + LONG_LITERAL), []),
    ("lehmer", dict(CAR3, module={"coefficients": ["t+" + LONG_LITERAL, "1"]}),
     []),
    ("kernel", dict(CAR3, b="t+" + "2" * 5000), []),
    ("local-height", dict(CAR3, point="1", place={
        "kind": "finite", "P": "t+" + LONG_LITERAL}), []),
] + [(command, job, []) for command, job, _ in ENTRY_ERRORS])
def test_malformed_job_exit_2(tmp_path, capsys, command, job, flags):
    code, out, err = run(capsys, [command, job_file(tmp_path, job)] + flags)
    assert code == 2
    assert err.startswith("input error: ") and out == ""
    assert len(err.encode()) < 300
    assert all(says in err for _, other, says in ENTRY_ERRORS if other == job)


def test_long_literal_is_quoted_once(tmp_path, capsys):
    # the point is quoted by the CLI; the parser names the literal by its
    # length, so the 5000 digits are not quoted a second time
    job = job_file(tmp_path, dict(CAR3, point=LONG_LITERAL))
    code, out, err = run(capsys, ["height", job])
    assert code == 2 and out == ""
    assert err.count(quote(LONG_LITERAL)) == 1
    assert "integer literal of 5000 digits at position 0 has too many " \
        "digits" in err
    assert len(err.encode()) < 200


# pushes to F_q(u) that would take a degree past MAX_DEGREE: by the level's
# index p^n (on a coefficient, on the point) or by the substitution's h(f)
PUSHES = [
    ("height", {"field": {"p": 3},
                "module": {"coefficients": ["t", "1/t^1000", "1"]},
                "point": "u"}, ["--insep-level", "10"]),
    ("reduction", {"field": {"p": 3},
                   "module": {"coefficients": ["t", "1/(t^2+1)^100", "1"]}},
     ["--insep-level", "8"]),
    ("insep-height", dict(CAR3, point="u^40000"), ["--insep-level", "1"]),
    ("height", dict(CAR3, point="t^1000",
                    substitution={"u_image_of_t": "u^1000"}), []),
    ("height", dict(CAR3, point="t^50001",
                    substitution={"u_image_of_t": "u^2"}), []),
]


@pytest.mark.parametrize("command, job, flags", PUSHES)
def test_push_past_max_degree_refused_before_pushing(command, job, flags,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    # the push rule: a push that multiplies degrees by m is refused when
    # m * max(h(t), h(point), h(a_i)) passes MAX_DEGREE, before any level
    # above 0 is built and before the substitution is applied
    from drinheights import perfect, places

    def level(self, module, n):
        raise AssertionError("pushed to level %d" % n)

    def substitute(self, y):
        raise AssertionError("pushed along the substitution")
    monkeypatch.setattr(perfect.InsepLevel, "__init__", level)
    monkeypatch.setattr(places.SubstitutionEmbedding, "apply", substitute)
    code, out, err = run(capsys, [command, job_file(tmp_path, job)] + flags)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and "MAX_DEGREE = 100000" in err
    assert len(err.encode()) < 300


def test_refused_substitution_is_quoted_in_normal_form(tmp_path, capsys):
    # the library refuses the push, so the message shows the parsed image
    job = dict(CAR3, point="t^50001",
               substitution={"u_image_of_t": "u^2 + u"})
    code, out, err = run(capsys, ["height", job_file(tmp_path, job)])
    assert (code, out) == (2, "")
    assert err == ("input error: substitution t -> 'u^2+u' (degrees times 2) "
                   "takes degree 50001 past the cap MAX_DEGREE = 100000\n")


@pytest.mark.parametrize("command", ["height", "insep-height", "dichotomy"])
def test_refused_level_names_the_largest_pushed_degree(command, tmp_path,
                                                       capsys):
    # every level command checks the module and the point together, so
    # the refusal names a_1 = 1/t^1000's degree, not h(t) = 1
    job = dict(CAR3, module={"coefficients": ["t", "1/t^1000", "1"]},
               point="u")
    code, out, err = run(capsys, [command, job_file(tmp_path, job),
                                  "--insep-level", "11"])
    assert (code, out) == (2, "")
    assert err == ("input error: insep_level 11 (degrees times p^11) takes "
                   "degree 1000 past the cap MAX_DEGREE = 100000\n")


@pytest.mark.parametrize("command, job, flags", [
    ("torsion", PSI2, []),
    ("kernel", dict(CAR3, b="t^2+1"), []),
    ("lehmer", RANK2_BAD, []),
    ("verify", CAR3, ["--counts", "5"]),
])
def test_commands_over_K_ignore_the_level(command, job, flags, tmp_path,
                                          capsys):
    # these work over K: a level past the push rule's cap, as a flag or a
    # job entry, is neither pushed nor refused
    plain = job_file(tmp_path, job)
    leveled = job_file(tmp_path, dict(job, insep_level=100), "leveled.json")
    for more in ([], ["--json"]):
        want = run(capsys, [command, plain] + flags + more)
        assert want[0] == 0 and want[1] and not want[2]
        assert run(capsys, [command, plain, "--insep-level", "100"] + flags
                   + more) == want
        assert run(capsys, [command, leveled] + flags + more) == want


# job text that json.load refuses: an integer past Python's int-to-string
# digit limit (the CI workflow also pipes this one into the installed entry
# point), nesting past the recursion limit, and a byte that is not UTF-8
DIGITS_JOB = '{"field": {"p": 1%s}}' % ("0" * 5000)


@pytest.mark.parametrize("stdin, content", [
    (DIGITS_JOB, None),
    ("[" * 100000, None),
    (None, b"\xff"),
], ids=["digits", "nesting", "not-utf8"])
def test_unreadable_job_exit_2(stdin, content, tmp_path, capsys,
                               monkeypatch):
    if stdin is None:
        source = tmp_path / "job.json"
        source.write_bytes(content)
        source = str(source)
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        source = "-"
    code, out, err = run(capsys, ["lehmer", source])
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot read job: ")
    assert len(err.encode()) < 300


def test_quote_cuts_long_inputs_only():
    assert quote("t +") == "'t +'" and quote("[1]", str) == "[1]"
    assert quote("x" * QUOTE_CHARS) == repr("x" * QUOTE_CHARS)
    assert quote(LONG_SUM) == "%r (first %d of 10001 characters)" % (
        LONG_SUM[:QUOTE_CHARS], QUOTE_CHARS)


def test_refused_place_and_modulus_stay_refused(tmp_path, capsys):
    # fields, residue fields and modules are memoized for the process: a
    # refused input must be refused again, also after the same field, place
    # and module were built from valid input
    place_job = dict(CAR3, point="1", place=REDUCIBLE_PLACE)
    warm = [("local-height", dict(place_job, place={"kind": "finite",
                                                    "P": "t^2+t+2"})),
            ("lehmer", dict(REDUCIBLE_MODULUS, field={"p": 3, "k": 2,
                                                      "modulus": [2, 2, 1]}))]
    refused = [
        ("local-height", place_job,
         "finite places need a monic irreducible polynomial"),
        ("lehmer", REDUCIBLE_MODULUS, "reducible modulus"),
        ("lehmer", dict(CAR3, module={"coefficients": ["t"]}),
         "phi_t must involve tau: need r >= 1"),
        ("lehmer", dict(CAR3, module={"coefficients": ["t +", "1"]}),
         "bad coefficient: unexpected token at position 3"),
    ]
    for _ in range(2):
        for command, job in warm:
            assert run(capsys, [command, job_file(tmp_path, job)])[0] == 0
        for command, job, message in refused:
            code, out, err = run(capsys, [command, job_file(tmp_path, job)])
            assert (code, out, err) == (2, "", "input error: %s\n" % message)


def test_repeated_jobs_reuse_the_module(tmp_path, capsys, monkeypatch):
    # a job on a module seen before in the process builds nothing the
    # module keeps: no module, level or reduction data, no residue-set
    # check, and it parses only its point; a place seen before is neither
    # parsed nor tested for irreducibility, and a reduction report formats
    # no entry; each report is byte for byte the first run's, as text and
    # under --json
    from drinheights import drinfeld, perfect, places
    at_bad_place = dict(RANK2_BAD, point="(t^2+1)/t",
                        place={"kind": "finite", "P": "t^2+1"})
    jobs = [("reduction", RANK2_BAD, []),
            ("reduction", RANK2_BAD, ["--json"]),
            ("height", dict(RANK2_BAD, point="(t^2+1)/t"), []),
            ("height", dict(RANK2_BAD, point="(t^2+1)/t"), ["--json"]),
            ("insep-height", dict(RANK2_BAD, point="1/(u+1)"),
             ["--insep-level", "1"]),
            ("local-height", at_bad_place, []),
            ("local-height", at_bad_place, ["--json"])]
    argvs = [[cmd, job_file(tmp_path, job, "job%d.json" % i)] + flags
             for i, (cmd, job, flags) in enumerate(jobs)]
    built, parsed, placed, tested, formatted = [], [], [], [], []

    def spy(owner, name, calls=built):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append("%s.%s" % (owner.__name__, name))
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    spy(drinfeld.DrinfeldModule, "__init__")
    spy(perfect.InsepLevel, "__init__")
    spy(drinfeld.ReductionData, "__init__")
    spy(drinfeld.ReductionData, "_check")
    spy(places, "is_irreducible", tested)
    spy(cli, "frac", formatted)

    def parser(name, calls):
        real = getattr(cli, name)

        def parse(field, s, **kwargs):
            calls.append(s)
            return real(field, s, **kwargs)
        monkeypatch.setattr(cli, name, parse)
    parser("parse_ratfunc", parsed)
    parser("parse_poly", placed)

    def run_all():
        """Each job's (exit code, stdout, stderr), and its count of frac
        calls in cli."""
        reports, formats = [], []
        for argv in argvs:
            del formatted[:]
            reports.append(run(capsys, argv))
            formats.append(len(formatted))
        return reports, formats

    first, formats = run_all()
    assert [code for code, _, _ in first] == [0] * len(jobs)
    assert set(built) == {"DrinfeldModule.__init__", "InsepLevel.__init__",
                          "ReductionData.__init__", "ReductionData._check"}
    assert set(RANK2_BAD["module"]["coefficients"]) <= set(parsed)
    assert placed == ["t^2+1"] and tested and formats[0] > 0
    del built[:], parsed[:], placed[:], tested[:]
    again, formats = run_all()
    assert again == first
    assert built == []
    assert parsed == ["(t^2+1)/t", "(t^2+1)/t", "1/(u+1)", "(t^2+1)/t",
                      "(t^2+1)/t"]
    assert placed == [] and tested == [] and formats[:2] == [0, 0]


def test_refused_place_is_refused_on_every_call(tmp_path, capsys):
    # the place memo keeps nothing for refused input: each of two calls
    # gets the same message and exit 2, and no entry is left
    cli._place.cache_clear()
    refused = [("2*t^2+2*t+2",
                "finite places need a monic irreducible polynomial"),
               (5, "place P must be a string, not 5"),
               ("1/t", "bad place '1/t': '1/t' is not a polynomial"),
               ("0", "finite places need a monic irreducible polynomial")]
    for P, message in refused:
        path = job_file(tmp_path, dict(CAR3, point="1",
                                       place={"kind": "finite", "P": P}))
        for _ in range(2):
            assert run(capsys, ["local-height", path]) == (
                2, "", "input error: %s\n" % message)
    assert cli._place.cache_info().currsize == 0


# the commands whose report depends on the module alone, each on a module
# with a nonempty S
MODULE_JOBS = [("reduction", RANK2_BAD), ("lehmer", RANK2_BAD),
               ("torsion", PSI2)]


def spy_calls(monkeypatch, names):
    """Replace each function `cli.<name>` by one that records its name in
    the returned list and then calls it."""
    calls = []
    for name in names:
        def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


def test_repeated_module_report_renders_nothing(tmp_path, capsys,
                                                monkeypatch):
    # a module-only report is built, formatted and rendered once: the
    # second run of each job neither computes, formats nor writes JSON,
    # and prints the first run's bytes, as text and under --json
    argvs = [[cmd, job_file(tmp_path, job, "%s.json" % cmd)] + flags
             for cmd, job in MODULE_JOBS for flags in ([], ["--json"])]
    calls = spy_calls(monkeypatch, ["_json", "frac", "lehmer_bounds",
                                    "torsion_enumerate"])
    first = [run(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0] * len(argvs)
    assert set(calls) == {"_json", "frac", "lehmer_bounds",
                          "torsion_enumerate"}
    del calls[:]
    for argv, want in zip(argvs, first):
        assert run(capsys, argv) == want
        assert calls == [], argv


def test_report_whose_rendering_fails_keeps_no_text(tmp_path, capsys,
                                                    monkeypatch):
    # _json refuses on the first emit: exit 4, and the kept report holds
    # no text, so once _json is back the next call prints the bytes a
    # fresh process prints
    for cmd, job in MODULE_JOBS:
        argv = [cmd, job_file(tmp_path, job, "%s.json" % cmd), "--json"]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_json", _refuse(TypeError))
            assert run(capsys, argv) == (
                4, "", "cannot write the report: refused\n")
        module = job_module(job)
        assert (cmd, "t", True) in kept_keys(module, cli._module_report)
        assert cli._module_report(module, cmd, "t", True).text is None
        again = run(capsys, argv)
        cli._module.cache_clear()
        assert again == run(capsys, argv)
        assert again[0] == 0 and json.loads(again[1])


@pytest.mark.parametrize("command, job, owner, name", [
    ("reduction", RANK2_BAD, "ReductionData", "_check"),
    ("lehmer", RANK2_BAD, None, "lehmer_bounds"),
    ("torsion", PSI2, None, "torsion_enumerate")])
def test_internal_error_leaves_kept_reports_alone(command, job, owner, name,
                                                  tmp_path, capsys,
                                                  monkeypatch):
    # an internal error under --json prints a fresh error report; the
    # report kept for another module keeps its bytes
    from drinheights import drinfeld
    kept = [command, job_file(tmp_path, job), "--json"]
    other = [command, job_file(tmp_path, dict(job, module={
        "coefficients": ["t", "1/(t^2+t+2)", "1"]}), "other.json"), "--json"]
    want = run(capsys, kept)
    assert want[0] == 0

    def failing(*args, **kwargs):
        raise RuntimeError("internal guard")
    monkeypatch.setattr(cli if owner is None else getattr(drinfeld, owner),
                        name, failing)
    code, out, err = run(capsys, other)
    assert code == 4 and err == "internal error: internal guard\n"
    assert json.loads(out) == {"error": "internal",
                               "message": "internal guard"}
    assert run(capsys, kept) == want


def test_refused_module_report_is_refused_on_every_call(tmp_path, capsys):
    # a non-monic module is refused by each module-only command, with the
    # same message on every call, and no report is kept for it
    nonmonic = dict(CAR3, module={"coefficients": ["t", "2"]})
    path = job_file(tmp_path, nonmonic)
    message = ("input error: phi_t is not monic; reduction and height theory"
               " need a monic module (a_r = 1)\n")
    for cmd, _ in MODULE_JOBS:
        for flags in ([], ["--json"]):
            for _ in range(2):
                assert run(capsys, [cmd, path] + flags) == (2, "", message)
    assert job_module(nonmonic)._kept == {}


def test_module_report_is_kept_per_level(tmp_path, capsys):
    # reduction at level 1 is the pushed module's report, kept apart from
    # level 0's; lehmer and torsion work over K, so at level 1 they print
    # the level-0 report, which is kept once
    for cmd, job in MODULE_JOBS:
        path = job_file(tmp_path, job, "%s.json" % cmd)
        for flags in ([], ["--json"]):
            plain = [cmd, path] + flags
            leveled = plain + ["--insep-level", "1"]
            runs = [run(capsys, argv) for argv in (plain, leveled) * 2]
            assert runs[0][0] == runs[1][0] == 0
            assert runs[2:] == runs[:2]
            assert (runs[0] != runs[1]) == (cmd == "reduction")
    # reduction: two levels, twice; lehmer and torsion: once each, on the
    # module at level 0
    rank2, psi2 = job_module(RANK2_BAD), job_module(PSI2)
    assert sorted(kept_keys(rank2, cli._module_report)) == [
        (cmd, "t", as_json) for cmd in ("lehmer", "reduction")
        for as_json in (False, True)]
    assert sorted(kept_keys(insep_level(rank2, 1), cli._module_report)) == [
        ("reduction", "u", False), ("reduction", "u", True)]
    assert sorted(kept_keys(psi2, cli._module_report)) == [
        ("torsion", "t", False), ("torsion", "t", True)]


def test_flags_do_not_carry_over_between_calls(tmp_path, capsys):
    # the parser is built once; each call must see only its own flags
    job = dict(CAR3, point="1")
    path = job_file(tmp_path, job)
    plain = run(capsys, ["height", path])
    code, out, _ = run(capsys, ["height", path, "--insep-level", "1",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["height"]["value"] == "1/3" and "lehper" in data
    assert run(capsys, ["height", path]) == plain
    assert plain[0] == 0 and "global height = 1/3" in plain[1]
    assert "inseparable level" not in plain[1] and "lehper" not in plain[1]


def test_each_distinct_argv_is_parsed_once(tmp_path, capsys):
    # argv is parsed once per process; a repeated argv is a memo hit and
    # keeps its own settings, not those of the call before it
    path = job_file(tmp_path, dict(CAR3, point="1"))
    leveled = ["height", path, "--insep-level", "1", "--json"]
    plain = ["height", path, "--json"]
    first = [run(capsys, argv) for argv in (leveled, plain)]
    reports = [json.loads(out) for _, out, _ in first]
    assert [r["height"]["value"] for r in reports] == ["1/3", "1/3"]
    assert "lehper" in reports[0] and "lehper" not in reports[1]
    before = cli._args.cache_info()
    assert [run(capsys, argv) for argv in (leveled, plain)] == first
    after = cli._args.cache_info()
    assert (after.hits - before.hits, after.misses) == (2, before.misses)


def test_refused_argv_is_refused_on_every_call(capsys):
    # SystemExit is not kept by the argv memo: the usage message and the
    # exit code come back on each call
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command", "-"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: drinheights") and "invalid choice" in err
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: drinheights")


def test_main_without_argv_reads_sys_argv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["drinheights", "lehmer",
                                     job_file(tmp_path, CAR3), "--json"])
    code, out, _ = run(capsys, None)
    assert code == 0 and json.loads(out)["sharp"] == "1/27"


def test_budget_exhaustion_exit_3(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise BudgetExhaustedError("no certificate in budget")
    monkeypatch.setattr(cli, "check_t2mwg", boom)
    job = dict(CAR3, point="1")
    code, _, err = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 3 and "budget exhausted" in err


def test_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    # a failed self-check is neither an input error (2) nor a property
    # violation (1)
    from drinheights.drinfeld import ReductionData

    def failing_check(self, sets):
        raise RuntimeError("T_v must be positive at a bad place")
    monkeypatch.setattr(ReductionData, "_check", failing_check)
    code, out, err = run(capsys, ["reduction", job_file(tmp_path, PSI2)])
    assert code == 4 and out == ""
    assert "internal error: T_v must be positive" in err
    assert "Traceback" not in err

    def failing_kernel(module, b):
        raise AssertionError("kernel generator fails verification")
    monkeypatch.setattr(cli, "kernel_in_K", failing_kernel)
    job = dict(CAR3, b="t")
    code, out, err = run(capsys, ["kernel", job_file(tmp_path, job), "--json"])
    assert code == 4
    assert "internal error: kernel generator fails verification" in err
    assert json.loads(out) == {"error": "internal",
                               "message": "kernel generator fails verification"}


@pytest.mark.parametrize("exc", [ValueError("internal guard"),
                                 ZeroDivisionError("internal guard"),
                                 FieldError("internal guard")])
def test_stray_exception_is_internal_error(exc, tmp_path, capsys,
                                           monkeypatch):
    # only a malformed job or a property of its module is an input error
    # (exit 2); any other exception is a defect (exit 4), not a traceback
    def failing(module, place, x, *, val=None):
        raise exc
    monkeypatch.setattr(cli, "local_height", failing)
    job = job_file(tmp_path, dict(CAR3, point="1/t",
                                  place={"kind": "infinity"}))
    code, out, err = run(capsys, ["local-height", job])
    assert code == 4 and out == ""
    assert err == "internal error: internal guard\n"
    code, out, err = run(capsys, ["local-height", job, "--json"])
    assert code == 4
    assert json.loads(out) == {"error": "internal", "message": "internal guard"}


def test_invalid_height_interval_is_internal_error(tmp_path, capsys,
                                                   monkeypatch):
    # HeightValue guards the library's own intervals: one with hi < lo is a
    # defect (exit 4), not an input error (exit 2)
    from drinheights.heights import EXHAUSTED, HeightValue

    def bad_interval(module, place, x, *, val=None):
        return HeightValue(1, 0, EXHAUSTED)
    monkeypatch.setattr(cli, "local_height", bad_interval)
    job = dict(CAR3, point="1/t", place={"kind": "infinity"})
    code, out, err = run(capsys, ["local-height", job_file(tmp_path, job)])
    assert code == 4 and out == ""
    assert "internal error: invalid height interval [1, 0]" in err


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_report_that_cannot_be_written_exits_4(flags, tmp_path, capsys,
                                               monkeypatch):
    # a write error is neither a property violation (exit 1) nor a
    # traceback: one short line on stderr, and no error object on stdout
    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = cli.main(["lehmer", job_file(tmp_path, CAR3)] + flags)
    err = capsys.readouterr().err
    assert code == 4 and pipe.getvalue() == ""
    assert err == "cannot write the report: [Errno 32] Broken pipe\n"
    # an internal error under --json writes its error object the same way;
    # the job names another module, whose report is not kept
    monkeypatch.setattr(cli, "lehmer_bounds", lambda module: 1 / 0)
    assert cli.main(["lehmer", job_file(tmp_path, RANK2_BAD, "other.json")]
                    + flags) == 4
    assert pipe.getvalue() == ""


def _refuse(exc):
    def refuse(*args):
        raise exc("refused")
    return refuse


@pytest.mark.parametrize("exc", [TypeError, ValueError])
@pytest.mark.parametrize("flags, hook", [
    ([], "stdout"), (["--json"], "stdout"), (["--json"], "_json")])
def test_any_write_failure_exits_4(flags, hook, exc, tmp_path, capsys,
                                   monkeypatch):
    # not only an OSError: a stdout that refuses a write, or a value that
    # _json refuses, is a report that cannot be written, so exit 4 with
    # one stderr line, not a traceback with exit 1 (a property violation)
    if hook == "_json":
        monkeypatch.setattr(cli, "_json", _refuse(exc))
    else:
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys.stdout, "write", _refuse(exc))
    code = cli.main(["lehmer", job_file(tmp_path, CAR3)] + flags)
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "cannot write the report: refused\n"


def test_verify_ok(tmp_path, capsys):
    job = {"field": {"p": 2, "k": 1}, "module": {"coefficients": ["t", "1"]},
           "seed": 0, "counts": 30}
    code, out, _ = run(capsys, ["verify", job_file(tmp_path, job)])
    assert code == 0
    assert "sum-formula" in out and "FAIL" not in out


def test_verify_zero_cases(tmp_path, capsys):
    job = dict(PSI2, counts=0)
    code, out, _ = run(capsys, ["verify", job_file(tmp_path, job)])
    assert code == 0 and "0 cases run" in out


def test_verify_injected_bug_exit_1(tmp_path, capsys, monkeypatch):
    plant_mv_bug(monkeypatch)
    job = dict(PSI2, seed=0, counts=30)
    code, out, _ = run(capsys, ["verify", job_file(tmp_path, job)])
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_reports_are_deterministic(tmp_path, capsys):
    job = dict(CAR3, point="(t^2+1)/t", seed=3)
    path = job_file(tmp_path, job)
    code1, out1, _ = run(capsys, ["height", path, "--json"])
    code2, out2, _ = run(capsys, ["height", path, "--json"])
    assert code1 == code2 == 0 and out1 == out2


@pytest.mark.parametrize("value", [
    {"a": 1, "b": [1, 2, (3, 4)], "c": {"z": None, "y": True}, "d": False},
    ["\u00e9t\u00e9", "\u2203x", "quote \" backslash \\ slash /",
     "\x00\x1f\t\n\r\x7f", "\U0001d53d_q(t)"],
    {"empty list": [], "empty dict": {}, "empty tuple": (),
     "nested": [[[]], [{}], {"k": [{"j": ()}]}]},
    [0, -1, 10**40, -(3**200), 1.5, -0.0, 1e300, float("inf")],
    "1/3", None, True, 7, (), [], {},
    {"\u00e9": 1, "Z": 2, "a": 3, "": 4, " ": 5},
])
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), 1j,
                                   [{"ok": [frozenset()]}]])
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json(value)


@pytest.mark.parametrize("command, job, flags", [
    ("reduction", RANK2_BAD, []),
    ("height", dict(CAR3, point="(t^2+1)/t",
                    substitution={"u_image_of_t": "u^2"}), []),
    ("height", dict(CAR3, point="u"), ["--insep-level", "1"]),
    ("local-height", LOCAL_AT_LEVEL, ["--insep-level", "1"]),
    ("torsion", PSI2, []),
    ("kernel", dict(PSI2, b="t^2+t"), []),
    ("lehmer", CAR3, []),
    ("insep-height", dict(CAR3, point="1/(u+1)"), []),
    ("dichotomy", dict(PSI2, point="t"), []),
    ("verify", dict(PSI2, seed=0, counts=5), []),
])
def test_json_report_is_json_dumps_indent_2(command, job, flags, tmp_path,
                                            capsys):
    code, out, _ = run(capsys, [command, job_file(tmp_path, job), "--json"]
                       + flags)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_stdin_job(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps(dict(CAR3, point="t"))))
    code, out, _ = run(capsys, ["height", "-"])
    assert code == 0 and "global height = 1" in out


def test_flat_job_schema(tmp_path, capsys):
    # the module-description form {"p":3,"k":1,"coefficients":[...]} works too
    job = {"p": 3, "k": 1, "coefficients": ["t", "0", "1"], "point": "1"}
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 0


def test_old_n_max_key_is_ignored(tmp_path, capsys):
    # perfbench's bounded Carlitz q=2 job still carries "n_max": 12; the key
    # is ignored and 1/(t+1) lies in the stable ball v_inf >= -1 at step 0
    job = dict(PSI2, point="1/(t+1)", place={"kind": "infinity"}, n_max=12)
    code, out, _ = run(capsys, ["local-height", job_file(tmp_path, job),
                                "--json"])
    assert code == 0
    assert json.loads(out)["height"] == {
        "value": "0", "certificate": "GoodReductionIntegral", "step": 0}


def test_torsion_report_does_not_build_b_lcm(tmp_path, capsys):
    # D = r N |S| = 2 * 2 * 4 = 16, so b_lcm would have degree
    # 3 + 9 + ... + 3^16; the pole lattice has dimension 1, so m = 1
    job = {"field": {"p": 3},
           "module": {"coefficients": ["t", "1/(t*(t+1)*(t+2))", "1"]}}
    start = time.perf_counter()
    code, out, _ = run(capsys, ["torsion", job_file(tmp_path, job), "--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    data = json.loads(out)
    assert "b_lcm" not in data
    assert (data["D"], data["m"], data["B"]) == (16, 1, "t^3+2*t")
    assert data["torsion"] == [{"point": "0", "annihilator": "1"}]


# torsion jobs whose cost grows with deg b or deg B, and not with the
# answer, if a kernel factors b (or B) and applies phi_c to the lattice
# basis for each prime power c: each must finish in seconds
SLOW_TORSION_JOBS = [
    ("torsion", {"field": {"p": 2},
                 "module": {"coefficients": ["t", "1/t^20", "1"]}},
     {"m": 8, "torsion": [{"point": "0", "annihilator": "1"}]}),
    ("torsion", {"field": {"p": 2},
                 "module": {"coefficients": ["t+1/t^40", "1"]}},
     {"m": 4, "torsion": [
         {"point": "0", "annihilator": "1"},
         {"point": "1", "annihilator": "t^2+t"},
         {"point": "(t^41+1)/t^40", "annihilator": "t"},
         {"point": "(t^41+t^40+1)/t^40", "annihilator": "t+1"}]}),
    ("kernel", dict(PSI2, b="t^600+t^2+t"), {"kernel": ["0", "t"]}),
    # m = 9 over F_9: deg B = 9 + 81 + ... + 9^9 = 435848049, not expanded
    ("torsion", {"field": {"p": 3, "k": 2},
                 "module": {"coefficients": ["t", "1/(t*(t+1))^300", "1"]}},
     {"m": 9, "B": None, "torsion": [{"point": "0", "annihilator": "1"}]}),
]


@pytest.mark.parametrize("command, job, expect", SLOW_TORSION_JOBS,
                         ids=["n11", "enumerate", "kernel-deg-600",
                              "B-past-cap"])
def test_torsion_jobs_finish_in_seconds(command, job, expect):
    # a fresh interpreter, so nothing is kept from other tests, and a
    # timeout, so a slow build fails instead of hanging
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "drinheights.cli", command, "-", "--json"],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        timeout=60)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert {key: data[key] for key in expect} == expect


@pytest.mark.parametrize("pole, m, degree", [(56, 10, 88572),
                                              (61, 11, None)])
def test_torsion_report_expands_B_within_the_cap(tmp_path, capsys, pole, m,
                                                 degree):
    # over F_3, deg B = 3 + 9 + ... + 3^m is 88572 at m = 10 and 265719,
    # past MAX_DEGREE, at m = 11
    job = job_file(tmp_path, {"field": {"p": 3}, "module": {
        "coefficients": ["t", "1/(t*(t+1)^%d)" % pole, "1"]}})
    code, out, _ = run(capsys, ["torsion", job])
    assert code == 0
    assert "m = min(D, n) = %d " % m in out
    if degree is None:
        assert ("B = prod_{k<=m} (t^(q^k) - t) (degree > MAX_DEGREE = "
                "100000, not expanded)\n") in out
    else:
        assert "= t^%d+" % degree in out
        assert "(degree %d)\n" % degree in out
    code, out, _ = run(capsys, ["torsion", job, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["m"] == m
    assert (data["B"] is None) == (degree is None)
    assert data["torsion"] == [{"point": "0", "annihilator": "1"}]


# S = {v[t], v[t+1], v_inf}: the perfect-closure floor is 1/3^14550, whose
# denominator has 6943 digits; the CI workflow also pipes it into the
# installed entry point
RANK10 = {"field": {"p": 3}, "module": {"coefficients": [
    "t", "1/t", "1/(t+1)", "0", "0", "0", "0", "0", "0", "0", "1"]}}


def test_floor_of_any_size_is_printed(tmp_path, capsys, monkeypatch):
    floor = "1/" + decimal_unlimited(3**14550)
    code, out, _ = run(capsys, ["lehmer", job_file(tmp_path, RANK10)])
    assert code == 0
    assert "perfect-closure floor = %s\n" % floor in out
    code, out, _ = run(capsys, ["lehmer", job_file(tmp_path, RANK10),
                                "--json"])
    assert code == 0 and json.loads(out)["lehper"] == floor
    job = dict(RANK10, point="1")
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["bounds"]["lehper"] == floor
    assert data["height"]["value"] == "1/19683"
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 0 and "global height = 1/19683\n" in out
    # the digit limit still holds for the input
    monkeypatch.setattr("sys.stdin", io.StringIO(DIGITS_JOB))
    code, _, err = run(capsys, ["lehmer", "-"])
    assert code == 2 and err.startswith("input error: cannot read job: ")


def test_height_high_power_carlitz(tmp_path, capsys):
    job = dict(CAR3, point="t^4000")
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["height"]["value"] == "4000"
    assert data["certificate"]["kind"] == "witness"
    assert data["certificate"]["place"] == "v[inf]"


def test_local_height_large_valuation(tmp_path, capsys):
    # v_{t+1} = 2000 walks ord_at through a large valuation
    job = dict(CAR3, point="(t+1)^2000/(t^2+1)",
               place={"kind": "finite", "P": "t+1"})
    code, out, _ = run(capsys, ["local-height", job_file(tmp_path, job),
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["height"]["value"] == "0"


@pytest.mark.parametrize("a0, b", [("0", "t"), ("1", "t+1")])
def test_torsion_with_constant_a0(a0, b, tmp_path, capsys):
    # t - a_0 divides the universal annihilator, whose phi is then
    # inseparable; the enumeration is not a kernel of a user's b
    job = {"field": {"p": 2, "k": 1},
           "module": {"coefficients": [a0, "1/t^2", "1"]}}
    code, out, _ = run(capsys, ["torsion", job_file(tmp_path, job), "--json"])
    assert code == 0
    assert json.loads(out)["torsion"] == [
        {"point": "0", "annihilator": "1"},
        {"point": "1/t", "annihilator": b}]


@pytest.mark.parametrize("a0, b", [("0", "t"), ("1", "t+1")])
def test_kernel_inseparable(a0, b, tmp_path, capsys):
    # b = t - a_0 has b(a_0) = 0, so phi_b is inseparable; its kernel in K
    # is computed like any other
    job = {"field": {"p": 2, "k": 1},
           "module": {"coefficients": [a0, "1/t^2", "1"]}, "b": b}
    code, out, _ = run(capsys, ["kernel", job_file(tmp_path, job), "--json"])
    assert code == 0
    assert json.loads(out) == {"b": b, "kernel": ["0", "1/t"]}


def test_height_factors_point_once(tmp_path, capsys, monkeypatch):
    from drinheights import drinfeld, places, ratfunc
    factored = []

    def counting_factor(f):
        factored.append(f)
        return ratfunc.factor(f)
    monkeypatch.setattr(places, "factor", counting_factor)
    monkeypatch.setattr(drinfeld, "factor", counting_factor)
    job = dict(CAR3, point="(t^2+1)^5/(t+1)^3")
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job), "--json"])
    assert code == 0
    assert json.loads(out)["certificate"]["kind"] == "witness"
    x = ratfunc.parse_ratfunc(cli.finite_field(3), "(t^2+1)^5/(t+1)^3")
    assert factored.count(x.num) == 0
    assert factored.count(x.den) == 1


def test_no_reduction_data_at_a_good_place(tmp_path, capsys, monkeypatch):
    # S = {v[t^2+1], v[inf]}; the poles v[t] and v[t+1] are good, so their
    # local heights are the closed form d(v) max(0, -v(x)) with no walk
    from drinheights.drinfeld import ReductionData
    built = set()
    real_init = ReductionData.__init__

    def spy(self, module, place):
        built.add(place.to_string())
        real_init(self, module, place)
    monkeypatch.setattr(ReductionData, "__init__", spy)
    job = dict(RANK2_BAD, point="(t^2+1)^2/(t^3*(t+1)^2)")
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job), "--json"])
    assert code == 0
    local = {e["place"]: e for e in json.loads(out)["local"]}
    assert list(local) == ["v[t]", "v[t+1]", "v[t^2+1]", "v[inf]"]
    assert local["v[t]"] == {"place": "v[t]", "value": "3",
                             "certificate": "Escaped", "step": 0}
    assert local["v[t+1]"] == {"place": "v[t+1]", "value": "2",
                               "certificate": "Escaped", "step": 0}
    job["place"] = {"kind": "finite", "P": "t+2"}
    code, out, _ = run(capsys, ["local-height", job_file(tmp_path, job),
                                "--json"])
    assert code == 0
    assert json.loads(out)["height"] == {
        "value": "0", "certificate": "GoodReductionIntegral", "step": 0}
    assert built == {"v[t^2+1]", "v[inf]"}


def test_height_json_stringifies_its_point_once(tmp_path, capsys,
                                                monkeypatch):
    # the point is printed once in the JSON report; the text lines that
    # repeat it per place are not built under --json
    from drinheights.ratfunc import RatFunc, parse_ratfunc
    x = parse_ratfunc(cli.finite_field(3), "(t^2+1)^5/(t+1)^3")
    expect = x.to_string()
    calls = []
    real = RatFunc.to_string

    def spy(self, var="t"):
        if self == x:
            calls.append(var)
        return real(self, var)
    monkeypatch.setattr(RatFunc, "to_string", spy)
    job = dict(CAR3, point="(t^2+1)^5/(t+1)^3")
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["point"] == expect
    assert len(report["local"]) == 2
    assert calls == ["t"]


@pytest.mark.parametrize("cmd, job, expect", [
    ("insep-height", dict(CAR3, point="u", insep_level=1),
     "global height = 4/9"),
    ("dichotomy", dict(PSI2, point="u^2", insep_level=1),
     "v = v[inf]: v(phi_b(x)) = +inf > T_v = 2"),
    ("dichotomy", dict(CAR3, point="u", insep_level=1), "branch 1"),
    ("height", dict(CAR3, point="u", insep_level=1), "lehper bound"),
    ("local-height", dict(LOCAL_AT_LEVEL, insep_level=1),
     "h_v[inf](1/u) = 2/9"),
    ("reduction", dict(RANK2_BAD, insep_level=1), "M_v = -1/2, T_v = 1"),
])
def test_height_over_extension_one_level_no_place_below(
        cmd, job, expect, tmp_path, capsys, monkeypatch):
    # coherent degrees are d(w) / [L:K], so no place below is searched (the
    # search lives on only as the oracle in test_places), and a job pushes
    # the module to its level once
    from drinheights.perfect import InsepLevel
    levels = []
    real_init = InsepLevel.__init__

    def counting_init(self, module, n):
        levels.append(n)
        real_init(self, module, n)
    monkeypatch.setattr(InsepLevel, "__init__", counting_init)
    code, out, _ = run(capsys, [cmd, job_file(tmp_path, job)])
    assert code == 0 and expect in out
    assert levels == [1]


@pytest.mark.parametrize("cmd, job", [
    ("height", dict(CAR3, point="t^2+1")),
    ("local-height", dict(CAR3, point="1/t", place={"kind": "infinity"})),
    ("reduction", RANK2_BAD),
    ("dichotomy", dict(CAR3, point="1")),
])
def test_level_zero_job_pushes_nothing(cmd, job, tmp_path, capsys,
                                       monkeypatch):
    # at level 0 the job's module is its level: no InsepLevel is built
    from drinheights import perfect
    levels = []
    real_init = perfect.InsepLevel.__init__

    def counting_init(self, module, n):
        levels.append(n)
        real_init(self, module, n)
    monkeypatch.setattr(perfect.InsepLevel, "__init__", counting_init)
    code, _, _ = run(capsys, [cmd, job_file(tmp_path, job)])
    assert code == 0
    assert levels == []


def test_local_height_at_level_matches_insep_height(tmp_path, capsys):
    # local-height reads the job's level: 2/9 at v[inf], not level 0's 1/9
    path = job_file(tmp_path, LOCAL_AT_LEVEL)
    code, out, _ = run(capsys, ["local-height", path, "--insep-level", "1"])
    assert code == 0
    assert out == "h_v[inf](1/u) = 2/9  [Escaped]\n"
    code, out, _ = run(capsys, ["insep-height", path, "--insep-level", "1",
                                "--json"])
    assert code == 0
    local = {e["place"]: e["value"] for e in json.loads(out)["local"]}
    assert local == {"v[u]": "1/3", "v[inf]": "2/9"}
    for name, place in (("v[u]", {"kind": "finite", "P": "u"}),
                        ("v[inf]", {"kind": "infinity"})):
        job = dict(LOCAL_AT_LEVEL, place=place)
        code, out, _ = run(capsys, ["local-height", job_file(tmp_path, job),
                                    "--insep-level", "1", "--json"])
        data = json.loads(out)
        assert code == 0 and data["place"] == name
        assert data["height"]["value"] == local[name]


def test_reduction_at_level_is_the_pushed_module(tmp_path, capsys):
    # level 0 has M = -1/6, T = 1/3 at v[t^2+1] and -1/8, 1 at v[inf]
    from drinheights.perfect import InsepLevel
    code, out, _ = run(capsys, ["reduction", job_file(tmp_path, RANK2_BAD),
                                "--insep-level", "1", "--json"])
    assert code == 0
    places = {e["place"]: (e["M"], e["T"]) for e in json.loads(out)["places"]}
    assert places == {"v[u^2+1]": ("-1/2", "1"), "v[inf]": ("-3/8", "3")}
    F3 = cli.finite_field(3)
    pushed = InsepLevel(make_module(F3, "t", "1/(t^2+1)", "1"), 1)
    for w in pushed.bad_reduction_set():
        rd = pushed.reduction_data(w)
        assert places[w.to_string("u")] == (str(rd.M), str(rd.T))


def test_height_substitution(tmp_path, capsys):
    job = dict(CAR3, point="t", substitution={"u_image_of_t": "u^2"})
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 0 and "height via t -> u^2: 1  (agrees)" in out
    code, out, _ = run(capsys, ["height", job_file(tmp_path, job), "--json"])
    assert code == 0
    assert json.loads(out)["embedding_height"]["value"] == "1"


VERIFY_GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_f3_counts100_seed0.json"


def test_verify_report_matches_golden(capsys, monkeypatch):
    # `verify - --counts 100 --seed 0 --json` on F_3 must stay byte for byte
    # the recorded report; a change that alters an answer on purpose
    # re-records the file and says why in CHANGES.md
    monkeypatch.setattr("sys.stdin", io.StringIO('{"field":{"p":3,"k":1}}'))
    code, out, _ = run(capsys, ["verify", "-", "--counts", "100", "--seed", "0",
                                "--json"])
    assert code == 0
    assert out.encode() == VERIFY_GOLDEN.read_bytes()


F3_JOB = '{"field":{"p":3,"k":1}}'


def _verify(capsys, monkeypatch, *flags):
    monkeypatch.setattr("sys.stdin", io.StringIO(F3_JOB))
    return run(capsys, ["verify", "-", "--counts", "5", *flags])


@pytest.mark.parametrize("error", [RuntimeError, InputError,
                                   ZeroDivisionError])
def test_verify_check_that_raises_exits_4(error, capsys, monkeypatch):
    # an exception inside a check other than its CheckFailure is an
    # internal error naming the check, whatever its type: an InputError
    # there is no input error of the job
    from drinheights import verify
    planted = error("planted")

    def raising(rng, count, modules):
        raise planted
    checks = list(verify.CHECKS)
    name, _, cases = checks[3]
    checks[3] = (name, raising, cases)
    monkeypatch.setattr(verify, "CHECKS", checks)
    message = "check %s raised %r" % (name, planted)
    code, out, err = _verify(capsys, monkeypatch)
    assert (code, out, err) == (4, "", "internal error: %s\n" % message)
    code, out, err = _verify(capsys, monkeypatch, "--json")
    assert (code, err) == (4, "internal error: %s\n" % message)
    assert json.loads(out) == {"error": "internal", "message": message}


def test_verify_extension_defect_is_a_fail_row(capsys, monkeypatch):
    # extend_places signals sum e f != [L:K] by AssertionError; the
    # extension-defect check reports it as its own counterexample, naming
    # the place and the image
    from drinheights import verify

    def defect(emb, v):
        raise AssertionError("defect: sum(e*f) = 1 != [L:K] = 2")
    monkeypatch.setattr(verify, "extend_places", defect)
    code, out, err = _verify(capsys, monkeypatch, "--json")
    assert code == 1 and err == ""
    rows = json.loads(out)["checks"]
    failed = {row["name"]: row["counterexample"] for row in rows
              if row["status"] == "FAIL"}
    assert list(failed) == ["extension-defect"]
    msg = failed["extension-defect"]
    assert msg.startswith("extension defect at v[")
    assert msg.endswith("] along Embedding(t -> u^2): "
                        "defect: sum(e*f) = 1 != [L:K] = 2")


def test_verify_reduction_data_lemma_fault_exits_4(capsys, monkeypatch):
    # ReductionData checks its own lemmas; a violated one is an internal
    # error of the reduction-data row, not a FAIL row
    from drinheights import drinfeld

    def fault(self, sets):
        raise RuntimeError("|P_v| exceeds N_phi")
    monkeypatch.setattr(drinfeld.ReductionData, "_check", fault)
    code, out, err = _verify(capsys, monkeypatch)
    assert (code, out) == (4, "")
    assert err == ("internal error: check reduction-data raised "
                   "RuntimeError('|P_v| exceeds N_phi')\n")
