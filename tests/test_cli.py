import io
import json
import pathlib

import pytest

from drinheights import cli
from drinheights.errors import BudgetExhaustedError


def run(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def job_file(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


PSI2 = {"field": {"p": 2, "k": 1}, "module": {"coefficients": ["t", "1"]}}
CAR3 = {"field": {"p": 3, "k": 1}, "module": {"coefficients": ["t", "1"]}}


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
    ("height", dict(CAR3, point="1", n_max=[2]), []),
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
])
def test_malformed_job_exit_2(tmp_path, capsys, command, job, flags):
    code, out, err = run(capsys, [command, job_file(tmp_path, job)] + flags)
    assert code == 2
    assert err.startswith("input error: ") and out == ""


def test_flags_do_not_carry_over_between_calls(tmp_path, capsys):
    # the parser is built once; each call must see only its own flags
    job = dict(PSI2, point="t/(t+1)", place={"kind": "infinity"})
    path = job_file(tmp_path, job)
    plain = run(capsys, ["local-height", path])
    code, out, _ = run(capsys, ["local-height", path, "--n-max", "5",
                                "--json"])
    assert code == 0
    assert json.loads(out)["height"]["hi"] == "1/32"
    assert run(capsys, ["local-height", path]) == plain
    assert plain[0] == 0 and "1/32" not in plain[1]


def test_budget_exhaustion_exit_3(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise BudgetExhaustedError("no certificate in budget")
    monkeypatch.setattr(cli, "check_t2mwg", boom)
    job = dict(CAR3, point="1")
    code, _, err = run(capsys, ["height", job_file(tmp_path, job)])
    assert code == 3 and "budget exhausted" in err


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


def test_verify_injected_bug_exit_1(tmp_path, capsys):
    job = dict(PSI2, seed=0, counts=30)
    code, out, _ = run(capsys, ["verify", job_file(tmp_path, job),
                                "--inject-mv-bug"])
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_reports_are_deterministic(tmp_path, capsys):
    job = dict(CAR3, point="(t^2+1)/t", seed=3)
    path = job_file(tmp_path, job)
    code1, out1, _ = run(capsys, ["height", path, "--json"])
    code2, out2, _ = run(capsys, ["height", path, "--json"])
    assert code1 == code2 == 0 and out1 == out2


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


def test_n_max_flag(tmp_path, capsys):
    job = dict(PSI2, point="t/(t+1)", place={"kind": "infinity"})
    code, out, _ = run(capsys, ["local-height", job_file(tmp_path, job),
                                "--n-max", "5"])
    assert code == 0
    assert "[0, 1/32]" in out  # interval bound q^(-r n_max) with n_max = 5


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


@pytest.mark.parametrize("cmd, job, expect", [
    ("insep-height", dict(CAR3, point="u", insep_level=1),
     "global height = 4/9"),
    ("dichotomy", dict(PSI2, point="u^2", insep_level=1),
     "v = v[inf]: v(phi_b(x)) = +inf > T_v = 2"),
    ("dichotomy", dict(CAR3, point="u", insep_level=1), "branch 1"),
    ("height", dict(CAR3, point="u", insep_level=1), "lehper bound"),
])
def test_height_over_extension_one_level_no_place_below(
        cmd, job, expect, tmp_path, capsys, monkeypatch):
    # coherent degrees are d(w) / [L:K]: no place below is searched, and a
    # job pushes the module to its level once
    from drinheights import places
    from drinheights.perfect import InsepLevel
    below, levels = [], []
    real_below, real_init = places.place_below, InsepLevel.__init__

    def counting_below(emb, w):
        below.append(w)
        return real_below(emb, w)

    def counting_init(self, module, n):
        levels.append(n)
        real_init(self, module, n)
    monkeypatch.setattr(places, "place_below", counting_below)
    monkeypatch.setattr(InsepLevel, "__init__", counting_init)
    code, out, _ = run(capsys, [cmd, job_file(tmp_path, job)])
    assert code == 0 and expect in out
    assert below == [] and levels == [1]


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
