"""Self-test of the benchmark: the answer checker, the generator's closed
forms, the scaling of latencies by the speed probe, and the repeatability
of traced counts.

    python3 perfbench/selftest.py

Uses only the standard library (unittest).  The checker tests plant wrong
answers and require each to be counted as failed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import jobs  # noqa: E402


def height_answer(value=None, lo=None, hi=None):
    if value is not None:
        return {"value": value, "certificate": "Escaped", "step": 0}
    return {"lo": lo, "hi": hi, "certificate": "IterationBudgetExhausted",
            "step": 12}


class CheckerTest(unittest.TestCase):
    """Each planted wrong answer must be counted as failed."""

    def local_job(self, value):
        ref = {"kind": "local", "place": ("inf",), "height": value}
        return ref

    def test_exact_value(self):
        ref = self.local_job("3/2")
        ok = {"place": "v[inf]", "height": height_answer("3/2")}
        self.assertTrue(check.check(ref, ok)[0])
        off_by_one = {"place": "v[inf]", "height": height_answer("5/2")}
        self.assertFalse(check.check(ref, off_by_one)[0])

    def test_interval(self):
        ref = self.local_job("0")
        inside = {"place": "v[inf]", "height": height_answer(lo="0", hi="1/4096")}
        result = check.check(ref, inside)
        self.assertTrue(result[0])
        self.assertEqual(result[2:], (1, 0))   # a height answer, not exact
        excludes = {"place": "v[inf]",
                    "height": height_answer(lo="1/8192", hi="1/4096")}
        self.assertFalse(check.check(ref, excludes)[0])
        # an interval that later turns exact at the reference still passes
        exact = {"place": "v[inf]", "height": height_answer("0")}
        self.assertEqual(check.check(ref, exact)[2:], (1, 1))

    def test_wrong_place(self):
        ref = self.local_job("1")
        self.assertFalse(check.check(
            ref, {"place": "v[t]", "height": height_answer("1")})[0])

    def test_torsion_set(self):
        ref = {"kind": "torsion", "points": jobs.CARLITZ2_TORSION}
        full = {"torsion": [{"point": "0", "annihilator": "1"},
                            {"point": "1", "annihilator": "t^2+t"},
                            {"point": "t", "annihilator": "t"},
                            {"point": "t+1", "annihilator": "t+1"}]}
        self.assertTrue(check.check(ref, full)[0])
        missing = {"torsion": full["torsion"][:3]}
        self.assertFalse(check.check(ref, missing)[0])
        wrong_ann = json.loads(json.dumps(full))
        wrong_ann["torsion"][1]["annihilator"] = "t"
        self.assertFalse(check.check(ref, wrong_ann)[0])

    def test_kernel_extra_point(self):
        ref = {"kind": "kernel", "points": [(), (0, 1)]}
        self.assertTrue(check.check(ref, {"kernel": ["0", "t"]})[0])
        self.assertFalse(check.check(ref, {"kernel": ["0", "t", "1"]})[0])

    def test_annihilator_bound(self):
        # b_lcm for q = 2, D = 2 is t^6+t^5+t^3+t^2 (the README example)
        self.assertEqual(check.lcm_reference(2, 2, 2), (0, 0, 1, 1, 0, 1, 1))
        ref = {"kind": "annihilator_bound", "q": 2, "p": 2, "D": 2}
        good = {"constants_only": False, "D": 2, "b_lcm": [0, 0, 1, 1, 0, 1, 1]}
        self.assertTrue(check.check(ref, good)[0])
        bad = dict(good, b_lcm=[0, 0, 1, 0, 0, 1, 1])
        self.assertFalse(check.check(ref, bad)[0])
        self.assertFalse(check.check(ref, dict(good, D=3))[0])

    def test_global_height_sum(self):
        ref = {"kind": "height", "height": "1",
               "local": {(1, 1): "1", ("inf",): "0"}}
        ans = {"height": height_answer(lo="1", hi="16385/16384"),
               "local": [{"place": "v[t+1]", **height_answer("1")},
                         {"place": "v[inf]",
                          **height_answer(lo="0", hi="1/16384")}]}
        self.assertTrue(check.check(ref, ans)[0])
        ans["local"][0]["value"] = "2"
        self.assertFalse(check.check(ref, ans)[0])

    def test_malformed_answer_fails(self):
        self.assertFalse(check.check(self.local_job("1"), {})[0])


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_jobs(self):
        for w in jobs.WORKLOADS:
            a = [j["payload"] for j in jobs.generate(w, 7, 0.2)]
            b = [j["payload"] for j in jobs.generate(w, 7, 0.2)]
            c = [j["payload"] for j in jobs.generate(w, 8, 0.2)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def test_irreducible_catalogue(self):
        from drinheights import Poly, finite_field, is_irreducible
        for q, by_degree in jobs.IRREDUCIBLE.items():
            field = finite_field(*jobs.FIELDS[q])
            for d, polys in by_degree.items():
                for P in polys:
                    self.assertEqual(len(P) - 1, d)
                    self.assertTrue(is_irreducible(Poly(field, list(P))),
                                    (q, P))

    def test_every_reduction_job_is_recorded(self):
        refs = jobs.load_reduction_refs()
        for q in (2, 3, 5, 4, 9):
            for mod in jobs.reduction_modules(q):
                self.assertIn(jobs.job_key(jobs.reduction_job(mod)), refs)

    def test_psi_torsion_closed_form(self):
        """The psi(g) torsion sets the generator relies on, for every g."""
        from drinheights import (DrinfeldModule, finite_field, parse_ratfunc,
                                 torsion_enumerate)
        for q, degrees in ((3, (1, 2)), (5, (1, 2)), (7, (1,))):
            field = finite_field(q)
            for d in degrees:
                for g in jobs._monic_polys(q, d):
                    payload = jobs.psi_module(q, g)
                    mod = DrinfeldModule(field, [
                        parse_ratfunc(field, c)
                        for c in payload["module"]["coefficients"]])
                    got = {check.parse_poly(str(x))
                           for x in torsion_enumerate(mod)}
                    want = {jobs.strip(jobs.scaled(g, c, q)) for c in range(q)}
                    self.assertEqual(got, want, (q, g))


class ScalingTest(unittest.TestCase):
    """A slow stretch that slows the speed probe and the jobs alike cancels."""

    def test_slow_stretch_cancels(self):
        import probe
        import run
        n, slow = 200, 100
        res = {"jobs": [{"lat": 0.01 * (2 if i >= slow else 1),
                         "probe": 1e-4 * (2 if i >= slow else 1)}
                        for i in range(n)],
               "last_probe": 2e-4}
        run.scale_latencies(res)
        for i, job in enumerate(res["jobs"]):
            self.assertEqual(job["lat_raw"], 0.01 * (2 if i >= slow else 1))
            if abs(i - slow) > run.PROBE_WINDOW + 1:
                self.assertAlmostEqual(job["lat"], 100 * probe.REF_PROBE_S)


def run_bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), capture_output=True, text=True,
                          timeout=600, cwd=ROOT)


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def reported_metrics(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


class EndToEndTest(unittest.TestCase):
    """Short runs of every workload: all answers correct, every declared
    metric reported with its unit, counts repeat."""

    def test_short_runs_are_correct(self):
        for w in jobs.WORKLOADS:
            proc = run_bench("--workload", w, "--seed", "5", "--seconds", "6")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], proc.stdout)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(reported_metrics(result),
                             declared_metrics("end_to_end"))

    def test_traced_run_reports_every_layer_metric(self):
        proc = run_bench("--workload", "heights", "--seed", "5", "--seconds",
                         "6", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("tracing overhead", proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(reported_metrics(result), declared_metrics("per_layer"))

    def test_traced_counts_repeat(self):
        for w in jobs.WORKLOADS:
            proc = run_bench("--workload", w, "--seed", "5", "--seconds", "6",
                             "--check-counts")
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
