"""One workload pass in a fresh interpreter: closed loop, one job at a time.

Started by run.py with the repository's src/ on PYTHONPATH.  Prints one JSON
line: per-job latencies, speed probes (probe.py) and verdicts, wall time
of the job list, peak RSS, and with --trace the per-layer metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import jobs as jobgen  # noqa: E402
import probe  # noqa: E402


MEMORY_LIMIT = 2 << 30
JOB_LIMIT = 60.0   # seconds; a job over it fails


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def _module(api, payload):
    field_desc = payload["field"]
    field = api.finite_field(field_desc["p"], field_desc.get("k", 1))
    coeffs = [api.parse_ratfunc(field, c)
              for c in payload["module"]["coefficients"]]
    return field, api.DrinfeldModule(field, coeffs)


def lib_annihilator_bound(api, payload):
    _, mod = _module(api, payload)
    bound = api.torsion.annihilator_bound(mod)
    return {"constants_only": bound.constants_only, "D": bound.D,
            "b_lcm": None if bound.b_lcm is None else list(bound.b_lcm.coeffs)}


def lib_is_torsion(api, payload):
    field, mod = _module(api, payload)
    x = api.parse_ratfunc(field, payload["point"])
    cert = api.torsion.is_torsion(mod, x)
    out = {"torsion": cert.torsion,
           "annihilator": (list(cert.annihilator.coeffs)
                           if cert.annihilator is not None else None)}
    w = cert.witness
    if w is not None:
        out["witness"] = {"kind": w.kind,
                          "place": w.place.to_string() if w.place else None,
                          "local": str(w.local)}
    return out


LIBRARY_CALLS = {"annihilator_bound": lib_annihilator_bound,
                 "is_torsion": lib_is_torsion}


def run_cli(api, cmd, payload):
    sys.stdin = io.StringIO(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main([cmd, "-", "--json"])
    finally:
        sys.stdin = sys.__stdin__
    if code != 0:
        raise RuntimeError("exit %s: %s" % (code, err.getvalue().strip()[-300:]))
    return json.loads(out.getvalue())


class Api:
    """The library entry points the jobs call, looked up once at start."""

    def __init__(self):
        import drinheights
        import drinheights.cli
        import drinheights.torsion
        self.cli = drinheights.cli
        self.torsion = drinheights.torsion
        self.finite_field = drinheights.finite_field
        self.parse_ratfunc = drinheights.parse_ratfunc
        self.DrinfeldModule = drinheights.DrinfeldModule
        self.backend = drinheights.backend_name()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(jobgen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--factor", type=float, default=1.0,
                    help="scale of the job list (1: one pass of about "
                         "jobs.PASS_SECONDS on the seed commit)")
    ap.add_argument("--trace", default=None,
                    help="record spans and write them to this path prefix")
    ap.add_argument("--deadline", type=float, required=True,
                    help="jobs not finished this many seconds after the "
                         "first one starts count as failed")
    args = ap.parse_args()

    # a runaway job fails with MemoryError instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    api = Api()
    job_list = jobgen.generate(args.workload, args.seed, args.factor)
    refs = jobgen.load_reduction_refs()
    for job in job_list:
        if job["ref"]["kind"] == "reduction":
            job["ref"]["digest"] = refs[jobgen.job_key(job)]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _alarm)
    results = []
    t_begin = time.perf_counter()
    for job in job_list:
        remaining = args.deadline - (time.perf_counter() - t_begin)
        if remaining <= 0:
            results.append({"id": job["id"], "cls": job["cls"],
                            "cmd": job["cmd"], "lat": None, "probe": None,
                            "ok": False,
                            "msg": "not started: run deadline passed",
                            "heights": 0, "exact": 0})
            continue
        speed = probe.probe()
        signal.setitimer(signal.ITIMER_REAL, min(JOB_LIMIT, remaining))
        t0 = time.perf_counter()
        try:
            if job["cmd"] in LIBRARY_CALLS:
                answer = LIBRARY_CALLS[job["cmd"]](api, job["payload"])
            else:
                answer = run_cli(api, job["cmd"], job["payload"])
            lat = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            ok, msg, n_h, n_x = check.check(job["ref"], answer)
        except JobTimeout:
            lat = time.perf_counter() - t0
            ok, msg, n_h, n_x = False, "over the time limit", 0, 0
        except Exception as exc:  # a crashing job is a failed job
            signal.setitimer(signal.ITIMER_REAL, 0)
            lat = time.perf_counter() - t0
            ok, msg, n_h, n_x = False, "%s: %s" % (type(exc).__name__, exc), 0, 0
        results.append({"id": job["id"], "cls": job["cls"], "cmd": job["cmd"],
                        "lat": lat, "probe": speed, "ok": ok, "msg": msg,
                        "heights": n_h, "exact": n_x})
    wall = time.perf_counter() - t_begin
    signal.setitimer(signal.ITIMER_REAL, 0)
    last_probe = probe.probe()

    out = {"backend": api.backend, "wall_s": wall, "last_probe": last_probe,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "jobs": results}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
        out["layers"] = tracer.values
        out["spans"] = len(tracer.span_start)
        out["spans_dropped"] = tracer.dropped
    print(json.dumps(out))


if __name__ == "__main__":
    main()
