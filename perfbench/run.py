"""drinheights benchmark: seeded workloads, checked answers, layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload heights --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each exists): heights, torsion,
small-jobs.  A run generates one job list from --seed and runs it PASSES
times, each pass in a fresh interpreter with src/ on the path: a closed
loop, one client, one job at a time, every answer checked against a
reference the library does not compute (check.py).  --seconds sets the
length of the list: on the seed commit the passes together take about that
long.  Each job's latency is scaled to a reference speed by the speed probes
run next to it (probe.py), and each job is timed at its median over the
passes, so neither a slow run nor a slow stretch of a shared machine decides
the result.  The unscaled figures are printed and kept in the result file.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass, prints the tracing overhead and the per-layer metrics.
--check-counts runs two traced passes and exits 1 unless every count
repeats exactly.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  A result file with an environment
record goes to perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import jobs as jobgen  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402

PASSES = 5
SETUP_PROBES = 15
# the child times its import, then probes its speed (probe.py)
SETUP_CODE = ("import drinheights.cli, time; t = time.monotonic(); "
              "import sys; sys.path.insert(0, %r); import probe; "
              "print(repr(t), repr(probe.median_probe(5)))" % HERE)
# a job's speed reference: the probes of this many jobs on either side
PROBE_WINDOW = 25
PASS_DEADLINE = 30.0     # per pass: 5 passes plus set-up stay below 180 s
TRACE_DEADLINE = 70.0    # per pass when tracing (two passes)
KILL_MARGIN = 10.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"   # set iteration order repeats across runs
    return env


def measure_setup():
    """Median time from spawning an interpreter to `import drinheights.cli`
    done, as the pair (scaled to the reference speed, as measured)."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              capture_output=True, text=True, timeout=60,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError("import drinheights.cli failed:\n" + proc.stderr)
        t_done, speed = map(float, proc.stdout.split())
        raw.append(t_done - t0)
        scaled.append(raw[-1] * probe.REF_PROBE_S / speed)
    return statistics.median(scaled), statistics.median(raw)


def scale_latencies(result):
    """Keep each measured latency as lat_raw and scale lat to the reference
    speed by the median probe of the jobs around it, the probes just before
    and just after it included."""
    probes = [j["probe"] for j in result["jobs"]] + [result["last_probe"]]
    for i, job in enumerate(result["jobs"]):
        near = [p for p in probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 2]
                if p is not None]
        job["lat_raw"] = job["lat"]
        job["lat"] *= probe.REF_PROBE_S / statistics.median(near)


def run_pass(args, deadline, trace_prefix=None):
    """One pass of the job list in a fresh interpreter."""
    factor = args.seconds / (PASSES * jobgen.PASS_SECONDS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--factor", repr(factor), "--deadline", str(deadline)]
    if trace_prefix:
        cmd += ["--trace", trace_prefix]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=deadline + KILL_MARGIN,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process did not finish in time")
    if proc.returncode != 0:
        raise BenchError("workload process failed:\n" + proc.stderr[-3000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for job in result["jobs"]:
        if job["lat"] is None:    # never started: waited at least this long
            job["lat"] = deadline
    scale_latencies(result)
    return result


def tail(lats):
    """(value, percentile) at the highest rank with >= 10 values above it."""
    lats = sorted(lats)
    i = max(0, len(lats) - 11)
    return lats[i], 100.0 * (i + 1) / len(lats)


def job_latencies(passes, key="lat"):
    """Each job's median latency over the passes."""
    by_id = {}
    for res in passes:
        for j in res["jobs"]:
            by_id.setdefault(j["id"], []).append(j[key])
    return [statistics.median(v) for v in by_id.values()]


def end_to_end(passes, setup_s, key="lat"):
    """A slow stretch of the machine hits different jobs in different
    passes, so each job's median over the passes filters it out; the list's
    wall time is taken as the sum of those medians."""
    lats = job_latencies(passes, key)
    executions = [j for res in passes for j in res["jobs"]]
    heights = sum(j["heights"] for j in executions)
    correct = sum(j["ok"] for j in executions) / len(passes)
    return {
        "jobs_per_s": (correct / sum(lats), "1/s"),
        "job_p50_s": (statistics.median(lats), "s"),
        "job_tail_s": (tail(lats)[0], "s"),
        "exact_share": (sum(j["exact"] for j in executions) / heights
                        if heights else 0.0, "ratio"),
        "correct_share": (sum(j["ok"] for j in executions) / len(executions),
                          "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes),
                        "MB"),
        "setup_s": (setup_s, "s"),
    }


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """Digest of the library sources, which names the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "drinheights")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(args, backend):
    return {"python": platform.python_version(), "backend": backend,
            "nproc": os.cpu_count(), "seed": args.seed, "commit": commit(),
            "source_sha256": source_digest(), "machine": platform.machine(),
            "ref_probe_s": probe.REF_PROBE_S}


def summarize(passes):
    """Print latency by job class and the first failures; return failures."""
    by_cls = {}
    for j in passes[0]["jobs"]:
        by_cls.setdefault(j["cls"], []).append(j["lat"])
    for cls, lats in sorted(by_cls.items()):
        print("  %-18s %4d jobs  total %7.3f s  median %.4f s  max %.4f s"
              % (cls, len(lats), sum(lats), statistics.median(lats), max(lats)))
    failures = [j for res in passes for j in res["jobs"] if not j["ok"]]
    for j in failures[:10]:
        print("  FAILED %s (%s %s): %s" % (j["id"], j["cls"], j["cmd"], j["msg"]))
    return len(failures)


def write_result(args, body):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
    print("result file: %s" % os.path.relpath(path, ROOT))


def spans_prefix(args):
    os.makedirs(RESULTS, exist_ok=True)
    return os.path.join(RESULTS, "spans-%s-seed%d" % (args.workload, args.seed))


def check_counts(args):
    first = run_pass(args, TRACE_DEADLINE, spans_prefix(args))["layers"]
    second = run_pass(args, TRACE_DEADLINE, spans_prefix(args))["layers"]
    counts = [k for k in first if k.rsplit(".", 1)[1] in tracing.COUNTS]
    differ = [k for k in counts if first[k] != second[k]]
    for k in differ:
        print("count differs: %s %s vs %s" % (k, first[k], second[k]))
    print("%d of %d counts repeat exactly across two traced runs"
          % (len(counts) - len(differ), len(counts)))
    return 1 if differ else 0


def traced_run(args):
    plain = run_pass(args, TRACE_DEADLINE)
    res = run_pass(args, TRACE_DEADLINE, spans_prefix(args))
    overhead = res["wall_s"] - plain["wall_s"]
    print("tracing overhead: %.3f s = traced %.3f s - untraced %.3f s; "
          "%d spans kept, %d dropped" % (overhead, res["wall_s"],
                                         plain["wall_s"], res["spans"],
                                         res["spans_dropped"]))
    metrics = {k: (v, tracing.unit_of(k)) for k, v in res["layers"].items()}
    extra = {"tracing_overhead_s": overhead, "untraced_wall_s": plain["wall_s"],
             "traced_wall_s": res["wall_s"]}
    return [plain, res], metrics, extra


def untraced_run(args):
    setup_s, setup_raw = measure_setup()
    passes = [run_pass(args, PASS_DEADLINE) for _ in range(PASSES)]
    metrics = end_to_end(passes, setup_s)
    raw = end_to_end(passes, setup_raw, key="lat_raw")
    _, pct = tail(job_latencies(passes))
    n = len(passes[0]["jobs"])
    print("%d jobs x %d passes; job_tail_s is the p%.1f latency of %d "
          "per-job medians" % (n, PASSES, pct, n))
    print("times are scaled to the reference speed (probe.py); as measured:")
    for name in ("jobs_per_s", "job_p50_s", "job_tail_s", "setup_s"):
        print("  %-43s %14.6g %s" % (name, raw[name][0], raw[name][1]))
    extra = {"tail_percentile": pct, "passes": PASSES,
             "pass_wall_s": [r["wall_s"] for r in passes],
             "raw_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in raw.items()},
             "job_latencies_s": {j["id"]: [r["jobs"][i]["lat"] for r in passes]
                                 for i, j in enumerate(passes[0]["jobs"])},
             "job_probes_s": {j["id"]: [r["jobs"][i]["probe"] for r in passes]
                              for i, j in enumerate(passes[0]["jobs"])}}
    return passes, metrics, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobgen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-counts", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "drinheights", "__init__.py")):
        print("error: no drinheights sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        if args.check_counts:
            return check_counts(args)
        passes, metrics, extra = (traced_run if args.trace else untraced_run)(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    failed = summarize(passes)
    for name, (value, unit) in metrics.items():
        print("%-45s %14.6g %s" % (name, value, unit))
    attempted = sum(len(r["jobs"]) for r in passes)
    body = {"workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "env": environment(args, passes[0]["backend"]),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    body.update(extra)
    write_result(args, body)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": body["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
