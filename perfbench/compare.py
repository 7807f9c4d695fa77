"""Compare two sets of result files (perfbench/results/*.json).

    python3 perfbench/compare.py --base a/*.json --head b/*.json

For each workload and metric it prints both sides' median and quartiles and
the change of the head median against the base median.  An end-to-end
metric that got worse by more than its bound in BENCHMARK.json is marked
WORSE.  Files whose kernel backend differs are refused: a compiled and a
pure-Python kernel are different programs, not a regression.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    out = []
    for p in paths:
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args()
    base, head = load(args.base), load(args.head)

    backends = {r["env"]["backend"] for r in base + head}
    if len(backends) > 1:
        print("refused: result files come from different kernel backends: %s"
              % ", ".join(sorted(backends)), file=sys.stderr)
        return 2
    traces = {r["trace"] for r in base + head}
    if len(traces) > 1:
        print("refused: traced and untraced result files are mixed",
              file=sys.stderr)
        return 2

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bounds.update({m["name"]: m for m in spec["per_layer"]})

    worse = 0
    for workload in sorted({r["workload"] for r in base + head}):
        b = [r for r in base if r["workload"] == workload]
        h = [r for r in head if r["workload"] == workload]
        if not b or not h:
            print("%s: missing on one side, skipped" % workload)
            continue
        print("%s (%d base runs, %d head runs)" % (workload, len(b), len(h)))
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b]
            hv = [r["metrics"][name]["value"] for r in h]
            bq, hq = quartiles(bv), quartiles(hv)
            change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            spec_m = bounds.get(name, {})
            sign = -1 if spec_m.get("better") == "higher" else 1
            flag = ""
            if "bound" in spec_m and sign * change > spec_m["bound"]:
                flag = "  WORSE (bound %.0f%%)" % (100 * spec_m["bound"])
                worse += 1
            print("  %-42s base %.6g [%.6g, %.6g]  head %.6g [%.6g, %.6g]  "
                  "%+.1f%%%s" % (name, bq[1], bq[0], bq[2], hq[1], hq[0],
                                 hq[2], 100 * change, flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
