"""A fixed pure-Python loop that probes how fast the machine runs right now.

The benchmark shares a few cores of a host whose speed drifts by a third or
more within a minute, more than the bounds in BENCHMARK.json allow a metric
to move.  Every job is preceded by one probe in the same
interpreter, and run.py scales each job's latency by REF_PROBE_S over the
median of the probes around it, which turns drift into a common factor that
cancels.  The loop uses nothing from the library, so no change to the
library changes it.
"""

import statistics
import time

# the median probe on the reference machine (2-core x86-64 VM,
# Python 3.11.7); a latency scaled by REF_PROBE_S / probe reads in seconds
# at that machine's speed
REF_PROBE_S = 130e-6


def probe():
    """Seconds taken by a 40 x 40 schoolbook product mod 3 of small ints."""
    a = list(range(1, 41))
    out = [0] * 80
    t0 = time.perf_counter()
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] = (out[i + j] + x * y) % 3
    return time.perf_counter() - t0


def median_probe(n):
    return statistics.median(probe() for _ in range(n))
