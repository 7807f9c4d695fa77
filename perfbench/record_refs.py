"""Record the reference digests of every `reduction` job the generator can
emit, by running the library on each one.

Run it on the commit whose answers are the reference (the seed commit of
the benchmark), from the repository root:

    PYTHONPATH=src python3 perfbench/record_refs.py

It writes perfbench/reduction_refs.json.  Later commits must reproduce
these digests; a commit that changes a reduction answer on purpose records
them again and says so.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import jobs  # noqa: E402
from worker import Api, run_cli  # noqa: E402


def main():
    api = Api()
    refs = {}
    for q in (2, 3, 5, 4, 9):
        for mod in jobs.reduction_modules(q):
            job = jobs.reduction_job(mod)
            answer = run_cli(api, job["cmd"], job["payload"])
            refs[jobs.job_key(job)] = check.reduction_digest(answer)
    path = os.path.join(jobs.HERE, "reduction_refs.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d reduction digests in %s" % (len(refs), path))


if __name__ == "__main__":
    main()
