"""Record the sha256 of each stability job's CSV for the default workload seed.

The traced benchmark run reports ``cli.csv_identical_frac`` against these
digests.  Re-record only when a change is meant to alter the CSV bytes, and
say so in the change.

Usage: python3 bench/record_digests.py [JOBS_PER_WORKLOAD]
"""

import json
import os
import sys

import run
import workloads


def main():
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    os.environ["TORUS_EULER_THREADS"] = "1"
    run.import_package()
    table = {}
    for name in workloads.STABILITY:
        w = workloads.make(name, workloads.DEFAULT_SEED, run.OUT / name)
        table[name] = {}
        for _ in range(jobs):
            job = w.next_input()
            problems, digest = w.check(job, w.call(job))
            if problems:
                raise SystemExit(f"{name} {job}: {problems}")
            table[name][w.digest_key(job)] = digest
        print(f"{name}: {jobs} digests")
    (run.BENCH / "csv_digests.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
