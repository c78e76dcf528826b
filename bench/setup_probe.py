"""Time one cold start of a workload: from ``import torus_euler.cli`` until the
first operation is ready.  Prints the seconds.

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (stdlib only at import time)


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = perf_counter()
    import torus_euler.cli  # noqa: F401

    workloads.prepare(name, seed)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
