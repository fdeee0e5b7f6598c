"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py WORKLOAD SEED

Only the standard library is loaded before the clock starts, so the figure
covers importing warpcrit (and numpy and scipy with it), generating the
workload's inputs and the warm-up call, as in ``run.setup``.
"""

import os
import shutil
import sys

import run


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    work = os.path.join(run.RUN_DIR, f"setup-{workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        _, _, seconds = run.setup(workload, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
