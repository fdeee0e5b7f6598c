"""Record the seed-0 key numbers that ``run.py`` compares against.

    python3 bench/record_reference.py

Runs every workload's tasks once on seed 0 and rewrites
``bench/reference.json``.  Run it only at a commit whose numbers are the
reference; ``run.py`` holds later commits to them at ``REFERENCE_TOL``.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    reference = {}
    for name in workloads.NAMES:
        work = os.path.join(run.RUN_DIR, f"reference-{name}-{os.getpid()}")
        os.makedirs(work)
        try:
            cli, tasks, _ = run.setup(name, 0, work)
            keys = {}
            with open(os.devnull, "w") as sink:
                for task in tasks:
                    code, _, _ = run.run_task(cli, task, sink)
                    for e in task.check(code):
                        if e.problems:
                            print(f"{name} {e.label}: {e.problems}", file=sys.stderr)
                            return 1
                        keys[e.label] = e.keys
            reference[name] = keys
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {len(keys)} entries")
    with open(os.path.join(run.BENCH, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
