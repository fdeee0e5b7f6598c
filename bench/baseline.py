"""Measure the baseline and the run-to-run spread of every metric.

    python3 bench/baseline.py [--seeds N] [--out FILE]

Runs ``bench/run.py`` on seeds 0..N-1 of every workload with tracing off,
the workloads taking turns so that a slow spell of the machine falls on all
of them, then once with tracing on (seed 0).  Writes, per workload, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(quartile distance over median) of each end-to-end metric, and the
per-layer metrics of the traced run, to ``bench/baseline.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(BENCH, "baseline.json"))
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in names}
    for seed in range(args.seeds):
        for w in names:
            for k, v in run_once(bench["command"], w, seed, seconds, 0).items():
                values[w].setdefault(k, []).append(v)
            print(f"seed {seed} {w}: done", file=sys.stderr, flush=True)

    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in names:
        e2e = {k: dict(summarize(v), unit=units[k]) for k, v in values[w].items()}
        for k, s in e2e.items():
            print(f"{w:<10} {k:<14} median {s['median']:.6g} {s['unit']:<5} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                  f"(bound {bounds[k]})")
        layer = run_once(bench["command"], w, 0, seconds, 1)
        report["workloads"][w] = {
            "end_to_end": e2e,
            "per_layer": {k: {"value": v, "unit": units[k]} for k, v in layer.items()},
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
