"""warpcrit benchmark: one workload, closed loop, one client, in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; warpcrit is imported from ``src/`` there.
The inputs come from ``--seed`` (``bench/inputs.py``); every task is one
``warpcrit.cli.main`` call, started after the previous one returns, and
every output is checked (``bench/workloads.py``).

A run makes ``round(S / NOMINAL_PASS_S)`` passes over the workload's tasks,
and enough passes for the tail statistic to exist.  The pass count does not
depend on the machine's speed, so every run of a seed does the same work
and its latency percentiles fall on the same tasks.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; the ``*_norm`` ones are scaled to a fixed machine
speed by ``bench/calibrate.py``.  With ``--trace 1`` passes alternate between
untraced and traced (``bench/tracer.py``); the metrics are the per-layer
figures of the traced passes, per pass, plus the tracing overhead measured
against the untraced passes of the same run.  The spans are written to
``.bench_run/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

# Seconds per pass at the baseline commit on a 2-core x86-64 VM.
NOMINAL_PASS_S = {"sweep20": 16.0, "signs": 4.8, "roundtrip": 1.65, "tail": 4.75}
# task_tail_s is the latency with ten samples beyond it, so a run needs 11.
MIN_SAMPLES = 11
SETUP_SAMPLES = 3
SETUP_PROBE_TIMEOUT_S = 120


def setup(workload: str, seed: int, work: str):
    """Import warpcrit, generate the inputs and warm up; time all three.

    Returns ``(cli module, tasks, seconds)``.
    """
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("warpcrit.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported warpcrit from {cli.__file__}, not from {SRC}")
    import workloads

    tasks = workloads.build(workload, seed, work)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(workloads.warmup_argv(work))
    if code != 0:
        raise RuntimeError(f"warm-up construct exited {code}")
    return cli, tasks, time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter (``bench/setup_probe.py``)."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_task(cli, task, sink):
    """Run one task; returns (exit code, start, end, latency intervals).

    Times are wall-clock ns.  A sweep's intervals run from one entry's
    envelope to the next; a single command has one interval, start to end.
    """
    for path in task.envelopes:
        if os.path.exists(path):
            os.unlink(path)
    start = time.time_ns()
    with contextlib.redirect_stdout(sink):
        code = cli.main(task.argv)
    end = time.time_ns()
    marks = [start] + [
        os.stat(p).st_mtime_ns if os.path.exists(p) else end for p in task.envelopes
    ] if task.envelopes else [start, end]
    return code, start, end, list(zip(marks, marks[1:]))


def tail_statistic(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples
    beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered)


def pass_count(workload: str, seconds: float, samples_per_pass: int, trace: bool) -> int:
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]),
                 math.ceil(MIN_SAMPLES / samples_per_pass))
    return max(passes, 2) if trace else passes


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    import workloads

    cli, tasks, setup0 = setup(workload, seed, work)
    import calibrate  # after the timed set-up: it loads numpy
    setup_samples = [setup0] + [setup_probe(workload, seed)
                                for _ in range(SETUP_SAMPLES - 1)]
    reference = {}
    if seed == 0:
        with open(os.path.join(BENCH, "reference.json")) as fh:
            reference = json.load(fh)[workload]

    tr = None
    if trace:
        import tracer as tracing

        tr = tracing.Tracer()
    samples_per_pass = sum(len(t.envelopes) or 1 for t in tasks)
    passes = pass_count(workload, seconds, samples_per_pass, trace)
    problems: list[str] = []
    # Seconds as measured and, untraced, scaled to speed 1 (calibrate.py).
    busy = {False: [0.0, 0.0], True: [0.0, 0.0]}
    results = {False: 0, True: 0}
    latencies: tuple[list[float], list[float]] = ([], [])
    attempted = failed = 0
    pass_counts = []
    cal = None if trace else calibrate.Calibrator()

    def seconds(a: int, b: int) -> tuple[float, float]:
        if cal is None:
            return (b - a) / 1e9, (b - a) / 1e9
        return cal.seconds(a, b)

    with open(os.devnull, "w") as sink, cal or contextlib.nullcontext():
        for p in range(passes):
            traced = trace and p % 2 == 1
            if traced:
                before = dict(tr.counts)
                tr.install()
            try:
                for task in tasks:
                    if traced:
                        tr.task += 1
                    code, start, end, intervals = run_task(cli, task, sink)
                    for k, v in enumerate(seconds(start, end)):
                        busy[traced][k] += v
                    if not traced:
                        for raw, norm in (seconds(a, b) for a, b in intervals):
                            latencies[0].append(raw)
                            latencies[1].append(norm)
                    entries = task.check(code)
                    attempted += len(entries)
                    for e in entries:
                        results[traced] += e.results
                        failed += bool(e.problems)
                        problems += [f"{e.label}: {msg}" for msg in e.problems]
                    if reference:
                        problems += workloads.reference_problems(entries, reference)
            finally:
                if traced:
                    tr.uninstall()
            if traced:
                pass_counts.append({k: tr.counts[k] - before.get(k, 0)
                                    for k in tracing.EXACT})

    out = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_samples": setup_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results_per_s": results[False] / busy[False][0],
        "latencies": latencies[0],
    }
    if cal is not None:
        out["speed"] = cal.speed
        out["results_per_s_norm"] = results[False] / busy[False][1]
        out["latencies_norm"] = latencies[1]
    if trace:
        traced_passes = len(pass_counts)
        if any(c != pass_counts[0] for c in pass_counts):
            problems.append(f"exact counters differ between traced passes: {pass_counts}")
        layer = tracing.layer_metrics(tr, traced_passes)
        traced_rps = results[True] / busy[True][0]
        layer["trace.results_per_s_gap"] = traced_rps - out["results_per_s"]
        layer["trace.overhead_frac"] = 1.0 - traced_rps / out["results_per_s"]
        layer["trace.spans"] = len(tr.spans) / traced_passes
        out["layer"] = layer
        os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
        tr.write(os.path.join(RUN_DIR, "traces", f"{workload}-seed{seed}.jsonl"))
    return out


def end_to_end(m: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and a line of text for each wall-clock figure."""
    lat = m["latencies"]
    tail, pct = tail_statistic(lat)
    setup_s = statistics.median(m["setup_samples"])
    wall = {
        "results_per_s": (m["results_per_s"], "1/s"),
        "task_p50_s": (statistics.median(lat), "s"),
        "task_tail_s": (tail, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "failed_frac": (m["failed"] / m["attempted"], "ratio"),
        "speed": (m["speed"], "ratio"),
    }
    lines = [f"{name:<14} {value:.6g} {unit}" for name, (value, unit) in wall.items()]
    lines[2] += f"  (p{pct:.1f} of {len(lat)} task latencies, 10 beyond it)"
    lines[3] += f"  (median of {len(m['setup_samples'])} set-ups)"
    lines[6] += "  (bench/calibrate.py; *_norm figures are at speed 1)"
    norm = m["latencies_norm"]
    metrics = {
        "results_per_s_norm": (m["results_per_s_norm"], "1/s"),
        "task_p50_s_norm": (statistics.median(norm), "s"),
        "task_tail_s_norm": (tail_statistic(norm)[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


LAYER_UNITS = (("_s", "s"), ("share", "ratio"), ("ratio", "ratio"), ("frac", "ratio"),
               ("us_per_fev", "us"), ("ns_per_point", "ns"), ("per_s_gap", "1/s"),
               ("bytes_written", "bytes"))


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "warpcrit", "__init__.py")):
        print(f"error: no warpcrit sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {m['passes']} passes, "
          f"{m['attempted']} tasks, {m['failed']} failed")
    for msg in m["problems"][:20]:
        print(f"problem: {msg}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in m["layer"].items()}
        for k, v in metrics.items():
            print(f"{k:<40} {v['value']:.6g} {v['unit']}")
    else:
        metrics, lines = end_to_end(m)
        print("\n".join(lines))
    print(json.dumps({
        "correct": not m["problems"] and m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
