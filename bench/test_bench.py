"""Tests of the benchmark itself: exact counters repeat, tracing leaves no trace.

    python3 -m pytest -q bench/test_bench.py

Each workload gets one small input: a one-entry sweep, one sign report, a
coarse-grid round trip and one chart.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import inputs  # noqa: E402
import tracer  # noqa: E402
from warpcrit import cli  # noqa: E402


def _config(tmp_path, name, obj) -> str:
    path = tmp_path / f"{name}.cfg.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _small_tasks(workload, tmp_path) -> list[list[str]]:
    out = ["--out", str(tmp_path)]
    if workload == "sweep20":
        cfg = {"s_max": inputs.SWEEP_S_MAX, "workers": 1, "sweep": inputs.sweep20(0)[4:5]}
        return [["example1", "--config", _config(tmp_path, "sweep", cfg)] + out]
    if workload == "signs":
        cfg = dict(inputs.signs(0)[0], tag="signs")
        return [["spectrum", "--config", _config(tmp_path, "signs", cfg)] + out]
    if workload == "roundtrip":
        cfg = dict(inputs.roundtrip(0), tag="rt")
        verify = {"n": cfg["n"], "R": cfg["R"], "a": cfg["a"],
                  "profile_csv": str(tmp_path / "rt.csv")}
        return [
            ["construct", "--config", _config(tmp_path, "rt", cfg), "--grid-step", "1e-3"] + out,
            ["verify", "--config", _config(tmp_path, "verify", verify)] + out,
        ]
    cfg = dict(inputs.tail(0)[0], tag="tail")
    return [["schwarzschild", "--config", _config(tmp_path, "tail", cfg)] + out]


def _exact_counts(tasks) -> dict:
    tr = tracer.Tracer()
    tr.install()
    try:
        for argv in tasks:
            assert cli.main(argv) == 0
    finally:
        tr.uninstall()
    return {k: tr.counts[k] for k in tracer.EXACT}


@pytest.mark.parametrize("workload", ["sweep20", "signs", "roundtrip", "tail"])
def test_exact_counters_repeat(workload, tmp_path):
    tasks = _small_tasks(workload, tmp_path)
    first = _exact_counts(tasks)
    second = _exact_counts(tasks)
    assert first == second
    assert first["cli.tasks"] == len(tasks)
    assert first["rk45.nfev"] > 0
    assert first["serialize.bytes_written"] > 0
    if workload == "roundtrip":
        assert first["serialize.csv_rows_written"] == first["serialize.csv_rows_read"] == 8001
    if workload in ("sweep20", "tail"):
        assert first["matching.root_polish_evals"] > 0
        assert first["matching.dense_points"] > 0
    if workload == "signs":
        assert first["spectrum.eigen_nodes"] > 0
        assert first["matching.dense_points"] == 0


def test_uninstall_restores_every_binding():
    def bindings():
        owners = [m for n, m in sys.modules.items() if n.startswith("warpcrit")]
        owners += [sys.modules[mod].__dict__[q.split(".")[0]]
                   for _, mod, q, _ in tracer.SPANS if "." in q]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = bindings()
    tr = tracer.Tracer()
    tr.install()
    assert bindings() != before
    tr.uninstall()
    assert bindings() == before


def test_self_time_excludes_children():
    spans = [
        ["cli.main", "cli", 0.0, 10.0, -1, 0],
        ["profiles.find_roots", "profiles", 1.0, 5.0, 0, 0],
        ["rk45.DenseSolution.__call__", "rk45", 2.0, 3.0, 1, 0],
        ["serialize.write_envelope", "serialize", 6.0, 7.0, 0, 0],
    ]
    assert tracer.self_times(spans) == [5.0, 3.0, 1.0, 1.0]
