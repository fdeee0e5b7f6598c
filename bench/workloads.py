"""The four workloads: their warpcrit commands and the check of every output.

A *task* is one warpcrit command.  ``signs``, ``roundtrip`` and ``tail``
run each task as its own ``warpcrit.cli.main`` call.  ``sweep20`` is one
``example1`` sweep config of 20 entries run with ``"workers": 1``; each
entry is a task, and its latency runs from the previous entry's envelope
(or the start of the call) to its own envelope's modification time, so the
sweep itself is not instrumented.

A *result* is one certified output: a matched domain (``sweep20``), a sign
report (``signs``), a verified profile (``roundtrip``: construct, then
verify the exported CSV) or a matched chart (``tail``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import inputs

# Tolerances of the output checks.
FACE_TOL = 1e-9  # |H * d_nu lam + 1| on each boundary face
IDENTITY_TOL = 1e-6  # weighted integral identity residual of a sign report
HORIZON_TOL = 1e-10  # the two horizon routes, relative to the horizon
DISCREPANCY_TOL = 1e-8  # match discrepancy, relative to |zeta2|
REFERENCE_TOL = 1e-9  # key numbers against seed-0 references, relative

NAMES = ("sweep20", "signs", "roundtrip", "tail")


@dataclass
class Entry:
    """Checked outcome of one task: problems found, results certified."""

    label: str
    problems: list[str]
    results: int
    keys: dict = field(default_factory=dict)


@dataclass
class Task:
    """One ``cli.main`` call and the check of what it wrote.

    ``envelopes`` lists the per-entry envelopes of a sweep in run order;
    it is empty for a single command.
    """

    argv: list[str]
    check: Callable[[int], list[Entry]]
    envelopes: list[str] = field(default_factory=list)


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _face_problems(domain: dict) -> list[str]:
    out = []
    for face in domain["boundary"]:
        product = face["mean_curvature"] * face["normal_derivative"]
        if not abs(product + 1.0) <= FACE_TOL:
            out.append(f"{face['side']} face H*dlam = {product!r}, want -1")
    return out


def _sweep20(seed: int, work: str) -> list[Task]:
    entries = inputs.sweep20(seed)
    tags = [f"sweep20_{i:02d}" for i in range(len(entries))]
    config = {
        "s_max": inputs.SWEEP_S_MAX,
        "workers": 1,
        "sweep": [dict(e, tag=t) for e, t in zip(entries, tags)],
    }
    cfg = _write_json(os.path.join(work, "sweep20.json"), config)
    envelopes = [os.path.join(work, f"{t}.json") for t in tags]
    summary = os.path.join(work, "example1_sweep.json")

    def check(code: int) -> list[Entry]:
        out = []
        codes = {}
        if os.path.exists(summary):
            codes = {rec["tag"]: rec["exit"] for rec in _load(summary)["sweep"]}
            os.unlink(summary)  # the next pass must write its own
        for tag, path in zip(tags, envelopes):
            problems = [] if code == 0 else [f"sweep exited {code}"]
            if codes.get(tag) != 0:
                problems.append(f"entry exited {codes.get(tag)}")
                out.append(Entry(tag, problems, 0))
                continue
            env = _load(path)
            if env["verdict"] != "pass":
                problems.append(f"verdict {env['verdict']}")
            problems += _face_problems(env["domain"])
            keys = {"zeta2": env["domain"]["interval"][0], "C": env["domain"]["C"]}
            out.append(Entry(tag, problems, 0 if problems else 1, keys))
        return out

    argv = ["example1", "--config", cfg, "--out", work]
    return [Task(argv, check, envelopes)]


def _signs(seed: int, work: str) -> list[Task]:
    tasks = []
    for i, config in enumerate(inputs.signs(seed)):
        tag = f"signs_{i}"
        cfg = _write_json(os.path.join(work, f"{tag}.cfg.json"), dict(config, tag=tag))
        path = os.path.join(work, f"{tag}.json")

        def check(code: int, tag=tag, path=path) -> list[Entry]:
            if code != 0:
                return [Entry(tag, [f"exit {code}"], 0)]
            rep = _load(path)["signs"]
            problems = []
            if rep["consistent"] is not True:
                problems.append("sign report is not consistent")
            if not rep["identity_residual"] <= IDENTITY_TOL:
                problems.append(f"identity residual {rep['identity_residual']!r}")
            keys = {
                f"{part}.gamma1": rep[part]["gamma1"]
                for part in ("zero_mode", "enclosing", "matched", "quotient")
                if rep[part] is not None
            }
            return [Entry(tag, problems, 0 if problems else 1, keys)]

        tasks.append(Task(["spectrum", "--config", cfg, "--out", work], check))
    return tasks


def _roundtrip(seed: int, work: str) -> list[Task]:
    config = dict(inputs.roundtrip(seed), tag="roundtrip")
    cfg = _write_json(os.path.join(work, "construct.cfg.json"), config)
    csv = os.path.join(work, "roundtrip.csv")
    vcfg = _write_json(
        os.path.join(work, "verify.cfg.json"),
        {"n": config["n"], "R": config["R"], "a": config["a"],
         "profile_csv": csv, "tag": "roundtrip_verify"},
    )
    rows = inputs.roundtrip_rows()

    def check_construct(code: int) -> list[Entry]:
        if code != 0:
            return [Entry("construct", [f"exit {code}"], 0)]
        env = _load(os.path.join(work, "roundtrip.json"))
        problems = []
        if env["grid"]["points"] != rows:
            problems.append(f"envelope reports {env['grid']['points']} points, want {rows}")
        with open(csv, "rb") as fh:
            lines = fh.read().count(b"\n")
        if lines != rows + 1:
            problems.append(f"CSV has {lines} lines, want {rows + 1}")
        lam_roots = env["roots"]["lam_roots"]
        keys = {"kappa0": env["kappa0"], "lam_root_lo": lam_roots[0],
                "lam_root_hi": lam_roots[-1]}
        return [Entry("construct", problems, 0, keys)]

    def check_verify(code: int) -> list[Entry]:
        if code != 0:
            return [Entry("verify", [f"exit {code}"], 0)]
        env = _load(os.path.join(work, "roundtrip_verify.json"))
        problems = []
        if env["verdict"] != "pass":
            problems.append(f"verdict {env['verdict']}")
        if env["residuals"]["grid_size"] != rows:
            problems.append(f"verified {env['residuals']['grid_size']} points, want {rows}")
        return [Entry("verify", problems, 0 if problems else 1)]

    step = repr(inputs.ROUNDTRIP_GRID_STEP)
    return [
        Task(["construct", "--config", cfg, "--out", work, "--grid-step", step],
             check_construct),
        Task(["verify", "--config", vcfg, "--out", work], check_verify),
    ]


def _tail(seed: int, work: str) -> list[Task]:
    tasks = []
    for i, config in enumerate(inputs.tail(seed)):
        tag = f"tail_{i}"
        cfg = _write_json(os.path.join(work, f"{tag}.cfg.json"), dict(config, tag=tag))
        path = os.path.join(work, f"{tag}.json")

        def check(code: int, tag=tag, path=path) -> list[Entry]:
            if code != 0:
                return [Entry(tag, [f"exit {code}"], 0)]
            env = _load(path)
            problems = []
            horizon, poly = env["horizon"], env["horizon_from_polynomial"]
            if not abs(horizon - poly) <= HORIZON_TOL * max(1.0, abs(horizon)):
                problems.append(f"horizon routes differ: {horizon!r} vs {poly!r}")
            m = env["match"]
            if not m["discrepancy"] <= DISCREPANCY_TOL * abs(m["zeta2"]):
                problems.append(f"match discrepancy {m['discrepancy']!r}")
            keys = {"zeta2": m["zeta2"], "C": m["C"], "horizon": horizon}
            return [Entry(tag, problems, 0 if problems else 1, keys)]

        tasks.append(Task(["schwarzschild", "--config", cfg, "--out", work], check))
    return tasks


_BUILDERS = {"sweep20": _sweep20, "signs": _signs, "roundtrip": _roundtrip, "tail": _tail}


def build(name: str, seed: int, work: str) -> list[Task]:
    """Generate the inputs of workload ``name`` and write its configs."""
    return _BUILDERS[name](seed, work)


def warmup_argv(work: str) -> list[str]:
    """A small ``construct`` that loads every lazily imported code path."""
    cfg = _write_json(os.path.join(work, "warmup.cfg.json"),
                      {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 0.5,
                       "tag": "warmup"})
    return ["construct", "--config", cfg, "--out", work]


def reference_problems(entries: list[Entry], reference: dict) -> list[str]:
    """Compare key numbers with the values recorded at seed 0."""
    out = []
    for e in entries:
        want = reference.get(e.label, {})
        if set(want) != set(e.keys):
            out.append(f"{e.label}: key numbers {sorted(e.keys)} != reference {sorted(want)}")
            continue
        for name, ref in want.items():
            got = e.keys[name]
            if not abs(got - ref) <= REFERENCE_TOL * max(1.0, abs(ref)):
                out.append(f"{e.label}: {name} = {got!r}, reference {ref!r}")
    return out
