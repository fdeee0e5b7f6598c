"""Serialization round-trips and the batch command-line front-end.

Every CLI test drives ``main(argv)`` in-process against configs in a temp
directory and asserts the documented exit-code contract: 0 success,
1 verification failure, 2 input error, 3 numerical failure.
"""

import copy
import gc
import json
import math
import re
import subprocess
import sys
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from warpcrit import (
    ConfigError,
    DegenerateInitial,
    NumericalError,
    OdeParams,
    integrate_profile,
    profile_from_arrays,
    read_profile_csv,
    solve_potential,
    space_form_profile,
    verify_critical,
    write_profile_csv,
)
from warpcrit import cli, matching, profiles, support
from warpcrit.cli import _resample, main
from warpcrit.matching import schwarzschild_form
from warpcrit.profiles import find_roots
from warpcrit.serialize import _fmt, dump_json, record_dict, write_csv
from warpcrit.spectrum import first_dirichlet_eigenvalue


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _read_json(path):
    return json.loads(path.read_text())


def _strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def test_dump_json_format_and_roundtrip():
    payload = {
        "b": [1.0, 0.1, -2.5e-17, 12345678901234567.0],
        "a": {"y": None, "x": True, "z": "text"},
        "n": 3,
    }
    text = dump_json(payload)
    back = json.loads(text)
    assert back == payload, "JSON round trip must be exact"
    assert text.index('"a"') < text.index('"b"') < text.index('"n"')
    assert "0.10000000000000001" in text, "floats print with 17 significant digits"


def test_record_dict_rule():
    @dataclass(frozen=True)
    class Inner:
        x: float
        grid: np.ndarray

    @dataclass(frozen=True)
    class Outer:
        inner: Inner
        missing: Inner | None
        table: dict
        pair: tuple

    table = {"k": 1.0}
    d = record_dict(Outer(Inner(0.5, np.zeros(3)), None, table, (1.0, 2.0)))
    # Arrays are left out, nested records follow the same rule, a dict is
    # copied, and every other value is kept as it is.
    assert d == {"inner": {"x": 0.5}, "missing": None, "table": table, "pair": (1.0, 2.0)}
    assert d["table"] is not table
    # A tuple renders as the list it replaces.
    assert dump_json(d["pair"]) == dump_json([1.0, 2.0])


def test_dump_json_rejects_nonfinite():
    # Envelope numbers are computed, so a non-finite one is a numerical failure.
    with pytest.raises(NumericalError):
        dump_json({"x": float("nan")})


def test_csv_roundtrip_exact(tmp_path):
    params = OdeParams(n=3, R=-6.0, a=1.0)
    prof = solve_potential(integrate_profile(params, 1.0, 3.0), 0.3)
    path = tmp_path / "p.csv"
    write_profile_csv(str(path), prof)
    cols = read_profile_csv(str(path))
    for name, arr in (
        ("s", prof.grid), ("r", prof.r), ("rp", prof.rp),
        ("lam", prof.lam), ("lamp", prof.lamp),
    ):
        assert np.array_equal(cols[name], np.asarray(arr, dtype=float)), name
    loaded = profile_from_arrays(params, cols)
    report = verify_critical(loaded)
    print(f"reloaded residuals: critical={report.max_critical_residual:.3e}")
    assert report.max_critical_residual < 1e-8
    assert abs(loaded.kappa0 - prof.kappa0) < 1e-10 * (1 + abs(prof.kappa0))


def test_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ConfigError):
        read_profile_csv(str(path))


def _reference_csv(header, columns):
    """The per-value loop that the one-pass table writer replaced."""
    rows = [header]
    for row in zip(*(np.asarray(c, dtype=float) for c in columns)):
        rows.append(",".join(_fmt(v) for v in row))
    return "\n".join(rows) + "\n"


def test_write_csv_matches_per_value_reference(tmp_path):
    edge = np.array([
        0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan,
        # These need all 17 significant digits to round-trip.
        0.1, 1.0 / 3.0, math.pi, 1.0 + 2.0**-52, -1.2345678901234567e-5,
        1.7976931348623157e308, 2.2250738585072014e-308,
    ])
    columns = (edge, edge[::-1], np.roll(edge, 5))
    path = tmp_path / "t.csv"
    write_csv(str(path), "a,b,c", columns)
    text = path.read_text()
    assert text == _reference_csv("a,b,c", columns)
    assert "inf" not in text, "non-finite values are written as nan"
    assert "0.10000000000000001" in text and "-0," in text


def test_write_csv_writes_a_value_past_float64_as_nan(tmp_path):
    # The float64 cast of a longdouble past float64's range must not fault
    # under the raise mode a command runs in.
    path = tmp_path / "t.csv"
    column = np.array([1.0, np.longdouble("1e400")], dtype=np.longdouble)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        write_csv(str(path), "s,x", (np.arange(2.0), column))
    assert path.read_text() == "s,x\n0,1\n1,nan\n"


@pytest.mark.parametrize("C", [None, 0.3], ids=["partial", "complete"])
def test_write_profile_csv_matches_per_value_reference(tmp_path, C):
    prof = integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 3.0)
    if C is not None:
        prof = solve_potential(prof, C)
    path = tmp_path / "p.csv"
    write_profile_csv(str(path), prof)
    nan = np.full(prof.grid.shape, np.nan)
    columns = (
        prof.grid, prof.r, prof.rp,
        nan if C is None else prof.lam, nan if C is None else prof.lamp,
    )
    assert path.read_text() == _reference_csv("s,r,rp,lam,lamp", columns)


def test_write_csv_failure_in_a_later_block_keeps_the_old_target(tmp_path, monkeypatch):
    monkeypatch.setattr(support, "ROW_BLOCK", 4)
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,table\n1,2\n")
    good = np.arange(10.0)
    bad = np.array([*good[:-1], "x"], dtype=object)  # fails in the third block
    with pytest.raises(ValueError):
        write_csv(str(path), "a,b", (good, bad))
    assert path.read_bytes() == b"old,table\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"], "no temp file may be left"


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------


def test_construct_anchor_row(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "s_max": 3.0},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    cols = read_profile_csv(str(tmp_path / "profile.csv"))
    i0 = int(np.argmin(np.abs(cols["s"])))
    assert cols["s"][i0] == 0.0
    assert cols["r"][i0] == 1.0
    assert cols["rp"][i0] == 0.0
    assert abs(cols["lam"][i0] - 0.5) < 1e-15, "anchor potential must be r0/((n-1) r''(0))"


def test_construct_deterministic_envelope(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 4, "R": -12.0, "a": 0.5, "r0": 1.0, "s_max": 2.0, "C": 0.2},
    )
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["construct", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["construct", "--config", cfg, "--out", str(out2)]) == 0
    t1 = _strip_timestamp((out1 / "profile.json").read_text())
    t2 = _strip_timestamp((out2 / "profile.json").read_text())
    assert t1 == t2, "envelopes must be byte-identical except the timestamp"
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()


def test_construct_constant_solution(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 6.0, "a": 1.0, "r0": 1.0, "s_max": 2.0},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "profile.json")
    assert env["constant_solution"] is True
    assert env["roots"] is None and env["C"] is None
    cols = read_profile_csv(str(tmp_path / "profile.csv"))
    assert np.all(np.isnan(cols["lam"])), "constant solution carries no potential"
    assert np.all(cols["r"] == 1.0)


def test_construct_constant_solution_on_a_grid_step(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 6.0, "a": 1.0, "r0": 1.0, "s_max": 2.0, "grid_step": 0.01},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "profile.json")
    assert env["constant_solution"] is True
    assert env["grid"] == {"points": 401, "step": 0.01}
    cols = read_profile_csv(str(tmp_path / "profile.csv"))
    assert cols["s"].size == 401
    assert np.allclose(np.diff(cols["s"]), 0.01, rtol=0, atol=1e-15)
    assert np.all(cols["r"] == 1.0) and np.all(cols["rp"] == 0.0)
    assert np.all(np.isnan(cols["lam"])) and np.all(np.isnan(cols["lamp"]))


def test_construct_grid_step(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "s_max": 2.0},
    )
    code = main([
        "construct", "--config", cfg, "--out", str(tmp_path),
        "--grid-step", "0.5",
    ])
    assert code == 0
    cols = read_profile_csv(str(tmp_path / "profile.csv"))
    assert cols["s"].size == 9
    assert np.allclose(np.diff(cols["s"]), 0.5, rtol=0, atol=1e-15)


def test_resample_equals_sample():
    # The export is float64, the CSV's precision: each column is the
    # longdouble sample rounded once, held in one (4, rows) table.
    base = integrate_profile(OdeParams(n=3, R=0.0, a=1.0), 1.0, 3.0)
    export = _resample(solve_potential(base, 0.2), 1e-2)
    assert export.grid.size == 601 and export.grid.dtype == np.float64
    want = solve_potential(base, 0.2).sample(export.grid)
    for name in ("r", "rp", "lam", "lamp"):
        got = getattr(export, name)
        assert got.dtype == np.float64 and got.base.shape == (4, 601), name
        assert np.array_equal(got, getattr(want, name).astype(float)), name
    # A grid profile, as profile_from_arrays rebuilds: no dense base, closed
    # form or even branch.
    assert export._base is None and export._closed_form is None
    with pytest.raises(DegenerateInitial):
        solve_potential(export, 0.0)
    partial = _resample(base, 1e-2)
    assert partial.lam is None and partial.C is None
    assert partial.r.base.shape == (2, 601)


# ----------------------------------------------------------------------
# config validation and exit codes
# ----------------------------------------------------------------------


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["construct", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["construct", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "bogus": 1},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_required_key_exits_2(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {"n": 3, "R": 0.0, "a": 1.0})
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_bad_parameters_exit_2(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 2, "R": 0.0, "a": 1.0, "r0": 1.0},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # a < 0 lets r hit zero in finite arclength: guard trips, exit 3.
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 0.0, "a": -1.0, "r0": 1.0, "s_max": 6.0},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, codes, needle",
    [
        # 1e7 steps of max_step: beyond the integrator's step budget.
        ("construct", {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "s_max": 1e6}, (3,), ""),
        # r0^(1-n) = 1e400 overflows float64, and the anchor's time scale
        # sqrt(r0/|r''(0)|) = 1e-300 is below the integrator's smallest step.
        ("construct", {"n": 3, "R": 0.0, "a": 1.0, "r0": 1e-200}, (2,), "r0"),
        # The window ends before the first positive critical point of r.
        ("spectrum", {"n": 3, "R": 6.0, "a": 1.0, "C": 0.1, "signs": True,
                      "r0": 0.8, "s_max": 0.5}, (2,), ""),
        # 1.2e301 export rows: refused before the grid is allocated.
        ("construct", {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "grid_step": 1e-300}, (2,), ""),
        # A zero step is an error from the config key, as from the flag.
        ("construct", {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 1.0,
                       "grid_step": 0}, (2,), ""),
        # 2**62 eigenvalue segments: refused before the grid is allocated.
        ("spectrum", {"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "interval": [0.1, 0.5],
                      "num": 4611686018427387904}, (2,), ""),
        # 2 num is over the segment bound: refused before the solve at num.
        ("spectrum", {"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "s_max": 2.0,
                      "interval": [0.1, 0.5], "num": 500_001}, (2,), ""),
        # The ODE coefficients n (n - 1) overflow float64.
        ("construct", {"n": 10**400, "R": -6.0, "a": 1.0, "r0": 1.0}, (2,), ""),
        # An integer that no float can hold is not a finite number.
        ("construct", {"n": 3, "R": 10**400, "a": 1.0, "r0": 1.0}, (2,), ""),
        # The tag is an output basename, so it may not leave --out.
        ("construct", {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 1.0,
                       "tag": "../../x/y"}, (2,), ""),
        ("construct", {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 1.0,
                       "tag": "../name"}, (2,), ""),
        # Tolerances must be finite, or the envelope cannot be written.
        ("construct", {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 1.0,
                       "tolerances": {"critical": math.inf}}, (2,), ""),
        # The matching tolerance is a fixed constant, not a tolerance name.
        ("example1", {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "zeta1": 1.5, "s_max": 3.0,
                      "tolerances": {"root": 1e-30}}, (2,), ""),
        # Eigenvalue steps so short that 1/h^2 underflows the division
        # (1e-300), overflows to inf (1e-155) or overflows inside the
        # tridiagonal solver (1e-140).
        *(("spectrum", {"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "s_max": 2.0, "num": 64,
                        "interval": [0.0, width]}, (2,), "interval")
          for width in (1e-300, 1e-155, 1e-140)),
    ],
    ids=["huge_window", "tiny_r0", "signs_no_critical_point", "grid_step_tiny",
         "grid_step_zero", "num_huge", "num_over_half", "n_huge", "int_too_large",
         "tag_path", "tag_parent", "tolerance_infinite", "tolerance_root",
         "interval_1e-300", "interval_1e-155", "interval_1e-140"],
)
def test_out_of_range_construct_fails_cleanly(tmp_path, command, config, codes, needle):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "c.json", config)
    proc = subprocess.run(
        [sys.executable, "-m", "warpcrit.cli",
         command, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert needle in lines[0]
    # Nothing is written: not beside --out, and not a CSV before the error.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "out"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "flags",
    # The last --out wins; "{cfg}" names the config file itself.
    [["--grid-step", "1e-300"], ["--grid-step", "0"], ["--out", "{cfg}"]],
    ids=["grid_step_tiny", "grid_step_zero", "out_is_file"],
)
def test_bad_flag_fails_cleanly(tmp_path, flags):
    cfg = _write_config(
        tmp_path / "c.json", {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 1.0},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "warpcrit.cli", "construct", "--config", cfg,
         "--out", str(tmp_path / "out"), *(f.format(cfg=cfg) for f in flags)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


_BASE = '"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 1.0'
_MATCH = '"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "zeta1": 1.5, "s_max": 3.0'
_OSC = '"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "s_max": 3.0'
# The constant solution r = 1 of the oscillatory regime, which admits no
# potential, and the two lines every command that needs one exits with.
_CONSTANT = '"n": 3, "R": 6.0, "a": 1.0, "r0": 1.0'
_NO_DENSE_BASE = (
    "error: profile has no dense base: a constant solution, a closed form and a "
    "profile rebuilt from a grid carry none"
)
_NO_EVEN_BRANCH = (
    "error: profile carries no even potential branch: the constant solution admits "
    "no potential, and a closed form or a rebuilt grid has none"
)
_PINNED_LINES = {
    ("match", f'{{{_CONSTANT}, "zeta1": 0.5}}'): _NO_DENSE_BASE,
    ("example1", f'{{{_CONSTANT}, "zeta1": 0.5}}'): _NO_DENSE_BASE,
    ("example2", f"{{{_CONSTANT}}}"): _NO_EVEN_BRANCH,
    ("spectrum", f'{{{_CONSTANT}, "signs": true}}'): _NO_EVEN_BRANCH,
    # An interval past the window, refused by the profile's one containment rule.
    ("spectrum", '{"n": 3, "R": 6, "a": 1, "r0": 0.8, "s_max": 3, "interval": [0, 4], "num": 64}'):
        "error: arclength 4 outside profile window [-3, 3]",
}


# (command, config text, flags): one case per input-error raise site.  The
# configs are JSON text, so that a literal such as 1e400 reaches the parser;
# "{cfg}" in a flag names the config file itself.
@pytest.mark.parametrize(
    "command, text, flags",
    [
        ("construct", "[1, 2]", []),
        ("construct", f'{{{_BASE}, "sweep": {{}}}}', []),
        ("construct", f'{{{_BASE}, "sweep": [1]}}', []),
        ("construct", f'{{{_BASE}, "sweep": [{{}}], "workers": -1}}', []),
        ("construct", f'{{{_BASE}, "tolerances": {{"critical": -1}}}}', []),
        ("construct", f'{{{_BASE}, "tolerances": []}}', []),
        ("construct", f'{{{_BASE}, "tag": "../x"}}', []),
        ("verify", '{"n": 3, "R": -6.0, "a": 1.0, "profile_csv": ""}', []),
        ("construct", '{"n": 1e400, "R": -6.0, "a": 1.0, "r0": 1.0}', []),
        ("construct", '{"n": 3, "R": -6.0, "a": 1.0, "r0": "1"}', []),
        ("spectrum", f'{{{_OSC}, "signs": 1}}', []),
        ("spectrum", f'{{{_OSC}, "interval": [1, 0]}}', []),
        ("match", f'{{{_MATCH}, "fiber": []}}', []),
        ("match", f'{{{_MATCH}, "fiber": {{"dim": 2, "kappa0": 2.0, "colour": 1}}}}', []),
        ("match", f'{{{_MATCH}, "fiber": {{"dim": 1, "kappa0": 2.0}}}}', []),
        ("example2", f'{{{_OSC}, "fiber": {{"dim": 2, "kappa0": 1.0, "symmetry": false}}}}', []),
        ("construct", f"{{{_BASE}}}", ["--out", "{cfg}"]),
        ("construct", f"{{{_BASE}}}", ["--tol", "critical"]),
        ("construct", f"{{{_BASE}}}", ["--tol", "critical=abc"]),
        ("construct", f"{{{_BASE}}}", ["--grid-step", "-1"]),
        ("construct", f"{{{_BASE}}}", ["--grid-step", "1e-9"]),
        ("construct", '{"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 4.0}',
         ["--grid-step", "5"]),
        *((command, text, []) for command, text in _PINNED_LINES),
        ("match", '{"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "zeta1": 1e-300, "s_max": 3.0}',
         []),
        ("schwarzschild", '{"n": 3, "R": -6.0, "a": 1.0, "s_max": 0.5}', []),
        ("spectrum", '{"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "s_max": 0.5, "signs": true}',
         []),
        ("construct", '{"n": 1000, "R": -6.0, "a": 1.0, "r0": 1e-10}', []),
        ("construct", '{"n": 3, "R": 1e300, "a": 1.0, "r0": 1.0}', []),
        *(("schwarzschild", f'{{"n": 3, "R": -6.0, "a": {a}}}', [])
          for a in ("1e7", "1e12", "1e20")),
        ("construct", "[" * 200000 + "]" * 200000, []),
    ],
    ids=[
        "root_list", "sweep_object", "sweep_entry_number", "workers_negative",
        "tolerance_negative", "tolerances_list", "tag_parent", "profile_csv_empty",
        "n_1e400", "r0_string", "signs_number", "interval_reversed", "fiber_list",
        "fiber_unknown_key", "fiber_dim_1", "example2_no_involution", "out_is_file",
        "tol_no_value", "tol_not_number", "grid_step_negative", "grid_step_too_fine",
        "grid_step_past_window", "match_constant_solution", "example1_constant_solution",
        "example2_constant_solution", "signs_constant_solution", "spectrum_past_window",
        "zeta1_1e-300",
        "schwarzschild_short_window", "signs_short_window", "n1000_tiny_r0", "R_1e300",
        "schwarzschild_a_1e7", "schwarzschild_a_1e12", "schwarzschild_a_1e20",
        "config_nested_too_deeply",
    ],
)
def test_input_error_exits_2_with_one_line(tmp_path, capsys, command, text, flags):
    line = _assert_one_line_input_error(tmp_path, capsys, command, text, flags)
    assert line == _PINNED_LINES.get((command, text), line)


def _assert_one_line_input_error(tmp_path, capsys, command, text, flags=()):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv + [f.format(cfg=cfg) for f in flags]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "internal error" not in err and "Traceback" not in err
    assert cfg.read_text() == text
    assert not out.exists() or list(out.iterdir()) == [], "no envelope may be written"
    return lines[0]


# (profile CSV text, extra verify keys): one case per input check that a
# profile CSV meets on its way to verification.
@pytest.mark.parametrize(
    "csv, extra",
    [
        ("s,r,rp,lam,lamp\n-1,1.5,-1,0.5,0.5\n0,one,0,1,0\n", {}),
        ("s,r,rp,lam,lamp\n0,1,0,1,0\n", {}),
        ("s,r,rp,lam,lamp\n-1,1.5,-1,0.5\n0,1,0,1\n", {}),
        ("s,r,rp,lam,lamp\n0,1.5,-1,0.5,0.5\n0,1,0,1,0\n", {}),
        ("s,r,rp,lam,lamp\n-1,nan,-1,0.5,0.5\n0,1,0,1,0\n", {}),
        ("s,r,rp,lam,lamp\n-1,1.5,-1,nan,0.5\n0,1,0,1,0\n", {}),
        ("s,r,rp,lam,lamp\n-1,-1,-1,0.5,0.5\n0,0,0,1,0\n", {}),
        ("s,r,rp,lam,lamp\n-1,1.5,-1,0.5,0.5\n0,1,0,1,0\n", {"interval": [2.0, 3.0]}),
        ("s,r,rp,lam,lamp\n", {}),
    ],
    ids=["non_numeric", "one_row", "four_columns", "s_not_increasing", "r_nan",
         "lam_partly_nan", "r_not_positive", "interval_without_grid_points", "header_only"],
)
# A warning would be a second stderr line of the process; pytest captures
# warnings, so each is made an error here.
@pytest.mark.filterwarnings("error")
def test_verify_input_error_exits_2_with_one_line(tmp_path, capsys, csv, extra):
    path = tmp_path / "p.csv"
    path.write_text(csv)
    config = {"n": 3, "R": -6.0, "a": 1.0, "profile_csv": str(path), **extra}
    _assert_one_line_input_error(tmp_path, capsys, "verify", json.dumps(config))


def test_verify_of_a_constant_solution_export_exits_2(tmp_path, capsys):
    params = {"n": 3, "R": 6.0, "a": 1.0}
    cfg = _write_config(tmp_path / "k.json", {**params, "r0": 1.0, "s_max": 1.0})
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    config = {**params, "profile_csv": str(tmp_path / "profile.csv")}
    _assert_one_line_input_error(tmp_path, capsys, "verify", json.dumps(config))


@pytest.mark.parametrize("interval, code", [(None, 0), ([-1.0, 0.0], 2)],
                         ids=["whole", "pole_only_interval"])
def test_verify_of_a_pole_anchored_csv(tmp_path, capsys, interval, code):
    # The flat ball's grid starts at its pole r = 0, the one row verification
    # leaves out; an interval that holds only that row is an input error.
    path = tmp_path / "pole.csv"
    write_profile_csv(str(path), space_form_profile(0, 1.0, 3.0))
    config = {"n": 3, "R": 0.0, "a": 0.0, "profile_csv": str(path)}
    if interval is not None:
        config["interval"] = interval
    cfg = _write_config(tmp_path / "v.json", config)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == code
    _, err = capsys.readouterr()
    if code == 0:
        env = _read_json(tmp_path / "verify.json")
        assert env["residuals"]["grid_size"] == 2000 and env["verdict"] == "pass"
    else:
        assert err == "error: no grid point with r > 0 inside the requested interval\n"


# Inputs whose improper-tail remainder estimate overflowed (the first three
# and the last four) or underflowed (the fourth): each must finish without an
# internal error.  The last four masses now stop at the chart's kappa0
# certificate; test_matching reaches their overflow guards through the library.  The n = 1000 chart asks for no match: its exclusion radius
# lies closer to the anchor than the matching table's first node, and the
# error line says so instead of naming a paired root.
@pytest.mark.parametrize(
    "command, config, line",
    [
        ("match", {"n": 100, "R": -6.0, "a": 1.0, "r0": 1.0, "zeta1": 1.0, "s_max": 3.0}, None),
        ("match", {"n": 1000, "R": -6.0, "a": 6.0, "r0": 1.0, "zeta1": 3.0}, None),
        ("schwarzschild", {"n": 1000, "R": -3.0, "a": 0.5, "s_max": 2.0},
         "error: exclusion radius unresolved: its target -G(inf) = -333000 lies "
         "below G at the matching table's first node s = 2.04429e-06"),
        ("match", {"n": 3, "R": -1e-300, "a": 1.0, "r0": 1.0, "zeta1": 1.0}, None),
        *(("schwarzschild", {"n": 3, "R": -6.0, "a": a}, None)
          for a in (1e170, 1e180, 1e200, 1e300)),
    ],
    ids=["n100", "n1000", "schwarzschild_n1000", "R_tiny",
         "a_1e170", "a_1e180", "a_1e200", "a_1e300"],
)
def test_improper_tail_inputs_exit_cleanly(tmp_path, capsys, command, config, line):
    cfg = _write_config(tmp_path / "c.json", config)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    _, err = capsys.readouterr()
    assert code in (0, 2), err
    assert len(err.splitlines()) == (code == 2), err
    assert "internal error" not in err
    if line is not None:
        assert code == 2 and err == line + "\n"


def test_unknown_tol_name_exits_2(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0},
    )
    code = main([
        "construct", "--config", cfg, "--out", str(tmp_path),
        "--tol", "bogus=1e-3",
    ])
    assert code == 2


def test_seedless_flag(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "s_max": 1.0},
    )
    assert main([
        "construct", "--config", cfg, "--out", str(tmp_path), "--seedless",
    ]) == 0
    # The flag is a pure marker: passing a value is an argparse error.
    assert main([
        "construct", "--config", cfg, "--out", str(tmp_path), "--seedless=1",
    ]) == 2


# ----------------------------------------------------------------------
# verify pipeline and negative controls
# ----------------------------------------------------------------------


@pytest.fixture()
def constructed(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 3.0, "C": 0.25},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "profile.json")
    return tmp_path, env


def test_verify_pipeline_passes(constructed):
    tmp_path, env = constructed
    cfg = _write_config(
        tmp_path / "v.json",
        {
            "n": 3, "R": -6.0, "a": 1.0,
            "profile_csv": str(tmp_path / "profile.csv"),
            "kappa0": env["kappa0"],
        },
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "verify.json")
    assert set(summary) >= {"command", "params", "residuals", "verdict", "tolerances"}
    assert summary["verdict"] == "pass"
    assert summary["residuals"]["max_critical_residual"] < 1e-8


def test_verify_perturbed_potential_fails(constructed):
    tmp_path, env = constructed
    cols = read_profile_csv(str(tmp_path / "profile.csv"))
    cols["lam"] = cols["lam"] + 1e-2 * cols["s"]
    rows = ["s,r,rp,lam,lamp"]
    for i in range(cols["s"].size):
        rows.append(",".join(
            format(cols[k][i], ".17g") for k in ("s", "r", "rp", "lam", "lamp")
        ))
    (tmp_path / "forged.csv").write_text("\n".join(rows) + "\n")
    cfg = _write_config(
        tmp_path / "v.json",
        {
            "n": 3, "R": -6.0, "a": 1.0,
            "profile_csv": str(tmp_path / "forged.csv"),
            "kappa0": env["kappa0"],
        },
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    summary = _read_json(tmp_path / "verify.json")
    assert summary["verdict"] == "fail"
    assert summary["residuals"]["max_critical_residual"] > 1e-3


def test_verify_perturbed_kappa0_fails(constructed, capsys):
    tmp_path, env = constructed
    cfg = _write_config(
        tmp_path / "v.json",
        {
            "n": 3, "R": -6.0, "a": 1.0,
            "profile_csv": str(tmp_path / "profile.csv"),
            "kappa0": env["kappa0"] + 1e-2,
        },
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "inconsistent" in capsys.readouterr().err


def test_nan_residual_fails_the_verdict():
    # A NaN in lam' reaches every critical residual; the verdict must read
    # it as a failure, not as a residual under its allowance.
    prof = solve_potential(integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 3.0), 0.25)
    forged = copy.copy(prof)
    forged.lamp = prof.lamp.copy()
    forged.lamp[prof.grid.size // 3] = np.nan
    verdict, residuals = cli._run_verification(forged, None, None, cli._VERIFY_DEFAULTS)
    assert math.isnan(residuals["max_critical_residual"])
    assert verdict == "fail"


# Profile CSVs whose curvature leaves float64: r' = 1e200 squares past it,
# and with r = 1e-300 at n = 1000 so does r^(1-n).
_OVERFLOWING_ROWS = {
    "rp_1e200": (3, "0,1,1e200,1,1\n1,2,1e200,1,1\n2,3,1e200,1,1\n"),
    "r_1e-300_n1000": (1000, "0,1e-300,1e200,1,1\n1,2,1e200,1,1\n2,3,1e200,1,1\n"),
}


@pytest.mark.parametrize("n, rows", _OVERFLOWING_ROWS.values(), ids=_OVERFLOWING_ROWS.keys())
def test_floating_point_fault_exits_3_with_one_line(tmp_path, n, rows):
    # A real process: numpy's warnings would print beside the error line,
    # where in-process pytest turns them into errors.
    (tmp_path / "p.csv").write_text("s,r,rp,lam,lamp\n" + rows)
    cfg = _write_config(
        tmp_path / "v.json",
        {"n": n, "R": -6.0, "a": 1.0, "profile_csv": str(tmp_path / "p.csv")},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "warpcrit.cli", "verify", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert re.fullmatch(r"error: floating-point fault at \w+\.py:\d+: overflow .*", lines[0])
    assert not (tmp_path / "out" / "verify.json").exists()


def test_verify_missing_csv_exits_2(tmp_path):
    cfg = _write_config(
        tmp_path / "v.json",
        {"n": 3, "R": -6.0, "a": 1.0, "profile_csv": str(tmp_path / "none.csv")},
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_tol_override_forces_failure(constructed):
    tmp_path, env = constructed
    cfg = _write_config(
        tmp_path / "v.json",
        {
            "n": 3, "R": -6.0, "a": 1.0,
            "profile_csv": str(tmp_path / "profile.csv"),
        },
    )
    code = main([
        "verify", "--config", cfg, "--out", str(tmp_path),
        "--tol", "critical=1e-30",
    ])
    assert code == 1, "an absurd tolerance must flip the verdict"
    summary = _read_json(tmp_path / "verify.json")
    assert summary["tolerances"]["critical"] == 1e-30


# ----------------------------------------------------------------------
# match / spectrum / schwarzschild / examples
# ----------------------------------------------------------------------


def test_match_symmetric_fixed_point(tmp_path):
    prof = integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 8.0)
    theta = prof.theta
    cfg = _write_config(
        tmp_path / "m.json",
        {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "zeta1": theta, "s_max": 8.0},
    )
    assert main(["match", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "match.json")
    assert abs(env["interval"][0] + theta) < 1e-10, "zeta1=theta must map to -theta"
    assert abs(env["C"]) < 1e-10


def test_spectrum_zero_mode_command(tmp_path):
    prof = solve_potential(integrate_profile(OdeParams(n=3, R=6.0, a=1.0), 0.8, 8.0), 0.0)
    roots = find_roots(prof)
    s1 = float(roots.rp_roots[roots.rp_roots > 1e-12][0])
    cfg = _write_config(
        tmp_path / "s.json",
        {
            "n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "s_max": 8.0,
            "interval": [0.0, s1], "eigenvector_csv": True,
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "spectrum.json")
    assert env["spectral"]["sign"] == "ZERO"
    text = (tmp_path / "spectrum_eigenvector.csv").read_text()
    vec = text.splitlines()
    assert vec[0] == "s,phi" and len(vec) > 100
    result = first_dirichlet_eigenvalue(prof, (0.0, s1), num=512)
    rows = ["s,phi"] + [
        f"{format(float(s), '.17g')},{format(float(p), '.17g')}"
        for s, p in zip(result.nodes, result.eigenvector)
    ]
    assert text == "\n".join(rows) + "\n"


def test_spectrum_signs_command(tmp_path):
    cfg = _write_config(
        tmp_path / "s.json",
        {"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "C": 0.1, "signs": True, "num": 256},
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "spectrum.json")
    assert env["signs"]["consistent"] is True
    assert env["signs"]["matched"]["sign"] == "POSITIVE"


def test_schwarzschild_command(tmp_path):
    cfg = _write_config(
        tmp_path / "w.json", {"n": 3, "R": 0.0, "a": 0.5},
    )
    assert main(["schwarzschild", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "schwarzschild.json")
    assert abs(env["horizon"] - 1.0) < 1e-10
    assert abs(env["horizon_from_polynomial"] - 1.0) < 1e-10


def test_schwarzschild_command_with_a_match(tmp_path):
    # The first chart of the benchmark's tail workload, without its jitter.
    config = {"n": 3, "R": -6.0, "a": 1.0, "s_max": 3.0, "zeta1": 1.0}
    cfg = _write_config(tmp_path / "w.json", config)
    assert main(["schwarzschild", "--config", cfg, "--out", str(tmp_path)]) == 0
    got = _read_json(tmp_path / "schwarzschild.json")["match"]
    chart = schwarzschild_form(OdeParams(n=3, R=-6.0, a=1.0), s_max=3.0)
    want = chart.match(1.0)
    assert got == {k: getattr(want, k) for k in ("zeta1", "zeta2", "C", "discrepancy")}
    assert got["discrepancy"] <= 1e-8 * abs(got["zeta2"])


def test_schwarzschild_of_a_large_mass_keeps_kappa0(tmp_path):
    # The largest decade of mass whose horizon still carries kappa0 to 1e-10
    # (from a = 1e7 on the chart exits 2).
    cfg = _write_config(tmp_path / "w.json", {"n": 3, "R": -6.0, "a": 1e6})
    assert main(["schwarzschild", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert abs(_read_json(tmp_path / "schwarzschild.json")["kappa0"] - 1.0) <= 1e-10


def test_schwarzschild_envelope_states_the_chart_kappa0(tmp_path):
    # The chart's anchor radius realizes kappa0 = 1 only to its bracketing
    # tolerance; the envelope states the kappa0 its profile carries.
    config = {"n": 4, "R": -6.0, "a": 50.0, "s_max": 3.0}
    cfg = _write_config(tmp_path / "w.json", config)
    assert main(["schwarzschild", "--config", cfg, "--out", str(tmp_path)]) == 0
    got = _read_json(tmp_path / "schwarzschild.json")["kappa0"]
    chart = schwarzschild_form(OdeParams(n=4, R=-6.0, a=50.0), s_max=3.0)
    assert got == chart.profile.kappa0 != 1.0


def test_example1_command(tmp_path):
    prof = integrate_profile(OdeParams(n=3, R=0.0, a=1.0), 1.0, 8.0)
    zeta1 = 1.5 * prof.theta
    cfg = _write_config(
        tmp_path / "e.json",
        {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "zeta1": zeta1, "s_max": 8.0},
    )
    assert main(["example1", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "example1.json")
    assert env["verdict"] == "pass"
    assert env["domain"]["boundary_components"] == 2
    assert (tmp_path / "example1.csv").exists()


def test_example2_command(tmp_path):
    cfg = _write_config(
        tmp_path / "e.json",
        {"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "s_max": 8.0},
    )
    assert main(["example2", "--config", cfg, "--out", str(tmp_path)]) == 0
    env = _read_json(tmp_path / "example2.json")
    assert env["verdict"] == "pass"
    assert env["domain"]["boundary_components"] == 1
    assert env["domain"]["quotient"]["free"] is True


def test_fiber_key_reaches_the_domain(tmp_path):
    # The profile of the match config has kappa0 = 2a = 2.
    fiber = {"dim": 2, "kappa0": 2.0}
    cfg = _write_config(tmp_path / "m.json", dict(_SMALL_CONFIGS["match"], fiber=fiber))
    assert main(["match", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "match.json")["fiber"] == dict(fiber, symmetry=False)
    # An explicit round fiber with its involution is example2's default.
    plain = _write_config(tmp_path / "plain.json", _SMALL_CONFIGS["example2"])
    assert main(["example2", "--config", plain, "--out", str(tmp_path / "plain")]) == 0
    kappa0 = _read_json(tmp_path / "plain" / "example2.json")["domain"]["fiber"]["kappa0"]
    explicit = _write_config(
        tmp_path / "explicit.json",
        dict(_SMALL_CONFIGS["example2"], fiber={"dim": 2, "kappa0": kappa0, "symmetry": True}),
    )
    assert main(["example2", "--config", explicit, "--out", str(tmp_path / "explicit")]) == 0
    assert _files(tmp_path / "explicit") == _files(tmp_path / "plain")


# ----------------------------------------------------------------------
# the task runner
# ----------------------------------------------------------------------


_SMALL_CONFIGS = {
    "construct": {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 2.0, "C": 0.25},
    "verify": {"n": 3, "R": -6.0, "a": 1.0},
    "match": {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "zeta1": 1.5, "s_max": 3.0},
    "spectrum": {"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "s_max": 3.0,
                 "interval": [0.0, 1.0], "num": 64},
    "schwarzschild": {"n": 3, "R": 0.0, "a": 0.5, "s_max": 3.0},
    "example1": {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "zeta1": 1.5, "s_max": 3.0},
    "example2": {"n": 3, "R": 6.0, "a": 1.0, "r0": 0.8, "s_max": 3.0},
}


def _small_config(tmp_path, command):
    config = dict(_SMALL_CONFIGS[command], tag=f"run_{command}")
    if command == "verify":
        prof = solve_potential(integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 2.0), 0.25)
        write_profile_csv(str(tmp_path / "p.csv"), prof)
        config["profile_csv"] = str(tmp_path / "p.csv")
    return _write_config(tmp_path / "c.json", config)


@pytest.mark.parametrize(
    "command, tolerances, code",
    [(command, {}, 0) for command in _SMALL_CONFIGS]
    + [("verify", {"critical": 1e-30}, 1)],
    ids=[*_SMALL_CONFIGS, "verify_fails"],
)
def test_runner_contract(tmp_path, capsys, command, tolerances, code):
    cfg = _small_config(tmp_path, command)
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    for name, value in tolerances.items():
        argv += ["--tol", f"{name}={value}"]
    assert main(argv) == code
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}: "), out
    assert err == ""
    env = _read_json(tmp_path / f"run_{command}.json")
    assert env["command"] == command
    assert code == (0 if env.get("verdict", "pass") == "pass" else 1)


@pytest.mark.parametrize("command", ["match", "example1", "example2"])
def test_root_is_not_a_tolerance_name(tmp_path, capsys, command):
    cfg = _small_config(tmp_path, command)
    argv = [command, "--config", cfg, "--out", str(tmp_path), "--tol", "root=1e-30"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: unknown tolerance 'root'; known: critical, scal, weyl, einstein, fiber"
    ]


_CONSTRUCT, *_CONSTRUCT_KEYS = cli._COMMANDS["construct"]


def _broken_construct(config, ctx):
    """``construct``, except that the task tagged construct_001 hits a bug."""
    if config.get("tag") == "construct_001":
        return 1 / 0
    return _CONSTRUCT(config, ctx)


_BROKEN = (_broken_construct, *_CONSTRUCT_KEYS)


def test_internal_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "construct", _BROKEN)
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "s_max": 1.0, "tag": "construct_001"},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: internal error (ZeroDivisionError at test_cli.py:")
    assert "division by zero" in lines[0]


def test_internal_error_in_sweep_keeps_the_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "construct", _BROKEN)
    cfg = _write_config(
        tmp_path / "sweep.json",
        {
            "n": 3, "a": 1.0, "s_max": 1.0, "workers": 1,
            "sweep": [{"R": 0.0, "r0": 1.0}, {"R": -6.0, "r0": 1.0}],
        },
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 3
    summary = _read_json(tmp_path / "construct_sweep.json")
    assert summary["tasks"] == 2 and summary["failures"] == 1
    assert summary["sweep"][0] == {"tag": "construct_000", "exit": 0}
    assert summary["sweep"][1]["exit"] == 3
    assert "ZeroDivisionError" in summary["sweep"][1]["error"]
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "sweep: 2 tasks, 1 failures"
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_failure_outside_a_task_exits_3_with_one_line(tmp_path, capsys):
    # The sweep summary cannot be written: its path is a directory.  The
    # failure happens after every task has run, outside the task runner.
    (tmp_path / "construct_sweep.json").mkdir()
    cfg = _write_config(
        tmp_path / "sweep.json",
        {"n": 3, "R": -6.0, "a": 1.0, "s_max": 1.0, "workers": 1,
         "sweep": [{"r0": 1.0}, {"r0": 1.1}]},
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: internal error (IsADirectoryError at ")


def test_short_working_precision_exits_3_before_any_command(tmp_path, capsys, monkeypatch):
    # Where the long double is float64, the tolerances are out of reach: the
    # run stops at once with one line naming the bits, and writes nothing.
    monkeypatch.setattr(support, "LD", np.float64)
    cfg = _write_config(tmp_path / "c.json", {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0})
    out_dir = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: working precision has 52 mantissa bits; the tolerances need at "
        "least 63 (x86-64's 80-bit long double)"
    ]
    assert not out_dir.exists()


# ----------------------------------------------------------------------
# sweeps and process entry
# ----------------------------------------------------------------------


def test_sweep_fans_out(tmp_path):
    cfg = _write_config(
        tmp_path / "sweep.json",
        {
            "n": 3, "a": 1.0, "s_max": 2.0,
            "sweep": [
                {"R": 0.0, "r0": 1.0},
                {"R": -6.0, "r0": 1.0},
                {"R": 6.0, "r0": 0.8},
            ],
            "workers": 2,
        },
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "construct_sweep.json")
    assert summary["tasks"] == 3 and summary["failures"] == 0
    for i in range(3):
        assert (tmp_path / f"construct_{i:03d}.csv").exists()


def test_sweep_reports_worst_exit(tmp_path):
    cfg = _write_config(
        tmp_path / "sweep.json",
        {
            "n": 3, "a": 1.0, "s_max": 2.0, "workers": 1,
            "sweep": [
                {"R": 0.0, "r0": 1.0},
                {"R": 0.0, "r0": -1.0},
            ],
        },
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 2
    summary = _read_json(tmp_path / "construct_sweep.json")
    assert summary["failures"] == 1
    assert "error" in summary["sweep"][1]


def test_console_entry_point(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "s_max": 1.0},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "warpcrit.cli",
         "construct", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    print(proc.stdout, proc.stderr)
    assert proc.returncode == 0
    assert "construct: wrote" in proc.stdout


def test_no_command_exits_2():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


# ----------------------------------------------------------------------
# in-process sweeps: tags, and the batch integration
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "entries, tag",
    [
        ([{"tag": "x"}, {"tag": "x"}], "x"),
        ([{"tag": "example1_001"}, {}], "example1_001"),
        ([{}, {"tag": "example1_sweep"}], "example1_sweep"),
    ],
    ids=["repeated", "default", "summary"],
)
def test_sweep_rejects_colliding_tags(tmp_path, capsys, entries, tag):
    cfg = _write_config(
        tmp_path / "sweep.json",
        dict(_SMALL_CONFIGS["example1"], workers=1, sweep=entries),
    )
    out_dir = tmp_path / "out"
    assert main(["example1", "--config", cfg, "--out", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and repr(tag) in err
    assert list(out_dir.iterdir()) == [], "no entry may run"


# (command, base config, entries): every in-process sweep below batches its
# profiles, and some entries fail: a = 0 exits 2, as do r0 < 0, a zeta1
# beyond the window, a sign report with R < 0 and a spectrum with neither
# signs nor interval; a collapsing warp factor (a < 0) exits 3.  A constant
# solution is not batched.
_SWEEPS = [
    ("construct", {"n": 3, "a": 1.0, "s_max": 2.0, "C": 0.25}, [
        {"R": -6.0, "r0": 1.0}, {"R": 0.0, "r0": 1.0, "n": 4}, {"R": 6.0, "r0": 0.8},
        {"R": 6.0, "r0": 1.0}, {"R": 6.0, "a": -1.0, "r0": 1.0}, {"R": 0.0, "r0": -1.0},
    ]),
    ("example1", {"n": 3, "a": 1.0, "s_max": 3.0, "zeta1": 1.5}, [
        {"R": 0.0, "r0": 1.0}, {"R": -6.0, "r0": 1.0, "zeta1": 1.0},
        {"R": 6.0, "r0": 0.8, "zeta1": 0.6}, {"R": 0.0, "r0": 1.0, "n": 4},
        {"R": 0.0, "r0": 1.0, "a": 0.0},
    ]),
    ("example2", {"n": 3, "R": 6.0, "a": 1.0, "s_max": 3.0}, [
        {"r0": 0.8}, {"r0": 0.8, "n": 4}, {"r0": 1.0, "a": 2.0}, {"r0": 0.8, "a": 0.0},
    ]),
    ("match", {"n": 3, "a": 1.0, "s_max": 3.0}, [
        {"R": 0.0, "r0": 1.0, "zeta1": 1.5}, {"R": -6.0, "r0": 1.0, "zeta1": 1.0},
        {"R": 0.0, "r0": 1.0, "zeta1": 1.2, "n": 4, "a": 2.0, "write_profile": True},
        {"R": 0.0, "r0": 1.0, "zeta1": 5.0},
    ]),
    ("spectrum", {"R": 6.0, "a": 1.0, "C": 0.1, "s_max": 4.0, "signs": True, "num": 64}, [
        {"n": 3, "r0": 0.8}, {"n": 3, "r0": 1.3}, {"n": 4, "r0": 0.8},
        {"n": 3, "r0": 0.8, "a": -1.0, "signs": False, "interval": [0.0, 1.0]},
        {"n": 3, "r0": 0.9, "signs": False}, {"n": 3, "r0": 1.0, "R": -6.0},
    ]),
    # No anchor r0: the entries integrate nothing ahead, and no batch runs.
    ("schwarzschild", {"n": 3, "R": -6.0, "a": 1.0, "s_max": 3.0}, [
        {}, {"R": 0.0}, {"zeta1": 1.0}, {"kappa0": 2.0}, {"n": 4, "a": 50.0},
    ]),
]

# The entries of each sweep above that their command's builder rejects before
# it integrates: they must not join the batch.
_REJECTED_UP_FRONT = {"example1": [4], "example2": [3], "spectrum": [4, 5]}


def _files(directory) -> dict:
    return {p.name: _strip_timestamp(p.read_text()) for p in sorted(directory.iterdir())}


@pytest.mark.parametrize(
    "command, base, entries, workers",
    [(*s, 1) for s in _SWEEPS] + [(*s, 2) for s in _SWEEPS],
    ids=[s[0] for s in _SWEEPS] + [f"{s[0]}-pooled" for s in _SWEEPS],
)
def test_in_process_sweep_equals_single_runs(
    tmp_path, capfd, monkeypatch, command, base, entries, workers
):
    batches, members = [], []
    integrate_batch = profiles.integrate_batch
    monkeypatch.setattr(
        profiles, "integrate_batch", lambda *a, **k: batches.append(None) or integrate_batch(*a, **k)
    )
    batch_members = profiles._batch_members
    monkeypatch.setattr(
        profiles, "_batch_members", lambda keys: members.extend(keys) or batch_members(keys)
    )
    single = tmp_path / "single"
    codes, outs, errs = [], [], []
    for i, entry in enumerate(entries):
        cfg = _write_config(tmp_path / "c.json", dict(base, **entry, tag=f"{command}_{i:03d}"))
        codes.append(main([command, "--config", cfg, "--out", str(single)]))
        out, err = capfd.readouterr()
        outs.append(out)
        errs.append(err)
    assert not batches
    assert set(codes) - {0} and 0 in codes, "the sweep must mix passing and failing entries"

    swept = tmp_path / "sweep"
    cfg = _write_config(tmp_path / "s.json", dict(base, workers=workers, sweep=entries))
    assert main([command, "--config", cfg, "--out", str(swept)]) == max(codes)
    out, err = capfd.readouterr()
    assert profiles._PREFETCH == {}
    summary = _read_json(swept / f"{command}_sweep.json")
    assert [r["exit"] for r in summary["sweep"]] == codes
    (swept / f"{command}_sweep.json").unlink()
    assert _files(swept) == _files(single)
    failures = sum(code != 0 for code in codes)
    outs.append(f"sweep: {len(entries)} tasks, {failures} failures\n")
    if workers == 1:
        # One batch exactly when the command's entries carry an anchor r0.
        assert len(batches) == (1 if "r0" in cli._COMMANDS[command][1] else 0)
        for i in _REJECTED_UP_FRONT.get(command, []):
            cfg = dict(base, **entries[i])
            key = (OdeParams(cfg["n"], cfg["R"], cfg["a"]), cfg["r0"], cfg["s_max"])
            assert codes[i] == 2 and key not in members, entries[i]
        assert out == "".join(outs)
        assert err == "".join(errs)
    else:
        # The entries' lines come from the worker processes, interleaved.
        assert sorted(out.splitlines()) == sorted("".join(outs).splitlines())
        assert sorted(err.splitlines()) == sorted("".join(errs).splitlines())


def test_prefetch_is_cleared_after_an_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "construct", _BROKEN)
    cfg = _write_config(tmp_path / "s.json", dict(_SWEEPS[0][1], workers=1, sweep=_SWEEPS[0][2]))
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert profiles._PREFETCH == {}

    # An exception that escapes the sweep itself still empties the store,
    # and main maps it to exit 3 and one line.
    def escape(command, config, ctx):
        assert profiles._PREFETCH, "the batch ran before the first entry"
        raise RuntimeError("escaped")

    monkeypatch.setattr(cli, "_run_task", escape)
    capsys.readouterr()
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert profiles._PREFETCH == {}
    err = capsys.readouterr().err
    assert err.startswith("error: internal error (RuntimeError at ") and err.endswith(": escaped\n")
    assert len(err.splitlines()) == 1


def test_sweep_frees_each_base_when_its_entry_ends(tmp_path, monkeypatch):
    # Before each entry integrates, the bases of the entries before it must
    # be gone.  Recorded here and asserted after main returns: an assertion
    # inside an entry would only become that entry's exit 3.
    bases, stored, alive = [], [], []
    integrate_profile = matching.integrate_profile

    def spy(*args):
        gc.collect()
        alive.append([ref() is not None for ref in bases])
        stored.append(len(profiles._PREFETCH))
        prof = integrate_profile(*args)
        bases.append(weakref.ref(prof._base))
        return prof

    monkeypatch.setattr(matching, "integrate_profile", spy)
    base, entries = _SWEEPS[1][1], _SWEEPS[1][2][:3]
    cfg = _write_config(tmp_path / "s.json", dict(base, workers=1, sweep=entries))
    assert main(["example1", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert stored == [3, 2, 1], "each entry takes its base from the batch"
    assert alive == [[], [False], [False, False]]


@pytest.mark.parametrize("count", [1, 2])
def test_small_sweep_integrates_on_the_scalar_loop(tmp_path, monkeypatch, count):
    calls = []
    integrate = profiles.integrate
    monkeypatch.setattr(profiles, "integrate", lambda *a, **k: calls.append(None) or integrate(*a, **k))
    base, entries = _SWEEPS[0][1], _SWEEPS[0][2][:count]
    cfg = _write_config(tmp_path / "s.json", dict(base, workers=1, sweep=entries))
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == count


def test_long_sweep_batches_in_runs_of_entries(tmp_path, monkeypatch):
    # Six entries in runs of three: two batches, and the same files as one.
    batches = []
    integrate_batch = profiles.integrate_batch
    monkeypatch.setattr(
        profiles, "integrate_batch", lambda *a, **k: batches.append(a[0]) or integrate_batch(*a, **k)
    )
    entries = [{"n": n, "R": R, "r0": 0.8} for n in (3, 4) for R in (-6.0, 0.0, 6.0)]
    cfg = _write_config(tmp_path / "s.json", {"a": 1.0, "s_max": 2.0, "workers": 1, "sweep": entries})
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    assert [len(members) for members in batches] == [6]
    monkeypatch.setattr(cli, "_BATCH_ENTRIES", 3)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    assert [len(members) for members in batches] == [6, 3, 3]
    assert _files(tmp_path / "runs") == _files(tmp_path / "one")


class _SequentialPool:
    """A stand-in for ProcessPoolExecutor that maps in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def test_sweep_without_workers_key_uses_the_cores(tmp_path, monkeypatch):
    # No "workers": one worker per core, at most one per entry and eight.
    pools = []
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor", lambda max_workers: pools.append(max_workers) or _SequentialPool()
    )
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    config = {"n": 3, "a": 1.0, "s_max": 2.0, "sweep": _SWEEPS[0][2]}
    default = _write_config(tmp_path / "d.json", config)
    assert main(["construct", "--config", default, "--out", str(tmp_path / "default")]) == 3
    assert pools == [3]
    one = _write_config(tmp_path / "one.json", dict(config, workers=1))
    assert main(["construct", "--config", one, "--out", str(tmp_path / "one")]) == 3
    assert pools == [3]
    assert _files(tmp_path / "default") == _files(tmp_path / "one")


def test_pooled_sweep_batches_each_chunk(tmp_path, monkeypatch):
    # Seven entries on two workers: chunks of four and three, one batch each.
    batches = []
    integrate_batch = profiles.integrate_batch
    monkeypatch.setattr(
        profiles, "integrate_batch", lambda *a, **k: batches.append(a[0]) or integrate_batch(*a, **k)
    )
    pools = []
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor", lambda max_workers: pools.append(max_workers) or _SequentialPool()
    )
    entries = [{"n": n, "R": R, "r0": 0.8} for n in (3, 4) for R in (-6.0, 0.0, 6.0)]
    entries.append({"n": 5, "R": 0.0, "r0": 0.8})
    config = {"a": 1.0, "s_max": 2.0, "sweep": entries}
    pooled = _write_config(tmp_path / "p.json", dict(config, workers=2))
    assert main(["construct", "--config", pooled, "--out", str(tmp_path / "pooled")]) == 0
    assert [len(members) for members in batches] == [4, 3]
    assert pools == [2]
    one = _write_config(tmp_path / "one.json", dict(config, workers=1))
    assert main(["construct", "--config", one, "--out", str(tmp_path / "one")]) == 0
    assert [len(members) for members in batches] == [4, 3, 7]
    assert pools == [2]
    assert _files(tmp_path / "pooled") == _files(tmp_path / "one")
