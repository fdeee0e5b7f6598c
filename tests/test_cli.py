"""Serialization round-trips and the batch command-line front-end.

Every CLI test drives ``main(argv)`` in-process against configs in a temp
directory and asserts the documented exit-code contract: 0 success,
1 verification failure, 2 input error, 3 numerical failure.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from warpcrit import (
    ConfigError,
    OdeParams,
    integrate_profile,
    profile_from_arrays,
    read_profile_csv,
    solve_potential,
    verify_critical,
    write_profile_csv,
)
from warpcrit.cli import _resample, main
from warpcrit.profiles import find_roots
from warpcrit.serialize import _fmt, dump_json, write_csv
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


def test_dump_json_rejects_nonfinite():
    with pytest.raises(ConfigError):
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


def test_resample_carries_even_branch():
    base = integrate_profile(OdeParams(n=3, R=0.0, a=1.0), 1.0, 3.0)
    export = _resample(solve_potential(base, 0.2), 1e-2)
    assert export.grid.size == 601
    want = solve_potential(base, 0.2).sample(export.grid)
    for name in ("r", "rp", "lam", "lamp"):
        assert np.array_equal(getattr(export, name), getattr(want, name)), name
    # The export must accept a new potential on its own grid.
    again = solve_potential(export, 0.3)
    want = solve_potential(base, 0.3).sample(export.grid)
    assert np.array_equal(again.lam, want.lam)
    assert np.array_equal(again.lamp, want.lamp)
    partial = _resample(base, 1e-2)
    assert partial.lam is None and partial.C is None
    assert np.array_equal(solve_potential(partial, 0.3).lam, want.lam)


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
    "command, config, codes",
    [
        # 1e7 steps of max_step: beyond the integrator's step budget.
        ("construct", {"n": 3, "R": 0.0, "a": 1.0, "r0": 1.0, "s_max": 1e6}, (3,)),
        # r0^(1-n) = 1e400 overflows float64.
        ("construct", {"n": 3, "R": 0.0, "a": 1.0, "r0": 1e-200}, (2, 3)),
        # The window ends before the first positive critical point of r.
        ("spectrum", {"n": 3, "R": 6.0, "a": 1.0, "C": 0.1, "signs": True,
                      "r0": 0.8, "s_max": 0.5}, (2,)),
    ],
    ids=["huge_window", "tiny_r0", "signs_no_critical_point"],
)
def test_out_of_range_construct_fails_cleanly(tmp_path, command, config, codes):
    cfg = _write_config(tmp_path / "c.json", config)
    proc = subprocess.run(
        [sys.executable, "-m", "warpcrit.cli",
         command, "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


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
