"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Subcommands
    construct      integrate a profile and attach its potential
    verify         recompute pointwise residuals for a stored profile CSV
    match          solve the two-boundary matching problem
    spectrum       first Dirichlet eigenvalue / structural sign report
    schwarzschild  static radial form with the dual-route horizon check
    example1       end-to-end two-boundary domain with verification
    example2       end-to-end reflection-quotient domain with verification

Exit codes: 0 success, 1 verification failure, 2 input/config error,
3 numerical failure.  Any command accepts ``"sweep": [...]`` in its config
to fan the run out over a process pool, one atomic output set per task.

There is no randomness anywhere in the pipeline; ``--seedless`` is accepted
for interface stability and rejects an explicit value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from .curvature import verify_critical
from .errors import (
    ConfigError,
    InputError,
    NumericalError,
    VerificationError,
    WarpcritError,
)
from .matching import (
    FiberSpec,
    build_quotient_domain,
    build_two_boundary_domain,
    schwarzschild_form,
)
from .profiles import OdeParams, Profile, find_roots, integrate_profile, solve_potential
from .serialize import (
    profile_from_arrays,
    read_profile_csv,
    write_csv,
    write_envelope,
    write_profile_csv,
)
from .spectrum import first_dirichlet_eigenvalue, verify_eigenvalue_signs

__all__ = ["main"]

COMMANDS = (
    "construct",
    "verify",
    "match",
    "spectrum",
    "schwarzschild",
    "example1",
    "example2",
)

# Tolerance names accepted by --tol NAME=VALUE and config "tolerances".
TOLERANCE_NAMES = ("critical", "scal", "weyl", "einstein", "fiber", "root")

_NUM = (int, float)


def _is_num(x) -> bool:
    return isinstance(x, _NUM) and not isinstance(x, bool)


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _validate(config: dict, required: dict, optional: dict) -> None:
    """Reject unknown keys and wrong value shapes before running anything."""
    for key in config:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown config key {key!r}")
    for key, check in required.items():
        if key not in config:
            raise ConfigError(f"missing required config key {key!r}")
        check(key, config[key])
    for key, check in optional.items():
        if key in config:
            check(key, config[key])


def _want_num(key, val):
    if not _is_num(val) or not math.isfinite(float(val)):
        raise ConfigError(f"config key {key!r} must be a finite number")


def _want_int(key, val):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"config key {key!r} must be an integer")


def _want_str(key, val):
    if not isinstance(val, str) or not val:
        raise ConfigError(f"config key {key!r} must be a nonempty string")


def _want_bool(key, val):
    if not isinstance(val, bool):
        raise ConfigError(f"config key {key!r} must be a boolean")


def _want_interval(key, val):
    if (
        not isinstance(val, list)
        or len(val) != 2
        or not all(_is_num(v) and math.isfinite(float(v)) for v in val)
        or not float(val[0]) < float(val[1])
    ):
        raise ConfigError(f"config key {key!r} must be [lo, hi] with lo < hi")


def _want_tols(key, val):
    if not isinstance(val, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    for name, value in val.items():
        if name not in TOLERANCE_NAMES:
            raise ConfigError(
                f"unknown tolerance {name!r}; known: {', '.join(TOLERANCE_NAMES)}"
            )
        if not _is_num(value) or not float(value) > 0.0:
            raise ConfigError(f"tolerance {name!r} must be a positive number")


def _want_fiber(key, val):
    if not isinstance(val, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    _validate(
        val,
        {"dim": _want_int, "kappa0": _want_num},
        {"symmetry": _want_bool},
    )


def _parse_tol_flags(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol {name}: {value!r} is not a number") from exc
    _want_tols("--tol", out)
    return out


def _params_from(config: dict) -> OdeParams:
    return OdeParams(n=config["n"], R=float(config["R"]), a=float(config["a"]))


def _effective_tols(config: dict, overrides: dict, defaults: dict) -> dict:
    tols = dict(defaults)
    tols.update(config.get("tolerances", {}))
    tols.update(overrides)
    return {k: float(v) for k, v in tols.items()}


_PARAM_KEYS = {"n": _want_int, "R": _want_num, "a": _want_num}
_COMMON_OPT = {"tolerances": _want_tols, "tag": _want_str}


def _resample(profile: Profile, step: float) -> Profile:
    """Uniform resampling of the export grid at the requested step."""
    if step <= 0.0:
        raise ConfigError("--grid-step must be positive")
    span = profile.s_max - profile.s_min
    count = int(math.floor(span / step + 1e-12))
    if count < 2:
        raise ConfigError("--grid-step leaves fewer than 3 samples")
    grid = np.asarray(profile.s_min + step * np.arange(count + 1), dtype=np.longdouble)
    if profile.constant_solution:
        v = profile.sample(grid)
        return replace(profile, grid=grid, r=v.r, rp=v.rp, _roots=None, _gtable=None)
    # The even branch moves with the grid, so the export stays a profile that
    # solve_potential accepts; lam and lamp are then formed as sample forms them.
    r, rp, lam0, lam0p = profile.sample_base(grid)
    export = replace(
        profile, grid=grid, r=r, rp=rp, lam=None, lamp=None, C=None,
        _lam0=lam0, _lam0p=lam0p, _roots=None, _gtable=None,
    )
    return export if profile.C is None else solve_potential(export, profile.C)


def _roots_record(profile: Profile) -> dict:
    roots = find_roots(profile)
    return {
        "rp_roots": [float(x) for x in roots.rp_roots],
        "rp_kinds": list(roots.rp_kinds),
        "lam_roots": None
        if roots.lam_roots is None
        else [float(x) for x in roots.lam_roots],
        "period": roots.period,
    }


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_construct(config: dict, ctx: dict) -> tuple[int, dict]:
    _validate(
        config,
        dict(_PARAM_KEYS, r0=_want_num),
        dict(
            _COMMON_OPT,
            C=_want_num,
            s_max=_want_num,
            grid_step=_want_num,
        ),
    )
    params = _params_from(config)
    tag = config.get("tag", "profile")
    prof = integrate_profile(params, float(config["r0"]), float(config.get("s_max", 6.0)))
    roots = None
    if not prof.constant_solution:
        prof = solve_potential(prof, float(config.get("C", 0.0)))
        roots = _roots_record(prof)
    step = ctx["grid_step"] or config.get("grid_step")
    export = _resample(prof, float(step)) if step else prof
    csv_name = f"{tag}.csv"
    write_profile_csv(os.path.join(ctx["out"], csv_name), export)
    payload = {
        "command": "construct",
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "r0": float(config["r0"]),
        "C": None if prof.constant_solution else float(prof.C),
        "s_max": prof.s_max,
        "kappa0": prof.kappa0,
        "constant_solution": prof.constant_solution,
        "grid": {
            "points": int(export.grid.size),
            "step": float(step) if step else None,
        },
        "roots": roots,
        "tolerances": _effective_tols(config, ctx["tols"], {}),
        "outputs": {"csv": csv_name},
        "diagnostics": {
            k: v for k, v in prof.diagnostics.items() if isinstance(v, (int, float))
        },
    }
    write_envelope(os.path.join(ctx["out"], f"{tag}.json"), payload)
    print(f"construct: wrote {csv_name} ({export.grid.size} points), "
          f"kappa0={prof.kappa0:.12g}")
    return 0, payload


_VERIFY_DEFAULTS = {"critical": 1e-8, "scal": 1e-8, "weyl": 1e-8,
                    "einstein": 1e-8, "fiber": 1e-8}


def _run_verification(profile: Profile, fiber, interval, tols: dict) -> tuple[str, dict]:
    report = verify_critical(
        profile, fiber, interval=interval, fiber_tol=tols["fiber"]
    )
    scal_allow = tols["scal"] * (1.0 + abs(profile.params.R))
    checks = {
        "max_critical_residual": (report.max_critical_residual, tols["critical"]),
        "max_scal_deviation": (report.max_scal_deviation, scal_allow),
        "max_weyl_residual": (report.max_weyl_residual, tols["weyl"]),
    }
    if report.max_einstein_residual is not None:
        checks["max_einstein_residual"] = (
            report.max_einstein_residual,
            tols["einstein"],
        )
    verdict = "pass"
    residuals = {"grid_size": report.grid_size}
    for name, (value, allow) in checks.items():
        residuals[name] = value
        if value > allow:
            verdict = "fail"
    if report.max_einstein_residual is None:
        residuals["max_einstein_residual"] = None
    return verdict, residuals


def cmd_verify(config: dict, ctx: dict) -> tuple[int, dict]:
    _validate(
        config,
        dict(_PARAM_KEYS, profile_csv=_want_str),
        dict(
            _COMMON_OPT,
            kappa0=_want_num,
            fiber_dim=_want_int,
            interval=_want_interval,
        ),
    )
    params = _params_from(config)
    tag = config.get("tag", "verify")
    tols = _effective_tols(config, ctx["tols"], _VERIFY_DEFAULTS)
    profile = profile_from_arrays(params, read_profile_csv(config["profile_csv"]))
    fiber = FiberSpec(
        dim=config.get("fiber_dim", params.n - 1),
        kappa0=float(config.get("kappa0", profile.kappa0)),
    )
    interval = config.get("interval")
    verdict, residuals = _run_verification(profile, fiber, interval, tols)
    payload = {
        "command": "verify",
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "residuals": residuals,
        "verdict": verdict,
        "tolerances": tols,
    }
    write_envelope(os.path.join(ctx["out"], f"{tag}.json"), payload)
    print(
        f"verify: {verdict} "
        f"(critical={residuals['max_critical_residual']:.3e}, "
        f"scal={residuals['max_scal_deviation']:.3e}, "
        f"weyl={residuals['max_weyl_residual']:.3e})"
    )
    return (0 if verdict == "pass" else 1), payload


def _fiber_from(config: dict, params: OdeParams):
    raw = config.get("fiber")
    if raw is None:
        return None
    return FiberSpec(
        dim=raw["dim"],
        kappa0=float(raw["kappa0"]),
        symmetry=raw.get("symmetry", False),
    )


def cmd_match(config: dict, ctx: dict) -> tuple[int, dict]:
    _validate(
        config,
        dict(_PARAM_KEYS, r0=_want_num, zeta1=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber, write_profile=_want_bool),
    )
    params = _params_from(config)
    tag = config.get("tag", "match")
    domain = build_two_boundary_domain(
        params,
        float(config["r0"]),
        float(config["zeta1"]),
        s_max=float(config.get("s_max", 12.0)),
        fiber=_fiber_from(config, params),
    )
    payload = {
        "command": "match",
        "tolerances": _effective_tols(config, ctx["tols"], {}),
        **domain.to_dict(),
    }
    if config.get("write_profile", False):
        csv_name = f"{tag}.csv"
        write_profile_csv(os.path.join(ctx["out"], csv_name), domain.profile)
        payload["outputs"] = {"csv": csv_name}
    write_envelope(os.path.join(ctx["out"], f"{tag}.json"), payload)
    zeta2 = payload["interval"][0]
    print(f"match: zeta1={config['zeta1']:.12g} -> zeta2={zeta2:.12g}")
    return 0, payload


def cmd_spectrum(config: dict, ctx: dict) -> tuple[int, dict]:
    _validate(
        config,
        dict(_PARAM_KEYS, r0=_want_num),
        dict(
            _COMMON_OPT,
            C=_want_num,
            s_max=_want_num,
            interval=_want_interval,
            num=_want_int,
            signs=_want_bool,
            eigenvector_csv=_want_bool,
        ),
    )
    params = _params_from(config)
    tag = config.get("tag", "spectrum")
    num = config.get("num", 512)
    if config.get("signs", False):
        report = verify_eigenvalue_signs(
            params,
            float(config["r0"]),
            float(config.get("C", 0.0)),
            s_max=float(config.get("s_max", 12.0)),
            num=num,
        )
        payload = {
            "command": "spectrum",
            "params": {"n": params.n, "R": params.R, "a": params.a},
            "tolerances": _effective_tols(config, ctx["tols"], {}),
            "signs": report.as_dict(),
        }
        write_envelope(os.path.join(ctx["out"], f"{tag}.json"), payload)
        print(
            f"spectrum: phase={report.phase} matched={report.matched.sign} "
            f"consistent={report.consistent}"
        )
        return (0 if report.consistent else 1), payload
    if "interval" not in config:
        raise ConfigError("spectrum needs \"interval\" unless \"signs\" is true")
    prof = integrate_profile(params, float(config["r0"]), float(config.get("s_max", 12.0)))
    if not prof.constant_solution:
        prof = solve_potential(prof, float(config.get("C", 0.0)))
    result = first_dirichlet_eigenvalue(prof, tuple(config["interval"]), num=num)
    payload = {
        "command": "spectrum",
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "tolerances": _effective_tols(config, ctx["tols"], {}),
        "spectral": result.as_dict(),
    }
    if config.get("eigenvector_csv", False):
        csv_name = f"{tag}_eigenvector.csv"
        write_csv(
            os.path.join(ctx["out"], csv_name), "s,phi", (result.nodes, result.eigenvector)
        )
        payload["outputs"] = {"eigenvector_csv": csv_name}
    write_envelope(os.path.join(ctx["out"], f"{tag}.json"), payload)
    print(f"spectrum: gamma1={result.gamma1:.12g} sign={result.sign}")
    return 0, payload


def cmd_schwarzschild(config: dict, ctx: dict) -> tuple[int, dict]:
    _validate(
        config,
        dict(_PARAM_KEYS),
        dict(_COMMON_OPT, kappa0=_want_num, s_max=_want_num, zeta1=_want_num),
    )
    params = _params_from(config)
    tag = config.get("tag", "schwarzschild")
    chart = schwarzschild_form(
        params,
        kappa0=float(config.get("kappa0", 1.0)),
        s_max=float(config.get("s_max", 12.0)),
    )
    payload = {
        "command": "schwarzschild",
        "tolerances": _effective_tols(config, ctx["tols"], {}),
        **chart.to_dict(),
    }
    if "zeta1" in config:
        m = chart.match(float(config["zeta1"]))
        payload["match"] = {
            "zeta1": m.zeta1,
            "zeta2": m.zeta2,
            "C": m.C,
            "discrepancy": m.discrepancy,
        }
    write_envelope(os.path.join(ctx["out"], f"{tag}.json"), payload)
    print(
        f"schwarzschild: horizon={chart.horizon:.12g} "
        f"(polynomial route {chart.horizon_from_polynomial:.12g})"
    )
    return 0, payload


def cmd_example1(config: dict, ctx: dict) -> tuple[int, dict]:
    _validate(
        config,
        dict(_PARAM_KEYS, r0=_want_num, zeta1=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber),
    )
    params = _params_from(config)
    tag = config.get("tag", "example1")
    tols = _effective_tols(config, ctx["tols"], _VERIFY_DEFAULTS)
    domain = build_two_boundary_domain(
        params,
        float(config["r0"]),
        float(config["zeta1"]),
        s_max=float(config.get("s_max", 12.0)),
        fiber=_fiber_from(config, params),
    )
    verdict, residuals = _run_verification(
        domain.profile, domain.fiber, domain.interval, tols
    )
    csv_name = f"{tag}.csv"
    write_profile_csv(os.path.join(ctx["out"], csv_name), domain.profile)
    payload = {
        "command": "example1",
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "domain": domain.to_dict(),
        "residuals": residuals,
        "verdict": verdict,
        "tolerances": tols,
        "outputs": {"csv": csv_name},
    }
    write_envelope(os.path.join(ctx["out"], f"{tag}.json"), payload)
    print(
        f"example1: {verdict} interval=[{domain.interval[0]:.6g}, "
        f"{domain.interval[1]:.6g}] critical={residuals['max_critical_residual']:.3e}"
    )
    return (0 if verdict == "pass" else 1), payload


def cmd_example2(config: dict, ctx: dict) -> tuple[int, dict]:
    _validate(
        config,
        dict(_PARAM_KEYS, r0=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber),
    )
    params = _params_from(config)
    tag = config.get("tag", "example2")
    tols = _effective_tols(config, ctx["tols"], _VERIFY_DEFAULTS)
    domain = build_quotient_domain(
        params,
        float(config["r0"]),
        s_max=float(config.get("s_max", 12.0)),
        fiber=_fiber_from(config, params),
    )
    verdict, residuals = _run_verification(
        domain.profile, domain.fiber, domain.interval, tols
    )
    csv_name = f"{tag}.csv"
    write_profile_csv(os.path.join(ctx["out"], csv_name), domain.profile)
    payload = {
        "command": "example2",
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "domain": domain.to_dict(),
        "residuals": residuals,
        "verdict": verdict,
        "tolerances": tols,
        "outputs": {"csv": csv_name},
    }
    write_envelope(os.path.join(ctx["out"], f"{tag}.json"), payload)
    print(
        f"example2: {verdict} theta={domain.interval[1]:.6g} "
        f"critical={residuals['max_critical_residual']:.3e}"
    )
    return (0 if verdict == "pass" else 1), payload


_DISPATCH = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "match": cmd_match,
    "spectrum": cmd_spectrum,
    "schwarzschild": cmd_schwarzschild,
    "example1": cmd_example1,
    "example2": cmd_example2,
}


# ----------------------------------------------------------------------
# Sweeps and entry point
# ----------------------------------------------------------------------


def _exit_for(exc: WarpcritError) -> int:
    if isinstance(exc, VerificationError):
        return 1
    if isinstance(exc, InputError):
        return 2
    if isinstance(exc, NumericalError):
        return 3
    return 3


def _run_one(command: str, config: dict, ctx: dict) -> tuple[int, dict]:
    return _DISPATCH[command](config, ctx)


def _run_task(packed) -> dict:
    """Worker-pool task: one command run, exceptions mapped to exit codes."""
    command, config, ctx = packed
    tag = config.get("tag", "?")
    try:
        code, _ = _run_one(command, config, ctx)
        return {"tag": tag, "exit": code}
    except WarpcritError as exc:
        return {"tag": tag, "exit": _exit_for(exc), "error": str(exc)}


def _run_sweep(command: str, config: dict, ctx: dict) -> int:
    records = config["sweep"]
    if not isinstance(records, list) or not records:
        raise ConfigError('"sweep" must be a nonempty list of objects')
    workers = config.get("workers", 0)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 0:
        raise ConfigError('"workers" must be a nonnegative integer')
    base = {k: v for k, v in config.items() if k not in ("sweep", "workers")}
    tasks = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ConfigError("sweep entries must be objects")
        task = dict(base)
        task.update(rec)
        task.setdefault("tag", f"{command}_{i:03d}")
        tasks.append((command, task, ctx))
    if not workers:
        workers = min(len(tasks), os.cpu_count() or 1, 8)
    if workers == 1 or len(tasks) == 1:
        results = [_run_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks))
    worst = max(r["exit"] for r in results)
    summary = {
        "command": command,
        "sweep": results,
        "tasks": len(results),
        "failures": sum(1 for r in results if r["exit"] != 0),
    }
    write_envelope(os.path.join(ctx["out"], f"{command}_sweep.json"), summary)
    print(f"sweep: {len(results)} tasks, {summary['failures']} failures")
    return worst


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=f"override a tolerance ({', '.join(TOLERANCE_NAMES)}); repeatable",
    )
    common.add_argument(
        "--grid-step", type=float, default=None, help="uniform CSV export step"
    )
    common.add_argument(
        "--seedless",
        action="store_true",
        help="reserved: the pipeline is deterministic and uses no RNG",
    )
    parser = argparse.ArgumentParser(
        prog="warpcrit",
        description="Construct and verify warped-product critical metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return code if isinstance(code, int) else 2
    try:
        config = _load_config(args.config)
        overrides = _parse_tol_flags(args.tol)
        if args.grid_step is not None and not args.grid_step > 0.0:
            raise ConfigError("--grid-step must be positive")
        out = args.out
        os.makedirs(out, exist_ok=True)
        ctx = {"out": out, "tols": overrides, "grid_step": args.grid_step}
        if "sweep" in config:
            return _run_sweep(args.command, config, ctx)
        code, _ = _run_one(args.command, config, ctx)
        return code
    except WarpcritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_for(exc)


if __name__ == "__main__":
    sys.exit(main())
