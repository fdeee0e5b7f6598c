"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Subcommands
    construct      integrate a profile and attach its potential
    verify         recompute pointwise residuals for a stored profile CSV
    match          solve the two-boundary matching problem
    spectrum       first Dirichlet eigenvalue / structural sign report
    schwarzschild  static radial form with the dual-route horizon check
    example1       end-to-end two-boundary domain with verification
    example2       end-to-end reflection-quotient domain with verification

A command validates, computes, writes its CSVs and returns (exit code,
payload, summary line).  One runner, ``_run_task``, does the rest for a
single run and for every entry of a ``"sweep": [...]`` config (fanned out
over a process pool, or run in this process after the entries' profiles are
integrated as one batch): it writes ``<tag>.json``, prints the summary line,
and maps an exception to its exit code and one ``error:`` line on stderr.

Exit codes: 0 success, 1 verification failure, 2 input/config error,
3 numerical failure or an unexpected internal error.

There is no randomness anywhere in the pipeline; ``--seedless`` is accepted
for interface stability and rejects an explicit value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import repeat

import numpy as np

from .curvature import verify_critical
from .errors import ConfigError, InputError, VerificationError, WarpcritError
from .matching import (
    FiberSpec,
    build_quotient_domain,
    build_two_boundary_domain,
    schwarzschild_form,
)
from .profiles import (
    OdeParams,
    Profile,
    find_roots,
    integrate_profile,
    prefetched,
    solve_potential,
)
from .serialize import (
    profile_from_arrays,
    read_profile_csv,
    write_csv,
    write_envelope,
    write_profile_csv,
)
from .spectrum import first_dirichlet_eigenvalue, verify_eigenvalue_signs

__all__ = ["main"]

# Tolerance names accepted by --tol NAME=VALUE and config "tolerances".
TOLERANCE_NAMES = ("critical", "scal", "weyl", "einstein", "fiber")

# Most rows an export grid may have: 6x the 160,001 of the largest benchmark
# export, checked before the grid is allocated.
_MAX_EXPORT_ROWS = 10**6


def _is_finite(x) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
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
    if not _is_finite(val):
        raise ConfigError(f"config key {key!r} must be a finite number")


def _want_int(key, val):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"config key {key!r} must be an integer")


def _want_str(key, val):
    if not isinstance(val, str) or not val:
        raise ConfigError(f"config key {key!r} must be a nonempty string")


def _want_tag(key, val):
    if not isinstance(val, str) or not val or os.path.basename(val) != val or "\0" in val:
        raise ConfigError(f"config key {key!r} must be a plain file basename")


def _want_bool(key, val):
    if not isinstance(val, bool):
        raise ConfigError(f"config key {key!r} must be a boolean")


def _want_interval(key, val):
    if (
        not isinstance(val, list)
        or len(val) != 2
        or not all(_is_finite(v) for v in val)
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
        if not _is_finite(value) or not value > 0.0:
            raise ConfigError(f"tolerance {name!r} must be a positive finite number")


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
_COMMON_OPT = {"tolerances": _want_tols, "tag": _want_tag}

# Commands whose first integration is the profile anchored at their own r0.
_PROFILE_COMMANDS = ("construct", "match", "spectrum", "example1", "example2")

# Most sweep entries whose profiles one batch integrates and holds at once:
# a profile's dense base takes up to about 1 MB at s_max 12.
_BATCH_ENTRIES = 64


def _s_max(command: str, config: dict) -> float:
    """The window half-length a command integrates on: 6 for construct,
    12 for the others, unless the config sets it."""
    return float(config.get("s_max", 6.0 if command == "construct" else 12.0))


def _profile_request(command: str, config: dict):
    """``(params, r0, s_max)`` of the profile a sweep entry integrates first,
    or None when the entry has none or its keys would not pass validation."""
    if command not in _PROFILE_COMMANDS:
        return None
    try:
        for key, check in dict(_PARAM_KEYS, r0=_want_num).items():
            check(key, config.get(key))
        if "s_max" in config:
            _want_num("s_max", config["s_max"])
        return _params_from(config), float(config["r0"]), _s_max(command, config)
    except InputError:
        return None


def _resample(profile: Profile, step: float) -> Profile:
    """Uniform resampling of the export grid; the one check of the step."""
    if not step > 0.0:
        raise ConfigError(f"export grid step must be positive, got {step!r}")
    span = profile.s_max - profile.s_min
    if not span / step < _MAX_EXPORT_ROWS:
        raise ConfigError(
            f"export grid step {step!r} gives more than {_MAX_EXPORT_ROWS} rows"
        )
    count = int(math.floor(span / step + 1e-12))
    if count < 2:
        raise ConfigError("export grid step leaves fewer than 3 samples")
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


def cmd_construct(config: dict, ctx: dict) -> tuple[int, dict, str]:
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
    prof = integrate_profile(params, float(config["r0"]), _s_max("construct", config))
    roots = None
    if not prof.constant_solution:
        prof = solve_potential(prof, float(config.get("C", 0.0)))
        roots = _roots_record(prof)
    step = config.get("grid_step") if ctx["grid_step"] is None else ctx["grid_step"]
    export = prof if step is None else _resample(prof, float(step))
    csv_name = f"{ctx['tag']}.csv"
    write_profile_csv(os.path.join(ctx["out"], csv_name), export)
    payload = {
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "r0": float(config["r0"]),
        "C": None if prof.constant_solution else float(prof.C),
        "s_max": prof.s_max,
        "kappa0": prof.kappa0,
        "constant_solution": prof.constant_solution,
        "grid": {
            "points": int(export.grid.size),
            "step": None if step is None else float(step),
        },
        "roots": roots,
        "tolerances": _effective_tols(config, ctx["tols"], {}),
        "outputs": {"csv": csv_name},
        "diagnostics": {
            k: v for k, v in prof.diagnostics.items() if isinstance(v, (int, float))
        },
    }
    return 0, payload, (
        f"construct: wrote {csv_name} ({export.grid.size} points), "
        f"kappa0={prof.kappa0:.12g}"
    )


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


def cmd_verify(config: dict, ctx: dict) -> tuple[int, dict, str]:
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
    tols = _effective_tols(config, ctx["tols"], _VERIFY_DEFAULTS)
    profile = profile_from_arrays(params, read_profile_csv(config["profile_csv"]))
    fiber = FiberSpec(
        dim=config.get("fiber_dim", params.n - 1),
        kappa0=float(config.get("kappa0", profile.kappa0)),
    )
    interval = config.get("interval")
    verdict, residuals = _run_verification(profile, fiber, interval, tols)
    payload = {
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "residuals": residuals,
        "verdict": verdict,
        "tolerances": tols,
    }
    return (0 if verdict == "pass" else 1), payload, (
        f"verify: {verdict} "
        f"(critical={residuals['max_critical_residual']:.3e}, "
        f"scal={residuals['max_scal_deviation']:.3e}, "
        f"weyl={residuals['max_weyl_residual']:.3e})"
    )


def _fiber_from(config: dict):
    raw = config.get("fiber")
    if raw is None:
        return None
    return FiberSpec(
        dim=raw["dim"],
        kappa0=float(raw["kappa0"]),
        symmetry=raw.get("symmetry", False),
    )


def cmd_match(config: dict, ctx: dict) -> tuple[int, dict, str]:
    _validate(
        config,
        dict(_PARAM_KEYS, r0=_want_num, zeta1=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber, write_profile=_want_bool),
    )
    domain = build_two_boundary_domain(
        _params_from(config),
        float(config["r0"]),
        float(config["zeta1"]),
        s_max=_s_max("match", config),
        fiber=_fiber_from(config),
    )
    payload = {"tolerances": _effective_tols(config, ctx["tols"], {}), **domain.to_dict()}
    if config.get("write_profile", False):
        csv_name = f"{ctx['tag']}.csv"
        write_profile_csv(os.path.join(ctx["out"], csv_name), domain.profile)
        payload["outputs"] = {"csv": csv_name}
    zeta2 = payload["interval"][0]
    return 0, payload, f"match: zeta1={config['zeta1']:.12g} -> zeta2={zeta2:.12g}"


def cmd_spectrum(config: dict, ctx: dict) -> tuple[int, dict, str]:
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
    num = config.get("num", 512)
    payload = {
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "tolerances": _effective_tols(config, ctx["tols"], {}),
    }
    if config.get("signs", False):
        report = verify_eigenvalue_signs(
            params,
            float(config["r0"]),
            float(config.get("C", 0.0)),
            s_max=_s_max("spectrum", config),
            num=num,
        )
        payload["signs"] = report.as_dict()
        return (0 if report.consistent else 1), payload, (
            f"spectrum: phase={report.phase} matched={report.matched.sign} "
            f"consistent={report.consistent}"
        )
    if "interval" not in config:
        raise ConfigError("spectrum needs \"interval\" unless \"signs\" is true")
    prof = integrate_profile(params, float(config["r0"]), _s_max("spectrum", config))
    if not prof.constant_solution:
        prof = solve_potential(prof, float(config.get("C", 0.0)))
    result = first_dirichlet_eigenvalue(prof, tuple(config["interval"]), num=num)
    payload["spectral"] = result.as_dict()
    if config.get("eigenvector_csv", False):
        csv_name = f"{ctx['tag']}_eigenvector.csv"
        write_csv(
            os.path.join(ctx["out"], csv_name), "s,phi", (result.nodes, result.eigenvector)
        )
        payload["outputs"] = {"eigenvector_csv": csv_name}
    return 0, payload, f"spectrum: gamma1={result.gamma1:.12g} sign={result.sign}"


def cmd_schwarzschild(config: dict, ctx: dict) -> tuple[int, dict, str]:
    _validate(
        config,
        dict(_PARAM_KEYS),
        dict(_COMMON_OPT, kappa0=_want_num, s_max=_want_num, zeta1=_want_num),
    )
    chart = schwarzschild_form(
        _params_from(config),
        kappa0=float(config.get("kappa0", 1.0)),
        s_max=_s_max("schwarzschild", config),
    )
    payload = {
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
    return 0, payload, (
        f"schwarzschild: horizon={chart.horizon:.12g} "
        f"(polynomial route {chart.horizon_from_polynomial:.12g})"
    )


def _certify(domain, tols: dict, ctx: dict) -> tuple[str, dict, dict]:
    """Verify and export a built domain: its verdict, residuals and payload."""
    verdict, residuals = _run_verification(
        domain.profile, domain.fiber, domain.interval, tols
    )
    csv_name = f"{ctx['tag']}.csv"
    write_profile_csv(os.path.join(ctx["out"], csv_name), domain.profile)
    params = domain.profile.params
    payload = {
        "params": {"n": params.n, "R": params.R, "a": params.a},
        "domain": domain.to_dict(),
        "residuals": residuals,
        "verdict": verdict,
        "tolerances": tols,
        "outputs": {"csv": csv_name},
    }
    return verdict, residuals, payload


def cmd_example1(config: dict, ctx: dict) -> tuple[int, dict, str]:
    _validate(
        config,
        dict(_PARAM_KEYS, r0=_want_num, zeta1=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber),
    )
    tols = _effective_tols(config, ctx["tols"], _VERIFY_DEFAULTS)
    domain = build_two_boundary_domain(
        _params_from(config),
        float(config["r0"]),
        float(config["zeta1"]),
        s_max=_s_max("example1", config),
        fiber=_fiber_from(config),
    )
    verdict, residuals, payload = _certify(domain, tols, ctx)
    lo, hi = domain.interval
    return (0 if verdict == "pass" else 1), payload, (
        f"example1: {verdict} interval=[{lo:.6g}, {hi:.6g}] "
        f"critical={residuals['max_critical_residual']:.3e}"
    )


def cmd_example2(config: dict, ctx: dict) -> tuple[int, dict, str]:
    _validate(
        config,
        dict(_PARAM_KEYS, r0=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber),
    )
    tols = _effective_tols(config, ctx["tols"], _VERIFY_DEFAULTS)
    domain = build_quotient_domain(
        _params_from(config),
        float(config["r0"]),
        s_max=_s_max("example2", config),
        fiber=_fiber_from(config),
    )
    verdict, residuals, payload = _certify(domain, tols, ctx)
    return (0 if verdict == "pass" else 1), payload, (
        f"example2: {verdict} theta={domain.interval[1]:.6g} "
        f"critical={residuals['max_critical_residual']:.3e}"
    )


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
# The task runner, sweeps and entry point
# ----------------------------------------------------------------------


def _exit_for(exc: WarpcritError) -> int:
    if isinstance(exc, VerificationError):
        return 1
    if isinstance(exc, InputError):
        return 2
    return 3


def _run_task(command: str, config: dict, ctx: dict) -> dict:
    """Run one command and return its sweep record, ``{"tag", "exit"[, "error"]}``.

    Module-level, so that the sweep's process pool can pickle it.  Any
    exception other than a toolkit error is an internal error: exit 3, and
    one line naming its class and innermost frame instead of a traceback.
    """
    tag = config.get("tag", "profile" if command == "construct" else command)
    try:
        code, payload, line = _DISPATCH[command](config, dict(ctx, tag=tag))
        write_envelope(os.path.join(ctx["out"], f"{tag}.json"), {"command": command, **payload})
        print(line)
        return {"tag": tag, "exit": code}
    except WarpcritError as exc:
        code, message = _exit_for(exc), str(exc)
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{type(exc).__name__} at {os.path.basename(frame.filename)}:{frame.lineno}"
        code, message = 3, f"internal error ({where}): {exc}"
    print(f"error: {message}", file=sys.stderr)
    return {"tag": tag, "exit": code, "error": message}


def _check_tags(command: str, tasks: list[dict]) -> None:
    """Reject a sweep whose entries would write the same files.

    A tag that is not a string fails its own entry's validation instead.
    """
    seen = {f"{command}_sweep"}
    for task in tasks:
        tag = task["tag"]
        if not isinstance(tag, str):
            continue
        if tag in seen:
            what = "the sweep summary" if tag == f"{command}_sweep" else "another entry"
            raise ConfigError(f"sweep tag {tag!r} is also the tag of {what}")
        seen.add(tag)


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
        tasks.append(task)
    _check_tags(command, tasks)
    if not workers:
        workers = min(len(tasks), os.cpu_count() or 1, 8)
    if workers == 1 or len(tasks) == 1:
        # In process: the profiles of each run of entries are integrated as
        # one batch, and held until their entries use them.
        results = []
        for lo in range(0, len(tasks), _BATCH_ENTRIES):
            chunk = tasks[lo : lo + _BATCH_ENTRIES]
            requests = [_profile_request(command, task) for task in chunk]
            with prefetched([r for r in requests if r is not None]):
                results += [_run_task(command, task, ctx) for task in chunk]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, repeat(command), tasks, repeat(ctx)))
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
    for name in _DISPATCH:
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
        ctx = {"out": args.out, "tols": _parse_tol_flags(args.tol), "grid_step": args.grid_step}
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {args.out}: {exc}") from exc
        if "sweep" in config:
            return _run_sweep(args.command, config, ctx)
    except WarpcritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_for(exc)
    return _run_task(args.command, config, ctx)["exit"]


if __name__ == "__main__":
    sys.exit(main())
