"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Subcommands
    construct      integrate a profile and attach its potential
    verify         recompute pointwise residuals for a stored profile CSV
    match          solve the two-boundary matching problem
    spectrum       first Dirichlet eigenvalue / structural sign report
    schwarzschild  static radial form with the dual-route horizon check
    example1       end-to-end two-boundary domain with verification
    example2       end-to-end reflection-quotient domain with verification

A command computes, writes its CSVs and returns (exit code, payload,
summary line), the payload holding only the numbers it computed.  This
module alone shapes envelopes: a result record enters a payload through
``serialize.record_dict``, and the parameters through ``_params_record``,
which the envelope head uses too.  One runner,
``_run_task``, does the rest for a single run and for every entry of a
``"sweep": [...]`` config: it validates the config against the command's
keys in ``_COMMANDS``, writes ``<tag>.json`` (the head ``command``,
``params`` and ``tolerances``, then the payload) and prints the summary
line.  One helper, ``_failure``, maps any exception to its exit code and one
``error:`` line on stderr, for the runner and for ``main`` alike.
A sweep runs its entries in contiguous chunks, in this process or on a
process pool; each chunk first integrates its entries' profiles as one batch.

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
from itertools import repeat

import numpy as np

from . import support
from .curvature import verify_critical
from .errors import ConfigError, InputError, NumericalError, VerificationError, WarpcritError
from .matching import (
    build_quotient_domain,
    build_two_boundary_domain,
    require_domain_regime,
    schwarzschild_form,
)
from .profiles import (
    FiberSpec,
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
    record_dict,
    write_csv,
    write_envelope,
    write_profile_csv,
)
from .spectrum import (
    first_dirichlet_eigenvalue,
    require_sign_regime,
    verify_eigenvalue_signs,
)
from .support import row_blocks

__all__ = ["main"]

# Tolerance names accepted by --tol NAME=VALUE and config "tolerances".
TOLERANCE_NAMES = ("critical", "scal", "weyl", "einstein", "fiber")

# Most rows an export grid may have: 6x the 160,001 of the largest benchmark
# export, checked before the grid is allocated.
_MAX_EXPORT_ROWS = 10**6

# Fewest mantissa bits of the working precision that the tolerances admit:
# numpy counts x86-64's 80-bit long double as 63.
_MIN_MANTISSA_BITS = 63


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
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to parse") from exc
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


def _params_record(params: OdeParams) -> dict:
    """The ``params`` record of an envelope: n, R and a."""
    return {"n": params.n, "R": params.R, "a": params.a}


_PARAM_KEYS = {"n": _want_int, "R": _want_num, "a": _want_num}
_COMMON_OPT = {"tolerances": _want_tols, "tag": _want_tag}

# Most entries in one sweep chunk.  Its batch holds every dense base at once,
# up to about 1 MB each at s_max 12; each is freed when its entry ends.
_BATCH_ENTRIES = 64


def _s_max(command: str, config: dict) -> float:
    """The window half-length a command integrates on: 6 for construct,
    12 for the others, unless the config sets it."""
    return float(config.get("s_max", 6.0 if command == "construct" else 12.0))


def _profile_request(command: str, config: dict):
    """``(params, r0, s_max)`` of the profile a sweep entry integrates first,
    or None when the entry has none, or its config fails validation or the
    command's up-front check (see ``_COMMANDS``).  The commands with an
    anchor ``r0`` integrate the profile anchored there first."""
    _, required, optional, check, _ = _COMMANDS[command]
    if "r0" not in required:
        return None
    try:
        _validate(config, required, optional)
        params = _params_from(config)
        if check is not None:
            check(params, config)
        return params, float(config["r0"]), _s_max(command, config)
    except InputError:
        return None


def _resample(profile: Profile, step: float) -> Profile:
    """The export of ``profile`` on a uniform grid of spacing ``step``; the
    one check of the step.  ``Profile.sample`` fills one float64 table, the
    CSV's own precision, one block of ``support.ROW_BLOCK`` rows at a time,
    so the export holds its table once plus a block of temporaries.  The
    export is a grid profile, the kind ``serialize.profile_from_arrays``
    rebuilds: no dense base, closed form or even branch."""
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
    grid = profile.s_min + step * np.arange(count + 1)
    # Rows r, r' and, with a potential attached, lam, lam'.
    table = np.empty((4 if profile.complete else 2, grid.size))
    for rows in row_blocks(grid.size):
        table[:, rows] = profile.sample(grid[rows])[1 : 1 + len(table)]
    lam, lamp = table[2:] if profile.complete else (None, None)
    return Profile(
        params=profile.params, r0=profile.r0, s_max=profile.s_max, s_min=profile.s_min,
        grid=grid, r=table[0], rp=table[1], lam=lam, lamp=lamp,
        kappa0=profile.kappa0, C=profile.C,
    )


def _roots_record(profile: Profile) -> dict:
    roots = find_roots(profile)
    return {
        "rp_roots": [float(x) for x in roots.rp_roots],
        "rp_kinds": list(roots.rp_kinds),
        "lam_roots": [float(x) for x in roots.lam_roots],
        "period": roots.period,
    }


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_construct(config: dict, ctx: dict) -> tuple[int, dict, str]:
    prof = integrate_profile(ctx["params"], float(config["r0"]), _s_max("construct", config))
    roots = None
    if not prof.constant_solution:
        prof = solve_potential(prof, float(config.get("C", 0.0)))
        roots = _roots_record(prof)
    step = config.get("grid_step") if ctx["grid_step"] is None else ctx["grid_step"]
    export = prof if step is None else _resample(prof, float(step))
    csv_name = f"{ctx['tag']}.csv"
    write_profile_csv(os.path.join(ctx["out"], csv_name), export)
    payload = {
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
        "outputs": {"csv": csv_name},
        "diagnostics": prof.diagnostics,
    }
    return 0, payload, (
        f"construct: wrote {csv_name} ({export.grid.size} points), "
        f"kappa0={prof.kappa0:.12g}"
    )


_VERIFY_DEFAULTS = dict.fromkeys(TOLERANCE_NAMES, 1e-8)


def _run_verification(profile: Profile, fiber, interval, tols: dict) -> tuple[str, dict]:
    report = verify_critical(
        profile, fiber, interval=interval, fiber_tol=tols["fiber"]
    )
    residuals = record_dict(report)
    allowances = {
        "max_critical_residual": tols["critical"],
        "max_scal_deviation": tols["scal"] * (1.0 + abs(profile.params.R)),
        "max_weyl_residual": tols["weyl"],
        "max_einstein_residual": tols["einstein"],
    }
    failed = any(
        residuals[name] is not None and not residuals[name] <= allow
        for name, allow in allowances.items()
    )
    return ("fail" if failed else "pass"), residuals


def cmd_verify(config: dict, ctx: dict) -> tuple[int, dict, str]:
    params = ctx["params"]
    profile = profile_from_arrays(params, read_profile_csv(config["profile_csv"]))
    fiber = FiberSpec(
        dim=config.get("fiber_dim", params.n - 1),
        kappa0=float(config.get("kappa0", profile.kappa0)),
    )
    verdict, residuals = _run_verification(
        profile, fiber, config.get("interval"), ctx["tolerances"]
    )
    payload = {"residuals": residuals, "verdict": verdict}
    return (0 if verdict == "pass" else 1), payload, (
        f"verify: {verdict} "
        f"(critical={residuals['max_critical_residual']:.3e}, "
        f"scal={residuals['max_scal_deviation']:.3e}, "
        f"weyl={residuals['max_weyl_residual']:.3e})"
    )


def _fiber_from(config: dict):
    raw = config.get("fiber")
    return None if raw is None else FiberSpec(**raw)


def _domain_record(domain) -> dict:
    """The envelope record of a matched domain: its profile's parameters,
    anchor and C, the interval, fiber, boundary faces and quotient."""
    profile = domain.profile
    return {
        "params": _params_record(profile.params),
        "r0": profile.r0,
        "C": profile.C,
        "interval": list(domain.interval),
        "fiber": record_dict(domain.fiber),
        "boundary_components": domain.boundary_components,
        "boundary": [record_dict(f) for f in domain.boundary],
        "quotient": domain.quotient,
    }


def cmd_match(config: dict, ctx: dict) -> tuple[int, dict, str]:
    domain = build_two_boundary_domain(
        ctx["params"],
        float(config["r0"]),
        float(config["zeta1"]),
        s_max=_s_max("match", config),
        fiber=_fiber_from(config),
    )
    payload = _domain_record(domain)
    if config.get("write_profile", False):
        csv_name = f"{ctx['tag']}.csv"
        write_profile_csv(os.path.join(ctx["out"], csv_name), domain.profile)
        payload["outputs"] = {"csv": csv_name}
    zeta2 = payload["interval"][0]
    return 0, payload, f"match: zeta1={config['zeta1']:.12g} -> zeta2={zeta2:.12g}"


def _require_interval(config: dict) -> None:
    """cmd_spectrum's check before it integrates for an eigenvalue."""
    if "interval" not in config:
        raise ConfigError("spectrum needs \"interval\" unless \"signs\" is true")


def _spectrum_check(params: OdeParams, config: dict) -> None:
    """cmd_spectrum's check before it integrates: the oscillatory regime for
    a sign report, an interval for an eigenvalue."""
    if config.get("signs", False):
        require_sign_regime(params)
    else:
        _require_interval(config)


def cmd_spectrum(config: dict, ctx: dict) -> tuple[int, dict, str]:
    params = ctx["params"]
    num = config.get("num", 512)
    if config.get("signs", False):
        report = verify_eigenvalue_signs(
            params,
            float(config["r0"]),
            float(config.get("C", 0.0)),
            s_max=_s_max("spectrum", config),
            num=num,
        )
        payload = {"signs": record_dict(report)}
        return (0 if report.consistent else 1), payload, (
            f"spectrum: phase={report.phase} matched={report.matched.sign} "
            f"consistent={report.consistent}"
        )
    _require_interval(config)
    prof = integrate_profile(params, float(config["r0"]), _s_max("spectrum", config))
    if not prof.constant_solution:
        prof = solve_potential(prof, float(config.get("C", 0.0)))
    result = first_dirichlet_eigenvalue(prof, tuple(config["interval"]), num=num)
    payload = {"spectral": record_dict(result)}
    if config.get("eigenvector_csv", False):
        csv_name = f"{ctx['tag']}_eigenvector.csv"
        write_csv(
            os.path.join(ctx["out"], csv_name), "s,phi", (result.nodes, result.eigenvector)
        )
        payload["outputs"] = {"eigenvector_csv": csv_name}
    return 0, payload, f"spectrum: gamma1={result.gamma1:.12g} sign={result.sign}"


def cmd_schwarzschild(config: dict, ctx: dict) -> tuple[int, dict, str]:
    chart = schwarzschild_form(
        ctx["params"],
        kappa0=float(config.get("kappa0", 1.0)),
        s_max=_s_max("schwarzschild", config),
    )
    payload = {
        "kappa0": chart.profile.kappa0,
        "horizon": chart.horizon,
        "horizon_from_polynomial": chart.horizon_from_polynomial,
        "mass": chart.params.a,
        "exclusion": chart.exclusion,
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


def _certify(domain, ctx: dict) -> tuple[str, dict, dict]:
    """Verify and export a built domain: its verdict, residuals and payload."""
    verdict, residuals = _run_verification(
        domain.profile, domain.fiber, domain.interval, ctx["tolerances"]
    )
    csv_name = f"{ctx['tag']}.csv"
    write_profile_csv(os.path.join(ctx["out"], csv_name), domain.profile)
    payload = {
        "domain": _domain_record(domain),
        "residuals": residuals,
        "verdict": verdict,
        "outputs": {"csv": csv_name},
    }
    return verdict, residuals, payload


def cmd_example1(config: dict, ctx: dict) -> tuple[int, dict, str]:
    domain = build_two_boundary_domain(
        ctx["params"],
        float(config["r0"]),
        float(config["zeta1"]),
        s_max=_s_max("example1", config),
        fiber=_fiber_from(config),
    )
    verdict, residuals, payload = _certify(domain, ctx)
    lo, hi = domain.interval
    return (0 if verdict == "pass" else 1), payload, (
        f"example1: {verdict} interval=[{lo:.6g}, {hi:.6g}] "
        f"critical={residuals['max_critical_residual']:.3e}"
    )


def cmd_example2(config: dict, ctx: dict) -> tuple[int, dict, str]:
    domain = build_quotient_domain(
        ctx["params"],
        float(config["r0"]),
        s_max=_s_max("example2", config),
        fiber=_fiber_from(config),
    )
    verdict, residuals, payload = _certify(domain, ctx)
    return (0 if verdict == "pass" else 1), payload, (
        f"example2: {verdict} theta={domain.interval[1]:.6g} "
        f"critical={residuals['max_critical_residual']:.3e}"
    )


# Each command: (function, required config keys, optional config keys,
# up-front check, tolerance defaults), the keys mapped to their checks.
# _run_task validates a config against its command's keys before it calls the
# function, and resolves the tolerances over the command's defaults.  The
# up-front check, ``check(params, config)`` or None, is the one the command's
# builder makes before it integrates its profile: _profile_request leaves a
# sweep entry that fails it out of its sweep's batch.
_COMMANDS = {
    "construct": (
        cmd_construct,
        dict(_PARAM_KEYS, r0=_want_num),
        dict(_COMMON_OPT, C=_want_num, s_max=_want_num, grid_step=_want_num),
        None,
        {},
    ),
    "verify": (
        cmd_verify,
        dict(_PARAM_KEYS, profile_csv=_want_str),
        dict(_COMMON_OPT, kappa0=_want_num, fiber_dim=_want_int, interval=_want_interval),
        None,
        _VERIFY_DEFAULTS,
    ),
    "match": (
        cmd_match,
        dict(_PARAM_KEYS, r0=_want_num, zeta1=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber, write_profile=_want_bool),
        lambda params, _: require_domain_regime(params),
        {},
    ),
    "spectrum": (
        cmd_spectrum,
        dict(_PARAM_KEYS, r0=_want_num),
        dict(
            _COMMON_OPT, C=_want_num, s_max=_want_num, interval=_want_interval,
            num=_want_int, signs=_want_bool, eigenvector_csv=_want_bool,
        ),
        _spectrum_check,
        {},
    ),
    "schwarzschild": (
        cmd_schwarzschild,
        dict(_PARAM_KEYS),
        dict(_COMMON_OPT, kappa0=_want_num, s_max=_want_num, zeta1=_want_num),
        None,
        {},
    ),
    "example1": (
        cmd_example1,
        dict(_PARAM_KEYS, r0=_want_num, zeta1=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber),
        lambda params, _: require_domain_regime(params),
        _VERIFY_DEFAULTS,
    ),
    "example2": (
        cmd_example2,
        dict(_PARAM_KEYS, r0=_want_num),
        dict(_COMMON_OPT, s_max=_want_num, fiber=_want_fiber),
        lambda params, _: require_domain_regime(params),
        _VERIFY_DEFAULTS,
    ),
}


# ----------------------------------------------------------------------
# The task runner, sweeps and entry point
# ----------------------------------------------------------------------


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and ``error:`` message of an exception; a floating-point
    fault and any other than a toolkit error (an internal error) exit 3, named
    by their innermost frame instead of a traceback."""
    if isinstance(exc, VerificationError):
        return 1, str(exc)
    if isinstance(exc, InputError):
        return 2, str(exc)
    if isinstance(exc, WarpcritError):
        return 3, str(exc)
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    if isinstance(exc, FloatingPointError):
        return 3, f"floating-point fault at {where}: {exc}"
    return 3, f"internal error ({type(exc).__name__} at {where}): {exc}"


def _run_task(command: str, config: dict, ctx: dict) -> dict:
    """Run one command and return its sweep record, ``{"tag", "exit"[, "error"]}``.

    The config is validated against the command's keys first; its parameters
    and tolerances, resolved once here, reach the command in ``ctx`` and
    head the envelope.  The command runs with numpy raising on overflow,
    division by zero and invalid operations.  An exception becomes its exit
    code and one ``error:`` line (``_failure``).
    """
    tag = config.get("tag", "profile" if command == "construct" else command)
    run, required, optional, _, defaults = _COMMANDS[command]
    try:
        _validate(config, required, optional)
        params = _params_from(config)
        # The command's defaults, then the config's tolerances, then --tol.
        tols = {**defaults, **config.get("tolerances", {}), **ctx["tols"]}
        tols = {k: float(v) for k, v in tols.items()}
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code, payload, line = run(config, dict(ctx, tag=tag, params=params, tolerances=tols))
        head = {"command": command, "tolerances": tols, "params": _params_record(params)}
        write_envelope(os.path.join(ctx["out"], f"{tag}.json"), {**head, **payload})
        print(line)
        return {"tag": tag, "exit": code}
    except Exception as exc:
        code, message = _failure(exc)
    print(f"error: {message}", file=sys.stderr)
    return {"tag": tag, "exit": code, "error": message}


def _run_chunk(command: str, tasks: list[dict], ctx: dict) -> list[dict]:
    """Run a chunk of sweep entries in order and return their records.

    The profiles the entries integrate first are integrated as one batch
    and held until their entries use them.  Module-level, so that the
    sweep's process pool can pickle it.
    """
    requests = [_profile_request(command, task) for task in tasks]
    with prefetched([r for r in requests if r is not None]):
        return [_run_task(command, task, ctx) for task in tasks]


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
    size = min(_BATCH_ENTRIES, math.ceil(len(tasks) / workers))
    chunks = [tasks[lo : lo + size] for lo in range(0, len(tasks), size)]
    if workers == 1 or len(chunks) == 1:
        parts = [_run_chunk(command, chunk, ctx) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            parts = list(pool.map(_run_chunk, repeat(command), chunks, repeat(ctx)))
    results = [record for part in parts for record in part]
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
    for name in _COMMANDS:
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
        bits = np.finfo(support.LD).nmant
        if bits < _MIN_MANTISSA_BITS:
            raise NumericalError(
                f"working precision has {bits} mantissa bits; the tolerances "
                f"need at least {_MIN_MANTISSA_BITS} (x86-64's 80-bit long double)"
            )
        config = _load_config(args.config)
        ctx = {"out": args.out, "tols": _parse_tol_flags(args.tol), "grid_step": args.grid_step}
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {args.out}: {exc}") from exc
        if "sweep" in config:
            return _run_sweep(args.command, config, ctx)
    except Exception as exc:
        code, message = _failure(exc)
        print(f"error: {message}", file=sys.stderr)
        return code
    return _run_task(args.command, config, ctx)["exit"]


if __name__ == "__main__":
    sys.exit(main())
