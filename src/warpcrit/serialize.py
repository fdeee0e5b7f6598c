"""Deterministic on-disk formats for profiles and reports.

CSV carries the sampled profile in five fixed columns (s, r, rp, lam, lamp)
at 17 significant digits, which reproduces IEEE doubles exactly on
re-ingestion.  JSON envelopes are emitted with sorted keys, two-space
indentation, and the same float formatting, so two runs of the same
configuration differ only in the timestamp field.  A result record enters
an envelope through one rule, ``record_dict``: its fields, arrays left to the
CSV tables.  The records carry no serializer of their own, and the compute
modules do not import this one: the CLI applies ``record_dict`` when it
assembles a payload.  All writes go through one atomic writer: a temporary
file in the target directory, then an atomic replace.  Tables are rendered
and written a block of rows at a time.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, NumericalError
from .profiles import OdeParams, Profile, conserved_quantity
from .support import row_blocks

__all__ = [
    "record_dict",
    "dump_json",
    "write_text_atomic",
    "write_envelope",
    "write_csv",
    "write_profile_csv",
    "read_profile_csv",
    "profile_from_arrays",
]

CSV_HEADER = "s,r,rp,lam,lamp"


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        # The per-value form of write_csv's rendering; JSON never gets here.
        return "nan"
    return format(float(x), ".17g")


def record_dict(record) -> dict:
    """The fields of a dataclass record as an envelope dict.

    Array fields are left out: arrays go to CSV tables, not envelopes.  A
    nested record becomes a dict by the same rule, and a dict field is copied.
    """
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            out[f.name] = record_dict(value)
        elif not isinstance(value, np.ndarray):
            out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def dump_json(obj, indent: int = 0) -> str:
    """Render JSON with sorted keys and 17-significant-digit floats.

    The standard encoder prints floats with repr; the fixed format here
    keeps envelopes byte-stable across interpreter versions.  A non-finite
    float is a failed computation, so it raises NumericalError.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(float(obj)):
            raise NumericalError("non-finite float in JSON payload")
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dump_json(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise ConfigError("JSON object keys must be strings")
        items = [
            f"{inner}{json.dumps(k)}: {dump_json(obj[k], indent + 1)}"
            for k in sorted(obj)
        ]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ConfigError(f"unserializable value of type {type(obj).__name__}")


@contextmanager
def _atomic_writer(path: str):
    """Yield a text file that replaces ``path`` atomically on a clean exit.

    The file is a sibling temp file of ``path``; it is renamed over ``path``
    when the block ends and removed if the block raises, so ``path`` holds
    either its old content or the whole new text, never a part of it.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Write a whole text at once through the atomic writer."""
    with _atomic_writer(path) as fh:
        fh.write(text)


def write_envelope(path: str, payload: dict) -> None:
    """Stamp and atomically write a JSON envelope."""
    record = dict(payload)
    record["timestamp"] = datetime.now(timezone.utc).isoformat()
    write_text_atomic(path, dump_json(record) + "\n")


def write_csv(path: str, header: str, columns) -> None:
    """Write equal-length columns as a CSV table at full double precision.

    The rows go through the atomic writer one block of ``support.ROW_BLOCK``
    rows at a time: each block's columns are converted to float64 and the
    block is rendered by one ``%`` operation, so memory stays a block's
    worth however long the table is.  ``'%.17g' % x`` and ``format(x, '.17g')``
    both reduce to ``PyOS_double_to_string(x, 'g', 17)``, so the bytes are
    those of ``_fmt``: 17 significant digits, and ``nan`` for every non-finite
    value, one past float64's range too (the cast ignores overflow).
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with _atomic_writer(path) as fh, np.errstate(over="ignore"):
        fh.write(header + "\n")
        for rows in row_blocks(len(columns[0])):
            table = np.column_stack([np.asarray(c[rows], dtype=float) for c in columns])
            table[~np.isfinite(table)] = np.nan
            fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def write_profile_csv(path: str, profile: Profile) -> None:
    """Profile samples in the five fixed columns at full double precision.

    Rows are rendered by ``%.17g`` a block at a time (see ``write_csv``),
    byte-identical to ``format(x, '.17g')``; non-finite values, and the
    potential columns of a partial profile, are written as ``nan``.
    """
    nan = np.full(profile.grid.shape, np.nan)
    lam = nan if profile.lam is None else profile.lam
    lamp = nan if profile.lamp is None else profile.lamp
    write_csv(path, CSV_HEADER, (profile.grid, profile.r, profile.rp, lam, lamp))


def read_profile_csv(path: str) -> dict:
    """Columns of a profile CSV, keyed by name: float64 views of the one
    table ``np.loadtxt`` reads, so the file's data is held once."""
    try:
        with open(path, "r") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ConfigError(
                    f"unexpected CSV header {header!r}; want {CSV_HEADER!r}"
                )
            with warnings.catch_warnings():
                # A table without rows is refused below; numpy's warning would be a second line.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read profile CSV: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed profile CSV {path}: {exc}") from exc
    if data.shape[1] != 5 or data.shape[0] < 2:
        raise ConfigError(
            f"profile CSV needs >= 2 rows of 5 columns, got shape {data.shape}"
        )
    names = CSV_HEADER.split(",")
    return {name: data[:, i] for i, name in enumerate(names)}


def profile_from_arrays(params: OdeParams, columns: dict) -> Profile:
    """Rebuild a grid-backed Profile from serialized columns.

    The result carries no dense interpolant: verification and curvature
    evaluation on the stored grid work, arbitrary-point sampling does not.
    The fiber curvature is re-derived from the conserved quantity
    (``_median_kappa0``).
    """
    s = np.asarray(columns["s"], dtype=float)
    if s.size < 2 or np.any(~np.isfinite(s)) or np.any(np.diff(s) <= 0):
        raise ConfigError("profile grid must be finite and strictly increasing")
    r = np.asarray(columns["r"], dtype=float)
    rp = np.asarray(columns["rp"], dtype=float)
    if np.any(~np.isfinite(r)) or np.any(~np.isfinite(rp)):
        raise ConfigError("profile columns r, rp must be finite")
    lam = np.asarray(columns["lam"], dtype=float)
    lamp = np.asarray(columns["lamp"], dtype=float)
    if np.all(np.isnan(lam)):
        lam_arr, lamp_arr = None, None
    elif np.any(~np.isfinite(lam)) or np.any(~np.isfinite(lamp)):
        raise ConfigError("potential columns must be all-finite or all-nan")
    else:
        lam_arr, lamp_arr = lam, lamp
    kappa0 = _median_kappa0(params, r, rp)
    i0 = int(np.argmin(np.abs(s)))
    return Profile(
        params=params,
        r0=float(r[i0]),
        s_max=float(s[-1]),
        grid=s,
        r=r,
        rp=rp,
        lam=lam_arr,
        lamp=lamp_arr,
        kappa0=kappa0,
        C=None,
        s_min=float(s[0]),
    )


def _median_kappa0(params: OdeParams, r: np.ndarray, rp: np.ndarray) -> float:
    """The median of the conserved quantity over the rows with r > 0.

    The values are computed one block of ``support.ROW_BLOCK`` rows at a
    time into one float64 array, the median's only whole-length buffer.
    Raises ConfigError when no row has r > 0.
    """
    cons = np.empty(r.size)
    kept = 0
    for rows in row_blocks(r.size):
        positive = r[rows] > 0.0
        block = conserved_quantity(params, r[rows][positive], rp[rows][positive])
        cons[kept : kept + block.size] = block
        kept += block.size
    if not kept:
        raise ConfigError("profile radius must be positive somewhere")
    return float(np.median(cons[:kept], overwrite_input=True))
