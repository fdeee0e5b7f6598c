"""The per-point pipeline in fixed row blocks.

Dense evaluation of long queries, the matching table's and the improper
tail's quadrature, the export grid, CSV rendering, the fiber curvature of a
stored profile and the verification reductions work one ``support.ROW_BLOCK``
block of rows at a time.  The results must not depend on the block size,
bit for bit and sign bits included, and the memory of each stage must stay
a block's worth on top of its output.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from warpcrit import (
    AllPointsMasked,
    OdeParams,
    integrate_profile,
    matching,
    solve_potential,
    support,
)
from warpcrit.cli import _resample, main
from warpcrit.curvature import verify_conformally_flat, verify_critical
from warpcrit.matching import _base_panels, _table_nodes, c_threshold
from warpcrit.serialize import profile_from_arrays, read_profile_csv, write_csv

LD = np.longdouble

# A block of 7 rows cuts 3 * 7 + 1 points into three full blocks and a
# one-point block, which DenseSolution answers on its scalar path.
SMALL_BLOCK = 7
WHOLE = 10**9


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _by_block_size(monkeypatch, run):
    """``run()`` with blocks of SMALL_BLOCK rows, then with one block."""
    monkeypatch.setattr(support, "ROW_BLOCK", SMALL_BLOCK)
    small = run()
    monkeypatch.setattr(support, "ROW_BLOCK", WHOLE)
    return small, run()


def _profile(params, C=0.3, s_max=3.0):
    return solve_potential(integrate_profile(params, 1.0, s_max), C)


def test_row_blocks_cover_the_range(monkeypatch):
    monkeypatch.setattr(support, "ROW_BLOCK", SMALL_BLOCK)
    blocks = list(support.row_blocks(3 * SMALL_BLOCK + 1))
    assert [(b.start, b.stop) for b in blocks] == [(0, 7), (7, 14), (14, 21), (21, 22)]
    assert list(support.row_blocks(0)) == []


def test_sample_base_is_independent_of_the_block_size(monkeypatch):
    prof = _profile(OdeParams(n=3, R=-6.0, a=1.0))
    s = np.linspace(-2.9, 2.9, 3 * SMALL_BLOCK + 1, dtype=LD)
    s[[3, 10]] = LD(0.0), LD(-0.0)  # r' and lam0' take the sign of s
    s[-1] = prof.s_max  # the last block's one point, at the window's end
    small, whole = _by_block_size(monkeypatch, lambda: prof.sample_base(s))
    # One dense-output call over the whole query, with the parity relations.
    y = prof._dense()(np.abs(s))
    sign = np.where(s < 0, LD(-1.0), LD(1.0))
    direct = (y[:, 0], sign * y[:, 1], y[:, 2], sign * y[:, 3])
    for name, a, b, c in zip(("r", "rp", "lam0", "lam0p"), small, whole, direct):
        assert _same_bits(a, b) and _same_bits(b, c), name


def test_csv_bytes_are_independent_of_the_block_size(monkeypatch, tmp_path):
    edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, -1.0 / 3.0, 1e300])
    col = np.resize(edge, 3 * SMALL_BLOCK + 1)
    columns = (np.arange(col.size, dtype=LD) / LD(3), col, np.roll(col, 4)[::-1])

    def render():
        path = tmp_path / "t.csv"
        write_csv(str(path), "a,b,c", columns)
        return path.read_bytes()

    small, whole = _by_block_size(monkeypatch, render)
    assert small == whole
    assert small.count(b"\n") == 3 * SMALL_BLOCK + 2
    assert b"inf" not in small and b"nan" in small and b"-0," in small


def test_matching_table_is_independent_of_the_block_size(monkeypatch):
    params = OdeParams(n=3, R=-6.0, a=1.0)
    prof = integrate_profile(params, 1.0, 4.0)
    nodes, _ = _table_nodes(prof)
    assert nodes.size > 3 * SMALL_BLOCK  # several blocks of full steps
    default = _base_panels(prof, nodes)
    small, whole = _by_block_size(monkeypatch, lambda: _base_panels(prof, nodes))
    assert _same_bits(small, default) and _same_bits(whole, default)


def test_c_threshold_is_independent_of_the_block_size(monkeypatch):
    # A fresh profile per run, so each builds its own matching table.
    params = OdeParams(n=3, R=-6.0, a=1.0)

    def run():
        return c_threshold(integrate_profile(params, 1.0, 3.0))

    default = run()
    small, whole = _by_block_size(monkeypatch, run)
    assert small.hex() == whole.hex() == default.hex()


def test_extension_quadrature_samples_one_block_at_a_time(monkeypatch):
    # Every Gauss point table goes to its sampler one block of panels at a
    # time, the improper tail's extension included.
    monkeypatch.setattr(support, "ROW_BLOCK", SMALL_BLOCK)
    sizes = []
    gauss_panels = matching._gauss_panels

    def spy(sample, starts, lens):
        def recorded(s):
            sizes.append(np.size(s))
            return sample(s)

        return gauss_panels(recorded, starts, lens)

    monkeypatch.setattr(matching, "_gauss_panels", spy)
    c_threshold(integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 3.0))
    assert sum(sizes) > 10 * SMALL_BLOCK * matching._GL_ORDER
    assert max(sizes) <= SMALL_BLOCK * matching._GL_ORDER


def _construct(tmp_path, config, step):
    """The CSV bytes of ``construct`` exported at ``step``."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(config, tag="export")))
    argv = ["construct", "--config", str(cfg), "--out", str(tmp_path), "--grid-step", step]
    assert main(argv) == 0
    return (tmp_path / "export.csv").read_bytes()


# 6 / 21: 22 rows, three blocks of seven and the one-point block.
@pytest.mark.parametrize("config", [
    {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "C": 0.25, "s_max": 3.0},
    {"n": 3, "R": 6.0, "a": 1.0, "r0": 1.0, "s_max": 3.0},
], ids=["complete", "constant"])
def test_export_csv_is_independent_of_the_block_size(monkeypatch, tmp_path, config):
    small, whole = _by_block_size(
        monkeypatch, lambda: _construct(tmp_path, config, repr(6.0 / 21.0))
    )
    assert small == whole
    assert small.count(b"\n") == 3 * SMALL_BLOCK + 2


def test_verify_of_a_csv_is_independent_of_the_block_size(monkeypatch, tmp_path):
    params = OdeParams(n=4, R=-12.0, a=0.0)
    config = {"n": 4, "R": -12.0, "a": 0.0, "r0": 1.0, "C": 0.1, "s_max": 2.0}
    _construct(tmp_path, config, "0.05")

    def report():
        prof = profile_from_arrays(params, read_profile_csv(str(tmp_path / "export.csv")))
        return prof.kappa0.hex(), repr(verify_critical(prof))

    small, whole = _by_block_size(monkeypatch, report)
    assert "grid_size=81" in whole[1] and "max_einstein_residual=None" not in whole[1]
    assert small == whole


def _reports(monkeypatch, prof):
    return _by_block_size(
        monkeypatch, lambda: (repr(verify_critical(prof)), verify_conformally_flat(prof))
    )


def test_einstein_report_is_independent_of_the_block_size(monkeypatch):
    prof = _profile(OdeParams(n=4, R=-12.0, a=0.0))
    assert prof.grid.size > 3 * SMALL_BLOCK
    (small, weyl_small), (whole, weyl_whole) = _reports(monkeypatch, prof)
    assert "max_einstein_residual=None" not in whole
    assert small == whole  # repr shows every float exactly, sign included
    assert _same_bits(weyl_small, weyl_whole)


def test_report_with_masked_blocks_is_independent_of_the_block_size(monkeypatch):
    # Zero the potential on the left third of the window: the floor masks
    # whole blocks there, and the other points still clear it.
    prof = _profile(OdeParams(n=3, R=0.0, a=1.0))
    lam = prof.lam.copy()
    lam[: lam.size // 3] = 0.0
    masked = dataclasses.replace(prof, lam=lam)
    assert lam.size // 3 > 2 * SMALL_BLOCK
    (small, weyl_small), (whole, weyl_whole) = _reports(monkeypatch, masked)
    assert small == whole
    assert _same_bits(weyl_small, weyl_whole)
    assert np.isfinite(weyl_whole)


@pytest.mark.parametrize("check", [verify_critical, verify_conformally_flat])
def test_all_points_masked_is_independent_of_the_block_size(monkeypatch, check):
    prof = _profile(OdeParams(n=3, R=0.0, a=1.0))
    masked = dataclasses.replace(prof, lam=np.zeros_like(prof.lam))

    def raised():
        with pytest.raises(AllPointsMasked) as exc:
            check(masked)
        return str(exc.value)

    small, whole = _by_block_size(monkeypatch, raised)
    assert small == whole


# ----------------------------------------------------------------------
# Memory bounds at 100,001 points (tracemalloc; numpy reports its buffers)
# ----------------------------------------------------------------------

POINTS = 100_001
MB = 1e6


def _peak(run):
    """``(result, peak bytes allocated while run() ran)``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_profile():
    """A profile and its float64 export on a grid of POINTS rows."""
    prof = _profile(OdeParams(n=3, R=-6.0, a=1.0), C=0.25, s_max=4.0)
    export = _resample(prof, 7.99999e-5)
    assert export.grid.size == POINTS
    return prof, export


def test_sample_base_peak_is_under_twice_its_output(long_profile):
    prof, export = long_profile
    grid = np.asarray(export.grid, dtype=LD)  # the query's own dtype
    out, peak = _peak(lambda: prof.sample_base(grid))
    bases = {id(a.base): a.base for a in out}
    returned = sum(b.nbytes for b in bases.values())
    assert len(bases) == 1 and returned == POINTS * 4 * LD(0).nbytes
    # Measured 12.5 MB for 6.4 MB returned; the whole-array query took 74.5.
    assert peak < 2 * returned


def test_resample_peak_is_its_table_and_a_few_blocks(long_profile, monkeypatch):
    # Blocks of 1,024 rows, so that a block's dense-output temporaries
    # (about 0.8 MB) stay small against the table.
    prof, _ = long_profile
    monkeypatch.setattr(support, "ROW_BLOCK", 1024)
    export, peak = _peak(lambda: _resample(prof, 7.99999e-5))
    table = export.r.base
    assert table.shape == (4, POINTS) and table.dtype == np.float64
    assert all(c.base is table for c in (export.rp, export.lam, export.lamp))
    held = table.nbytes + export.grid.nbytes
    assert held == 5 * 8 * POINTS
    # Measured 4.9 MB (1.5x margin) for the 4.0 MB held; the longdouble
    # export with whole-length temporaries took 12.8.
    assert peak < 7.35 * MB


def test_profile_from_arrays_peak_is_a_column_and_a_block(long_profile):
    _, export = long_profile
    names = ("s", "r", "rp", "lam", "lamp")
    columns = dict(zip(names, (export.grid, export.r, export.rp, export.lam, export.lamp)))
    prof, peak = _peak(lambda: profile_from_arrays(export.params, columns))
    assert abs(prof.kappa0 - export.kappa0) < 1e-12
    # Measured 1.7 MB (1.5x margin): one float64 column of conserved values
    # and a block; the whole-window longdouble evaluation took 13.7.
    assert peak < 2.6 * MB


def test_write_csv_peak_is_a_few_blocks(long_profile, tmp_path):
    _, export = long_profile
    columns = (export.grid, export.r, export.rp, export.lam, export.lamp)
    _, peak = _peak(lambda: write_csv(str(tmp_path / "p.csv"), "s,r,rp,lam,lamp", columns))
    # Measured 2.8 MB (1.5x margin); the whole-table rendering took 34.4.
    assert peak < 4.2 * MB


def test_verify_critical_peak_is_bounded(long_profile):
    _, export = long_profile
    report, peak = _peak(lambda: verify_critical(export))
    assert report.grid_size == POINTS
    # Measured 4.5 MB (1.5x margin), the block temporaries alone: the gate,
    # the floor and the residuals reduce by row block, and the columns are
    # not copied.  The whole-window fiber gate and grid copies took 12.8,
    # the whole-window frame tensors 41.7.
    assert peak < 6.7 * MB
