"""End-to-end command tests: files, exit codes, determinism, config handling."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import magflow
from magflow import (
    MagneticConfig, Tangent, alpha_radial, bolza_group, cli, compare_to_closed_form,
    density_cover_many, density_surface_many,
    flow_exact_many, halfplane, hyp_dist, ladder, period, preimages_cover, radius,
    sample_pushforward,
)
from magflow.halfplane import from_disk, hyp_dist_vec
from magflow.spectrum import critical_gaps, ladder_arrays, ladder_slices, select_levels
from magflow.torus import Flag
from magflow.verify import CHECKS

STD = MagneticConfig(1.0, 0.25)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def assert_same_text(got, want):
    """got == want; a mismatch fails with the first differing line, by
    number, instead of a diff of texts that run to hundreds of KB, which
    pytest can take minutes to build."""
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            pytest.fail(f"line {i} differs:\n got  {x!r}\n want {y!r}")
    pytest.fail(f"{len(a)} lines, want {len(b)}; the first {min(len(a), len(b))} agree")


def grid_columns(grid):
    """The (index, columns) of cli._cover_rows, or of surface_grid, as
    grid-shaped columns."""
    index, columns = grid
    return [c[index] for c in columns]


def disk_grid(xs):
    """The whole disk-model grid xs x xs at once (row iy holds y = xs[iy]):
    the points inside radius 0.999999 and their half-plane images, i at the
    others; the oracle of the blocks of halfplane._disk_blocks."""
    u = xs[None, :] + 1j * xs[:, None]
    valid = np.abs(u) < 0.999999
    return valid, from_disk(np.where(valid, u, 0.0))


def surface_grid(group, cfg, xs, band):
    """The Bolza grid as (index, columns) from one density_surface_many call
    over every point of the whole disk-model grid inside the disk: one
    column entry per cell and the identity index; d_to_center is the folded
    point's, and a cell off the disk is inf, 0, 0, Outside.  The oracle of
    the block-by-block cli._surface_csv."""
    valid, z = disk_grid(xs)
    d = np.full(z.shape, np.inf)
    alpha = np.zeros(z.shape)
    n_pre = np.zeros(z.shape, dtype=np.int64)
    flags = np.empty(z.shape, dtype=object)
    flags[:] = Flag.OUTSIDE  # np.full would store a string
    y0, alpha[valid], n_pre[valid], flags[valid] = density_surface_many(
        group, cfg, z[valid], band)
    d[valid] = hyp_dist_vec(y0, 1j)
    return np.arange(z.size).reshape(z.shape), tuple(c.ravel() for c in (d, alpha, n_pre, flags))


def wild(lo, hi):
    """Float flag values: in range, anywhere nearby, or special."""
    return st.one_of(st.floats(lo, hi), st.floats(-10.0, 10.0),
                     st.sampled_from([math.nan, math.inf, -math.inf, -1e-3, 0.0, 5e-324,
                                      1e-160, 1e-17, 1e160, 1e300]))


# field strengths that meet the surface's Chern constraint, or any other
SURFACE_B = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), wild(0.1, 4.0))

# hypothesis settings of the exit-cleanly tests; tmp_path is shared by a
# test's examples, so each example writes into a fresh_dir of it
CLEAN_EXIT = settings(max_examples=40, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def fresh_dir(base):
    """A new directory under base.  Truncating a file that was just written
    can wait for the filesystem to flush it (about 60 ms a file on ext4), so
    repeated runs write into new directories."""
    return Path(tempfile.mkdtemp(dir=base))


def config_value(numbers):
    """Config-file value text: a number of the strategy as Python writes it,
    an integer past the float range, an odd literal, or a line of non-digit
    text (so no huge run can be drawn)."""
    return st.one_of(
        numbers.map(repr), numbers.map(repr), numbers.map(repr),
        st.sampled_from(["", "nan", "-inf", "1e400", "1" + "0" * 400, "-1" + "0" * 400,
                         "1_000", "0x10", "5%", "%(B)s", "%%", "[x]", "= 3", " 2 "]),
        st.text(st.characters(exclude_categories=("Cc", "Cs", "Nd", "Zl", "Zp")),
                max_size=12))


# lines after the generated section: none, or a fault of the file itself
MALFORMED = st.sampled_from(["", "", "", "key without value\n", "[unclosed\n",
                             "[magflow]\nB = 1\nB = 2\n", "\tindented = 1\n"])


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def load_strict_json(out):
    """json.load every JSON file under out, refusing NaN and Infinity."""
    for path in Path(out).rglob("*.json"):
        with open(path) as fh:
            json.load(fh, parse_constant=refuse_constant)


def assert_nothing_written(out):
    """No file in out but a test's own run.ini and the sidecar that density
    --surface bolza writes on purpose when the disk passes the enumeration cap."""
    for path in Path(out).rglob("*"):
        if path.is_file() and path.name != "run.ini":
            assert path.name == "density_summary.json", path
            assert read_json(path)["enumeration_cap_exceeded"] is True, path


def exit_code(capsys, command, out, **flags):
    """cli.main with each flag given as a separate "--name value" pair, as a
    user types it (skipping None); asserts no traceback reached stderr, that
    every JSON file written on exit 0 loads as strict JSON, and that an
    exit-2 run wrote nothing."""
    argv = [command, "--out", str(out)]
    for name, value in flags.items():
        if value is not None:
            argv += [f"--{name}", value if isinstance(value, str) else repr(value)]
    rc = cli.main(argv)
    assert "Traceback" not in capsys.readouterr().err
    if rc == 0:
        load_strict_json(out)
    elif rc == 2:
        assert_nothing_written(out)
    return rc


def test_dumps_refuses_non_finite_floats():
    assert cli._dumps({"a": [1.5, 2]}) == '{\n  "a": [\n    1.5,\n    2\n  ]\n}'
    for obj, message in (({"x": {"y": math.inf}}, "y is inf"),
                         ({"x": [0.0, np.float64(math.nan)]}, "x is nan"),
                         (-math.inf, "value is -inf")):
        with pytest.raises(ValueError, match=f"^{message}, which JSON cannot hold$"):
            cli._dumps(obj)


class TestFlowCommand:
    def test_subcritical_summary(self, tmp_path):
        rc = cli.main(["flow", "--B", "1", "--E", "0.25",
                       "--grid", "201", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("flow_exact.csv", "flow_numeric.csv", "flow_summary.json"):
            assert (tmp_path / name).exists()
        summary = read_json(tmp_path / "flow_summary.json")
        assert summary["regime"] == "Subcritical"
        assert summary["period"] == pytest.approx(8.885766, abs=1e-6)
        assert summary["return_residual"] < 1e-9
        assert summary["max_divergence"] < 1e-8
        assert summary["step_warning"] is False
        header, rows = read_csv(tmp_path / "flow_exact.csv")
        assert header == ["t", "re_z", "im_z", "re_v", "im_v"]
        assert len(rows) == 201

    @pytest.mark.parametrize("grid, dt, warned", [("11", "0.05", False), ("101", "0.05", False),
                                                  ("3", "0.5", True)])
    def test_coarse_steps_run_and_are_flagged(self, tmp_path, grid, dt, warned):
        # RK4's drift in speed over these steps once failed the energy-shell check of a row
        rc = cli.main(["flow", "--grid", grid, "--dt", dt, "--out", str(tmp_path)])
        assert rc == 0
        for name in ("flow_exact.csv", "flow_numeric.csv", "flow_summary.json"):
            assert (tmp_path / name).exists()
        summary = read_json(tmp_path / "flow_summary.json")
        assert summary["step_warning"] is warned
        assert len(read_csv(tmp_path / "flow_numeric.csv")[1]) == int(grid)

    @pytest.mark.parametrize("E", [0.25, 2.0])
    def test_table_matches_fmt_oracle(self, E):
        # the row-template table against one _fmt join per line
        cfg = MagneticConfig(1.0, E)
        p0 = Tangent(1j, 1j * cfg.lam)
        ts = 0.1 * np.arange(101)
        z, v = flow_exact_many(cfg, p0, ts)
        want = "t,re_z,im_z,re_v,im_v\n" + "".join(
            ",".join(cli._fmt(x) for x in (t, a.real, a.imag, b.real, b.imag)) + "\n"
            for t, a, b in zip(ts, z, v))
        assert cli._traj_csv(ts, z, v) == want

    def test_critical_has_no_period(self, tmp_path):
        rc = cli.main(["flow", "--B", "1", "--E", "0.5",
                       "--grid", "101", "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "flow_summary.json")
        assert summary["regime"] == "Critical"
        assert "period" not in summary
        assert "return_residual" not in summary

    @pytest.mark.parametrize("E", ["0.5000000001", "0.50000000000001", "0.49999999999999"])
    def test_near_critical_tracks_the_integrator(self, tmp_path, E):
        # energies next to E_c take the same closed forms as any other
        rc = cli.main(["flow", "--B", "1", "--E", E, "--grid", "101", "--out", str(tmp_path)])
        assert rc == 0
        assert read_json(tmp_path / "flow_summary.json")["max_divergence"] < 1e-8

    def test_supercritical_lyapunov(self, tmp_path):
        rc = cli.main(["flow", "--B", "1", "--E", "1",
                       "--grid", "101", "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "flow_summary.json")
        assert summary["regime"] == "Supercritical"
        assert summary["lyapunov"] == pytest.approx(0.5, abs=1e-3)

    def test_supercritical_overflow_fails(self, tmp_path, capsys):
        # two rows put the whole horizon t = 10 into one exp(tF), whose cosh overflows
        rc = cli.main(["flow", "--B", "1", "--E", "1e6", "--grid", "2",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "exp(tF) overflows at B=1.0, E=1000000.0, t=10.0" in capsys.readouterr().err

    def test_lost_determinant_fails(self, tmp_path, capsys):
        # exp(tF) entries whose a d - b c has cancelled are refused, not
        # renormalized; the rows are checked as one array, whose largest
        # time is named.  At E = 1e6 the overflow bound fires first.
        for E, message in (("5", "exp(tF) loses its determinant (|det - 1| = 0.000885) "
                                 "at B=1.0, E=5.0, t=10.0"),
                           ("1e6", "exp(tF) overflows at B=1.0, E=1000000.0, t=10.0")):
            rc = cli.main(["flow", "--B", "1", "--E", E, "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_grid_fails(self, tmp_path, capsys):
        for grid in ("-5", "0", "1"):
            rc = cli.main(["flow", "--grid", grid, "--out", str(tmp_path)])
            assert rc == 2
            assert "grid must have at least 2 rows" in capsys.readouterr().err
        assert not (tmp_path / "flow_summary.json").exists()

    # dt of at least 0.1 keeps a run under 10^5 RK4 steps unless B^2 - 2E is
    # below about 1e-6, which independent random floats almost never hit
    @CLEAN_EXIT
    @given(B=wild(0.1, 4.0), E=wild(0.0, 4.0), grid=st.integers(-3, 50),
           dt=st.one_of(st.floats(0.1, 1.0), st.sampled_from([0.0, -0.1, 1e-9, math.nan,
                                                              math.inf, -math.inf])))
    @example(B=1.0, E=0.25, grid=None, dt=math.inf)  # once wrote both CSVs, then exited 2
    def test_any_flags_exit_cleanly(self, tmp_path, capsys, B, E, grid, dt):
        rc = exit_code(capsys, "flow", fresh_dir(tmp_path), B=B, E=E, grid=grid, dt=dt)
        assert rc in (0, 2)

    def test_rk4_leaving_the_half_plane_fails(self, tmp_path, capsys):
        # a step of 1 next to E_c carries the integrator across the real axis
        rc = cli.main(["flow", "--E", "0.4999999", "--dt", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: RK4 left the upper half-plane "
                                           "at B=1.0, E=0.4999999, dt=1.0\n")
        assert list(tmp_path.iterdir()) == []

    def test_infinite_dt_fails_before_integrating(self, tmp_path, capsys):
        for dt in ("inf", "nan"):
            rc = cli.main(["flow", "--dt", dt, "--out", str(tmp_path / dt)])
            assert rc == 2
            assert f"error: dt must be positive and finite, got {dt}" in capsys.readouterr().err
            assert not (tmp_path / dt).exists()

    def test_step_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        # a grid past the float range, on the command line and from a config file
        huge = "1" + "0" * 400
        ini = tmp_path / "run.ini"
        ini.write_text(f"[flow]\ngrid = {huge}\n")
        for flags in (["--dt", "1e-9"], ["--grid", "100000000"], ["--grid", huge],
                      ["--config", str(ini)]):
            rc = cli.main(["flow", *flags, "--out", str(tmp_path)])
            assert rc == 2
            assert "RK4 steps needed" in capsys.readouterr().err
        rc = cli.main(["flow", "--dt", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "dt must be positive" in capsys.readouterr().err
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "flow_summary.json").exists()


class TestDensityCommand:
    def test_cover_grid(self, tmp_path):
        rc = cli.main(["density", "--B", "1", "--E", "0.25",
                       "--grid", "64", "--out", str(tmp_path)])
        assert rc == 0
        sidecar = read_json(tmp_path / "density_summary.json")
        assert sidecar["surface"] == "cover"
        assert sidecar["R_E"] == pytest.approx(math.acosh(3.0), rel=1e-12)
        assert sidecar["mass_rel_err"] < 0.01
        assert sidecar["mass_normalized"] == pytest.approx(1.0, rel=0.01)
        assert sidecar["center_slope"] == pytest.approx(-1.0, abs=0.05)
        assert sidecar["boundary_slope"] == pytest.approx(-0.5, abs=0.05)
        assert sidecar["center_constant"] == pytest.approx(
            sidecar["center_constant_expected"], rel=1e-2)
        assert sidecar["boundary_constant"] == pytest.approx(
            sidecar["boundary_constant_expected"], rel=1e-2)
        header, rows = read_csv(tmp_path / "density_grid.csv")
        assert header == ["x", "y", "d_to_center", "alpha_raw",
                          "alpha_normalized", "n_preimages", "flag"]
        assert len(rows) == 64 * 64

    def test_cover_rows_match_pointwise_density(self, tmp_path):
        cli.main(["density", "--grid", "32", "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "density_grid.csv")
        R = radius(STD)
        checked = 0
        for row in rows[::17]:
            x, y, d, araw = (float(v) for v in row[:4])
            if row[6] != "Regular" or d > 0.95 * R:
                continue
            point = complex(from_disk(complex(x, y)))
            assert araw == pytest.approx(alpha_radial(STD, hyp_dist(1j, point)), rel=1e-8)
            assert int(row[5]) == len(preimages_cover(STD, point))
            checked += 1
        assert checked > 20

    def test_cover_row_counts_match_preimages_at_the_rim(self):
        R = radius(STD)
        rim = math.tanh(0.5 * R)
        # disk radii in the NearBoundary flag band, on both sides of the 1e-12
        # rim band and inside it; the grid is xs x xs, so (x, 0) has |u| = x
        xs = np.array([0.0, 0.3, rim * (1.0 - 1e-3), rim * (1.0 - 1e-11), rim * (1.0 - 1e-13),
                       rim, rim * (1.0 + 1e-13), rim * (1.0 + 1e-11), rim * (1.0 + 1e-3), 0.9])
        dist, _, n_pre, flags = grid_columns(cli._cover_rows(STD, xs, 1e-3))
        near_band = on_rim = 0
        for (iy, ix), d in np.ndenumerate(dist):
            if not math.isfinite(d) or d < 1e-9:
                continue  # off the disk model, or the center's circle fiber
            y = complex(from_disk(complex(xs[ix], xs[iy])))
            assert n_pre[iy, ix] == len(preimages_cover(STD, y))
            near_band += flags[iy, ix] == "NearBoundary"
            on_rim += abs(d - R) <= 1e-12 * R
        assert near_band >= 8 and on_rim >= 4

    def test_bad_bands_fail(self, tmp_path, capsys):
        for bands in ("-1", "nan", "inf"):
            out = tmp_path / bands
            rc = cli.main(["density", "--grid", "8", "--bands", bands, "--out", str(out)])
            assert rc == 2
            assert "bands must be a finite nonnegative width" in capsys.readouterr().err
            assert not out.exists()

    def test_singular_fits_of_a_small_disk(self, tmp_path, capsys):
        # R_E is 2.8e-3, below the top of the fixed window d <= 1e-2 of larger disks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["density", "--B", "1", "--E", "1e-6", "--grid", "8",
                           "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        summary = read_json(tmp_path / "density_summary.json")
        assert summary["center_slope"] == pytest.approx(-1.0, abs=0.02)
        assert summary["boundary_slope"] == pytest.approx(-0.5, abs=0.02)

    @pytest.mark.parametrize("argv, message", [
        (["density", "--E", "1e-8", "--grid", "8"], "center_constant is inf"),
        (["sample", "--E", "1e-14", "--n", "10000"], "boundary_slope is nan"),
        (["sample", "--E", "1e-12", "--n", "10000"], "center_slope is nan"),
    ])
    def test_non_finite_summary_fails_before_writing(self, tmp_path, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy's warnings of the degenerate fits
            rc = cli.main([*argv, "--B", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {message}, which JSON cannot hold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("E", ["1e-9", "1e-16"])
    def test_disk_narrower_than_the_mass_bands_fails(self, tmp_path, capsys, E):
        # R_E is 8.9e-5 and 2.8e-8: the quadrature's pieces would run past the
        # center, at negative distances
        rc = cli.main(["density", "--B", "1", "--E", E, "--grid", "8",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the mass quadrature excises bands of 0.0001 at the center "
                              "and the boundary, which need R_E >= 0.0002; R_E is ")
        assert err.endswith(f" at B=1.0, E={float(E)!r}\n")
        assert not (tmp_path / "out").exists()

    def test_grid_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        for grid in ("1", "100000000"):
            rc = cli.main(["density", "--grid", grid, "--out", str(tmp_path)])
            assert rc == 2
            assert "grid must have 2 to 1000 points per side" in capsys.readouterr().err
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "density_grid.csv").exists()

    def test_bolza_grid(self, tmp_path):
        rc = cli.main(["density", "--surface", "bolza", "--B", "1", "--E", "0.25",
                       "--grid", "48", "--out", str(tmp_path)])
        assert rc == 0
        sidecar = read_json(tmp_path / "density_summary.json")
        assert sidecar["translates"] == 9
        assert sidecar["enumeration_cap_exceeded"] is False

    def test_odd_grids_write_the_center_row(self, tmp_path):
        # an odd grid has a cell at the center, whose torus fiber is a full
        # circle: both surfaces write it with no preimages and infinite alpha
        for surface in ("cover", "bolza"):
            out = tmp_path / surface
            rc = cli.main(["density", "--surface", surface, "--grid", "61",
                           "--out", str(out)])
            assert rc == 0
            _, rows = read_csv(out / "density_grid.csv")
            assert rows[30 * 61 + 30] == ["0", "0", "0", "inf", "inf", "0", "NearCenter"]

    def center_row(self, tmp_path, *argv):
        rc = cli.main(["density", *argv, "--bands", "0", "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "density_grid.csv")
        return [r for r in rows if r[2] == "0"]

    def test_zero_bands_flag_the_cover_center(self, tmp_path):
        # the center band is closed: at zero width it still holds d = 0
        assert self.center_row(tmp_path, "--grid", "33") == [
            ["0", "0", "0", "inf", "inf", "0", "NearCenter"]]

    def test_zero_bands_flag_the_bolza_center(self, tmp_path):
        assert self.center_row(tmp_path, "--surface", "bolza", "--grid", "61") == [
            ["0", "0", "0", "inf", "inf", "0", "NearCenter"]]

    @staticmethod
    def per_line_csv(cfg, xs, columns):
        # density_grid.csv as one f-string per line, the writer's byte oracle
        d, alpha, n_pre, flags = columns
        norm = 2.0 * math.pi * period(cfg)
        x_row = xs.tolist()
        yield "x,y,d_to_center,alpha_raw,alpha_normalized,n_preimages,flag\n"
        for iy, y in enumerate(x_row):
            for x, dd, a, an, k, f in zip(x_row, d[iy].tolist(), alpha[iy].tolist(),
                                          (alpha[iy] / norm).tolist(), n_pre[iy].tolist(),
                                          flags[iy].tolist()):
                yield f"{x:.17g},{y:.17g},{dd:.17g},{a:.17g},{an:.17g},{k},{f.value}\n"

    @staticmethod
    def grid_of(surface, cfg, n, band):
        """The CLI's xs for one density run and an (index, columns) of its
        grid: the cover's from cli._cover_rows, the Bolza surface's from the
        whole-grid oracle surface_grid."""
        if surface == "bolza":
            group = bolza_group()
            extent = math.tanh(0.5 * group.circumradius)
            xs = np.linspace(-extent, extent, n)
            return xs, surface_grid(group, cfg, xs, band)
        extent = math.tanh(0.5 * radius(cfg))
        xs = np.linspace(-extent, extent, n)
        return xs, cli._cover_rows(cfg, xs, band)

    # grid 301 has a cell at the center, d = 0 exactly; E = 1e-6 is a disk
    # of radius 2.8e-3, where every distance is small
    @pytest.mark.parametrize("surface, B, E, grid, band", [
        pytest.param("cover", 1.0, 0.25, 300, 1e-3, id="cover-300-0.001"),
        pytest.param("cover", 1.0, 0.25, 301, 1e-3, id="cover-301-0.001"),
        pytest.param("cover", 1.0, 0.25, 33, 0.0, id="cover-33-0.0"),
        pytest.param("cover", 1.0, 1e-6, 50, 0.0, id="cover-E1e-06-50-0.0"),
        pytest.param("bolza", 1.0, 0.25, 61, 1e-3, id="bolza-61-0.001")])
    def test_row_writer_matches_per_line_oracle(self, surface, B, E, grid, band):
        # the writer's text against one f-string per cell of the columns the
        # index expands: the cover's tails are looked up through its index,
        # the Bolza rows are evaluated block by block
        cfg = MagneticConfig(B, E)
        xs, rows = self.grid_of(surface, cfg, grid, band)
        if surface == "bolza":
            text = cli._surface_csv(bolza_group(), cfg, xs, band)
        else:
            text = cli._density_csv(cfg, xs, rows)
        got = "".join(text).splitlines(keepends=True)
        want = list(self.per_line_csv(cfg, xs, grid_columns(rows)))
        assert len(got) == len(want) == grid * grid + 1
        # the first differing line, not a diff of the whole table
        assert next(((i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b), None) is None

    @pytest.mark.parametrize("B, E, grid, band", [
        (1.0, 0.25, 300, 1e-3), (1.0, 0.25, 301, 1e-3), (1.0, 1e-6, 50, 0.0),
        (1.3, 0.3, 60, 1e-3)])
    def test_cover_rows_match_the_full_grid_kernel_bit_for_bit(self, B, E, grid, band):
        # the kernel runs once per distinct distance; through the index its
        # columns are those of one density_cover_many call on every cell of
        # the whole grid
        cfg = MagneticConfig(B, E)
        xs, rows = self.grid_of("cover", cfg, grid, band)
        index, (d, *_) = rows
        assert len(d) < grid * grid and np.all(np.diff(d) > 0.0)
        valid, z = disk_grid(xs)
        full = np.where(valid, hyp_dist_vec(z, 1j), np.inf)
        want = (full, *density_cover_many(cfg, full, band))
        for got, w in zip(grid_columns(rows), want):
            assert got.dtype == w.dtype and np.array_equal(got, w)
        # np.unique would merge a -0.0 with 0.0: no grid distance is one
        assert not np.signbit(d).any()

    def test_writer_traced_peak_is_the_distinct_tails(self):
        # grid 300 has 30,103 distinct distances, whose tails take 2.1 MB as
        # text; the writer peaked at 2.4 MB, and at 7.7 MB when it split that
        # text into one str per tail
        xs, rows = self.grid_of("cover", STD, 300, 1e-3)
        assert len(rows[1][0]) == 30_103
        tracemalloc.start()
        try:
            size = sum(map(len, cli._density_csv(STD, xs, rows)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 9e6 and peak < 3e6

    # one grid row per block at grid 61, and blocks of three rows with a last
    # block of one
    @pytest.mark.parametrize("cells", [61, 3 * 61 + 5])
    def test_grid_blocks_leave_the_bytes_unchanged(self, tmp_path, monkeypatch, cells):
        argv = ["density", "--surface", "bolza", "--grid", "61"]
        assert cli.main([*argv, "--out", str(tmp_path / "whole")]) == 0
        xs, want = self.grid_of("cover", STD, 61, 1e-3)
        monkeypatch.setattr(halfplane, "_GRID_CELLS", cells)
        assert cli.main([*argv, "--out", str(tmp_path / "blocks")]) == 0
        assert ((tmp_path / "blocks" / "density_grid.csv").read_bytes()
                == (tmp_path / "whole" / "density_grid.csv").read_bytes())
        index, columns = cli._cover_rows(STD, xs, 1e-3)
        assert np.array_equal(index, want[0])
        for got, w in zip(columns, want[1]):
            assert got.dtype == w.dtype and np.array_equal(got, w)

    def test_bolza_writer_traced_peak_is_one_block(self):
        # the whole-grid writer held grid-sized object and float arrays, and
        # peaked at 22.8 MB at grid 300; one block of 16,384 points, at 5.9 MB
        extent = math.tanh(0.5 * bolza_group().circumradius)
        xs = np.linspace(-extent, extent, 300)
        "".join(cli._surface_csv(bolza_group(), STD, np.linspace(-0.5, 0.5, 8), 1e-3))
        tracemalloc.start()
        try:
            size = sum(map(len, cli._surface_csv(bolza_group(), STD, xs, 1e-3)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 9e6 and peak < 8e6

    def test_bolza_single_translate_regime_matches_cover(self, tmp_path):
        cfg = MagneticConfig(1.0, 0.15)
        cli.main(["density", "--surface", "bolza", "--B", "1", "--E", "0.15",
                  "--grid", "40", "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "density_grid.csv")
        R = radius(cfg)
        inside = outside = 0
        for row in rows:
            if row[6] == "Regular":
                d, araw = float(row[2]), float(row[3])
                assert araw == pytest.approx(float(alpha_radial(cfg, d)), rel=1e-8)
                inside += 1
            elif row[6] == "Outside" and row[2] != "inf":
                assert float(row[2]) > R - 1e-9
                assert float(row[3]) == 0.0
                outside += 1
        assert inside > 100 and outside > 100

    # sha256 of density_grid.csv of density --surface bolza --grid 40, recorded
    # when the surface evaluated the band, density and count rule on every
    # (translate, point) pair: band 0 and band >= 1 are where the hit mask and
    # the band masks meet
    @pytest.mark.parametrize("E, bands, digest", [
        ("0.25", "1e-3", "5dace32aee154d5fac4f8a87b1260c90ee6e6b699c28416110530e71cc3e3d28"),
        ("0.48", "1e-3", "9980507f77a241a5318132a0ff9e45c086b8b518b1a77571ef013b1f91f7b982"),
        ("0.3", "0", "0ea26ed94392796ab6298f50b16840a84b8813443856c69b62c8d0b2976872af"),
        ("0.1", "2", "0069e130032a22b1a197cf44ce814bac944586d74a7208f7fe27c090b790a11a")])
    def test_bolza_grid_bytes_are_pinned(self, tmp_path, E, bands, digest):
        rc = cli.main(["density", "--surface", "bolza", "--grid", "40", "--E", E,
                       "--bands", bands, "--out", str(tmp_path)])
        assert rc == 0
        assert hashlib.sha256((tmp_path / "density_grid.csv").read_bytes()).hexdigest() == digest

    def test_cover_grid_bytes_are_pinned(self, tmp_path):
        # sha256 of the benchmark's cover-sample density run, recorded when
        # alpha, the preimage count and t_1 each evaluated their own S^2
        rc = cli.main(["density", "--grid", "300", "--B", "1", "--E", "0.25",
                       "--out", str(tmp_path)])
        assert rc == 0
        for name, digest in (
                ("density_grid.csv",
                 "33877142f5ac5d870a0b60f65e56d9e05664ac6b9a1066aef4c048f5729c8856"),
                ("density_summary.json",
                 "26bace5d4744c6989914dc0a7f4bbf6b838ede5fe89c27e7544b4694487ebce2")):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_chern_violation_fails(self, tmp_path, capsys):
        rc = cli.main(["density", "--surface", "bolza", "--B", "0.7", "--E", "0.1",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "Chern constraint violated" in capsys.readouterr().err
        assert not (tmp_path / "density_grid.csv").exists()

    def test_enumeration_cap(self, tmp_path, capsys):
        rc = cli.main(["density", "--surface", "bolza", "--B", "1", "--E", "0.497",
                       "--out", str(tmp_path)])
        assert rc == 2
        sidecar = read_json(tmp_path / "density_summary.json")
        assert sidecar["enumeration_cap_exceeded"] is True
        assert "enumeration cap" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["density_summary.json"]

    @CLEAN_EXIT
    @given(surface=st.sampled_from(["cover", "bolza"]), B=SURFACE_B, E=wild(0.0, 1.0),
           grid=st.integers(-1, 30), bands=wild(0.0, 0.1))
    def test_any_flags_exit_cleanly(self, tmp_path, capsys, surface, B, E, grid, bands):
        rc = exit_code(capsys, "density", fresh_dir(tmp_path), surface=surface, B=B, E=E,
                       grid=grid, bands=bands)
        assert rc in (0, 2)

    def test_unknown_surface_from_config(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[magflow]\nsurface = weird\n")
        rc = cli.main(["density", "--config", str(ini), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown surface" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_resonant_ladder(self, tmp_path):
        rc = cli.main(["spectrum", "--k", "10", "--B", "1", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["k", "m", "lambda", "scaled"]
        assert len(rows) == 10
        summary = read_json(tmp_path / "spectrum_summary.json")
        assert summary["top_scaled"] == 0.5
        assert summary["gap_top"] == 0.0
        assert summary["gap_beyond"] == 0.0

    def test_level_selection(self, tmp_path):
        rc = cli.main(["spectrum", "--k", "100", "--B", "1", "--E", "0.25",
                       "--out", str(tmp_path)])
        assert rc == 0
        sel = read_json(tmp_path / "spectrum_summary.json")["selected"]
        assert sel["m"] == 29
        assert sel["lambda"] == 2515.0
        assert sel["scaled"] == pytest.approx(0.2515, abs=1e-12)

    def test_empty_ladder_fails(self, tmp_path, capsys):
        rc = cli.main(["spectrum", "--k", "1", "--B", "0.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "empty ladder: kB < 1" in capsys.readouterr().err

    def test_csv_lines_match_fmt(self, tmp_path):
        # the CSV writer formats with :.17g; _fmt of the same entries gives the same bytes
        rc = cli.main(["spectrum", "--k", "10000", "--B", "1.5", "--out", str(tmp_path)])
        assert rc == 0
        want = ["k,m,lambda,scaled"] + [
            f"{e.k},{e.m},{cli._fmt(e.lam)},{cli._fmt(e.scaled)}" for e in ladder(10000, 1.5)
        ]
        assert_same_text((tmp_path / "spectrum.csv").read_text(), "\n".join(want) + "\n")

    @staticmethod
    def per_line_outputs(k, B, E):
        # spectrum.csv one f-string per SpectrumEntry and the summary from the
        # entries' max(): the writer's byte oracle
        entries = ladder(k, B)
        csv = "k,m,lambda,scaled\n" + "".join(
            f"{e.k},{e.m},{e.lam:.17g},{e.scaled:.17g}\n" for e in entries)
        gap_top, gap_beyond = (float(g) for g in critical_gaps(k, B))
        top = max(entries, key=lambda e: e.lam)
        summary = {
            "k": k, "B": B, "n_levels": len(entries),
            "top_m": top.m, "top_lambda": top.lam, "top_scaled": top.scaled,
            "gap_top": gap_top, "gap_beyond": gap_beyond,
            "k_gap_top": k * gap_top, "k_gap_beyond": k * gap_beyond,
        }
        if E is not None:
            m, lam, scaled = select_levels(k, B, [E])
            summary["selected"] = {
                "E": E, "m": int(m[0]), "lambda": float(lam[0]), "scaled": float(scaled[0]),
                "offset": abs(float(scaled[0]) - E),
            }
        return csv, cli._dumps(summary) + "\n"

    # 15,000 rungs with a ragged last slice, one rung past a slice, a single
    # rung, the resonant top where gap_top is 0, and 20,000 integral lambdas
    # over five slices
    @pytest.mark.parametrize("k, B, E", [
        (10000, 1.5, 0.3), (4097, 1.0, 0.25), (3, 0.5, None), (10, 1.0, None),
        (20000, 1.0, None)])
    def test_writer_matches_per_line_oracle(self, tmp_path, k, B, E):
        argv = ["spectrum", "--k", str(k), "--B", repr(B), "--out", str(tmp_path)]
        assert cli.main(argv + ([] if E is None else ["--E", repr(E)])) == 0
        csv, summary = self.per_line_outputs(k, B, E)
        assert_same_text((tmp_path / "spectrum.csv").read_text(), csv)
        assert_same_text((tmp_path / "spectrum_summary.json").read_text(), summary)

    @staticmethod
    def whole_array_outputs(k, B):
        # spectrum.csv and the summary from the whole ladder as arrays, the
        # top rung by argmax: the slice writer's byte oracle
        m, lam, scaled = ladder_arrays(k, B)
        csv = "k,m,lambda,scaled\n" + "".join(
            f"{k},{mi},{li:.17g},{si:.17g}\n"
            for mi, li, si in zip(m.tolist(), lam.tolist(), scaled.tolist()))
        top = int(np.argmax(lam))
        gap_top, gap_beyond = (float(g) for g in critical_gaps(k, B))
        summary = {
            "k": k, "B": B, "n_levels": len(m),
            "top_m": int(m[top]), "top_lambda": float(lam[top]),
            "top_scaled": float(scaled[top]),
            "gap_top": gap_top, "gap_beyond": gap_beyond,
            "k_gap_top": k * gap_top, "k_gap_beyond": k * gap_beyond,
        }
        return csv, cli._dumps(summary) + "\n", f"levels {len(m)} top scaled {scaled[top]:.17g}"

    # ladder lengths of 10,007, 12,288 + 1 and 4,095 rungs: none a multiple
    # of the slice; and kB just under an integer
    @pytest.mark.parametrize("k, B", [(10007, 1.0), (8193, 1.5), (4095, 1.0),
                                      (10, 0.9999999999)])
    def test_writer_matches_whole_array_oracle(self, tmp_path, capsys, k, B):
        assert cli.main(["spectrum", "--k", str(k), "--B", repr(B),
                         "--out", str(tmp_path)]) == 0
        csv, summary, line = self.whole_array_outputs(k, B)
        assert capsys.readouterr().out.splitlines()[0] == line
        assert_same_text((tmp_path / "spectrum.csv").read_text(), csv)
        assert_same_text((tmp_path / "spectrum_summary.json").read_text(), summary)

    def test_slices_mixing_integral_and_fractional_lambdas(self, tmp_path):
        # 2kB = 16386.4, so lambda is integral only where 5 divides 2m + 1: the
        # two full slices keep %.17g and the one-rung last slice (m = 8192)
        # takes %d
        k, B = 81932, 0.1
        integral = [bool((np.trunc(lam) == lam).all()) for _, lam, _ in ladder_slices(k, B)]
        assert integral == [False, False, True]
        assert cli.main(["spectrum", "--k", str(k), "--B", repr(B), "--out", str(tmp_path)]) == 0
        csv, summary = self.per_line_outputs(k, B, None)
        assert_same_text((tmp_path / "spectrum.csv").read_text(), csv)
        assert_same_text((tmp_path / "spectrum_summary.json").read_text(), summary)

    def test_writer_keeps_exponents_past_1e17(self):
        # near m = 2e8 at k = 1e9 the rungs are integral floats near 1.8e17,
        # which %.17g writes with an exponent; the writer must not take %d there
        k, B = 10**9, 1.0
        slices = [ladder_arrays(k, B, 0, 5), ladder_arrays(k, B, 2 * 10**8, 2 * 10**8 + 5)]
        want = "k,m,lambda,scaled\n" + "".join(
            f"{k},{mi},{li:.17g},{si:.17g}\n"
            for m, lam, scaled in slices
            for mi, li, si in zip(m.tolist(), lam.tolist(), scaled.tolist()))
        assert "e+17" in want
        assert "".join(cli._ladder_csv(k, slices)) == want

    # sha256 of spectrum.csv of spectrum --k 200000 --E 0.25 (the benchmark's
    # trajectory-ladder run), recorded when every lambda was written with %.17g
    def test_integral_ladder_bytes_are_pinned(self, tmp_path):
        assert cli.main(["spectrum", "--k", "200000", "--E", "0.25",
                         "--out", str(tmp_path)]) == 0
        digest = "80ea8b5315aac6c8914e5871c2b09bd332f9b24d396969692cf9e9462c116259"
        assert hashlib.sha256((tmp_path / "spectrum.csv").read_bytes()).hexdigest() == digest

    def test_traced_peak_does_not_grow_with_k(self, tmp_path, capsys):
        # the whole ladder as arrays would be 1.6 MB per column at k = 200,000
        peaks = []
        for k in ("20000", "200000"):
            tracemalloc.start()
            try:
                assert cli.main(["spectrum", "--k", k, "--out", str(tmp_path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 3e6

    @pytest.mark.parametrize("flags, message", [
        (["--B", "nan"], "field strength B must be positive and finite, got nan"),
        (["--B", "1", "--E", "nan"], "energy E must be finite and nonnegative, got nan"),
        (["--B", "inf"], "field strength B must be positive and finite, got inf"),
    ])
    def test_non_finite_values_fail(self, tmp_path, capsys, flags, message):
        rc = cli.main(["spectrum", "--k", "10", *flags, "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err

    # one_of weighs its branches alike; the in-range branches make about a
    # quarter of the runs write a ladder
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(k=st.integers(-3, 10_000),
           B=st.one_of(st.floats(0.1, 4.0), st.floats(-4.0, 4.0),
                       st.sampled_from([math.nan, math.inf, -math.inf, 1e300])),
           E=st.one_of(st.none(), st.floats(0.0, 2.0), st.floats(-1.0, 10.0),
                       st.sampled_from([math.nan, math.inf, -math.inf])))
    def test_any_flags_exit_cleanly(self, tmp_path, capsys, k, B, E):
        out = fresh_dir(tmp_path)
        rc = exit_code(capsys, "spectrum", out, k=k, B=B, E=E)
        assert rc in (0, 2)
        if rc == 0:
            rows = (out / "spectrum.csv").read_text().count("\n") - 1
            assert rows == math.floor(k * B + 1e-9)

    def test_rung_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        # the count is printed whole: one rung past the limit is not rounded onto it
        for k in ("100000000", "2000001"):
            rc = cli.main(["spectrum", "--k", k, "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: k B = {k} rungs; the limit is 2000000\n"
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "spectrum.csv").exists()


class TestSampleCommand:
    def test_golden_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = cli.main(["sample", "--n", "50000", "--seed", "99", "--out", str(out)])
            assert rc == 0
        assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()
        assert (a / "sample_report.json").read_bytes() == (b / "sample_report.json").read_bytes()

    def test_benchmark_run_bytes_are_pinned(self, tmp_path):
        # sha256 of the benchmark's cover-sample sample run, recorded when
        # the exact ring averages and the chi-square expectation each read
        # t_1 at the ring edges
        rc = cli.main(["sample", "--n", "4000000", "--seed", "1", "--B", "1", "--E", "0.25",
                       "--out", str(tmp_path)])
        assert rc == 0
        for name, digest in (
                ("histogram.csv",
                 "6a8030403e705b962cf441880de1d4a6157aff3321c653ce693be06b160f63aa"),
                ("sample_report.json",
                 "3beda5f83dce1874f3453cfb431d2637bfbb9a308d049cfd7889c45a72e9538f")):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_histogram_matches_fmt_oracle(self, tmp_path):
        # the row-template table against one _fmt join per ring
        cli.main(["sample", "--n", "50000", "--seed", "7", "--out", str(tmp_path)])
        report = compare_to_closed_form(sample_pushforward(STD, 50000, 7), STD)
        want = ["r_lo,r_hi,count,est_density,exact_ring_avg,rel_err"] + [
            ",".join((cli._fmt(report["r_lo"][i]), cli._fmt(report["r_hi"][i]),
                      str(int(report["count"][i])), cli._fmt(report["est_density"][i]),
                      cli._fmt(report["exact_ring_avg"][i]), cli._fmt(report["rel_err"][i])))
            for i in range(report["rings"])]
        assert_same_text((tmp_path / "histogram.csv").read_text(), "\n".join(want) + "\n")

    def test_report_contents(self, tmp_path):
        cli.main(["sample", "--n", "200000", "--seed", "11", "--out", str(tmp_path)])
        report = read_json(tmp_path / "sample_report.json")
        assert report["n"] == 200000
        assert report["rings"] == 256
        assert report["center_slope"] == pytest.approx(-1.0, abs=0.3)
        header, rows = read_csv(tmp_path / "histogram.csv")
        assert header == ["r_lo", "r_hi", "count", "est_density",
                          "exact_ring_avg", "rel_err"]
        assert sum(int(r[2]) for r in rows) == 200000

    def test_sample_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        rc = cli.main(["sample", "--n", "400000001", "--out", str(tmp_path)])
        assert rc == 2
        assert "samples requested; the limit is 400000000" in capsys.readouterr().err
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "histogram.csv").exists()

    @CLEAN_EXIT
    @given(B=wild(0.1, 4.0), E=wild(0.0, 1.0), n=st.integers(-5, 30_000),
           seed=st.one_of(st.integers(-3, 1000), st.integers(2**64 - 2, 2**130)))
    def test_any_flags_exit_cleanly(self, tmp_path, capsys, B, E, n, seed):
        rc = exit_code(capsys, "sample", fresh_dir(tmp_path), B=B, E=E, n=n, seed=seed)
        assert rc in (0, 2)

    def test_small_n_fails(self, tmp_path, capsys):
        rc = cli.main(["sample", "--n", "5000", "--out", str(tmp_path)])
        assert rc == 2
        assert "need at least 10^4 samples" in capsys.readouterr().err

    NO_TORUS = "torus undefined at this energy: it needs 0 < E < E_c = B^2/2, got "
    NEAR_CRITICAL = ("torus undefined at this energy: B=1.0, E=0.4999999999999 counts as "
                     "critical, since B^2 - 2E = 1.999511667349907e-13 is within the "
                     "tolerance 1e-12")

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--E", "0.6"], NO_TORUS + "B=1.0, E=0.6, E_c=0.5"),
        (["sample", "--E", "0"], NO_TORUS + "B=1.0, E=0.0, E_c=0.5"),
        (["density", "--B", "2", "--E", "2"], NO_TORUS + "B=2.0, E=2.0, E_c=2.0"),
        # 0 < E < E_c, but B^2 - 2E lies within the regime tolerance
        (["density", "--E", "0.4999999999999", "--grid", "10"], NEAR_CRITICAL),
        (["sample", "--E", "0.4999999999999"], NEAR_CRITICAL),
        (["sample", "--n", "5"], "need at least 10^4 samples, got n=5"),
        # next to E_c the center window (d <= 0.2 R_E) holds too few nonempty rings to fit
        (["sample", "--E", "0.4999999999", "--n", "10000"],
         "the center fit window holds 0 nonempty ring(s) at B=1.0, E=0.4999999999, n=10000; "
         "a fit needs 2"),
        (["sample", "--E", "0.4999999999", "--n", "50000"],
         "the center fit window holds 1 nonempty ring(s) at B=1.0, E=0.4999999999, n=50000; "
         "a fit needs 2"),
    ], ids=["sample-above-Ec", "sample-zero-E", "density-at-Ec", "density-near-Ec",
            "sample-near-Ec", "sample-few",
            "sample-empty-center-window", "sample-one-ring-center-window"])
    def test_refusals_name_their_inputs(self, tmp_path, capsys, argv, message):
        rc = cli.main([*argv, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestEquidistCommand:
    def test_short_run_writes_reports(self, tmp_path):
        rc = cli.main(["equidist", "--T", "5", "--n", "2000", "--grid", "120",
                       "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "equidist.json")
        assert report["E"] == 0.5  # defaults to the critical energy
        assert report["space_average"] > 0.0
        assert len(report["orbit_averages"]) == 3
        assert len(report["initial_conditions"]) == 3
        group = read_json(tmp_path / "group.json")
        assert group["genus"] == 2
        assert len(group["generators"]) == 8
        assert group["relation_residual"] < 1e-9
        assert group["area"] == pytest.approx(4.0 * math.pi, abs=1e-6)
        # recorded when the generators were Moebius objects, each stored with a > 0
        digest = "e06f59e9be1390a5e423803753c845328840a3ded79e86e4607360b9cfb7cd05"
        assert hashlib.sha256((tmp_path / "group.json").read_bytes()).hexdigest() == digest

    # sha256 of equidist.json, recorded when the CLI and the verify check each
    # assembled the run from the surface's bump and start draws
    @pytest.mark.parametrize("argv, digest", [
        (["--T", "50", "--n", "2000", "--grid", "60", "--seed", "3"],
         "c81c3ef862067bbd2a646d0ee332f98a8f8a016370c346963634ae5f0a3ffab0"),
        (["--B", "1.5", "--T", "50", "--n", "3000", "--grid", "60", "--seed", "7"],
         "93534927669b0c77a00904216c589d7cb084ec6160912ef9b24a036371eeccea")])
    def test_report_bytes_are_pinned(self, tmp_path, argv, digest):
        rc = cli.main(["equidist", *argv, "--out", str(tmp_path)])
        assert rc == 0
        assert hashlib.sha256((tmp_path / "equidist.json").read_bytes()).hexdigest() == digest

    def test_bad_step_count_fails(self, tmp_path, capsys):
        for n in ("0", "-3"):
            rc = cli.main(["equidist", "--T", "5", "--n", n, "--grid", "40",
                           "--out", str(tmp_path)])
            assert rc == 2
            assert "step count must be at least 1" in capsys.readouterr().err

    def test_bad_grid_fails(self, tmp_path, capsys):
        for grid, message in (("0", "resolution must be at least 2"),
                              ("1", "resolution must be at least 2"),
                              ("2", "resolution 2 puts no grid point inside the domain"),
                              ("1001", "resolution 1001 is above the limit of 1000")):
            rc = cli.main(["equidist", "--T", "5", "--n", "100", "--grid", grid,
                           "--out", str(tmp_path)])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_non_finite_or_overlong_horizon_fails(self, tmp_path, capsys):
        for T, message in (("inf", "averaging time must be positive and finite, got inf"),
                           ("nan", "averaging time must be positive and finite, got nan"),
                           ("1e300", "T/n_steps = 2e+296 is too long")):
            rc = cli.main(["equidist", "--T", T, "--n", "5000", "--grid", "40",
                           "--out", str(tmp_path)])
            assert rc == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "equidist.json").exists()

    def test_negative_seed_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the area average ran")

        monkeypatch.setattr(magflow.surface, "area_average", no_work)
        rc = cli.main(["equidist", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
        assert not any(tmp_path.iterdir())

    def test_step_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        rc = cli.main(["equidist", "--n", "40000000", "--out", str(tmp_path)])
        assert rc == 2
        assert "the limit is 100000000 Birkhoff steps" in capsys.readouterr().err
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "equidist.json").exists()

    @CLEAN_EXIT
    @given(B=SURFACE_B, T=wild(0.1, 20.0), n=st.integers(-3, 2000), grid=st.integers(-3, 60),
           seed=st.one_of(st.integers(-3, 1000), st.integers(2**64 - 2, 2**130)))
    def test_any_flags_exit_cleanly(self, tmp_path, capsys, B, T, n, grid, seed):
        rc = exit_code(capsys, "equidist", fresh_dir(tmp_path), B=B, T=T, n=n, grid=grid,
                       seed=seed)
        assert rc in (0, 2)

    def test_off_critical_energy_fails(self, tmp_path, capsys):
        # the run is at the critical energy B^2/2 by definition, so E is no flag
        for E in ("0.3", "0.5"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["equidist", "--E", E, "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert "unrecognized arguments: --E" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_shared_config_energy_is_ignored(self, tmp_path):
        # a [magflow] section holding the keys the other commands share
        ini = tmp_path / "run.ini"
        ini.write_text("[magflow]\nB = 1\nE = 0.25\n")
        out = tmp_path / "out"
        rc = cli.main(["equidist", "--config", str(ini), "--T", "10", "--n", "1000",
                       "--grid", "50", "--out", str(out)])
        assert rc == 0
        assert read_json(out / "equidist.json")["E"] == 0.5

    def test_strong_field_start_is_on_the_shell(self, tmp_path):
        # |v| / Im z of a start tangent rounds at about 1e-16 lam = 1e-8 here
        rc = cli.main(["equidist", "--B", "100000000", "--T", "1e-8", "--n", "100",
                       "--grid", "10", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0

    def test_overflowing_critical_energy_names_B(self, tmp_path, capsys):
        rc = cli.main(["equidist", "--B", "1e300", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the critical energy B^2/2 overflows at B=1e+300\n")
        assert not any(tmp_path.iterdir())

    def test_chern_violation_fails(self, tmp_path, capsys):
        # E defaults to the critical energy of B = 0.7, so the run reaches the
        # Chern check; 2B = 1.4 is not an integer
        rc = cli.main(["equidist", "--B", "0.7", "--out", str(tmp_path)])
        assert rc == 2
        assert "Chern constraint violated" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestVerifyCommand:
    def test_single_check_passes(self, tmp_path):
        rc = cli.main(["verify", "--only", "periodicity", "--out", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "verify_report.json")
        assert report["j_sign"] == 1.0
        assert report["passed"] is True
        assert report["checks"][0]["name"] == "periodicity"
        assert report["checks"][0]["passed"] is True

    def test_flipped_orientation_is_caught(self, tmp_path):
        rc = cli.main(["verify", "--only", "flow-oracle", "--flip-j",
                       "--out", str(tmp_path)])
        assert rc == 3
        report = read_json(tmp_path / "verify_report.json")
        assert report["j_sign"] == -1.0
        assert report["passed"] is False
        assert report["checks"][0]["name"] == "flow-oracle"
        assert report["checks"][0]["passed"] is False

    def test_unknown_check_fails(self, tmp_path, capsys):
        rc = cli.main(["verify", "--only", "bogus", "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown check" in capsys.readouterr().err

    def test_checks_run_in_registry_order(self, tmp_path, capsys):
        rc = cli.main(["verify", "--only", "density-mass", "--only", "periodicity",
                       "--only", "density-mass", "--out", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "verify_report.json")
        assert [c["name"] for c in report["checks"]] == ["periodicity", "density-mass"]

    def test_report_bytes_are_pinned(self, tmp_path):
        # sha256 recorded when the Jacobian check called the scalar psi point
        # by point and the equidistribution check assembled its own run
        rc = cli.main(["verify", "--only", "jacobian-identity", "--only", "equidistribution",
                       "--out", str(tmp_path)])
        assert rc == 0
        digest = "18217f16f5b9fe5325898c4abf119459706b4df9be34b27cae9b5722d8009a93"
        assert hashlib.sha256((tmp_path / "verify_report.json").read_bytes()).hexdigest() == digest

    def test_bolza_integrity_report_bytes_are_pinned(self, tmp_path):
        # sha256 recorded when the relation residual was the Moebius chain's
        # distance from +-I and each word was a Moebius chain applied to its
        # start one at a time
        rc = cli.main(["verify", "--only", "bolza-integrity", "--out", str(tmp_path)])
        assert rc == 0
        digest = "3357c49fea78ed10c2acacf6a2a61bb0d0c6716de1c2999a118fc3e04f83f366"
        assert hashlib.sha256((tmp_path / "verify_report.json").read_bytes()).hexdigest() == digest

    # every check but the two slowest, mc-oracle and equidistribution
    CHEAP_CHECKS = [name for name in CHECKS if name not in ("mc-oracle", "equidistribution")]

    @settings(CLEAN_EXIT, max_examples=15)
    @given(only=st.lists(st.one_of(st.sampled_from(CHEAP_CHECKS), st.text(max_size=12)),
                         min_size=1, max_size=3),
           flip=st.booleans())
    def test_any_selection_exits_cleanly(self, tmp_path, capsys, only, flip):
        out = fresh_dir(tmp_path)
        argv = ["verify", "--out", str(out)] + [a for name in only for a in ("--only", name)]
        try:
            rc = cli.main(argv + ["--flip-j"] * flip)
        except SystemExit as exc:  # argparse refuses an option where a name belongs
            rc = exc.code
        assert rc in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        if rc == 2:
            assert not any(out.iterdir())
        else:
            with open(out / "verify_report.json") as fh:
                json.load(fh, parse_constant=refuse_constant)


class TestConfigHandling:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[magflow]\nB = 0.5\n\n[spectrum]\nk = 20\n")
        out1 = tmp_path / "from_config"
        rc = cli.main(["spectrum", "--config", str(ini), "--out", str(out1)])
        assert rc == 0
        summary = read_json(out1 / "spectrum_summary.json")
        assert summary["k"] == 20 and summary["B"] == 0.5
        assert summary["n_levels"] == 10
        out2 = tmp_path / "flag_wins"
        rc = cli.main(["spectrum", "--config", str(ini), "--B", "1.0",
                       "--out", str(out2)])
        assert rc == 0
        summary = read_json(out2 / "spectrum_summary.json")
        assert summary["B"] == 1.0
        assert summary["n_levels"] == 20

    def test_missing_config_fails(self, tmp_path, capsys):
        rc = cli.main(["spectrum", "--config", str(tmp_path / "nope.ini"),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    # exponent-form, infinite and nan values that start with "-" are values,
    # not options, so the command's own check names them
    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--k", "10", "--E", "-1e-3"],
         "energy E must be finite and nonnegative, got -0.001"),
        (["flow", "--B", "-inf"], "field strength B must be positive and finite, got -inf"),
        (["density", "--bands", "-nan"], "bands must be a finite nonnegative width, got nan"),
        (["equidist", "--T", "-1E+300", "--grid", "40"],
         "averaging time must be positive and finite, got -1e+300"),
    ])
    def test_negative_float_literals_reach_the_value_checks(self, tmp_path, capsys, argv,
                                                            message):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_command_section_beats_magflow_and_flags_beat_both(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[magflow]\nB = 0.5\nk = 4\n\n[spectrum]\nB = 2.0\n")
        for flags, B in (([], 2.0), (["--B", "1.5"], 1.5)):
            out = tmp_path / str(B)
            assert cli.main(["spectrum", "--config", str(ini), *flags, "--out", str(out)]) == 0
            summary = read_json(out / "spectrum_summary.json")
            assert (summary["B"], summary["k"]) == (B, 4)

    def test_keys_a_command_does_not_take_are_ignored(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[magflow]\nseed = not-a-number\n")
        rc = cli.main(["flow", "--config", str(ini), "--grid", "3", "--dt", "1e-2",
                       "--out", str(tmp_path)])
        assert rc == 0

    def test_bad_config_number_names_its_key(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[density]\ngrid = many\n")
        rc = cli.main(["density", "--config", str(ini), "--out", str(tmp_path)])
        assert rc == 2
        assert "bad config value for grid: 'many'" in capsys.readouterr().err
        assert not (tmp_path / "density_summary.json").exists()

    @staticmethod
    def config_exit_code(tmp_path, capsys, command, section, values, extra):
        """cli.main of command with its flags from an INI file under section,
        each value written as given (skipping None), plus the extra lines;
        asserts a clean exit, an "error:" line and no file written on exit 2,
        and strict JSON on exit 0."""
        lines = [f"[{section}]"] + [f"{key} = {value}" for key, value in values.items()
                                    if value is not None]
        out = fresh_dir(tmp_path)
        ini = out / "run.ini"
        ini.write_text("\n".join(lines) + "\n" + extra, encoding="utf-8")
        rc = cli.main([command, "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert rc in (0, 2)
        if rc == 2:
            assert err.startswith("error: ")
            assert_nothing_written(out)
        else:
            load_strict_json(out)
        return rc

    @CLEAN_EXIT
    @given(section=st.sampled_from(["magflow", "spectrum"]),
           k=config_value(st.integers(-3, 10_000)), B=config_value(wild(0.1, 4.0)),
           E=st.one_of(st.none(), config_value(wild(0.0, 2.0))), extra=MALFORMED)
    def test_any_spectrum_config_exits_cleanly(self, tmp_path, capsys, section, k, B, E, extra):
        self.config_exit_code(tmp_path, capsys, "spectrum", section,
                              {"k": k, "B": B, "E": E}, extra)

    @CLEAN_EXIT
    @given(section=st.sampled_from(["magflow", "sample"]),
           B=config_value(wild(0.1, 4.0)), E=config_value(wild(0.0, 1.0)),
           n=config_value(st.integers(-5, 30_000)),
           seed=config_value(st.one_of(st.integers(-3, 1000), st.integers(2**64 - 2, 2**130))),
           extra=MALFORMED)
    def test_any_sample_config_exits_cleanly(self, tmp_path, capsys, section, B, E, n, seed,
                                             extra):
        self.config_exit_code(tmp_path, capsys, "sample", section,
                              {"B": B, "E": E, "n": n, "seed": seed}, extra)

    # dt and T of at least 0.1 keep runs short, as in the flag tests
    @CLEAN_EXIT
    @given(section=st.sampled_from(["magflow", "flow"]),
           B=config_value(wild(0.1, 4.0)), E=config_value(wild(0.0, 4.0)),
           grid=config_value(st.integers(-3, 50)), dt=config_value(st.floats(0.1, 1.0)),
           extra=MALFORMED)
    def test_any_flow_config_exits_cleanly(self, tmp_path, capsys, section, B, E, grid, dt,
                                           extra):
        self.config_exit_code(tmp_path, capsys, "flow", section,
                              {"B": B, "E": E, "grid": grid, "dt": dt}, extra)

    @CLEAN_EXIT
    @given(section=st.sampled_from(["magflow", "density"]),
           surface=st.one_of(st.sampled_from(["cover", "bolza"]), config_value(st.nothing())),
           B=config_value(SURFACE_B), E=config_value(wild(0.0, 1.0)),
           grid=config_value(st.integers(-1, 30)), bands=config_value(wild(0.0, 0.1)),
           extra=MALFORMED)
    def test_any_density_config_exits_cleanly(self, tmp_path, capsys, section, surface, B, E,
                                              grid, bands, extra):
        self.config_exit_code(tmp_path, capsys, "density", section,
                              {"surface": surface, "B": B, "E": E, "grid": grid,
                               "bands": bands}, extra)

    @CLEAN_EXIT
    @given(section=st.sampled_from(["magflow", "equidist"]), B=config_value(SURFACE_B),
           T=config_value(wild(0.1, 20.0)), n=config_value(st.integers(-3, 2000)),
           grid=config_value(st.integers(-3, 60)),
           seed=config_value(st.one_of(st.integers(-3, 1000), st.integers(2**64 - 2, 2**130))),
           extra=MALFORMED)
    def test_any_equidist_config_exits_cleanly(self, tmp_path, capsys, section, B, T, n,
                                               grid, seed, extra):
        self.config_exit_code(tmp_path, capsys, "equidist", section,
                              {"B": B, "T": T, "n": n, "grid": grid, "seed": seed}, extra)

    @pytest.mark.parametrize("text, message", [
        ("[spectrum]\nk = 5%\n", "bad config file"),
        ("[spectrum]\nk = %(x)s\n", "bad config file"),
        ("k = 5\n", "File contains no section headers"),
        ("[spectrum]\nk\n", "Source contains parsing errors"),
        ("[spectrum]\nk = 5\nk = 6\n", "option 'k' in section 'spectrum' already exists"),
        ("[spectrum]\nk = 1" + "0" * 400 + "\n", "rungs; the limit is 2000000"),
        ("[spectrum]\nk = -1" + "0" * 400 + "\n", "tensor power k must be at least 1"),
    ], ids=["lone-percent", "unknown-reference", "no-section", "no-value", "duplicate-key",
            "k-past-float-range", "negative-k-past-float-range"])
    def test_malformed_config_names_the_fault(self, tmp_path, capsys, text, message):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        rc = cli.main(["spectrum", "--config", str(ini), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_config_sets_the_output_directory(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[spectrum]\nout = {tmp_path / 'from_config'}\n")
        assert cli.main(["spectrum", "--config", str(ini), "--k", "3"]) == 0
        assert (tmp_path / "from_config" / "spectrum.csv").exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_lists_every_default(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for key, (_, default, help_text) in cli._COMMANDS[command][2].items():
            assert f"--{key} " in text
            if default is not None:
                assert f"{help_text} (default: {default})" in text

    def test_out_directory_is_created(self, tmp_path):
        nested = tmp_path / "deep" / "nested" / "dir"
        rc = cli.main(["spectrum", "--k", "3", "--B", "1", "--out", str(nested)])
        assert rc == 0
        assert (nested / "spectrum.csv").exists()


def test_readme_cli_examples_parse():
    # every `magflow ...` line of the README's CLI block, parsed but not run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("magflow ")]
    assert len(lines) >= 7
    parser = cli._build_parser()
    for argv in lines:
        assert parser.parse_args(argv[1:]).command == argv[1]


class TestBenchmarkTracer:
    # the benchmark's tracer wraps library functions by name; a rename of
    # any of them fails here
    @staticmethod
    def trace(tmp_path, *argv):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        summary = tmp_path / "S.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracer.py"), str(summary),
             str(tmp_path / "S.npz"), "0", "--", *argv, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return read_json(summary)

    def test_traced_run_succeeds(self, tmp_path):
        assert self.trace(tmp_path, "spectrum", "--k", "10")["exit_code"] == 0

    def test_traced_bolza_density_counts_translates(self, tmp_path):
        # the tracer wraps reduce_point (reading its .word), density_surface
        # and the lru_cache of translates_meeting_disk
        result = self.trace(tmp_path, "density", "--surface", "bolza", "--grid", "8")
        assert result["exit_code"] == 0
        assert result["counters"]["surface.translates"] == 9

    def test_traced_sample_counts_blocks(self, tmp_path):
        # the tracer counts mc.chunks as psi_many calls under
        # sample_pushforward; the sampler takes its radii from the torus's
        # distance kernel, which calls no psi_many, so the counter reads 0
        # for the 5 blocks (four of 8,192 samples and one of 7,232) until
        # the benchmark counts sample blocks itself
        result = self.trace(tmp_path, "sample", "--n", "40000")
        assert result["exit_code"] == 0
        assert result["counters"]["mc.samples"] == 40000
        assert result["counters"]["mc.chunks"] == 0

    def test_traced_flow_counts_rk4_steps(self, tmp_path):
        # the tracer reads cfg, t and dt from flow_numeric's signature and
        # repeats its step rule: 2 rows of 889 steps at dt = 1e-2.  The
        # start frames are entry tuples, so no Moebius product runs
        result = self.trace(tmp_path, "flow", "--grid", "3", "--dt", "1e-2")
        assert result["exit_code"] == 0
        assert result["counters"]["flow.rk4_steps"] == 1778
        assert result["counters"]["halfplane.matmul_calls"] == 0

    def test_traced_equidist_counts_birkhoff_calls(self, tmp_path):
        # the tracer adds n_steps once per birkhoff_average call, for all
        # three starts together; their frames run no Moebius product
        result = self.trace(tmp_path, "equidist", "--T", "10", "--n", "100", "--grid", "20")
        assert result["exit_code"] == 0
        assert result["counters"]["surface.birkhoff_steps"] == 100
        assert result["counters"]["halfplane.matmul_calls"] == 0


# the package's public names
PUBLIC_NAMES = {
    "DomainReduction", "Flag", "FuchsianGroup", "MagneticConfig", "Moebius",
    "NumericFlowResult", "PushforwardHistogram", "Regime", "SpectrumEntry", "Tangent",
    "TorusPoint", "VariationCoeffs", "alpha_radial", "area_average", "birkhoff_average",
    "bolza_group", "compare_to_closed_form", "density_cover_many", "density_mass",
    "density_surface", "density_surface_many", "exact_ring_averages", "flow", "flow_exact",
    "flow_exact_many", "flow_matrix", "flow_numeric", "flow_numeric_rows", "frame_of",
    "from_disk", "halfplane",
    "hyp_dist", "hyp_norm", "jacobian", "ladder", "lyapunov_exponent", "mc",
    "octagon_area", "period", "phi_profile", "preimage_count", "preimages_cover",
    "preimages_many", "psi", "radius", "reduce_point", "relation_residual",
    "sample_pushforward", "singular_constants", "singular_fits",
    "spectrum", "surface", "t_of_distance", "to_disk", "torus", "translates_meeting_disk",
    "variation_coeffs",
}

# runs the CLI as `python -m magflow.cli ARGV...` does, then prints as JSON
# the magflow modules loaded and the OPENBLAS_NUM_THREADS that numpy loaded with
CLI_PROBE = """
import json, os, runpy, sys
seen = {}
class NumpySpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.setdefault("blas", os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, NumpySpy())
sys.argv = ["magflow", *sys.argv[1:]]
try:
    runpy.run_module("magflow.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    seen["exit_code"] = exc.code
seen["modules"] = sorted(m for m in sys.modules if m.startswith("magflow"))
print(json.dumps(seen))
"""


class TestProcessStartup:
    @staticmethod
    def python(code, *argv, **env):
        """Output of `python -c code argv...` with src on the path and no
        OPENBLAS_NUM_THREADS unless given."""
        root = Path(__file__).resolve().parents[1]
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env=dict(base, PYTHONPATH=str(root / "src"), **env),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("argv, layer", [
        (["spectrum", "--k", "10"], "magflow.spectrum"),
        (["flow", "--grid", "3", "--dt", "1e-2"], "magflow.flow")])
    def test_commands_load_only_their_layers(self, tmp_path, argv, layer):
        seen = self.python(CLI_PROBE, *argv, "--out", str(tmp_path))
        assert seen["exit_code"] == 0
        assert layer in seen["modules"]
        assert "magflow.surface" not in seen["modules"]
        assert "magflow.verify" not in seen["modules"]

    @pytest.mark.parametrize("env, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
    def test_cli_pins_blas_threads_unless_set(self, tmp_path, env, threads):
        seen = self.python(CLI_PROBE, "spectrum", "--k", "3", "--out", str(tmp_path), **env)
        assert seen["exit_code"] == 0
        assert seen["blas"] == threads

    def test_package_import_is_lazy(self):
        loaded, environ_kept = self.python(
            "import json, os, sys\n"
            "before = dict(os.environ)\n"
            "import magflow\n"
            "print(json.dumps([sorted(m for m in sys.modules if m.startswith(('magflow', 'numpy'))),"
            " dict(os.environ) == before]))")
        assert loaded == ["magflow"]
        assert environ_kept

    def test_public_names_resolve(self):
        assert set(magflow.__all__) == PUBLIC_NAMES
        for name in magflow.__all__:
            value = getattr(magflow, name)
            if name in magflow._EXPORTS:
                assert value is sys.modules[f"magflow.{name}"]
            else:
                assert value is getattr(getattr(magflow, magflow._MODULE_OF[name]), name)
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            magflow.no_such_name  # noqa: B018

    def test_public_names_are_defined_in_their_layer(self):
        # the package table is the only list of public names, so each must
        # name the layer that defines it, not one that merely imports it
        for layer, names in magflow._EXPORTS.items():
            for name in names:
                assert getattr(magflow, name).__module__ == f"magflow.{layer}", name
