"""End-to-end command tests: files, exit codes, determinism, config handling."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from magflow import (
    MagneticConfig, Tangent, alpha_radial, bolza_group, cli, compare_to_closed_form,
    critical_gap, density_cover, flow_exact, ladder, period, preimages_cover, radius,
    sample_pushforward, select_level,
)
from magflow.halfplane import from_disk

STD = MagneticConfig(1.0, 0.25)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


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

    @pytest.mark.parametrize("E", [0.25, 2.0])
    def test_table_matches_fmt_oracle(self, E):
        # the row-template table against one _fmt join per line
        cfg = MagneticConfig(1.0, E)
        p0 = Tangent(1j, 1j * cfg.lam)
        ts = [0.1 * i for i in range(101)]
        pts = [flow_exact(cfg, p0, t) for t in ts]
        want = "t,re_z,im_z,re_v,im_v\n" + "".join(
            ",".join(cli._fmt(x) for x in (t, p.z.real, p.z.imag, p.v.real, p.v.imag)) + "\n"
            for t, p in zip(ts, pts))
        assert cli._traj_csv(ts, pts) == want

    def test_critical_has_no_period(self, tmp_path):
        rc = cli.main(["flow", "--B", "1", "--E", "0.5",
                       "--grid", "101", "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "flow_summary.json")
        assert summary["regime"] == "Critical"
        assert "period" not in summary
        assert "return_residual" not in summary

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
        # exp(tF) entries whose a d - b c has cancelled are refused, not renormalized
        for E, t in (("5", "7.49"), ("1e6", "0.02")):
            rc = cli.main(["flow", "--B", "1", "--E", E, "--out", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert "exp(tF) loses its determinant" in err
            assert f"at B=1.0, E={float(E)!r}, t={t}" in err
        assert not (tmp_path / "flow_summary.json").exists()

    def test_bad_grid_fails(self, tmp_path, capsys):
        for grid in ("-5", "0", "1"):
            rc = cli.main(["flow", "--grid", grid, "--out", str(tmp_path)])
            assert rc == 2
            assert "grid must have at least 2 rows" in capsys.readouterr().err
        assert not (tmp_path / "flow_summary.json").exists()

    def test_step_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        for flags in (["--dt", "1e-9"], ["--grid", "100000000"]):
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
            s = density_cover(STD, complex(from_disk(complex(x, y))))
            assert araw == pytest.approx(s.alpha_raw, rel=1e-8)
            assert int(row[5]) == len(s.preimages)
            checked += 1
        assert checked > 20

    def test_cover_row_counts_match_preimages_at_the_rim(self):
        R = radius(STD)
        rim = math.tanh(0.5 * R)
        # disk radii in the NearBoundary flag band, on both sides of the 1e-12
        # rim band and inside it; the grid is xs x xs, so (x, 0) has |u| = x
        xs = np.array([0.0, 0.3, rim * (1.0 - 1e-3), rim * (1.0 - 1e-11), rim * (1.0 - 1e-13),
                       rim, rim * (1.0 + 1e-13), rim * (1.0 + 1e-11), rim * (1.0 + 1e-3), 0.9])
        dist, _, n_pre, flags = cli._cover_rows(STD, xs, 1e-3)
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

    @pytest.mark.parametrize("surface, grid, band", [
        ("cover", 300, 1e-3), ("cover", 33, 0.0), ("bolza", 61, 1e-3)])
    def test_row_writer_matches_per_line_oracle(self, surface, grid, band):
        if surface == "bolza":
            group = bolza_group()
            extent = math.tanh(0.5 * group.circumradius)
            xs = np.linspace(-extent, extent, grid)
            columns = cli._surface_rows(group, STD, xs, band)
        else:
            extent = math.tanh(0.5 * radius(STD))
            xs = np.linspace(-extent, extent, grid)
            columns = cli._cover_rows(STD, xs, band)
        got = "".join(cli._density_csv(STD, xs, columns)).splitlines(keepends=True)
        want = list(self.per_line_csv(STD, xs, columns))
        assert len(got) == len(want) == grid * grid + 1
        # the first differing line, not a diff of the whole table
        assert next(((i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b), None) is None

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

    def test_chern_violation_fails(self, tmp_path, capsys):
        rc = cli.main(["density", "--surface", "bolza", "--B", "0.7", "--E", "0.1",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "Chern constraint violated" in capsys.readouterr().err

    def test_enumeration_cap(self, tmp_path, capsys):
        rc = cli.main(["density", "--surface", "bolza", "--B", "1", "--E", "0.497",
                       "--out", str(tmp_path)])
        assert rc == 2
        sidecar = read_json(tmp_path / "density_summary.json")
        assert sidecar["enumeration_cap_exceeded"] is True
        assert "enumeration cap" in capsys.readouterr().err

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
        assert (tmp_path / "spectrum.csv").read_text() == "\n".join(want) + "\n"

    @staticmethod
    def per_line_outputs(k, B, E):
        # spectrum.csv one f-string per SpectrumEntry and the summary from the
        # entries' max(): the writer's byte oracle
        entries = ladder(k, B)
        csv = "k,m,lambda,scaled\n" + "".join(
            f"{e.k},{e.m},{e.lam:.17g},{e.scaled:.17g}\n" for e in entries)
        gaps = critical_gap(k, B)
        top = max(entries, key=lambda e: e.lam)
        summary = {
            "k": k, "B": B, "n_levels": len(entries),
            "top_m": top.m, "top_lambda": top.lam, "top_scaled": top.scaled,
            "gap_top": gaps.gap_top, "gap_beyond": gaps.gap_beyond,
            "k_gap_top": k * gaps.gap_top, "k_gap_beyond": k * gaps.gap_beyond,
        }
        if E is not None:
            sel = select_level(k, B, E)
            summary["selected"] = {
                "E": E, "m": sel.m, "lambda": sel.lam, "scaled": sel.scaled,
                "offset": abs(sel.scaled - E),
            }
        return csv, cli._dumps(summary) + "\n"

    # 15,000 rungs with a ragged last slice, one rung past a slice, a single
    # rung, and the resonant top where gap_top is 0
    @pytest.mark.parametrize("k, B, E", [
        (10000, 1.5, 0.3), (4097, 1.0, 0.25), (3, 0.5, None), (10, 1.0, None)])
    def test_writer_matches_per_line_oracle(self, tmp_path, k, B, E):
        argv = ["spectrum", "--k", str(k), "--B", repr(B), "--out", str(tmp_path)]
        assert cli.main(argv + ([] if E is None else ["--E", repr(E)])) == 0
        csv, summary = self.per_line_outputs(k, B, E)
        assert (tmp_path / "spectrum.csv").read_text() == csv
        assert (tmp_path / "spectrum_summary.json").read_text() == summary

    @pytest.mark.parametrize("flags, message", [
        (["--B", "nan"], "field strength B must be positive and finite, got nan"),
        (["--B", "1", "--E", "nan"], "energy E must be finite and nonnegative, got nan"),
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
        # --flag=value: argparse reads a separate "-inf" as an option
        argv = ["spectrum", f"--k={k}", f"--B={B!r}", "--out", str(tmp_path)]
        rc = cli.main(argv + ([] if E is None else [f"--E={E!r}"]))
        assert rc in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        if rc == 0:
            rows = (tmp_path / "spectrum.csv").read_text().count("\n") - 1
            assert rows == math.floor(k * B + 1e-9)

    def test_rung_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        rc = cli.main(["spectrum", "--k", "100000000", "--out", str(tmp_path)])
        assert rc == 2
        assert "rungs; the limit is 2000000" in capsys.readouterr().err
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

    def test_histogram_matches_fmt_oracle(self, tmp_path):
        # the row-template table against one _fmt join per ring
        cli.main(["sample", "--n", "50000", "--seed", "7", "--out", str(tmp_path)])
        report = compare_to_closed_form(sample_pushforward(STD, 50000, 7), STD)
        want = ["r_lo,r_hi,count,est_density,exact_ring_avg,rel_err"] + [
            ",".join((cli._fmt(report["r_lo"][i]), cli._fmt(report["r_hi"][i]),
                      str(int(report["count"][i])), cli._fmt(report["est_density"][i]),
                      cli._fmt(report["exact_ring_avg"][i]), cli._fmt(report["rel_err"][i])))
            for i in range(report["rings"])]
        assert (tmp_path / "histogram.csv").read_text() == "\n".join(want) + "\n"

    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch):
        a, b = tmp_path / "t1", tmp_path / "t4"
        monkeypatch.setenv("MAGFLOW_THREADS", "1")
        cli.main(["sample", "--n", "2500000", "--seed", "5", "--out", str(a)])
        monkeypatch.setenv("MAGFLOW_THREADS", "4")
        cli.main(["sample", "--n", "2500000", "--seed", "5", "--out", str(b)])
        assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()

    def test_bad_thread_env_fails(self, tmp_path, monkeypatch, capsys):
        for raw in ("two", "0"):
            monkeypatch.setenv("MAGFLOW_THREADS", raw)
            rc = cli.main(["sample", "--n", "10000", "--out", str(tmp_path)])
            assert rc == 2
            assert f"MAGFLOW_THREADS must be an integer of at least 1, got {raw!r}" in (
                capsys.readouterr().err)
        assert not (tmp_path / "histogram.csv").exists()

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

    def test_small_n_fails(self, tmp_path, capsys):
        rc = cli.main(["sample", "--n", "5000", "--out", str(tmp_path)])
        assert rc == 2
        assert "need at least 10^4 samples" in capsys.readouterr().err


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

    def test_step_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        rc = cli.main(["equidist", "--n", "40000000", "--out", str(tmp_path)])
        assert rc == 2
        assert "the limit is 100000000 Birkhoff steps" in capsys.readouterr().err
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "equidist.json").exists()

    def test_off_critical_energy_fails(self, tmp_path, capsys):
        rc = cli.main(["equidist", "--E", "0.3", "--out", str(tmp_path)])
        assert rc == 2
        assert "equidistribution test requires critical energy" in capsys.readouterr().err


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

    def test_out_directory_is_created(self, tmp_path):
        nested = tmp_path / "deep" / "nested" / "dir"
        rc = cli.main(["spectrum", "--k", "3", "--B", "1", "--out", str(nested)])
        assert rc == 0
        assert (nested / "spectrum.csv").exists()


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
        # the tracer wraps psi_many where mc binds it: 40,000 samples are one
        # Philox chunk, mapped in a block of 32,768 and one of 7,232
        result = self.trace(tmp_path, "sample", "--n", "40000")
        assert result["exit_code"] == 0
        assert result["counters"]["mc.samples"] == 40000
        assert result["counters"]["mc.chunks"] == 2

    def test_traced_flow_counts_rk4_steps(self, tmp_path):
        # the tracer reads cfg, t and dt from flow_numeric's signature and
        # repeats its step rule: 2 rows of 889 steps at dt = 1e-2
        result = self.trace(tmp_path, "flow", "--grid", "3", "--dt", "1e-2")
        assert result["exit_code"] == 0
        assert result["counters"]["flow.rk4_steps"] == 1778
