"""Command-line interface tying the library together.

Subcommands:

  flow      closed-form and integrated trajectories for one (B, E), with a
            summary (regime, period and return residual when defined,
            Lyapunov estimate, divergence between the two routes)
  density   density grid over the projected disk (cover) or the octagon
            surface, plus a sidecar with the mass check and singular fits
  spectrum  magnetic Landau ladder for one (k, B), optional level selection
  sample    Monte Carlo pushforward histogram against the closed form
  equidist  critical-energy orbit averages against the area average
  verify    the acceptance battery (or a subset); --flip-j flips the
            integrator orientation and must make the flow oracle fail

Any flag may instead be given in an INI config file under a [magflow]
section or a per-command section ([flow], [density], ...); explicit flags
win.  Numbers are written with 17 significant digits and no run metadata,
so a command rerun with the same configuration produces byte-identical
files.  Sampling runs one worker per usable CPU; MAGFLOW_THREADS, an
integer of at least 1, caps that count.

Exit codes: 0 success, 2 invalid configuration, 3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from itertools import chain, repeat

import numpy as np

from . import verify
from .flow import MagneticConfig, Regime, flow_exact, flow_numeric, lyapunov_exponent, period
from .halfplane import Tangent, from_disk, hyp_dist, hyp_dist_vec
from .mc import compare_to_closed_form, sample_pushforward
from .spectrum import critical_gap, ladder_arrays, select_level
from .surface import (
    ENUM_CAP,
    area_average,
    birkhoff_average,
    bolza_group,
    density_surface_many,
    octagon_area,
    relation_residual,
    require_chern,
    translates_meeting_disk,
)
from .torus import (
    Flag,
    _flag_for,
    alpha_radial,
    density_mass,
    preimage_count,
    radius,
    singular_constants,
)

__all__ = ["main"]

# work budgets, checked before any loop or allocation; each sits well above
# the largest perfbench workload (about 178k RK4 steps, 200k rungs, grid 300,
# 150k Birkhoff steps, 4e6 samples)
_MAX_RK4_STEPS = 10_000_000
_MAX_RUNGS = 2_000_000
_MAX_GRID = 1000
_MAX_BIRKHOFF_STEPS = 100_000_000  # over the three orbits of equidist
_MAX_SAMPLES = 400_000_000

# rungs per % format in _ladder_csv
_LADDER_SLICE = 4096


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and sorted keys."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_dumps(obj[k], indent + 1)}' for k in sorted(obj)
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        body = ",\n".join(f"{pad}  {_dumps(v, indent + 1)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    return json.dumps(str(obj))


def _rows(template: str, *columns) -> str:
    """One % format of template, repeated once per row, over the columns
    interleaved row by row; the first column sets the row count.  %.17g and
    %d of builtin values give the bytes of _fmt and str."""
    return (template * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def _write(out_dir: str, name: str, text) -> str:
    """Write text: a string, or an iterable of strings written in turn."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)
    print(f"wrote {path}")
    return path


def _write_json(out_dir: str, name: str, obj) -> str:
    return _write(out_dir, name, _dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# configuration

_CONVERT = {
    "B": float, "E": float, "bands": float, "dt": float, "T": float,
    "k": int, "grid": int, "n": int, "seed": int,
    "surface": str, "out": str,
}


def _load_config(path: str, command: str) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case: B and E are capitalized
    if not parser.read(path):
        raise ValueError(f"config file not found: {path}")
    merged = {}
    for section in ("magflow", command):
        if parser.has_section(section):
            merged.update(parser.items(section))
    return merged


def _opt(args, key: str, default=None):
    val = getattr(args, key, None)
    if val is None and key in args._config_values:
        try:
            val = _CONVERT.get(key, str)(args._config_values[key])
        except ValueError:
            raise ValueError(f"bad config value for {key}: {args._config_values[key]!r}")
    return default if val is None else val


# ---------------------------------------------------------------------------
# flow

def _traj_csv(ts, pts) -> str:
    return "t,re_z,im_z,re_v,im_v\n" + _rows(
        "%.17g,%.17g,%.17g,%.17g,%.17g\n", ts, [p.z.real for p in pts],
        [p.z.imag for p in pts], [p.v.real for p in pts], [p.v.imag for p in pts])


def cmd_flow(args) -> int:
    cfg = MagneticConfig(_opt(args, "B", 1.0), _opt(args, "E", 0.25))
    rows = _opt(args, "grid", 1001)
    dt = _opt(args, "dt", 1e-3)
    out = _opt(args, "out", ".")
    if rows < 2:
        raise ValueError("grid must have at least 2 rows")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    p0 = Tangent(1j, 1j * cfg.lam) if cfg.lam > 0.0 else Tangent(1j, 0j)

    subcritical = cfg.regime is Regime.SUBCRITICAL
    t_total = 2.0 * period(cfg) if subcritical else 10.0
    # the integrator takes ceil(step / dt) steps per row, at least one
    steps = max(rows - 1, t_total / dt)
    if not steps <= _MAX_RK4_STEPS:
        raise ValueError(f"about {steps:.3g} RK4 steps needed at dt={dt!r}, grid={rows}; "
                         f"the limit is {_MAX_RK4_STEPS}")
    ts = [t_total * i / (rows - 1) for i in range(rows)]

    exact = [flow_exact(cfg, p0, t) for t in ts]
    numeric = [p0]
    warned = False
    cur = p0
    for i in range(1, rows):
        res = flow_numeric(cfg, cur, ts[i] - ts[i - 1], dt)
        cur = res.p
        warned = warned or res.step_warning
        numeric.append(cur)

    div = max(hyp_dist(a.z, b.z) for a, b in zip(exact, numeric))
    vdiv = max(abs(a.v - b.v) for a, b in zip(exact, numeric))
    lyap_T = 5000.0
    summary = {
        "B": cfg.B,
        "E": cfg.E,
        "regime": cfg.regime.value,
        "t_total": t_total,
        "dt": dt,
        "rows": rows,
        "lyapunov": lyapunov_exponent(cfg, lyap_T),
        "lyapunov_t_max": lyap_T,
        "max_divergence": div,
        "max_velocity_divergence": vdiv,
        "step_warning": warned,
    }
    if subcritical:
        T = period(cfg)
        back = flow_exact(cfg, p0, T)
        summary["period"] = T
        summary["return_residual"] = hyp_dist(back.z, p0.z) + abs(back.v - p0.v)

    print(f"regime {cfg.regime.value}")
    if subcritical:
        print(f"period {_fmt(summary['period'])}")
    print(f"max divergence {_fmt(div)}")
    _write(out, "flow_exact.csv", _traj_csv(ts, exact))
    _write(out, "flow_numeric.csv", _traj_csv(ts, numeric))
    _write_json(out, "flow_summary.json", summary)
    return 0


# ---------------------------------------------------------------------------
# density

def _singular_fits(cfg: MagneticConfig) -> dict:
    R = radius(cfg)
    c_center, c_bd = singular_constants(cfg)
    ds = np.logspace(-5, -2, 20)
    center_slope = float(np.polyfit(np.log(ds), np.log(alpha_radial(cfg, ds)), 1)[0])
    taus = np.logspace(-6, -3, 20)
    boundary_slope = float(np.polyfit(np.log(taus), np.log(alpha_radial(cfg, R - taus)), 1)[0])
    return {
        "center_slope": center_slope,
        "center_constant": float(alpha_radial(cfg, 1e-6) * 1e-6),
        "center_constant_expected": c_center,
        "boundary_slope": boundary_slope,
        "boundary_constant": float(alpha_radial(cfg, R - 1e-6) * math.sqrt(1e-6)),
        "boundary_constant_expected": c_bd,
    }


def _disk_grid(xs: np.ndarray):
    """The grid xs x xs of the disk model (row iy holds y = xs[iy]): the
    points inside it and their half-plane images, i at the others."""
    u = xs[None, :] + 1j * xs[:, None]
    valid = np.abs(u) < 0.999999
    return valid, from_disk(np.where(valid, u, 0.0))


def _cover_rows(cfg: MagneticConfig, xs: np.ndarray, band: float):
    """Cover grid columns (d_to_center, alpha_raw, n_preimages, flag) as
    grid-shaped arrays, through the torus kernels that density_cover reads
    at one point."""
    R = radius(cfg)
    valid, z = _disk_grid(xs)
    d = np.where(valid, hyp_dist_vec(z, 1j), np.inf)
    alpha = np.where(valid, alpha_radial(cfg, np.minimum(d, R + 1.0)), 0.0)
    return d, alpha, preimage_count(cfg, d), _flag_for(d, R, band, band)


def _surface_rows(group, cfg: MagneticConfig, xs: np.ndarray, band: float):
    """Surface grid columns, as _cover_rows, from one density_surface_many
    call over the points inside the disk; d_to_center is the folded point's."""
    valid, z = _disk_grid(xs)
    d = np.full(z.shape, np.inf)
    alpha = np.zeros(z.shape)
    n_pre = np.zeros(z.shape, dtype=np.int64)
    flags = np.empty(z.shape, dtype=object)
    flags[:] = Flag.OUTSIDE  # np.full would store the plain string
    y0, alpha[valid], n_pre[valid], flags[valid] = density_surface_many(
        group, cfg, z[valid], band, band)
    d[valid] = hyp_dist_vec(y0, 1j)
    return d, alpha, n_pre, flags


def _density_csv(cfg: MagneticConfig, xs: np.ndarray, columns):
    """density_grid.csv one grid row at a time, so the table is never held
    as lines or text."""
    d, alpha, n_pre, flags = columns
    norm = 2.0 * math.pi * period(cfg)
    coords = ["%.17g" % v for v in xs.tolist()]
    yield "x,y,d_to_center,alpha_raw,alpha_normalized,n_preimages,flag\n"
    for iy, y in enumerate(coords):
        yield _rows("%s,%s,%.17g,%.17g,%.17g,%d,%s\n",
                    coords, repeat(y), d[iy].tolist(), alpha[iy].tolist(),
                    (alpha[iy] / norm).tolist(), n_pre[iy].tolist(),
                    [f.value for f in flags[iy].tolist()])


def cmd_density(args) -> int:
    cfg = MagneticConfig(_opt(args, "B", 1.0), _opt(args, "E", 0.25))
    surface = _opt(args, "surface", "cover")
    n = _opt(args, "grid", 200)
    band = _opt(args, "bands", 1e-3)
    out = _opt(args, "out", ".")
    if surface not in ("cover", "bolza"):
        raise ValueError(f"unknown surface: {surface}")
    if not 2 <= n <= _MAX_GRID:
        raise ValueError(f"grid must have 2 to {_MAX_GRID} points per side, got {n}")
    if not (math.isfinite(band) and band >= 0.0):
        raise ValueError(f"bands must be a finite nonnegative width, got {band}")

    R = radius(cfg)
    expected = 2.0 * math.pi * period(cfg)
    sidecar = {
        "B": cfg.B, "E": cfg.E, "surface": surface, "grid": n, "bands": band,
        "R_E": R, "model": "poincare_disk",
    }

    if surface == "bolza":
        group = bolza_group()
        require_chern(cfg)
        sidecar["enumeration_cap"] = ENUM_CAP
        sidecar["enumeration_cap_exceeded"] = R >= ENUM_CAP
        if R >= ENUM_CAP:
            _write_json(out, "density_summary.json", sidecar)
            print(f"error: projected disk radius {_fmt(R)} exceeds the "
                  f"enumeration cap {_fmt(ENUM_CAP)}", file=sys.stderr)
            return 2
        sidecar["translates"] = len(translates_meeting_disk(group, R))
        extent = math.tanh(0.5 * group.circumradius)
        xs = np.linspace(-extent, extent, n)
        columns = _surface_rows(group, cfg, xs, band)
    else:
        xs = np.linspace(-math.tanh(0.5 * R), math.tanh(0.5 * R), n)
        columns = _cover_rows(cfg, xs, band)

    mass = density_mass(cfg)
    sidecar.update(_singular_fits(cfg))
    sidecar["mass_raw"] = mass
    sidecar["mass_expected"] = expected
    sidecar["mass_rel_err"] = abs(mass / expected - 1.0)
    sidecar["mass_normalized"] = mass / expected

    print(f"R_E {_fmt(R)}")
    print(f"mass {_fmt(mass)} expected {_fmt(expected)}")
    _write(out, "density_grid.csv", _density_csv(cfg, xs, columns))
    _write_json(out, "density_summary.json", sidecar)
    return 0


# ---------------------------------------------------------------------------
# spectrum

def _ladder_csv(k: int, m: np.ndarray, lam: np.ndarray, scaled: np.ndarray):
    """spectrum.csv in slices of _LADDER_SLICE rungs, so the whole table is
    never held as lines, text or builtin scalars at once."""
    yield "k,m,lambda,scaled\n"
    row = f"{k},%d,%.17g,%.17g\n"
    for i in range(0, len(m), _LADDER_SLICE):
        j = i + _LADDER_SLICE
        yield _rows(row, m[i:j].tolist(), lam[i:j].tolist(), scaled[i:j].tolist())


def cmd_spectrum(args) -> int:
    k = _opt(args, "k", 10)
    B = _opt(args, "B", 1.0)
    E = _opt(args, "E")
    out = _opt(args, "out", ".")

    if k * B > _MAX_RUNGS:
        raise ValueError(f"k B = {k * B:.6g} rungs; the limit is {_MAX_RUNGS}")
    m, lam, scaled = ladder_arrays(k, B)
    if not len(m):
        raise ValueError("empty ladder: kB < 1")

    gaps = critical_gap(k, B)
    top = int(np.argmax(lam))  # the first maximum, as max() over the rungs
    summary = {
        "k": k, "B": B, "n_levels": len(m),
        "top_m": int(m[top]), "top_lambda": float(lam[top]), "top_scaled": float(scaled[top]),
        "gap_top": gaps.gap_top, "gap_beyond": gaps.gap_beyond,
        "k_gap_top": k * gaps.gap_top, "k_gap_beyond": k * gaps.gap_beyond,
    }
    if E is not None:
        sel = select_level(k, B, E)
        summary["selected"] = {
            "E": E, "m": sel.m, "lambda": sel.lam, "scaled": sel.scaled,
            "offset": abs(sel.scaled - E),
        }

    print(f"levels {len(m)} top scaled {_fmt(scaled[top])}")
    _write(out, "spectrum.csv", _ladder_csv(k, m, lam, scaled))
    _write_json(out, "spectrum_summary.json", summary)
    return 0


# ---------------------------------------------------------------------------
# sample

def cmd_sample(args) -> int:
    cfg = MagneticConfig(_opt(args, "B", 1.0), _opt(args, "E", 0.25))
    n = _opt(args, "n", 1_000_000)
    seed = _opt(args, "seed", 1234)
    out = _opt(args, "out", ".")
    if n > _MAX_SAMPLES:
        raise ValueError(f"{n} samples requested; the limit is {_MAX_SAMPLES}")

    hist = sample_pushforward(cfg, n, seed)
    report = compare_to_closed_form(hist, cfg)

    table = "r_lo,r_hi,count,est_density,exact_ring_avg,rel_err\n" + _rows(
        "%.17g,%.17g,%d,%.17g,%.17g,%.17g\n", *(report[key] for key in (
            "r_lo", "r_hi", "count", "est_density", "exact_ring_avg", "rel_err")))

    summary = {key: report[key] for key in (
        "n", "seed", "rings", "chi2", "chi2_dof",
        "center_slope", "boundary_slope", "max_rel_err_body",
    )}
    summary.update({"B": cfg.B, "E": cfg.E})

    print(f"max rel err (body) {_fmt(report['max_rel_err_body'])}")
    print(f"center slope {_fmt(report['center_slope'])} "
          f"boundary slope {_fmt(report['boundary_slope'])}")
    _write(out, "histogram.csv", table)
    _write_json(out, "sample_report.json", summary)
    return 0


# ---------------------------------------------------------------------------
# equidist

def _group_export(group) -> dict:
    return {
        "genus": group.genus,
        "generators": [
            {"a": g.a, "b": g.b, "c": g.c, "d": g.d} for g in group.generators
        ],
        "traces": [g.trace for g in group.generators],
        "relation_word": list(group.relation_word),
        "relation_residual": relation_residual(group),
        "inradius": group.inradius,
        "circumradius": group.circumradius,
        "area": octagon_area(group),
        "vertices": [[v.real, v.imag] for v in group.vertices],
    }


def cmd_equidist(args) -> int:
    B = _opt(args, "B", 1.0)
    E = _opt(args, "E", 0.5 * B * B)
    T = _opt(args, "T", 500.0)
    n_steps = _opt(args, "n", 100_000)
    res = _opt(args, "grid", 400)
    seed = _opt(args, "seed", 2026)
    out = _opt(args, "out", ".")

    cfg = MagneticConfig(B, E)
    if abs(cfg.E - cfg.Ec) > 1e-9:
        raise ValueError("equidistribution test requires critical energy")
    if 3 * n_steps > _MAX_BIRKHOFF_STEPS:
        raise ValueError(f"3 orbits of {n_steps} steps requested; "
                         f"the limit is {_MAX_BIRKHOFF_STEPS} Birkhoff steps")
    if res > _MAX_GRID:
        raise ValueError(f"area-average resolution {res} is above the limit of {_MAX_GRID}")
    group = bolza_group()
    require_chern(cfg)

    target = area_average(group, verify._bump, res)
    rng = np.random.default_rng(seed)
    averages = []
    starts = []
    for _ in range(3):
        r = rng.uniform(0.0, 0.5)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        z = from_disk(math.tanh(0.5 * r) * complex(math.cos(ang), math.sin(ang)))
        psi_a = rng.uniform(0.0, 2.0 * math.pi)
        p = Tangent(z, cfg.lam * z.imag * complex(math.cos(psi_a), math.sin(psi_a)))
        starts.append({"re_z": p.z.real, "im_z": p.z.imag,
                       "re_v": p.v.real, "im_v": p.v.imag})
        averages.append(birkhoff_average(group, cfg, verify._bump, T, p, n_steps))

    rel = [a / target - 1.0 for a in averages]
    report = {
        "B": B, "E": cfg.E, "T": T, "n_steps": n_steps, "resolution": res,
        "seed": seed, "space_average": target, "initial_conditions": starts,
        "orbit_averages": averages, "rel_err": rel,
        "max_abs_rel_err": max(abs(x) for x in rel),
    }

    print(f"space average {_fmt(target)}")
    print(f"max rel err {_fmt(report['max_abs_rel_err'])}")
    _write_json(out, "equidist.json", report)
    _write_json(out, "group.json", _group_export(group))
    return 0


# ---------------------------------------------------------------------------
# verify

# check_mc_oracle runs as "mc-oracle"
_CHECKS = tuple(
    (fn.__name__.removeprefix("check_").replace("_", "-"), fn)
    for fn in verify.CHECKS + (verify.check_flow_oracle,)
)


def cmd_verify(args) -> int:
    out = _opt(args, "out", ".")
    j_sign = -1.0 if args.flip_j else 1.0
    known = [name for name, _ in _CHECKS]
    if args.only:
        for name in args.only:
            if name not in known:
                raise ValueError(f"unknown check: {name}")
        selected = [(n, f) for n, f in _CHECKS if n in set(args.only)]
    else:
        selected = list(_CHECKS)

    results = []
    for name, fn in selected:
        result = fn(j_sign=j_sign) if name == "flow-oracle" else fn()
        results.append(result)
        print(("PASS" if result["passed"] else "FAIL") + f" {name}")

    ok = all(r["passed"] for r in results)
    _write_json(out, "verify_report.json",
                {"j_sign": j_sign, "passed": ok, "checks": results})
    print("all checks passed" if ok else
          f"{sum(not r['passed'] for r in results)} check(s) failed")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magflow",
        description="magnetic geodesic flow on hyperbolic surfaces: "
                    "trajectories, densities, spectra, and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="INI file with flag defaults; flags win")
        sp.add_argument("--out", help="output directory (default: current)")
        return sp

    sp = add("flow", "trajectories and flow summary")
    sp.add_argument("--B", type=float, help="field strength")
    sp.add_argument("--E", type=float, help="kinetic energy")
    sp.add_argument("--grid", type=int, help="trajectory sample rows")
    sp.add_argument("--dt", type=float, help="integrator step size")

    sp = add("density", "pushforward density grid")
    sp.add_argument("--B", type=float)
    sp.add_argument("--E", type=float)
    sp.add_argument("--surface", choices=("cover", "bolza"))
    sp.add_argument("--grid", type=int, help="grid points per side")
    sp.add_argument("--bands", type=float, help="relative singular band width")

    sp = add("spectrum", "Landau ladder table")
    sp.add_argument("--k", type=int, help="quantum parameter")
    sp.add_argument("--B", type=float)
    sp.add_argument("--E", type=float, help="select the level scaling closest to E")

    sp = add("sample", "Monte Carlo pushforward histogram")
    sp.add_argument("--B", type=float)
    sp.add_argument("--E", type=float)
    sp.add_argument("--n", type=int, help="sample count")
    sp.add_argument("--seed", type=int)

    sp = add("equidist", "critical-energy Birkhoff averages")
    sp.add_argument("--B", type=float)
    sp.add_argument("--E", type=float, help="must equal the critical energy")
    sp.add_argument("--T", type=float, help="averaging horizon")
    sp.add_argument("--n", type=int, help="time steps per orbit")
    sp.add_argument("--grid", type=int, help="area-average resolution")
    sp.add_argument("--seed", type=int)

    sp = add("verify", "acceptance battery")
    sp.add_argument("--only", action="append", metavar="CHECK",
                    help="run only the named check (repeatable)")
    sp.add_argument("--flip-j", dest="flip_j", action="store_true",
                    help="flip the integrator orientation (must fail the flow oracle)")

    return parser


_HANDLERS = {
    "flow": cmd_flow,
    "density": cmd_density,
    "spectrum": cmd_spectrum,
    "sample": cmd_sample,
    "equidist": cmd_equidist,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args._config_values = _load_config(args.config, args.command) if args.config else {}
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
