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

Any flag but --config, --only and --flip-j may instead be given in an INI
config file, keyed by its name, under a [magflow] section or a per-command
section ([flow], [density], ...); the command's section beats [magflow] and
explicit flags beat both.  `magflow COMMAND --help` lists each default.
Numbers are written with 17 significant digits and no run metadata, so a
command rerun with the same configuration produces byte-identical files.
BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set.

Exit codes: 0 success, 2 invalid configuration, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import chain, repeat
from typing import TYPE_CHECKING

# One BLAS thread unless the caller set a count: OpenBLAS's idle workers spin
# on the other cores at import and after every call, and a CLI run's BLAS
# calls are tiny.  This must run before numpy loads, and it lives here, not in
# the package, so that library users keep their own BLAS threading.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

if TYPE_CHECKING:
    from .flow import MagneticConfig

# Each command imports the layers it runs inside its handler, so a run loads
# only those.

# work budgets, checked before any loop or allocation; each sits well above
# the largest perfbench workload (about 178k RK4 steps, 200k rungs, grid 300,
# 150k Birkhoff steps, 4e6 samples); flow's _MAX_STEPS budgets RK4 steps
_MAX_RUNGS = 2_000_000
_MAX_GRID = 1000
_MAX_BIRKHOFF_STEPS = 100_000_000  # over the three orbits of equidist
_MAX_SAMPLES = 400_000_000


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _dumps(obj, indent: int = 0, key: str = "value") -> str:
    """JSON text with floats at 17 significant digits and sorted keys.  A
    non-finite float, which JSON cannot hold, raises ValueError naming its key."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_dumps(obj[k], indent + 1, str(k))}'
            for k in sorted(obj)
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        body = ",\n".join(f"{pad}  {_dumps(v, indent + 1, key)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"{key} is {_fmt(obj)}, which JSON cannot hold")
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

def _load_config(path: str, command: str) -> dict:
    import configparser

    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case: B and E are capitalized
    merged = {}
    try:
        if not parser.read(path):
            raise ValueError(f"config file not found: {path}")
        for section in ("magflow", command):
            if parser.has_section(section):
                merged.update(parser.items(section))
    except configparser.Error as exc:  # a malformed line, a duplicate key or a bad % reference
        raise ValueError(f"bad config file {path}: {exc}") from None
    return merged


def _convert(key: str, kind, text: str):
    """A config-file value as the command line would parse it."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"unknown {key}: {text}")
        return text
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"bad config value for {key}: {text!r}") from None


def _fill(args) -> None:
    """Set each flag of _COMMANDS that the command line left unset."""
    config = _load_config(args.config, args.command) if args.config else {}
    for key, (kind, default, _) in _COMMANDS[args.command][2].items():
        if getattr(args, key) is None:
            setattr(args, key, _convert(key, kind, config[key]) if key in config else default)


# ---------------------------------------------------------------------------
# flow

def _traj_csv(ts, z, v) -> str:
    return "t,re_z,im_z,re_v,im_v\n" + _rows("%.17g,%.17g,%.17g,%.17g,%.17g\n", *(
        a.tolist() for a in (ts, z.real, z.imag, v.real, v.imag)))


def cmd_flow(args) -> int:
    from .flow import (_MAX_STEPS, MagneticConfig, Regime, flow_exact, flow_exact_many,
                       flow_numeric_rows, lyapunov_exponent, period)
    from .halfplane import Tangent, hyp_dist, hyp_dist_vec

    cfg = MagneticConfig(args.B, args.E)
    rows, dt, out = args.grid, args.dt, args.out
    if rows < 2:
        raise ValueError("grid must have at least 2 rows")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    p0 = Tangent(1j, 1j * cfg.lam) if cfg.lam > 0.0 else Tangent(1j, 0j)

    subcritical = cfg.regime is Regime.SUBCRITICAL
    t_total = 2.0 * period(cfg) if subcritical else 10.0
    # the integrator takes ceil(step / dt) steps per row, at least one; an
    # int grid past the float range counts as an infinite one
    steps = max(rows - 1 if rows <= sys.float_info.max else math.inf, t_total / dt)
    if not steps <= _MAX_STEPS:
        raise ValueError(f"about {steps:.3g} RK4 steps needed at dt={dt!r}, grid={rows}; "
                         f"the limit is {_MAX_STEPS}")
    ts = t_total * np.arange(rows) / (rows - 1)

    z, v = flow_exact_many(cfg, p0, ts)
    zn, vn, warned = flow_numeric_rows(cfg, p0, ts, dt)
    div = float(np.max(hyp_dist_vec(z, zn)))
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
        "max_velocity_divergence": float(np.max(np.abs(v - vn))),
        "step_warning": warned,
    }
    if subcritical:
        T = period(cfg)
        back = flow_exact(cfg, p0, T)
        summary["period"] = T
        summary["return_residual"] = hyp_dist(back.z, p0.z) + abs(back.v - p0.v)
    text = _dumps(summary) + "\n"  # a non-finite value fails here, before any file is written

    print(f"regime {cfg.regime.value}")
    if subcritical:
        print(f"period {_fmt(summary['period'])}")
    print(f"max divergence {_fmt(div)}")
    _write(out, "flow_exact.csv", _traj_csv(ts, z, v))
    _write(out, "flow_numeric.csv", _traj_csv(ts, zn, vn))
    _write(out, "flow_summary.json", text)
    return 0


# ---------------------------------------------------------------------------
# density

def _cover_rows(cfg: MagneticConfig, xs: np.ndarray, band: float):
    """Cover grid as (index, columns): columns (d_to_center, alpha_raw, n_preimages, flag)
    hold one entry per distinct grid distance, from one density_cover_many call, and the
    grid-shaped index picks each cell's entry; d is inf off the disk model of _disk_blocks.

    Every column is a function of d alone, and the grid's symmetry repeats
    distances: grid 300's 90,000 cells take 30,103.  np.unique merges -0.0
    with 0.0 and NaN with NaN, which would change bytes; no grid distance
    is either: d = 2 asinh(|z - i| / ...) is +0.0 or positive at every
    point inside the disk, and inf off it."""
    from .halfplane import _disk_blocks, hyp_dist_vec
    from .torus import density_cover_many

    d = np.concatenate([np.where(inside, hyp_dist_vec(z, 1j), np.inf)
                        for _, _, inside, z in _disk_blocks(xs)])  # blocks freed before np.unique
    d, index = np.unique(d, return_inverse=True)
    return index.reshape(len(xs), len(xs)), (d, *density_cover_many(cfg, d, band))


_HEADER = "x,y,d_to_center,alpha_raw,alpha_normalized,n_preimages,flag\n"
# column entries whose row tails are formatted into one text; a chunk's
# text, about 35 kB, comes from the heap, not from a fresh mapping
_TAIL_CHUNK = 512


def _density_csv(cfg: MagneticConfig, xs: np.ndarray, grid):
    """The cover's density_grid.csv one grid row at a time, from _cover_rows's (index, columns).

    Each column entry's row tail d,alpha_raw,alpha_normalized,n_preimages,flag
    is formatted once: entries k of chunk k // _TAIL_CHUNK share one text, in
    which tail k spans [starts[k], ends[k]).  Cell (iy, ix) writes x,y, and
    tail index[iy, ix], so neither the grid's lines nor one string per tail
    is ever held."""
    from .flow import period
    from .torus import Flag

    index, (d, alpha, n_pre, flags) = grid
    norm = 2.0 * math.pi * period(cfg)
    text = {f: f.value for f in Flag}.__getitem__  # a dict lookup beats Flag.value per cell
    chunks, starts, ends = [], np.empty(len(d), dtype=np.int64), np.empty(len(d), dtype=np.int64)
    for lo in range(0, len(d), _TAIL_CHUNK):
        part = slice(lo, lo + _TAIL_CHUNK)
        chunks.append(_rows("%.17g,%.17g,%.17g,%d,%s\n", d[part].tolist(), alpha[part].tolist(),
                            (alpha[part] / norm).tolist(), n_pre[part].tolist(),
                            map(text, flags[part].tolist())))
        # the text is ASCII: its byte offsets are its character offsets
        end = 1 + np.flatnonzero(np.frombuffer(chunks[-1].encode(), np.uint8) == ord("\n"))
        starts[part], ends[part] = np.append(0, end[:-1]), end
    coords = ["%.17g," % v for v in xs.tolist()]
    yield _HEADER
    for iy, y in enumerate(coords):
        k = index[iy]
        cells = map(str.__getitem__, map(chunks.__getitem__, (k // _TAIL_CHUNK).tolist()),
                    map(slice, starts[k].tolist(), ends[k].tolist()))
        yield "".join(chain.from_iterable(zip(coords, repeat(y), cells)))


def _surface_csv(group, cfg: MagneticConfig, xs: np.ndarray, band: float):
    """The Bolza density_grid.csv, a _disk_blocks block at a time: one density_surface_many
    call over its points in the disk, then one _rows call per row; d is the folded point's."""
    from .flow import period
    from .halfplane import _disk_blocks, hyp_dist_vec
    from .surface import density_surface_many
    from .torus import Flag

    norm = 2.0 * math.pi * period(cfg)
    text = {f: f.value for f in Flag}.__getitem__
    coords = ["%.17g," % v for v in xs.tolist()]  # each formatted once, as _density_csv does
    yield _HEADER
    for lo, _, inside, z in _disk_blocks(xs):
        d = np.full(inside.shape, np.inf)
        alpha = np.zeros(inside.shape)
        n_pre = np.zeros(inside.shape, dtype=np.int64)
        flags = np.empty(inside.shape, dtype=object)
        flags[:] = Flag.OUTSIDE.value  # one str; np.full would store one per cell
        y0, alpha[inside], n_pre[inside], f = density_surface_many(group, cfg, z[inside], band)
        flags[inside] = list(map(text, f.tolist()))
        d[inside] = hyp_dist_vec(y0, 1j)
        for iy, y in enumerate(coords[lo:lo + len(inside)]):
            yield _rows("%s%s%.17g,%.17g,%.17g,%d,%s\n", coords, repeat(y), d[iy].tolist(),
                        alpha[iy].tolist(), (alpha[iy] / norm).tolist(), n_pre[iy].tolist(),
                        flags[iy].tolist())


def cmd_density(args) -> int:
    from .flow import MagneticConfig, period
    from .torus import density_mass, radius, singular_fits

    cfg = MagneticConfig(args.B, args.E)
    surface, n, band, out = args.surface, args.grid, args.bands, args.out
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
        from .surface import ENUM_CAP, bolza_group, require_chern, translates_meeting_disk

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
        rows = _surface_csv(group, cfg, xs, band)  # runs in _write, after every refusal
    else:
        xs = np.linspace(-math.tanh(0.5 * R), math.tanh(0.5 * R), n)
        rows = _density_csv(cfg, xs, _cover_rows(cfg, xs, band))

    mass = density_mass(cfg)
    sidecar.update(singular_fits(cfg))
    sidecar["mass_raw"] = mass
    sidecar["mass_expected"] = expected
    sidecar["mass_rel_err"] = abs(mass / expected - 1.0)
    sidecar["mass_normalized"] = mass / expected
    summary = _dumps(sidecar) + "\n"  # a non-finite fit fails here, before any file is written

    print(f"R_E {_fmt(R)}")
    print(f"mass {_fmt(mass)} expected {_fmt(expected)}")
    _write(out, "density_grid.csv", rows)
    _write(out, "density_summary.json", summary)
    return 0


# ---------------------------------------------------------------------------
# spectrum

def _ladder_csv(k: int, slices):
    """spectrum.csv one ladder slice at a time, so the whole table is never
    held as arrays, lines, text or builtin scalars at once.

    A slice whose lambdas are all integral and below 1e17, as every rung is
    at B = 1 with even k, writes them as int64 with %d, the faster template;
    any other slice keeps %.17g.  Every rung is at least kB/2 > 0, and an
    integral float in (0, 1e17) has at most 17 digits, so %.17g prints it
    whole, with no exponent, point or sign: the bytes are those of %d."""
    yield "k,m,lambda,scaled\n"
    row, whole = f"{k},%d,%.17g,%.17g\n", f"{k},%d,%d,%.17g\n"
    for m, lam, scaled in slices:
        if (np.trunc(lam) == lam).all() and lam.max() < 1e17:
            yield _rows(whole, m.tolist(), lam.astype(np.int64).tolist(), scaled.tolist())
        else:
            yield _rows(row, m.tolist(), lam.tolist(), scaled.tolist())


def cmd_spectrum(args) -> int:
    from .spectrum import (
        _require_field, critical_gaps, ladder_arrays, ladder_size, ladder_slices, select_levels)

    k, B, E, out = args.k, args.B, args.E, args.out

    _require_field(B)  # before the budget, which an infinite B would trip
    # an int k past the float range multiplies as an infinite one
    rungs = k * B if abs(k) <= sys.float_info.max else (1 if k > 0 else -1) * math.inf * B
    if rungs > _MAX_RUNGS:
        raise ValueError(f"k B = {rungs:.17g} rungs; the limit is {_MAX_RUNGS}")
    n = ladder_size(k, B)

    gap_top, gap_beyond = (g.item() for g in critical_gaps(k, B))
    # lambda(m + 1) - lambda(m) = kB - m - 1 >= 1 on the ladder: the top is the last rung
    (top_m,), (top_lambda,), (top_scaled,) = ladder_arrays(k, B, n - 1)
    summary = {
        "k": k, "B": B, "n_levels": n,
        "top_m": int(top_m), "top_lambda": float(top_lambda), "top_scaled": float(top_scaled),
        "gap_top": gap_top, "gap_beyond": gap_beyond,
        "k_gap_top": k * gap_top, "k_gap_beyond": k * gap_beyond,
    }
    if E is not None:
        m, lam, scaled = (a.item() for a in select_levels(k, B, [E]))
        summary["selected"] = {
            "E": E, "m": m, "lambda": lam, "scaled": scaled, "offset": abs(scaled - E),
        }

    print(f"levels {n} top scaled {_fmt(top_scaled)}")
    _write(out, "spectrum.csv", _ladder_csv(k, ladder_slices(k, B)))
    _write_json(out, "spectrum_summary.json", summary)
    return 0


# ---------------------------------------------------------------------------
# sample

def cmd_sample(args) -> int:
    from .flow import MagneticConfig
    from .mc import compare_to_closed_form, sample_pushforward

    cfg = MagneticConfig(args.B, args.E)
    n, seed, out = args.n, args.seed, args.out
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
    summary = _dumps(summary) + "\n"  # a non-finite fit fails here, before any file is written

    print(f"max rel err (body) {_fmt(report['max_rel_err_body'])}")
    print(f"center slope {_fmt(report['center_slope'])} "
          f"boundary slope {_fmt(report['boundary_slope'])}")
    _write(out, "histogram.csv", table)
    _write(out, "sample_report.json", summary)
    return 0


# ---------------------------------------------------------------------------
# equidist

def _group_export(group) -> dict:
    from .surface import octagon_area, relation_residual

    return {
        "genus": group.genus,
        "generators": [
            {"a": a, "b": b, "c": c, "d": d} for a, b, c, d in group.generators.tolist()
        ],
        "traces": [a + d for a, _, _, d in group.generators.tolist()],
        "relation_word": list(group.relation_word),
        "relation_residual": relation_residual(group),
        "inradius": group.inradius,
        "circumradius": group.circumradius,
        "area": octagon_area(group),
        "vertices": [[v.real, v.imag] for v in group.vertices],
    }


def cmd_equidist(args) -> int:
    from .flow import MagneticConfig
    from .surface import _equidistribution, bolza_group, require_chern

    B, T, n_steps, res, seed, out = args.B, args.T, args.n, args.grid, args.seed, args.out

    E = 0.5 * B * B  # the critical energy
    if 0.0 < B < math.inf and E == math.inf:
        raise ValueError(f"the critical energy B^2/2 overflows at B={B!r}")
    cfg = MagneticConfig(B, E)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if 3 * n_steps > _MAX_BIRKHOFF_STEPS:
        raise ValueError(f"3 orbits of {n_steps} steps requested; "
                         f"the limit is {_MAX_BIRKHOFF_STEPS} Birkhoff steps")
    if res > _MAX_GRID:
        raise ValueError(f"area-average resolution {res} is above the limit of {_MAX_GRID}")
    group = bolza_group()
    require_chern(cfg)

    target, starts, averages = _equidistribution(group, cfg, T, n_steps, res, seed)

    rel = [a / target - 1.0 for a in averages]
    report = {
        "B": B, "E": cfg.E, "T": T, "n_steps": n_steps, "resolution": res,
        "seed": seed, "space_average": target,
        "initial_conditions": [{"re_z": p.z.real, "im_z": p.z.imag,
                                "re_v": p.v.real, "im_v": p.v.imag} for p in starts],
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

def cmd_verify(args) -> int:
    from .verify import CHECKS

    j_sign = -1.0 if args.flip_j else 1.0
    for name in args.only or ():
        if name not in CHECKS:
            raise ValueError(f"unknown check: {name}")

    results = []
    for name, check in CHECKS.items():
        if args.only and name not in args.only:
            continue
        result = check(j_sign=j_sign) if name == "flow-oracle" else check()
        results.append(result)
        print(("PASS" if result["passed"] else "FAIL") + f" {name}")

    ok = all(r["passed"] for r in results)
    _write_json(args.out, "verify_report.json",
                {"j_sign": j_sign, "passed": ok, "checks": results})
    print("all checks passed" if ok else
          f"{sum(not r['passed'] for r in results)} check(s) failed")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# entry point

# argparse reads a token that starts with "-" as a value only if it matches
# this; its own pattern takes -1 and -.5 but not -1e-3, -inf or -nan.  No
# magflow option looks like a number, so every such token is a value.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


_FIELD = (float, 1.0, "field strength")
_ENERGY = (float, 0.25, "kinetic energy")
_OUT = (str, ".", "output directory")

# Each subcommand once: its handler, its help and its flags as
# name: (type or choices, default, help).  A flag left off the command line
# takes its value from the config file's [command] section, else [magflow],
# else the default here; a None default is worked out by the handler.
_COMMANDS = {
    "flow": (cmd_flow, "trajectories and flow summary", {
        "out": _OUT, "B": _FIELD, "E": _ENERGY,
        "grid": (int, 1001, "trajectory sample rows"),
        "dt": (float, 1e-3, "integrator step size"),
    }),
    "density": (cmd_density, "pushforward density grid", {
        "out": _OUT, "B": _FIELD, "E": _ENERGY,
        "surface": (("cover", "bolza"), "cover", "universal cover or Bolza surface"),
        "grid": (int, 200, "grid points per side"),
        "bands": (float, 1e-3, "relative singular band width"),
    }),
    "spectrum": (cmd_spectrum, "Landau ladder table", {
        "out": _OUT, "k": (int, 10, "quantum parameter"), "B": _FIELD,
        "E": (float, None, "select the level scaling closest to E"),
    }),
    "sample": (cmd_sample, "Monte Carlo pushforward histogram", {
        "out": _OUT, "B": _FIELD, "E": _ENERGY,
        "n": (int, 1_000_000, "sample count"),
        "seed": (int, 1234, "Philox key, 0 to 2^64 - 1"),
    }),
    "equidist": (cmd_equidist, "critical-energy Birkhoff averages", {
        "out": _OUT, "B": _FIELD,
        "T": (float, 500.0, "averaging horizon"),
        "n": (int, 100_000, "time steps per orbit"),
        "grid": (int, 400, "area-average resolution"),
        "seed": (int, 2026, "seed of the three initial conditions"),
    }),
    "verify": (cmd_verify, "acceptance battery", {"out": _OUT}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magflow",
        description="magnetic geodesic flow on hyperbolic surfaces: "
                    "trajectories, densities, spectra, and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", help="INI file with flag values; flags win")
        for key, (kind, default, text) in flags.items():
            if default is not None:
                text += f" (default: {default})"
            if isinstance(kind, tuple):
                sp.add_argument(f"--{key}", choices=kind, help=text)
            else:
                sp.add_argument(f"--{key}", type=kind, help=text)

    verify = sub.choices["verify"]
    verify.add_argument("--only", action="append", metavar="CHECK",
                        help="run only the named check (repeatable)")
    verify.add_argument("--flip-j", dest="flip_j", action="store_true",
                        help="flip the integrator orientation (must fail the flow oracle)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _fill(args)
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
