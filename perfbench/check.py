"""Output checker: every CLI invocation's files against the reference recorded
in ``perfbench/reference`` and against independent recomputations.

Numeric comparison, not byte comparison: positions of ``inf`` must match,
integer columns and flags must match exactly, and floats must agree to a
relative 1e-6 (``ABS_TOL`` gives absolute tolerances for round-off-level
fields).  Outputs that depend on the seed are checked against oracles
written here, independently of magflow:

* ``histogram.csv`` counts are recomputed from the documented Philox stream
  layout (chunk j keyed by (seed, j), theta block first, then t) with the
  closed-form distance profile, which does not depend on theta;
* ``equidist.json`` initial conditions are redrawn from the seed, and the
  orbit averages are recomputed with a vectorized fold of closed-form frames
  ``g0 (I + tF)``, independent of the program's incremental fold;
* the flow divergence is recomputed from the two trajectory CSVs with
  ``2 asinh(|z - w| / (2 sqrt(y y')))``, because the program's
  ``max_divergence`` uses ``acosh(1 + x)``, which reads 0 below about 1e-8.

Byte identity with the recorded digests is counted apart (``identical``); it
does not gate.  Files that depend on the seed have a recorded digest only at
the reference seed, so at other seeds they are left out of that count.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import math
import os

import numpy as np

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
RTOL = 1e-6
ATOL = 1e-12
# fields at round-off or discretization level: compared absolutely
ABS_TOL = {
    "max_divergence": 1e-8,
    "max_velocity_divergence": 1e-8,
    "return_residual": 1e-8,
    "relation_residual": 1e-9,
    "mass_rel_err": 1e-9,
    "mass_normalized": 1e-9,
    "lyapunov": 1e-9,
}
INT_COLUMNS = {"n_preimages", "count", "k", "m"}
STR_COLUMNS = {"flag"}
FLOW_TOL = 1e-8          # flow-oracle tolerance of the acceptance suite
MASS_TOL = 0.01
BODY_TOL = 0.05
# files whose content depends on --seed: compared field by field, not whole
SEEDED = {"sample": ("histogram.csv", "sample_report.json"), "equidist": ("equidist.json",)}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_manifest() -> dict:
    with open(os.path.join(REF_DIR, "manifest.json")) as fh:
        return json.load(fh)


def reference_text(workload: str, inv: str, name: str) -> str:
    with lzma.open(os.path.join(REF_DIR, workload, inv, name + ".xz"), "rt") as fh:
        return fh.read()


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = np.array([ln.split(",") for ln in lines[1:]], dtype=str).reshape(-1, len(header))
    cols = {}
    for j, name in enumerate(header):
        col = cells[:, j]
        if name in STR_COLUMNS:
            cols[name] = col
        elif name in INT_COLUMNS:
            cols[name] = col.astype(np.int64)
        else:
            cols[name] = col.astype(float)
    return cols


def compare_arrays(label: str, got, want, rtol=RTOL, atol=ATOL) -> list:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != reference {want.shape}"]
    if got.dtype.kind in "iUSb" or want.dtype.kind in "iUSb":
        bad = np.flatnonzero(got != want)
        return [f"{label}: {bad.size} entries differ, first at row {bad[0]}"] if bad.size else []
    inf_g, inf_w = np.isinf(got), np.isinf(want)
    if np.any(inf_g != inf_w) or np.any(got[inf_g] != want[inf_w]):
        return [f"{label}: positions of inf differ"]
    if np.any(np.isnan(got) != np.isnan(want)):
        return [f"{label}: positions of nan differ"]
    fin = np.isfinite(want)
    err = np.abs(got[fin] - want[fin]) - (atol + rtol * np.abs(want[fin]))
    if np.any(err > 0):
        i = int(np.argmax(err))
        return [f"{label}: {int(np.sum(err > 0))} values off, worst "
                f"{got[fin][i]!r} vs {want[fin][i]!r}"]
    return []


def compare_csv(label: str, text: str, ref: str) -> list:
    got, want = parse_csv(text), parse_csv(ref)
    if list(got) != list(want):
        return [f"{label}: columns {list(got)} != reference {list(want)}"]
    problems = []
    for name in got:
        problems += compare_arrays(f"{label}:{name}", got[name], want[name])
    return problems


def compare_json(label: str, got, want, skip=()) -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{label}: keys differ from reference"]
        out = []
        for k in sorted(want):
            if k not in skip:
                out += compare_json(f"{label}.{k}", got[k], want[k], skip)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{label}: length differs from reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare_json(f"{label}[{i}]", g, w, skip)]
    number = (int, float)
    if isinstance(want, bool) or isinstance(got, bool) or not isinstance(want, number):
        return [] if got == want else [f"{label}: {got!r} != reference {want!r}"]
    if not isinstance(got, number):
        return [f"{label}: {got!r} is not a number"]
    if isinstance(got, int) and isinstance(want, int):
        return [] if got == want else [f"{label}: {got} != reference {want}"]
    field = label.rsplit(".", 1)[-1]
    atol = ABS_TOL.get(field, ATOL)
    rtol = 0.0 if field in ABS_TOL else RTOL
    return compare_arrays(label, [float(got)], [float(want)], rtol, atol)


def _read(path: str) -> str:
    with open(path, newline="") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# independent oracles

def _gamma_T(B, E):
    g = math.sqrt(B * B - 2.0 * E)
    return g, 2.0 * math.pi / g


def _first_passage(r, B, E):
    g, _ = _gamma_T(B, E)
    s2 = g * g * (np.cosh(r) - 1.0) / (4.0 * E)
    return (2.0 / g) * np.arcsin(np.sqrt(np.clip(s2, 0.0, 1.0)))


def oracle_counts(n: int, seed: int, edges, B: float, E: float, chunk: int = 1_000_000):
    """Ring counts of n torus samples, from the radial profile alone."""
    g, T = _gamma_T(B, E)
    R = float(edges[-1])
    rings = len(edges) - 1
    counts = np.zeros(rings, dtype=np.int64)
    for j in range((n + chunk - 1) // chunk):
        m = min(chunk, n - j * chunk)
        rng = np.random.Generator(np.random.Philox(key=[seed, j]))
        rng.random(m)                                   # theta: distance ignores it
        t = rng.random(m) * T
        r = np.arccosh(1.0 + (4.0 * E / (g * g)) * np.sin(0.5 * g * t) ** 2)
        counts += np.bincount(np.clip((r * (rings / R)).astype(np.int64), 0, rings - 1),
                              minlength=rings)
    return counts


def oracle_initial_conditions(seed: int, lam: float):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        r = rng.uniform(0.0, 0.5)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        w = math.tanh(0.5 * r) * complex(math.cos(ang), math.sin(ang))
        z = 1j * (1.0 + w) / (1.0 - w)
        a = rng.uniform(0.0, 2.0 * math.pi)
        out.append((z, lam * z.imag * complex(math.cos(a), math.sin(a))))
    return out


def _rot(angle: float) -> np.ndarray:
    h = 0.5 * angle
    return np.array([[math.cos(h), math.sin(h)], [-math.sin(h), math.cos(h)]])


def _octagon_generators():
    rho = math.acosh(1.0 / math.tan(math.pi / 8.0))
    along = np.diag([math.exp(rho), math.exp(-rho)])
    return [_rot(k * math.pi / 4.0) @ along @ _rot(-k * math.pi / 4.0) for k in range(8)]


def _fold(z):
    """Fold points into the central octagon by greedy descent of |z - i|^2 / Im z."""
    gens = _octagon_generators()
    z = z.copy()
    active = np.arange(z.size)
    while active.size:
        za = z[active]
        best = (np.abs(za - 1j) ** 2 / za.imag) * (1.0 - 1e-12)
        pick = np.full(za.size, -1)
        moved = []
        for k, g in enumerate(gens):
            w = (g[0, 0] * za + g[0, 1]) / (g[1, 0] * za + g[1, 1])
            u = np.abs(w - 1j) ** 2 / w.imag
            better = u < best
            best = np.where(better, u, best)
            pick = np.where(better, k, pick)
            moved.append(w)
        go = np.flatnonzero(pick >= 0)
        z[active[go]] = np.stack(moved)[pick[go], go]
        active = active[go]
    return z


def _bump(z):
    u = np.abs((z - 1j) / (z + 1j))
    s2 = (u / 0.60) ** 2
    inside = s2 < 1.0
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - np.where(inside, s2, 0.0))), 0.0)


def oracle_orbit_average(z0: complex, v0: complex, T: float, n: int, B: float, lam: float):
    """Midpoint-rule time average of the bump along the critical-energy orbit."""
    y = z0.imag
    ry = math.sqrt(y)
    psi = math.atan2(v0.imag, v0.real) - 0.5 * math.pi
    g0 = np.array([[ry, z0.real / ry], [0.0, 1.0 / ry]]) @ _rot(psi)
    t = (np.arange(n) + 0.5) * (T / n)
    a, b, c, d = 1.0 + 0.5 * t * lam, -0.5 * t * B, 0.5 * t * B, 1.0 - 0.5 * t * lam
    m11, m12 = g0[0, 0] * a + g0[0, 1] * c, g0[0, 0] * b + g0[0, 1] * d
    m21, m22 = g0[1, 0] * a + g0[1, 1] * c, g0[1, 0] * b + g0[1, 1] * d
    return float(np.mean(_bump(_fold((m11 * 1j + m12) / (m21 * 1j + m22)))))


def trajectory_divergence(exact: dict, numeric: dict) -> float:
    dz = np.hypot(exact["re_z"] - numeric["re_z"], exact["im_z"] - numeric["im_z"])
    return float(np.max(2.0 * np.arcsinh(dz / (2.0 * np.sqrt(exact["im_z"] * numeric["im_z"])))))


# ---------------------------------------------------------------------------
# per-invocation checks

def _check_density(files: dict, ref, seed: int) -> list:
    problems = compare_csv("density_grid.csv", files["density_grid.csv"], ref("density_grid.csv"))
    summary = json.loads(files["density_summary.json"])
    problems += compare_json("density_summary", summary, json.loads(ref("density_summary.json")))
    if not summary.get("mass_rel_err", math.inf) < MASS_TOL:
        problems.append(f"mass_rel_err {summary.get('mass_rel_err')} not below {MASS_TOL}")
    return problems


def _check_sample(files: dict, ref, seed: int) -> list:
    got = parse_csv(files["histogram.csv"])
    want = parse_csv(ref("histogram.csv"))
    problems = []
    for col in ("r_lo", "r_hi", "exact_ring_avg"):
        problems += compare_arrays(f"histogram.csv:{col}", got[col], want[col])
    report = json.loads(files["sample_report.json"])
    # the workload's (B, E, n), as recorded; the output must repeat them
    want_report = json.loads(ref("sample_report.json"))
    B, E = want_report["B"], want_report["E"]
    n = report.get("n")
    if not isinstance(n, int):
        problems.append("sample_report.n: not an integer")
    if problems:
        return problems
    edges = np.append(want["r_lo"], want["r_hi"][-1])
    counts = oracle_counts(n, seed, edges, B, E)
    problems += compare_arrays("histogram.csv:count", got["count"], counts)
    _, T = _gamma_T(B, E)
    area = 2.0 * math.pi * (np.cosh(edges[1:]) - np.cosh(edges[:-1]))
    est = counts / (n * area) * (2.0 * math.pi * T)
    problems += compare_arrays("histogram.csv:est_density", got["est_density"], est)
    exact = want["exact_ring_avg"]
    rel = np.where(exact > 0.0, est / exact - 1.0, 0.0)
    problems += compare_arrays("histogram.csv:rel_err", got["rel_err"], rel, atol=1e-9)

    R = float(edges[-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    body = (mid >= 0.1 * R) & (mid <= 0.9 * R)
    expected = n * 4.0 * math.pi * np.diff(_first_passage(edges, B, E)) / (2.0 * math.pi * T)
    usable = expected >= 10.0
    c_sel = (mid <= 0.2 * R) & (counts > 0)
    b_sel = (mid >= 0.8 * R) & (mid < R) & (counts > 0)
    recomputed = {
        "B": B, "E": E, "n": want_report["n"], "seed": seed, "rings": len(counts),
        "chi2": float(np.sum((counts[usable] - expected[usable]) ** 2 / expected[usable])),
        "chi2_dof": int(np.sum(usable)),
        "center_slope": float(np.polyfit(np.log(mid[c_sel]), np.log(est[c_sel]), 1)[0]),
        "boundary_slope": float(np.polyfit(np.log(R - mid[b_sel]), np.log(est[b_sel]), 1)[0]),
        "max_rel_err_body": float(np.max(np.abs(rel[body]))),
    }
    problems += compare_json("sample_report", report, recomputed)
    if not report.get("max_rel_err_body", math.inf) < BODY_TOL:
        problems.append(f"max_rel_err_body {report.get('max_rel_err_body')} not below {BODY_TOL}")
    return problems


def _check_equidist(files: dict, ref, seed: int) -> list:
    got = json.loads(files["equidist.json"])
    want = json.loads(ref("equidist.json"))
    seeded = ("seed", "initial_conditions", "orbit_averages", "rel_err", "max_abs_rel_err")
    problems = compare_json("equidist", got, want, skip=seeded)
    problems += compare_json("group", json.loads(files["group.json"]),
                             json.loads(ref("group.json")))
    if problems:
        return problems
    if got["seed"] != seed:
        problems.append(f"equidist.seed {got['seed']} != {seed}")
    # B, E and T were compared with the reference above
    B, lam = float(got["B"]), math.sqrt(2.0 * float(got["E"]))
    ics = oracle_initial_conditions(seed, lam)
    problems += compare_json("equidist.initial_conditions", got["initial_conditions"], [
        {"re_z": z.real, "im_z": z.imag, "re_v": v.real, "im_v": v.imag} for z, v in ics])
    avgs = [oracle_orbit_average(z, v, float(got["T"]), int(got["n_steps"]), B, lam)
            for z, v in ics]
    problems += compare_arrays("equidist.orbit_averages", got["orbit_averages"], avgs, rtol=1e-7)
    rel = [a / got["space_average"] - 1.0 for a in got["orbit_averages"]]
    problems += compare_arrays("equidist.rel_err", got["rel_err"], rel, rtol=0.0, atol=1e-12)
    problems += compare_arrays("equidist.max_abs_rel_err", [got["max_abs_rel_err"]],
                               [max(abs(x) for x in rel)], rtol=0.0, atol=1e-12)
    return problems


def _check_flow(files: dict, ref, seed: int) -> list:
    problems = []
    for name in ("flow_exact.csv", "flow_numeric.csv"):
        problems += compare_csv(name, files[name], ref(name))
    div = trajectory_divergence(parse_csv(files["flow_exact.csv"]),
                                parse_csv(files["flow_numeric.csv"]))
    if not div < FLOW_TOL:
        problems.append(f"exact vs RK4 divergence {div:.3g} not below {FLOW_TOL}")
    problems += compare_json("flow_summary", json.loads(files["flow_summary.json"]),
                             json.loads(ref("flow_summary.json")))
    return problems


def _check_spectrum(files: dict, ref, seed: int) -> list:
    want_summary = json.loads(ref("spectrum_summary.json"))
    k, B = want_summary["k"], want_summary["B"]       # the workload's, as recorded
    got = parse_csv(files["spectrum.csv"])
    m = np.arange(int(math.floor(k * B + 1e-9)), dtype=np.int64)
    # exact in integers, and below 2^53, so one float division is the only rounding
    lam = (2 * k * B * (2 * m + 1) - 2 * m * (m + 1)) / 4
    problems = []
    for name, want, rtol in (("k", np.full(m.size, k), 0), ("m", m, 0),
                             ("lambda", lam, 1e-15), ("scaled", lam / (k * k), 1e-15)):
        if name not in got:
            return [f"spectrum.csv: column {name} missing"]
        problems += compare_arrays(f"spectrum.csv:{name}", got[name], want, rtol=rtol)
    problems += compare_json("spectrum_summary", json.loads(files["spectrum_summary.json"]),
                             want_summary)
    return problems


# invocation name -> checker(files by name, reference reader, seed) -> problems
CHECKERS = {
    "density": _check_density,
    "sample": _check_sample,
    "equidist": _check_equidist,
    "flow": _check_flow,
    "spectrum": _check_spectrum,
}


def check_invocation(workload: str, inv: str, seed: int, out_dir: str, manifest: dict):
    """(problems, identical files, files with a recorded digest) for one invocation."""
    prefix = f"{workload}/{inv}/"
    names = sorted(k[len(prefix):] for k in manifest["files"] if k.startswith(prefix))
    files, identical, known = {}, 0, 0
    # seeded files have a recorded digest only at the reference seed
    at_reference = seed == manifest["reference_seed"]
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            return [f"{prefix}{name}: missing"], 0, 0
        files[name] = _read(path)
        if at_reference or name not in SEEDED.get(inv, ()):
            known += 1
            identical += digest(path) == manifest["files"][prefix + name]

    def ref(name):
        return reference_text(workload, inv, name)

    try:
        problems = CHECKERS[inv](files, ref, seed)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
    return [f"{prefix}{p}" for p in problems], identical, known
