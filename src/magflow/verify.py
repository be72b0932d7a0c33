"""Acceptance checks: every headline property of the library, as data.

Each check_* function runs one criterion end to end with fixed seeds and
returns a plain dict (name, passed, measured, tolerance, detail) so the
pytest suite and the command-line `verify` subcommand share one
implementation.  CHECKS lists the twelve criteria in order; the CLI runs
them followed by check_flow_oracle.

The flow-oracle check accepts a j_sign argument: flipping the orientation
of the magnetic term in the numerical integrator must make that check fail,
which demonstrates the closed-form/integrator pair actually constrains the
sign convention (mutation sanity hook, reachable from the CLI).
"""

from __future__ import annotations

import math

import numpy as np

from .flow import (
    MagneticConfig,
    flow_exact,
    flow_exact_many,
    flow_numeric_rows,
    lyapunov_exponent,
    period,
)
from .halfplane import Tangent, from_disk, hyp_dist, hyp_dist_vec
from .mc import compare_to_closed_form, sample_pushforward
from .spectrum import critical_gaps, ladder_arrays, select_levels
from .surface import (
    _bump,
    _descend_many,
    _equidist_starts,
    area_average,
    birkhoff_average,
    bolza_group,
    density_surface_many,
    in_domain_mask,
    octagon_area,
    relation_residual,
    translates_meeting_disk,
    word_element,
)
from .torus import (
    density_mass,
    phi_profile,
    preimages_many,
    psi,
    psi_many,
    radius,
    singular_fits,
)

_STD = MagneticConfig(1.0, 0.25)


def _random_subcritical(rng) -> MagneticConfig:
    B = rng.uniform(0.5, 2.5)
    return MagneticConfig(B, rng.uniform(0.05, 0.95) * 0.5 * B * B)


def _random_shell_tangent(rng, cfg: MagneticConfig) -> Tangent:
    z = complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-1.0, 1.0)))
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return Tangent(z, cfg.lam * z.imag * complex(math.cos(ang), math.sin(ang)))


def _result(name, passed, measured, tolerance, detail=""):
    return {
        "name": name,
        "passed": bool(passed),
        "measured": measured,
        "tolerance": tolerance,
        "detail": detail,
    }


def check_periodicity(seed: int = 1001) -> dict:
    """All subcritical trajectories close after T_E = 2 pi (B^2-2E)^{-1/2}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        cfg = _random_subcritical(rng)
        p = _random_shell_tangent(rng, cfg)
        q = flow_exact(cfg, p, period(cfg))
        res = hyp_dist(p.z, q.z) + abs(q.v - p.v) / p.z.imag
        worst = max(worst, res)
    return _result("periodicity", worst < 1e-9, worst, 1e-9,
                   "max return residual over 50 random subcritical pairs")


def check_footpoint_radius(seed: int = 1002) -> dict:
    """Swept radius max_t d(i, Psi(0, t)) equals arccosh((B^2+2E)/(B^2-2E))."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        cfg = _random_subcritical(rng)
        ts = np.linspace(0.0, period(cfg), 1001)  # contains T_E/2 exactly
        worst = max(worst, abs(float(phi_profile(cfg, ts).max()) - radius(cfg)))
    return _result("footpoint-radius", worst < 1e-8, worst, 1e-8,
                   "max |swept radius - closed form| over 20 random pairs")


def check_profile_derivatives(seed: int = 1003) -> dict:
    """phi'(T_E/2) = 0 and phi''(T_E/2) = (sqrt(2E)/2B)(2E - B^2)."""
    rng = np.random.default_rng(seed)
    configs = [_STD] + [_random_subcritical(rng) for _ in range(4)]
    worst1 = worst2 = 0.0
    h1, h2 = 1e-5, 1e-4
    for cfg in configs:
        tm = 0.5 * period(cfg)
        up1, down1, mid, up2, down2 = phi_profile(cfg, tm + np.array([h1, -h1, 0.0, h2, -h2]))
        d1 = (up1 - down1) / (2.0 * h1)
        d2 = (up2 - 2.0 * mid + down2) / (h2 * h2)
        target = (cfg.lam / (2.0 * cfg.B)) * (2.0 * cfg.E - cfg.B * cfg.B)
        worst1 = max(worst1, abs(d1))
        worst2 = max(worst2, abs(d2 - target))
    return _result("profile-derivatives", worst1 < 1e-6 and worst2 < 1e-4,
                   {"phi1": worst1, "phi2_err": worst2},
                   {"phi1": 1e-6, "phi2_err": 1e-4},
                   "finite differences at the profile apex; includes B=1, E=0.25")


def check_jacobian_identity(seed: int = 1004) -> dict:
    """|det dPsi| from finite differences matches 2E|b(t)|."""
    from .torus import jacobian

    rng = np.random.default_rng(seed)
    worst = 0.0
    for cfg in (_STD, _random_subcritical(rng), _random_subcritical(rng)):
        T = period(cfg)
        for _ in range(34):
            th = rng.uniform(0.0, 2.0 * math.pi)
            t = rng.uniform(0.07, 0.93) * T
            if abs(t - 0.5 * T) < 0.05 * T:
                t = 0.4 * T
            y0 = psi(cfg, th, t)

            def disk(w):
                return (w - y0) / (w - y0.conjugate())

            h = 1e-6
            c_th = (disk(psi(cfg, th + h, t)) - disk(psi(cfg, th - h, t))) / (2.0 * h)
            c_t = (disk(psi(cfg, th, t + h)) - disk(psi(cfg, th, t - h))) / (2.0 * h)
            # metric at the disk center is 2|du|: normal coordinates scale by 2
            num = 4.0 * abs(c_th.real * c_t.imag - c_th.imag * c_t.real)
            exact = jacobian(cfg, th, t)
            worst = max(worst, abs(num / exact - 1.0))
    return _result("jacobian-identity", worst < 1e-4, worst, 1e-4,
                   "max relative error over ~100 random regular torus points")


def check_density_mass() -> dict:
    """Raw density integrates to 2 pi T_E over the disk (normalized: to 1)."""
    mass = density_mass(_STD)
    target = 2.0 * math.pi * period(_STD)
    rel = abs(mass / target - 1.0)
    return _result("density-mass", rel < 0.01,
                   {"mass": mass, "normalized": mass / target}, 0.01,
                   f"target 2*pi*T_E = {target:.6f}")


def check_singularity_asymptotics() -> dict:
    """1/d blowup at the center, 1/sqrt blowup inside the boundary circle."""
    fits = singular_fits(_STD)
    c_center, c_bd = fits["center_constant_expected"], fits["boundary_constant_expected"]
    center_err = abs(fits["center_constant"] / c_center - 1.0)
    bd_err = abs(fits["boundary_constant"] / c_bd - 1.0)
    center_slope, boundary_slope = fits["center_slope"], fits["boundary_slope"]

    passed = (
        center_err < 0.01
        and bd_err < 0.02
        and abs(center_slope + 1.0) < 0.05
        and abs(boundary_slope + 0.5) < 0.05
    )
    return _result(
        "singularity-asymptotics", passed,
        {"center_const_rel_err": center_err, "boundary_const_rel_err": bd_err,
         "center_slope": center_slope, "boundary_slope": boundary_slope},
        {"center_const_rel_err": 0.01, "boundary_const_rel_err": 0.02,
         "center_slope": "-1 +- 0.05", "boundary_slope": "-0.5 +- 0.05"},
        f"constants {c_center:.6f} (center), {c_bd:.6f} (boundary)")


def check_mc_oracle(seed: int = 777, n: int = 10_000_000) -> dict:
    """10^7 pushforward samples agree with exact ring averages off the bands."""
    hist = sample_pushforward(_STD, n, seed)
    report = compare_to_closed_form(hist, _STD)
    err = report["max_rel_err_body"]
    return _result("mc-oracle", err < 0.05,
                   {"max_rel_err_body": err,
                    "center_slope": report["center_slope"],
                    "boundary_slope": report["boundary_slope"],
                    "chi2": report["chi2"], "chi2_dof": report["chi2_dof"]},
                   0.05, f"rings with d in [0.1, 0.9] R_E, n = {n}, seed = {seed}")


def check_preimage_counts(seed: int = 1008) -> dict:
    """2 preimages strictly inside, 1 on the boundary, 0 outside, each
    mapping back onto its point; and the surface count is bounded by twice
    the translate count."""
    rng = np.random.default_rng(seed)
    cfg = _STD
    R = radius(cfg)
    T = period(cfg)
    # the draws in per-probe order: (fraction of R_E, angle) for each interior
    # probe, an angle for each boundary probe, (angle, gap past R_E) outside
    frac, ang = rng.uniform((0.01, 0.0), (0.99, 2.0 * math.pi), size=(800, 2)).T
    inside = from_disk(np.tanh(0.5 * frac * R) * np.exp(1j * ang))
    rim = psi_many(cfg, rng.uniform(0.0, 2.0 * math.pi, 100), 0.5 * T)
    ang, gap = rng.uniform((0.0, 0.05), (2.0 * math.pi, 1.0), size=(100, 2)).T
    outside = from_disk(np.tanh(0.5 * (R + gap)) * np.exp(1j * ang))
    y = np.concatenate([inside, rim, outside])
    theta, t, n = preimages_many(cfg, y)
    ok = np.array_equal(n, np.repeat([2, 1, 0], [800, 100, 100]))
    listed = np.arange(2) < n[:, None]
    roundtrip = float(np.max(hyp_dist_vec(psi_many(cfg, theta[listed], t[listed]),
                                          np.broadcast_to(y[:, None], t.shape)[listed])))
    ok = ok and roundtrip < 1e-10

    group = bolza_group()
    translates = translates_meeting_disk(group, R)
    re = math.tanh(0.5 * group.circumradius)
    xs = np.linspace(-re, re, 100)
    u = (xs[None, :] + 1j * xs[:, None]).ravel()
    u = u[np.abs(u) < re]
    z = from_disk(u)
    z = z[in_domain_mask(group, z)]
    counts = np.zeros(z.shape, dtype=int)
    for a, b, c, d in translates:
        counts += 2 * (hyp_dist_vec((a * z + b) / (c * z + d), 1j) < R)
    max_count = int(counts.max())
    bound = 2 * len(translates)
    ok = ok and max_count <= bound

    # the lift count above must agree with the density kernel's at every grid point
    _, _, n_pre, _ = density_surface_many(group, cfg, z)
    ok = ok and np.array_equal(n_pre, counts)
    return _result("preimage-counts", ok,
                   {"surface_max": max_count, "surface_bound": bound, "roundtrip": roundtrip},
                   {"roundtrip": 1e-10},
                   "cover: 800 interior / 100 boundary / 100 outside probes; "
                   "surface: 100x100 grid")


def check_lyapunov_trichotomy(seed: int = 1009) -> dict:
    """Zero exponent through E_c, sqrt(2E - B^2)/2 above."""
    rng = np.random.default_rng(seed)
    worst_zero = 0.0
    for cfg in [_random_subcritical(rng) for _ in range(3)] + [
        MagneticConfig(1.0, 0.5), MagneticConfig(2.0, 2.0)
    ]:
        worst_zero = max(worst_zero, abs(lyapunov_exponent(cfg, 3e4)))
    worst_sup = 0.0
    for _ in range(10):
        B = rng.uniform(0.5, 2.5)
        cfg = MagneticConfig(B, 0.5 * B * B + rng.uniform(0.3, 2.0))
        got = lyapunov_exponent(cfg, 1e4)
        worst_sup = max(worst_sup, abs(got - 0.5 * cfg.gamma))
    passed = worst_zero < 1e-3 and worst_sup < 1e-3
    return _result("lyapunov-trichotomy", passed,
                   {"zero_cases": worst_zero, "supercritical_err": worst_sup},
                   1e-3, "cocycle growth rate of exp(tF), unit time step")


def check_spectrum_ladder() -> dict:
    """select_levels equals the brute-force argmin; the scaled ladder top
    approaches E_c at rate O(1/k)."""
    ok = True
    for B in (0.5, 1.0, 1.5, 2.0):
        ec = 0.5 * B * B
        energies = np.linspace(0.0, 0.98 * ec, 50)
        k_rows, want = [], []
        for k in range(1, 501):
            m, lam, scaled = ladder_arrays(k, B)
            if len(m) == 0:
                continue
            # brute-force oracle: the first argmin over the whole ladder
            err = scaled - energies[:, None]
            k_rows.append(k)
            want.append(np.abs(err, out=err).argmin(axis=1))
        got = select_levels(np.repeat(k_rows, len(energies)), B,
                            np.tile(energies, len(k_rows)))[0]
        ok = ok and np.array_equal(got, np.concatenate(want))
    ks = np.arange(1, 10_001)
    sup = max(float(np.max(ks * np.maximum(*critical_gaps(ks, B)))) for B in (1.0, 1.5))
    return _result("spectrum-ladder", ok and sup < 1.0,
                   {"argmin_matches": ok, "sup_k_gap": sup},
                   {"sup_k_gap": 1.0},
                   "scan k <= 500 on 50-point energy grids; gap bound to k = 10^4")


def check_bolza_integrity(seed: int = 1011) -> dict:
    """Relation residual, Gauss-Bonnet area, and reduction round trips."""
    rng = np.random.default_rng(seed)
    group = bolza_group()
    resid = relation_residual(group)
    area_err = abs(octagon_area(group) - 4.0 * math.pi)
    starts, moved = [], []
    for _ in range(1000):
        r = rng.uniform(0.0, 0.98 * group.inradius)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        starts.append(from_disk(math.tanh(0.5 * r) * complex(math.cos(ang), math.sin(ang))))
        moved.append(word_element(group, rng.integers(0, 8, size=5)).apply(starts[-1]))
    folded, _ = _descend_many(group.generators, moved)
    worst = float(np.max(hyp_dist_vec(folded, np.array(starts))))
    passed = resid < 1e-9 and area_err < 1e-6 and worst < 1e-8
    return _result("bolza-integrity", passed,
                   {"relation_residual": resid, "area_error": area_err,
                    "roundtrip": worst},
                   {"relation_residual": 1e-9, "area_error": 1e-6, "roundtrip": 1e-8},
                   "octagon group; 1000 random 5-letter word round trips")


def check_equidistribution(seed: int = 1012) -> dict:
    """Critical-energy Birkhoff averages reach the area average."""
    group = bolza_group()
    cfg = MagneticConfig(1.0, 0.5)
    target = area_average(group, _bump, 800)
    worst = 0.0
    for p in _equidist_starts(cfg, seed):
        avg = birkhoff_average(group, cfg, _bump, 2000.0, p)
        worst = max(worst, abs(avg / target - 1.0))
    return _result("equidistribution", worst < 0.05,
                   {"max_rel_dev": worst, "area_average": target}, 0.05,
                   "bump observable, T = 2000, 3 random initial conditions")


def check_flow_oracle(j_sign: float = 1.0) -> dict:
    """Closed-form flow against the independent RK4 integrator on [0, 2 T_E]."""
    cfg = _STD
    T = period(cfg)
    p0 = Tangent(1j, 1j * cfg.lam)
    ts = 2.0 * T / 20 * np.arange(21)
    z, _ = flow_exact_many(cfg, p0, ts)
    zn, vn, _ = flow_numeric_rows(cfg, p0, ts, 1e-4, j_sign)
    worst = float(np.max(hyp_dist_vec(zn, z)))
    speed_err = float(np.max(np.abs(np.abs(vn) / zn.imag - cfg.lam)))
    passed = worst < 1e-8 and speed_err < 1e-8
    return _result("flow-oracle", passed,
                   {"max_divergence": worst, "speed_drift": speed_err}, 1e-8,
                   "dt = 1e-4 over [0, 2 T_E] at B = 1, E = 0.25")


CHECKS = (
    check_periodicity,
    check_footpoint_radius,
    check_profile_derivatives,
    check_jacobian_identity,
    check_density_mass,
    check_singularity_asymptotics,
    check_mc_oracle,
    check_preimage_counts,
    check_lyapunov_trichotomy,
    check_spectrum_ladder,
    check_bolza_integrity,
    check_equidistribution,
)
