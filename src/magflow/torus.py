"""The invariant torus of magnetic circles through a point and its projected density.

For subcritical energy 0 < E < E_c every magnetic trajectory through the
center i is a closed curve; collecting all launch directions theta and flow
times t gives a two-torus in the unit tangent bundle, parametrized by

    Psi(theta, t) = base point of the flow of the rotated shell tangent
                  = R(theta) exp(tF) . i,

with R(theta) the rotation about i and exp(tF) = C I + S F; psi, the
Jacobian and the launch angle read (C, S) from the flow module's kernel.
Its footpoint projection fills the closed disk of hyperbolic radius

    R_E = arccosh((B^2 + 2E) / (B^2 - 2E))

around the center.  Pushing the flat measure dtheta x dt forward through Psi
yields an absolutely continuous measure whose density against hyperbolic
area is

    alpha(y) = sum over preimages (theta_i, t_i) of 1 / (2E |b(t_i)|),

with b = C S the Jacobi coefficient from the flow module; the Jacobian identity
|det dPsi| = 2E |b(t)| makes this exact.  alpha depends only on d(i, y),
blows up like sqrt(2/E)/d at the center and like c_bd / sqrt(dist to boundary)
just inside the boundary circle, and integrates to 2 pi T_E (raw
normalization; dividing by 2 pi T_E gives a probability density).

Regular interior points have exactly two preimages (ingoing and outgoing
branch of the distance profile phi(t) = d(i, Psi(0, t)), at the closed-form
times t_1 = t_of_distance(d) and T_E - t_1); boundary points one; exterior
points none.

Every formula here is an array kernel: the footpoint distance
d(i, Psi(theta, t)) from the real entries of R(theta/2) exp(tF)
(psi_distance_many, whose theta = 0 slice is the profile phi_profile), the
density, the preimage count and the flag of the distance to the center
(the last three evaluated together by density_cover_many, with one relative
band width for both flags), the preimages' torus coordinates
(preimages_many, of which preimages_cover is the one-point wrapper), and the
fits of the two singular blowups (singular_fits).

psi_many and psi_distance_many share one unchecked kernel for P's entries:
R(theta/2) takes cos and sin of theta/2 from one tangent of theta/4, and
exp(tF) takes (C, S) from the flow module's half-angle kernel, so neither
runs a libm cosine or sine on its arrays.  The two refuse a non-finite
angle or time once, before the kernel; the Monte Carlo sampler, whose
angles and times are finite by construction, calls the kernel directly on
each block.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .flow import (MagneticConfig, Regime, _exp_entries, _exp_kernel, _exp_scalars,
                   _require_finite, period, variation_coeffs)
from .halfplane import hyp_dist_vec, to_disk

# preimage pair closer than this in t is a tangency with the boundary
_MERGE_T = 1e-7
# points this close to the center have an ill-defined angular coordinate
_CENTER_TOL = 1e-9


class TorusPoint(NamedTuple):
    theta: float
    t: float


class Flag(str, Enum):
    NEAR_CENTER = "NearCenter"
    NEAR_BOUNDARY = "NearBoundary"
    OUTSIDE = "Outside"
    REGULAR = "Regular"


def _require_torus(cfg: MagneticConfig) -> None:
    if cfg.E <= 0.0 or cfg.regime is not Regime.SUBCRITICAL:
        raise ValueError("torus undefined at this energy")
    if radius(cfg) == 0.0:
        raise ValueError(f"torus radius rounds to 0 at B={cfg.B!r}, E={cfg.E!r}: "
                         "E is below double precision against B^2")


def psi(cfg: MagneticConfig, theta: float, t: float) -> complex:
    """Footpoint of the trajectory launched from the center at angle theta, time t."""
    return complex(psi_many(cfg, theta, t))


def _torus_inputs(cfg: MagneticConfig, theta, t):
    """theta and t as float arrays, once the torus exists at cfg and every
    angle and time is finite; raises ValueError naming what is not."""
    _require_torus(cfg)
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    _require_finite(cfg, theta, "psi needs a finite angle", "theta")
    _require_finite(cfg, t)
    return theta, t


def _half_turn(theta):
    """(cos(theta/2), sin(theta/2)), the entries of R(theta/2), as
    (1 - x^2, 2x) / (1 + x^2) from one tangent x = tan(theta/4), which costs
    less than a cosine and a sine."""
    x = np.tan(0.25 * theta)
    x2 = x * x
    w = 1.0 / (1.0 + x2)
    return (1.0 - x2) * w, (x + x) * w


def _psi_entries(cfg: MagneticConfig, theta, t):
    """Entries (p11, p12, p21, p22) of P = R(theta/2) exp(tF), whose Moebius
    action takes i to psi(theta, t), over broadcastable float arrays of
    finite angles and times; unchecked."""
    rc, rs = _half_turn(theta)
    m11, m12, m21, m22 = _exp_entries(cfg, *_exp_kernel(cfg, t))
    return rc * m11 + rs * m21, rc * m12 + rs * m22, rc * m21 - rs * m11, rc * m22 - rs * m12


def psi_many(cfg: MagneticConfig, theta, t):
    """psi over broadcastable arrays of angles and times."""
    p11, p12, p21, p22 = _psi_entries(cfg, *_torus_inputs(cfg, theta, t))
    return (p11 * 1j + p12) / (p21 * 1j + p22)


def _psi_distance(cfg: MagneticConfig, theta, t):
    """psi_distance_many over float arrays of finite angles and times;
    unchecked."""
    p11, p12, p21, p22 = _psi_entries(cfg, theta, t)
    a = p11 - p22
    b = p12 + p21
    return 2.0 * np.arcsinh(0.5 * np.sqrt(a * a + b * b))


def psi_distance_many(cfg: MagneticConfig, theta, t):
    """d(i, psi(theta, t)) over broadcastable arrays, from the real entries of
    P: det P = 1 makes cosh d - 1 = ((p11 - p22)^2 + (p12 + p21)^2) / 2, so
    d = 2 asinh(sqrt((p11 - p22)^2 + (p12 + p21)^2) / 2), with no complex
    division and no cancellation at small d."""
    return _psi_distance(cfg, *_torus_inputs(cfg, theta, t))


def radius(cfg: MagneticConfig) -> float:
    """Hyperbolic radius R_E of the projected disk."""
    if cfg.regime is not Regime.SUBCRITICAL:
        raise ValueError("torus undefined at this energy")
    return math.acosh((cfg.B * cfg.B + 2.0 * cfg.E) / (cfg.B * cfg.B - 2.0 * cfg.E))


def phi_profile(cfg: MagneticConfig, t):
    """Distance profile phi(t) = d(i, psi(0, t)); maximal at t = T_E/2;
    vectorized."""
    return psi_distance_many(cfg, 0.0, t)


def _sin2_half(cfg: MagneticConfig, d):
    # sin^2(gamma t_1 / 2) = gamma^2 (cosh d - 1) / (4E) at distance d
    return cfg.gamma * cfg.gamma * (np.cosh(d) - 1.0) / (4.0 * cfg.E)


def t_of_distance(cfg: MagneticConfig, d):
    """First passage time t in [0, T_E/2] with phi(t) = d, in closed form.

    Inverts cosh phi(t) = 1 + (4E/gamma^2) sin^2(gamma t / 2); vectorized.
    Values of d beyond R_E are clipped to the boundary time T_E/2.
    """
    _require_torus(cfg)
    s = np.sqrt(np.clip(_sin2_half(cfg, d), 0.0, 1.0))
    return (2.0 / cfg.gamma) * np.arcsin(s)


def _on_rim(cfg: MagneticConfig, d):
    # the boundary circle is a band of one part in 10^12 on both sides:
    # points constructed to lie on it land within float noise of R_E, on
    # either side; phi is flat at T/2, so that noise alone would split the
    # branch times t_1, T - t_1 by more than the merge window, or leave no
    # preimage past R_E.  On the band there is one preimage, at T/2.
    R = radius(cfg)
    return np.abs(d - R) <= 1e-12 * max(1.0, R)


def alpha_radial(cfg: MagneticConfig, d):
    """Closed-form raw density as a function of distance to the center.

    Summing 1/(2E|b|) over the two preimage branches collapses to
    (gamma/E) / |sin(gamma t_1)| = (gamma/E) / (2 S sqrt(1 - S^2)) with
    S^2 = gamma^2 (cosh d - 1) / (4E).  Returns inf on the singular set
    (d = 0 and the boundary circle, as banded by _on_rim) and 0 outside;
    vectorized.
    """
    _require_torus(cfg)
    d = np.asarray(d, dtype=float)
    s2 = _sin2_half(cfg, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (cfg.gamma / cfg.E) / (2.0 * np.sqrt(s2) * np.sqrt(1.0 - s2))
    out = np.where(s2 > 1.0, 0.0, val)
    out = np.where(np.isnan(out) | _on_rim(cfg, d), np.inf, out)
    return float(out) if out.ndim == 0 else out


def singular_constants(cfg: MagneticConfig) -> tuple:
    """(c_center, c_bd) with alpha ~ c_center / d at the center and
    alpha ~ c_bd / sqrt(R_E - d) just inside the boundary circle."""
    _require_torus(cfg)
    c_center = math.sqrt(2.0 / cfg.E)
    c_bd = (1.0 / cfg.E) * math.sqrt(cfg.lam * (cfg.B ** 2 - 2.0 * cfg.E) / (4.0 * cfg.B))
    return c_center, c_bd


def singular_fits(cfg: MagneticConfig) -> dict:
    """Log-log slopes and constants of alpha at its two singularities, next to
    the expected constants of singular_constants: the center slope over 20
    distances in [1e-5, 1e-2], the boundary slope over 20 gaps R_E - d in
    [1e-6, 1e-3], and each constant at 1e-6; all scaled by R_E / 0.02 on a
    disk smaller than 0.02."""
    R = radius(cfg)
    c_center, c_bd = singular_constants(cfg)
    # every sample distance shrinks with a disk smaller than 0.02, so each
    # lies in (0, R_E); the scale is exactly 1 from R_E = 0.02 on
    s = min(1.0, R / 0.02)
    ds = np.logspace(-5, -2, 20) * s
    center_slope = float(np.polyfit(np.log(ds), np.log(alpha_radial(cfg, ds)), 1)[0])
    taus = np.logspace(-6, -3, 20) * s
    boundary_slope = float(np.polyfit(np.log(taus), np.log(alpha_radial(cfg, R - taus)), 1)[0])
    eps = 1e-6 * s
    return {
        "center_slope": center_slope,
        "center_constant": float(alpha_radial(cfg, eps) * eps),
        "center_constant_expected": c_center,
        "boundary_slope": boundary_slope,
        "boundary_constant": float(alpha_radial(cfg, R - eps) * math.sqrt(eps)),
        "boundary_constant_expected": c_bd,
    }


def jacobian(cfg: MagneticConfig, theta: float, t: float) -> float:
    """|det dPsi| = 2E |b(t)|; independent of theta."""
    _require_torus(cfg)
    return 2.0 * cfg.E * abs(variation_coeffs(cfg, t).b)


def preimage_count(cfg: MagneticConfig, d):
    """Number of torus preimages (0, 1 or 2) of points at distance d from the
    center; vectorized.  The center itself, whose fiber is a full circle,
    counts 0.
    """
    d = np.asarray(d, dtype=float)
    R = radius(cfg)
    T = period(cfg)
    t1 = t_of_distance(cfg, np.minimum(d, R))
    n = np.where(d > R, 0, np.where(0.5 * T - t1 < 0.5 * _MERGE_T, 1, 2))
    n = np.where(_on_rim(cfg, d), 1, n)
    return np.where(d < _CENTER_TOL, 0, n)


def preimages_many(cfg: MagneticConfig, y):
    """Torus coordinates of the preimages of an array of points y:
    (theta, t, n), with n = preimage_count of each point's distance to the
    center.  theta and t have shape y.shape + (2,): t_1 then T_E - t_1 inside
    the disk, T_E/2 alone on the boundary circle, NaN past each count (so the
    center and points outside the disk have none)."""
    _require_torus(cfg)
    y = np.asarray(y, dtype=complex)
    d = hyp_dist_vec(y, 1j)
    n = preimage_count(cfg, d)
    T = period(cfg)
    t1 = np.where(n == 1, 0.5 * T, t_of_distance(cfg, np.minimum(d, radius(cfg))))
    t = np.stack([t1, T - t1], axis=-1)
    # the launch-angle rotation acts on the disk centered at i as
    # w -> e^{i theta} w; psi(0, t) sits at to_disk = i S lam / (2i C - S B),
    # and S lam > 0 on 0 < t < T_E, so its angle is pi/2 - atan2(2C, -S B)
    C, S = _exp_scalars(cfg, t)
    cur = np.angle(to_disk(y))[..., None]
    theta = (cur - (0.5 * np.pi - np.arctan2(2.0 * C, -S * cfg.B))) % (2.0 * np.pi)
    past = np.arange(2) >= n[..., None]
    theta[past] = t[past] = np.nan
    return theta, t, n


def preimages_cover(cfg: MagneticConfig, y: complex) -> list:
    """All torus coordinates mapping to y: two inside the disk, one on the
    boundary circle, none outside."""
    theta, t, n = preimages_many(cfg, y)
    if hyp_dist_vec(y, 1j) < _CENTER_TOL:
        raise ValueError("degenerate center: full circle fiber")
    return [TorusPoint(float(a), float(b)) for a, b in zip(theta[:n], t[:n])]


_FLAG_ORDER = np.array(list(Flag), dtype=object)  # declared in the rule's order


def _flags(near_center, near_boundary, outside):
    """The flag rule over arrays of masks: NearCenter, else NearBoundary,
    else Outside, else Regular; an object array of Flags, or one Flag."""
    return _FLAG_ORDER[np.select([near_center, near_boundary, outside], [0, 1, 2], 3)]


def density_cover_many(cfg: MagneticConfig, d, band: float = 1e-3):
    """Pushforward density on the universal cover at distances d from the
    center: (alpha_raw, n_preimages, flags), arrays shaped like d.

    alpha_raw is the closed-form branch sum alpha_radial(d) of 1/|det dPsi|
    over the preimage_count(d) preimages; dividing by the total mass
    2 pi T_E normalizes it.  The band is relative to R_E and only affects the
    flags: NearCenter within band R_E of the center (closed, so a zero band
    still flags the center itself), else NearBoundary within band R_E of the
    boundary circle, else Outside past R_E, else Regular.
    """
    R = radius(cfg)
    d = np.asarray(d, dtype=float)
    # alpha is 0 past R_E; clipping there keeps cosh(d) finite
    alpha = alpha_radial(cfg, np.minimum(d, R + 1.0))
    n = preimage_count(cfg, d)
    return alpha, n, _flags(d <= band * R, np.abs(d - R) < band * R, d > R)


def density_mass(cfg: MagneticConfig) -> float:
    """Integral of alpha_raw over the projected disk against hyperbolic area.

    Geodesic polar quadrature with the singular bands of width 1e-4 around
    the center and the boundary excised; the excised contributions are added
    back from the integrable leading asymptotics.  Each of the two radial
    pieces takes 128 Gauss-Legendre nodes.  Returns a value close to 2 pi T_E;
    divide by that for the normalized (probability) mass.
    """
    _require_torus(cfg)
    R = radius(cfg)
    delta = 1e-4

    # excised bands, integrated from the leading singular behavior:
    # alpha ~ c_center / r near 0 and alpha ~ c_bd / sqrt(R - r) inside the boundary
    c_center, c_bd = singular_constants(cfg)
    mass = 2.0 * math.pi * c_center * delta
    mass += 2.0 * math.pi * math.sinh(R) * c_bd * 2.0 * math.sqrt(delta)

    nodes, weights = np.polynomial.legendre.leggauss(128)

    # [delta, R/2]: alpha * sinh extends smoothly to r = 0
    mid = 0.5 * R
    a, b = delta, mid
    r = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    w = 0.5 * (b - a) * weights
    mass += float(np.sum(w * alpha_radial(cfg, r) * 2.0 * math.pi * np.sinh(r)))

    # [R/2, R - delta] via u = sqrt(R - r): removes the 1/sqrt singularity
    ua, ub = math.sqrt(delta), math.sqrt(R - mid)
    u = 0.5 * (ub - ua) * nodes + 0.5 * (ua + ub)
    wu = 0.5 * (ub - ua) * weights
    r = R - u * u
    mass += float(np.sum(wu * 2.0 * u * alpha_radial(cfg, r) * 2.0 * math.pi * np.sinh(r)))
    return mass
