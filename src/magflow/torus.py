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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .flow import MagneticConfig, Regime, _exp_scalars, period, variation_coeffs
from .halfplane import hyp_dist, to_disk

__all__ = [
    "TorusPoint",
    "Flag",
    "DensitySample",
    "psi",
    "psi_many",
    "radius",
    "phi_profile",
    "t_of_distance",
    "alpha_radial",
    "singular_constants",
    "jacobian",
    "preimage_count",
    "preimages_cover",
    "density_cover",
    "density_mass",
]

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


@dataclass(frozen=True)
class DensitySample:
    point: complex
    alpha_raw: float
    alpha_normalized: float
    preimages: tuple
    flag: Flag


def _require_torus(cfg: MagneticConfig) -> None:
    if cfg.E <= 0.0 or cfg.regime is not Regime.SUBCRITICAL:
        raise ValueError("torus undefined at this energy")


def psi(cfg: MagneticConfig, theta: float, t: float) -> complex:
    """Footpoint of the trajectory launched from the center at angle theta, time t."""
    return complex(psi_many(cfg, theta, t))


def psi_many(cfg: MagneticConfig, theta, t):
    """psi over broadcastable arrays of angles and times."""
    _require_torus(cfg)
    theta = np.asarray(theta, dtype=float)
    C, S = _exp_scalars(cfg, np.asarray(t, dtype=float))
    lam, B = cfg.lam, cfg.B
    m11 = C + 0.5 * S * lam
    m12 = -0.5 * S * B
    m21 = 0.5 * S * B
    m22 = C - 0.5 * S * lam
    rc = np.cos(0.5 * theta)
    rs = np.sin(0.5 * theta)
    p11 = rc * m11 + rs * m21
    p12 = rc * m12 + rs * m22
    p21 = rc * m21 - rs * m11
    p22 = rc * m22 - rs * m12
    return (p11 * 1j + p12) / (p21 * 1j + p22)


def radius(cfg: MagneticConfig) -> float:
    """Hyperbolic radius R_E of the projected disk."""
    if cfg.regime is not Regime.SUBCRITICAL:
        raise ValueError("torus undefined at this energy")
    return math.acosh((cfg.B * cfg.B + 2.0 * cfg.E) / (cfg.B * cfg.B - 2.0 * cfg.E))


def phi_profile(cfg: MagneticConfig, t: float) -> float:
    """Distance profile phi(t) = d(i, psi(0, t)); maximal at t = T_E/2."""
    return hyp_dist(1j, psi(cfg, 0.0, t))


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


def jacobian(cfg: MagneticConfig, theta: float, t: float) -> float:
    """|det dPsi| = 2E |b(t)|; independent of theta."""
    _require_torus(cfg)
    return 2.0 * cfg.E * abs(variation_coeffs(cfg, t).b)


def _theta_from_point(cfg: MagneticConfig, y: complex, t: float) -> float:
    # launch-angle rotation acts on the disk centered at i as w -> e^{i theta} w;
    # psi(0, t) sits at to_disk = i S lam / (2i C - S B), and S lam > 0 on
    # 0 < t < T_E, so its angle is pi/2 - atan2(2C, -S B)
    C, S = _exp_scalars(cfg, t)
    cur = to_disk(y)
    ref = 0.5 * math.pi - math.atan2(2.0 * C, -S * cfg.B)
    return (math.atan2(cur.imag, cur.real) - ref) % (2.0 * math.pi)


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


def preimages_cover(cfg: MagneticConfig, y: complex) -> list:
    """All torus coordinates mapping to y: two inside the disk, one on the
    boundary circle, none outside."""
    _require_torus(cfg)
    d = hyp_dist(1j, y)
    if d < _CENTER_TOL:
        raise ValueError("degenerate center: full circle fiber")
    n = int(preimage_count(cfg, d))
    if n == 0:
        return []
    T = period(cfg)
    if n == 1:
        ts = (0.5 * T,)
    else:
        t1 = float(t_of_distance(cfg, d))
        ts = (t1, T - t1)
    return [TorusPoint(_theta_from_point(cfg, y, t), t) for t in ts]


_FLAG_ORDER = np.array(list(Flag), dtype=object)  # declared in the rule's order


def _flags(near_center, near_boundary, outside):
    """The flag rule over arrays of masks: NearCenter, else NearBoundary,
    else Outside, else Regular; an object array of Flags, or one Flag."""
    return _FLAG_ORDER[np.select([near_center, near_boundary, outside], [0, 1, 2], 3)]


def _flag_for(d, R: float, center_band: float, boundary_band: float):
    """Cover flags at distances d from the center, bands relative to R; the
    center band is closed, so a zero band still flags the center itself."""
    return _flags(d <= center_band * R, np.abs(d - R) < boundary_band * R, d > R)


def density_cover(
    cfg: MagneticConfig,
    y: complex,
    center_band: float = 1e-3,
    boundary_band: float = 1e-3,
) -> DensitySample:
    """Pushforward density at y on the universal cover.

    alpha_raw is the closed-form branch sum alpha_radial(d(i, y)) of
    1/|det dPsi| over the preimages; alpha_normalized divides by the total
    mass 2 pi T_E.  Band widths are relative to R_E and only affect the flag.
    """
    pre = preimages_cover(cfg, y)
    d = hyp_dist(1j, y)
    total = alpha_radial(cfg, d)
    return DensitySample(
        point=y,
        alpha_raw=total,
        alpha_normalized=total / (2.0 * math.pi * period(cfg)),
        preimages=tuple(pre),
        flag=_flag_for(d, radius(cfg), center_band, boundary_band),
    )


def density_mass(cfg: MagneticConfig, n_radial: int = 256) -> float:
    """Integral of alpha_raw over the projected disk against hyperbolic area.

    Geodesic polar quadrature with the singular bands of width 1e-4 around
    the center and the boundary excised; the excised contributions are added
    back from the integrable leading asymptotics.  Returns a value close to
    2 pi T_E; divide by that for the normalized (probability) mass.
    """
    if n_radial < 64:
        raise ValueError("quadrature resolution too coarse: need at least 64 radial nodes")
    _require_torus(cfg)
    R = radius(cfg)
    delta = 1e-4

    # excised bands, integrated from the leading singular behavior:
    # alpha ~ c_center / r near 0 and alpha ~ c_bd / sqrt(R - r) inside the boundary
    c_center, c_bd = singular_constants(cfg)
    mass = 2.0 * math.pi * c_center * delta
    mass += 2.0 * math.pi * math.sinh(R) * c_bd * 2.0 * math.sqrt(delta)

    half = n_radial // 2
    nodes, weights = np.polynomial.legendre.leggauss(half)

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
