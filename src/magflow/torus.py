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
d(i, Psi(theta, t)), which reads t alone (psi_distance_many, whose theta = 0
slice is the profile phi_profile); the density, preimage count and first
passage time t_1 at a distance d to the center, all from one
S^2 = sin^2(gamma t_1 / 2) = gamma^2 (cosh d - 1) / (4E) with one rim band
(_radial, whose wrappers are alpha_radial, preimage_count and
t_of_distance); two band masks of d next to that density and count (one
rule, _cover_terms, with one relative band width; density_cover_many adds
the flags, and the Bolza surface runs it on each translate's hits); the
preimages' torus coordinates (preimages_many; preimages_cover is its
one-point wrapper); and the fits of both singular blowups (singular_fits).

psi_many forms P = R(theta/2) exp(tF) with halfplane's 2x2 product, _framed,
and P.i with its action on points, _act.  R(theta/2) takes cos and sin of
theta/2 from one tangent of theta/4, and exp(tF) takes (C, S) from the flow
module's kernel, both by flow._tan_half, so neither runs a libm cosine or sine
on its arrays.  The distance needs no entry of P: R(theta/2) fixes i, and
exp(tF) = (m_jk) has determinant 1, m11 - m22 = lam S and m12 + m21 = 0, so
cosh d - 1 = ((m11 - m22)^2 + (m12 + m21)^2) / 2 = (lam S)^2 / 2 and

    d(i, Psi(theta, t)) = 2 asinh(lam |S(t)| / 2),

whose unchecked kernel takes S alone, with no difference of entries that
would cancel at small d.  psi_many and psi_distance_many refuse a
non-finite angle or time once, before their kernels; the Monte Carlo
sampler, whose times are finite by construction, calls the distance kernel
directly, on its ring table's cell edges and on the draws next to a ring
edge.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .flow import (_REGIME_TOL, MagneticConfig, Regime, _exp_entries, _exp_kernel,
                   _exp_scalars, _range_error, _require_finite, _tan_half, period,
                   variation_coeffs)
from .halfplane import _act, _framed, hyp_dist_vec, to_disk

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


def _no_torus(cfg: MagneticConfig) -> ValueError:
    """The error for an energy outside (0, E_c), naming B, E and E_c, or for
    one inside it that counts as critical, naming B^2 - 2E and the tolerance."""
    if 0.0 < cfg.E < cfg.Ec:
        return ValueError(f"torus undefined at this energy: B={cfg.B!r}, E={cfg.E!r} counts "
                          f"as critical, since B^2 - 2E = {cfg.discriminant!r} is within "
                          f"the tolerance {_REGIME_TOL!r}")
    return ValueError(f"torus undefined at this energy: it needs 0 < E < E_c = B^2/2, "
                      f"got B={cfg.B!r}, E={cfg.E!r}, E_c={cfg.Ec!r}")


def _require_torus(cfg: MagneticConfig) -> float:
    """R_E, once the torus exists at cfg; raises ValueError naming why not."""
    if cfg.E <= 0.0 or cfg.regime is not Regime.SUBCRITICAL:
        raise _no_torus(cfg)
    R = radius(cfg)
    if R == 0.0:
        raise ValueError(f"torus radius rounds to 0 at B={cfg.B!r}, E={cfg.E!r}: "
                         "E is below double precision against B^2")
    return R


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


def psi_many(cfg: MagneticConfig, theta, t):
    """psi over broadcastable arrays of angles and times: P.i for the
    entries of P = R(theta/2) exp(tF)."""
    theta, t = _torus_inputs(cfg, theta, t)
    rc, rs = _tan_half(np.tan(0.25 * theta))
    return _act(_framed((rc, rs, -rs, rc), _exp_entries(cfg, *_exp_kernel(cfg, t))), 1j)[0]


def _psi_distance(cfg: MagneticConfig, t):
    """psi_distance_many over a float array of finite times; unchecked."""
    S = _exp_kernel(cfg, t)[1]
    return 2.0 * np.arcsinh((0.5 * cfg.lam) * np.abs(S))


def psi_distance_many(cfg: MagneticConfig, theta, t):
    """d(i, psi(theta, t)) over broadcastable arrays, shaped like their
    broadcast.  R(theta/2) fixes i, so the distance is d(i, exp(tF).i)
    whatever theta; det exp(tF) = 1 makes cosh d - 1 = (lam S)^2 / 2, so
    d = 2 asinh(lam |S| / 2), from S alone."""
    theta, t = _torus_inputs(cfg, theta, t)
    return _psi_distance(cfg, np.broadcast_to(t, np.broadcast_shapes(theta.shape, t.shape)))


def radius(cfg: MagneticConfig) -> float:
    """Hyperbolic radius R_E of the projected disk."""
    if cfg.regime is not Regime.SUBCRITICAL:
        raise _no_torus(cfg)
    return math.acosh((cfg.B * cfg.B + 2.0 * cfg.E) / (cfg.B * cfg.B - 2.0 * cfg.E))


def phi_profile(cfg: MagneticConfig, t):
    """Distance profile phi(t) = d(i, psi(0, t)); maximal at t = T_E/2;
    vectorized."""
    return psi_distance_many(cfg, 0.0, t)


def _radial(cfg: MagneticConfig, d):
    """(alpha, n, t1) at distances d to the center, arrays shaped like d,
    from one S^2 = sin^2(gamma t_1 / 2) = gamma^2 (cosh d - 1) / (4E) read at
    min(d, R_E + 1), which keeps cosh finite and moves no value (past R_E,
    S^2 > 1 either way).  Summing 1/(2E|b|) over the two preimage branches
    collapses alpha to (gamma/E) / |sin(gamma t_1)| = (gamma/E) / (2 S sqrt(1 - S^2)).
    Raises ValueError naming the first negative distance."""
    R = _require_torus(cfg)
    d = np.asarray(d, dtype=float)
    negative = d < 0.0
    if negative.any():
        raise _range_error(cfg, float(d[negative][0]),
                           "a distance to the center must be nonnegative", "d")
    s2 = cfg.gamma * cfg.gamma * (np.cosh(np.minimum(d, R + 1.0)) - 1.0) / (4.0 * cfg.E)
    t1 = (2.0 / cfg.gamma) * np.arcsin(np.sqrt(np.clip(s2, 0.0, 1.0)))
    # the boundary circle is a band of one part in 10^12 on both sides:
    # points constructed to lie on it land within float noise of R_E, on
    # either side; phi is flat at T/2, so that noise alone would split the
    # branch times t_1, T - t_1 by more than the merge window, or leave no
    # preimage past R_E.  On the band there is one preimage, at T/2.
    rim = np.abs(d - R) <= 1e-12 * max(1.0, R)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (cfg.gamma / cfg.E) / (2.0 * np.sqrt(s2) * np.sqrt(1.0 - s2))
    alpha = np.where(s2 > 1.0, 0.0, alpha)
    alpha = np.where(np.isnan(alpha) | rim, np.inf, alpha)
    n = np.where(d > R, 0, np.where(0.5 * period(cfg) - t1 < 0.5 * _MERGE_T, 1, 2))
    return alpha, np.where(d < _CENTER_TOL, 0, np.where(rim, 1, n)), t1


def t_of_distance(cfg: MagneticConfig, d):
    """First passage time t in [0, T_E/2] with phi(t) = d, in closed form.

    Inverts cosh phi(t) = 1 + (4E/gamma^2) sin^2(gamma t / 2); vectorized.
    Values of d beyond R_E are clipped to the boundary time T_E/2.
    """
    return _radial(cfg, d)[2]


def alpha_radial(cfg: MagneticConfig, d):
    """Closed-form raw density as a function of distance to the center:
    (gamma/E) / |sin(gamma t_1)|, inf on the singular set (d = 0 and the
    boundary circle) and 0 outside; a float at a scalar d, else an array."""
    alpha = _radial(cfg, d)[0]
    return float(alpha) if alpha.ndim == 0 else alpha


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
    return _radial(cfg, d)[1]


def preimages_many(cfg: MagneticConfig, y):
    """Torus coordinates of the preimages of an array of points y:
    (theta, t, n), with n = preimage_count of each point's distance to the
    center.  theta and t have shape y.shape + (2,): t_1 then T_E - t_1 inside
    the disk, T_E/2 alone on the boundary circle, NaN past each count (so the
    center and points outside the disk have none).  Raises ValueError naming
    the first point that is not finite or not in the upper half-plane."""
    _require_torus(cfg)
    y = np.asarray(y, dtype=complex)
    bad = ~(np.isfinite(y) & (y.imag > 0.0))
    if bad.any():
        raise _range_error(cfg, complex(y[bad][0]),
                           "preimages need a finite point in the upper half-plane", "y")
    _, n, t1 = _radial(cfg, hyp_dist_vec(y, 1j))
    T = period(cfg)
    t1 = np.where(n == 1, 0.5 * T, t1)
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


def _cover_terms(cfg: MagneticConfig, d, band: float):
    """The band, density and count rule at float distances d: alpha_radial(d),
    preimage_count(d), and d within band R_E of the center and of the boundary."""
    alpha, n, _ = _radial(cfg, d)
    R = radius(cfg)
    return alpha, n, d <= band * R, np.abs(d - R) < band * R


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
    d = np.asarray(d, dtype=float)
    alpha, n, near_center, near_boundary = _cover_terms(cfg, d, band)
    return alpha, n, _flags(near_center, near_boundary, d > radius(cfg))


def density_mass(cfg: MagneticConfig) -> float:
    """Integral of alpha_raw over the projected disk against hyperbolic area.

    Geodesic polar quadrature with the singular bands of width 1e-4 around
    the center and the boundary excised; the excised contributions are added
    back from the integrable leading asymptotics.  Each of the two radial
    pieces takes 128 Gauss-Legendre nodes.  Returns a value close to 2 pi T_E;
    divide by that for the normalized (probability) mass.  Raises ValueError
    on a disk narrower than the two bands, R_E < 2e-4, where the pieces'
    intervals turn over and reach negative distances.
    """
    R = _require_torus(cfg)
    delta = 1e-4
    if R < 2.0 * delta:
        raise ValueError(f"the mass quadrature excises bands of {delta!r} at the center and "
                         f"the boundary, which need R_E >= {2.0 * delta!r}; R_E is {R!r} at "
                         f"B={cfg.B!r}, E={cfg.E!r}")

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
