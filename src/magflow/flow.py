"""Magnetic geodesic flow on the hyperbolic plane at constant field strength.

A charged particle at energy E in a constant magnetic field B follows curves
of constant geodesic curvature.  On the unit tangent bundle, identified with
PSL(2, R), the flow is right multiplication by exp(t F) with the trace-zero
generator

    F = [[ lam/2, -B/2 ],
         [  B/2, -lam/2 ]],        lam = sqrt(2 E).

det F = (B^2 - 2E)/4 splits the dynamics into three regimes at the critical
energy E_c = B^2/2:

  * subcritical  (E < E_c): elliptic, every trajectory closes with period
    T_E = 2 pi / gamma, gamma = sqrt(B^2 - 2E);
  * critical     (E = E_c): parabolic (nilpotent generator), uniquely
    ergodic on compact quotients;
  * supercritical (E > E_c): hyperbolic (Anosov), top Lyapunov exponent
    sqrt(2E - B^2)/2 in the F-flow clock.

exp(t F) has closed forms in all regimes:

    cos(g t/2) I + (2/g) sin(g t/2) F          g = sqrt(B^2-2E) > 0
    I + t F                                    at E_c
    cosh(g t/2) I + (2/g) sinh(g t/2) F        g = sqrt(2E-B^2) > 0

Neither trigonometric nor hyperbolic form subtracts, so each stays accurate
as g -> 0 and the energies next to E_c need no form of their own.  One array
kernel evaluates (C, S) with exp(tF) = C I + S F, a float t as a 0-d array;
the trajectories (frame of the start times exp(tF)), the Jacobi coefficients
and the torus map all read it.  Below E_c it takes cos and sin of g t/2 from
one tangent of g t/4 by _tan_half, the one half-angle form, which numpy
evaluates several times faster than a cosine and a sine.  The entry points
refuse a non-finite time once, and the kernel itself checks nothing, so the
torus sampler, whose times are finite by construction, skips that pass.  An
independent 4th-order integrator for the second-order equation on the
half-plane provides the verification oracle for the closed form; it and the
Lyapunov cocycle refuse more than _MAX_STEPS steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .halfplane import Moebius, Tangent, _act, _framed, frame_of, hyp_norm

# |B^2 - 2E| below this counts as critical
_REGIME_TOL = 1e-12
# largest |det - 1| accepted from the closed-form entries of exp(tF)
_DET_TOL = 1e-6
# most RK4 steps of flow_numeric, and unit-time products of
# lyapunov_exponent, in one call; far above any run of the CLI or verify
_MAX_STEPS = 10_000_000


class Regime(str, Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"


@dataclass(frozen=True)
class MagneticConfig:
    """Field strength B > 0 and particle energy E >= 0."""

    B: float
    E: float

    def __post_init__(self):
        if not (self.B > 0.0 and math.isfinite(self.B)):
            raise ValueError(f"field strength B must be positive and finite, got {self.B}")
        if not (self.E >= 0.0 and math.isfinite(self.E)):
            raise ValueError(f"energy E must be finite and nonnegative, got {self.E}")
        # every closed form squares B and doubles E
        BB = self.B * self.B
        if not (BB >= sys.float_info.min and math.isfinite(BB + 2.0 * self.E)):
            raise ValueError(f"B^2 underflows or B^2 + 2E overflows at B={self.B!r}, E={self.E!r}")

    @property
    def lam(self) -> float:
        """Speed on the energy shell, sqrt(2E)."""
        return math.sqrt(2.0 * self.E)

    @property
    def Ec(self) -> float:
        return 0.5 * self.B * self.B

    @property
    def discriminant(self) -> float:
        """B^2 - 2E; sign decides the regime."""
        return self.B * self.B - 2.0 * self.E

    @property
    def gamma(self) -> float:
        """sqrt(|B^2 - 2E|); frequency (subcritical) or expansion rate scale."""
        return math.sqrt(abs(self.discriminant))

    @property
    def regime(self) -> Regime:
        w = self.discriminant
        if w > _REGIME_TOL:
            return Regime.SUBCRITICAL
        if w < -_REGIME_TOL:
            return Regime.SUPERCRITICAL
        return Regime.CRITICAL


class VariationCoeffs(NamedTuple):
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class NumericFlowResult:
    p: Tangent
    step_warning: bool


def _exp_scalars(cfg: MagneticConfig, t):
    """(C, S) with exp(tF) = C I + S F, for a float or an array t, through
    _exp_kernel.  Raises ValueError for a non-finite t, and where a
    supercritical exp(tF) would leave float range."""
    t_max = _require_finite(cfg, t)
    if cfg.discriminant < 0.0:
        # entries grow like e^|h| (1 + (1 + lam) min(|t|, 1/g)); the
        # determinant and S^2 square them
        g = cfg.gamma
        if 0.5 * g * t_max + math.log1p((1.0 + cfg.lam) * min(t_max, 1.0 / g)) > 354.0:
            raise _range_error(cfg, t, "exp(tF) overflows")
    return _exp_kernel(cfg, np.asarray(t, dtype=float))


def _exp_kernel(cfg: MagneticConfig, t):
    """(C, S) over an array t (0-d for one time) of finite times, unchecked; below
    E_c by _tan_half of tan(g t / 4), finite since no float g t / 4 is pi/2 + k pi."""
    w = cfg.discriminant
    if w == 0.0:
        return 1.0 + 0.0 * t, 1.0 * t  # shaped and typed like the closed forms
    g = cfg.gamma
    if w < 0.0:
        h = 0.5 * g * t
        return np.cosh(h), np.sinh(h) * (2.0 / g)
    C, s = _tan_half(np.tan(0.25 * g * t))
    return C, s * (2.0 / g)


def _tan_half(x):
    """(cos 2a, sin 2a) as (1 - x^2, 2x) / (1 + x^2) from x = tan a: the one half-angle form."""
    x2 = x * x
    w = 1.0 / (1.0 + x2)
    return (1.0 - x2) * w, (x + x) * w


def _require_finite(cfg: MagneticConfig, x, what: str = "exp(tF) needs a finite time",
                    name: str = "t") -> float:
    """max |x| over a float or an array x; raises the _range_error of what
    and name when that is not finite (nan if any x is nan)."""
    x_max = abs(x).max(initial=0.0) if isinstance(x, np.ndarray) else abs(x)
    if not math.isfinite(x_max):
        raise _range_error(cfg, x, what, name)
    return x_max


def _range_error(cfg: MagneticConfig, x, what: str, name: str = "t") -> ValueError:
    """The error for an input that is refused at B, E, naming a float x or
    the largest |x| of an array x."""
    x_bad = float(abs(x).max()) if isinstance(x, np.ndarray) else x
    return ValueError(f"{what} at B={cfg.B!r}, E={cfg.E!r}, {name}={x_bad!r}")


def _exp_entries(cfg: MagneticConfig, C, S):
    """Entries (a, b, c, d) of exp(tF) = C I + S F from its scalars."""
    lam, B = cfg.lam, cfg.B
    return C + 0.5 * S * lam, -0.5 * S * B, 0.5 * S * B, C - 0.5 * S * lam


def _flow_entries(cfg: MagneticConfig, t):
    """Entries (a, b, c, d) of exp(tF) for a float or an array t; refused once
    some a d - b c has cancelled (supercritical, g t / 2 past about 9)."""
    a, b, c, d = _exp_entries(cfg, *_exp_scalars(cfg, t))
    drift = np.abs(a * d - b * c - 1.0).max(initial=0.0)
    if not drift <= _DET_TOL:
        raise _range_error(cfg, t, f"exp(tF) loses its determinant (|det - 1| = {drift:.3g})")
    return a, b, c, d


def flow_matrix(cfg: MagneticConfig, t: float) -> Moebius:
    """exp(t F) in closed form, refused as _flow_entries refuses it."""
    return Moebius(*map(float, _flow_entries(cfg, t)))


def _check_shell(cfg: MagneticConfig, p: Tangent) -> None:
    if not abs(hyp_norm(p) - cfg.lam) <= 1e-8 * max(1.0, cfg.lam):  # a nan norm is off it too
        raise _range_error(cfg, hyp_norm(p), "off energy shell", "|v|/Im z")


def _shell_frame(cfg: MagneticConfig, p: Tangent):
    """Entries of the frame g with g.(i, i) = p / lam of a shell tangent p; None at E = 0."""
    _check_shell(cfg, p)
    if cfg.E == 0.0:
        return None
    return frame_of(Tangent(p.z, p.v * (p.z.imag / abs(p.v))))


def flow_exact_many(cfg: MagneticConfig, p: Tangent, t):
    """Closed-form flow of the shell tangent p over a float or array t: footpoints, velocities."""
    frame = _shell_frame(cfg, p)
    if frame is None:
        _require_finite(cfg, t)
        return np.full(np.shape(t), p.z, dtype=complex), np.full(np.shape(t), p.v, dtype=complex)
    z, w = _act(_framed(frame, _flow_entries(cfg, t)), 1j)
    return z, (1j / (w * w)) * cfg.lam


def flow_exact(cfg: MagneticConfig, p: Tangent, t: float) -> Tangent:
    """Closed-form magnetic flow of the shell tangent p for time t."""
    return Tangent(*map(complex, flow_exact_many(cfg, p, t)))


def flow_numeric(cfg: MagneticConfig, p: Tangent, t: float, dt: float,
                 j_sign: float = 1.0) -> NumericFlowResult:
    """Fixed-step RK4 for the magnetic geodesic equation on the half-plane.

    The second-order system (Christoffel terms of |dz|/y plus the magnetic
    forcing of strength B, orientation matched to the closed-form flow) is

        x'' = 2 x' y' / y + B y'
        y'' = (y'^2 - x'^2) / y - B x'

    Agrees with flow_exact to O(dt^4) on bounded time intervals.  j_sign
    flips the orientation of the magnetic term; the default matches the
    closed-form flow, and the verification suite flips it to demonstrate the
    oracle pair is sensitive to the sign convention.
    """
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t!r}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"step size must be positive and finite, got {dt!r}")
    _check_shell(cfg, p)
    if cfg.E == 0.0:
        return NumericFlowResult(p, False)
    warn = _coarse(cfg, dt)
    if t == 0.0:
        return NumericFlowResult(p, warn)

    total = abs(t)
    steps = total / dt - 1e-12
    if not steps <= _MAX_STEPS:
        raise ValueError(f"about {steps:.3g} RK4 steps needed for t={t!r} at dt={dt!r}; "
                         f"the limit is {_MAX_STEPS}")
    B = j_sign * cfg.B
    sign = 1.0 if t > 0.0 else -1.0
    n = max(1, math.ceil(steps))
    h = sign * (total / n)
    hh = 0.5 * h
    h6 = h / 6.0

    # classical RK4 on (x, y, vx, vy), unrolled; the stage derivatives of x
    # and y are the stage velocities, so each stage keeps (vx, vy, ax, ay)
    x, y, vx, vy = p.z.real, p.z.imag, p.v.real, p.v.imag
    for _ in range(n):
        ax1 = 2.0 * vx * vy / y + B * vy
        ay1 = (vy * vy - vx * vx) / y - B * vx
        y2 = y + hh * vy
        vx2 = vx + hh * ax1
        vy2 = vy + hh * ay1
        ax2 = 2.0 * vx2 * vy2 / y2 + B * vy2
        ay2 = (vy2 * vy2 - vx2 * vx2) / y2 - B * vx2
        y3 = y + hh * vy2
        vx3 = vx + hh * ax2
        vy3 = vy + hh * ay2
        ax3 = 2.0 * vx3 * vy3 / y3 + B * vy3
        ay3 = (vy3 * vy3 - vx3 * vx3) / y3 - B * vx3
        y4 = y + h * vy3
        vx4 = vx + h * ax3
        vy4 = vy + h * ay3
        ax4 = 2.0 * vx4 * vy4 / y4 + B * vy4
        ay4 = (vy4 * vy4 - vx4 * vx4) / y4 - B * vx4
        x = x + h6 * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4)
        y = y + h6 * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4)
        vx = vx + h6 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        vy = vy + h6 * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
    # once, after the loop: a step past the boundary leaves y <= 0 or a nan there
    if not (y > 0.0 and all(map(math.isfinite, (x, y, vx, vy)))):
        raise _range_error(cfg, dt, "RK4 left the upper half-plane", "dt")
    return NumericFlowResult(Tangent(complex(x, y), complex(vx, vy)), warn)


def _coarse(cfg: MagneticConfig, dt: float) -> bool:
    return cfg.E > 0.0 and cfg.regime is Regime.SUBCRITICAL and dt > period(cfg) / 100.0


def flow_numeric_rows(cfg: MagneticConfig, p: Tangent, ts, dt: float, j_sign: float = 1.0):
    """flow_numeric chained from p at ts[0] over the times ts: rows z, v and any step warning.
    Only p is held to cfg's shell; a later row runs at its start's speed, as RK4 reads B alone."""
    rows, at = [p], cfg
    for t0, t1 in zip(ts, ts[1:]):
        rows.append(flow_numeric(at, rows[-1], float(t1 - t0), dt, j_sign).p)
        s = hyp_norm(rows[-1])
        if not math.isfinite(cfg.B * cfg.B + s * s):  # no MagneticConfig holds such a speed
            raise _range_error(cfg, dt, "RK4 speed left float range", "dt")
        at = MagneticConfig(cfg.B, 0.5 * s * s)
    return (np.array([q.z for q in rows], dtype=complex),
            np.array([q.v for q in rows], dtype=complex), len(rows) > 1 and _coarse(cfg, dt))


def period(cfg: MagneticConfig) -> float:
    """Common period T_E = 2 pi / sqrt(B^2 - 2E) of subcritical trajectories."""
    if cfg.regime is not Regime.SUBCRITICAL:
        raise ValueError("no period at or above critical energy")
    return 2.0 * math.pi / cfg.gamma


def lyapunov_exponent(cfg: MagneticConfig, t_max: float) -> float:
    """Top Lyapunov exponent of the cocycle t -> exp(tF).

    Computed by multiply-and-renormalize with unit time step; converges to
    the largest real part of the eigenvalues of F: 0 for E <= E_c and
    sqrt(2E - B^2)/2 above, at rate O(log t / t).
    """
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if int(t_max) > _MAX_STEPS:
        raise ValueError(f"about {t_max:.3g} unit-time products needed for t_max={t_max!r}; "
                         f"the limit is {_MAX_STEPS}")
    a, b, c, d = map(float, _flow_entries(cfg, 1.0))
    ux, uy = 0.6, 0.8
    acc = 0.0
    n = max(1, int(t_max))
    for _ in range(n):
        ux, uy = a * ux + b * uy, c * ux + d * uy
        r = math.hypot(ux, uy)
        acc += math.log(r)
        ux /= r
        uy /= r
    return acc / n


def variation_coeffs(cfg: MagneticConfig, t) -> VariationCoeffs:
    """Closed-form Jacobi-field coefficients along the flow.

    b solves b'' = (2E - B^2) b with b(0) = 0, b'(0) = 1 (sin(gt)/g, t or
    sinh(gt)/g by regime); a = -B int_0^t b and c = 1 + 2E int_0^t b.  With
    exp(tF) = C I + S F, b = C S and int_0^t b = S^2 / 2 in every regime.
    Refused where S^2 leaves float range (at E_c, once |t| passes 1e154).
    """
    C, S = _exp_scalars(cfg, t)
    with np.errstate(over="ignore"):
        if not np.isfinite(S * S).all():
            raise _range_error(cfg, t, "Jacobi coefficients overflow")
    return VariationCoeffs(-0.5 * cfg.B * S * S, C * S, 1.0 + cfg.E * S * S)
